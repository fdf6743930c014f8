"""Tracer edge cases: statics, postfix on fields, nested containers,
string natives, catch re-entry — the corners of the provenance model."""

from __future__ import annotations

from repro.dynamic import dynamic_thin_slice, trace_and_slice, trace_program
from repro.frontend import compile_source
from repro.lang.source import marker_line


def slice_of(source: str, args=None, output_index: int = 0, stdlib=True):
    return trace_and_slice(
        source, args or [], "edge.mj", include_stdlib=stdlib,
        seed_output_index=output_index,
    )


class TestStaticProvenance:
    def test_static_store_is_producer(self):
        source = """
        class G { static int N; }
        class Main { static void main(String[] args) {
          G.N = args.length + 7;       //@tag:store
          print(G.N);                  //@tag:out
        } }
        """
        run = slice_of(source, stdlib=False)
        assert marker_line(source, "tag", "store") in run.thin.lines

    def test_static_initializer_provenance(self):
        source = """
        class G { static int BASE = 40; }
        class Main { static void main(String[] args) {
          print(G.BASE + 2);           //@tag:out
        } }
        """
        run = slice_of(source, stdlib=False)
        # The initializer line is part of the producer chain.
        assert any(line < marker_line(source, "tag", "out")
                   for line in run.thin.lines)


class TestPostfixProvenance:
    def test_postfix_on_field_produces_both_values(self):
        source = """
        class C { int n; }
        class Main { static void main(String[] args) {
          C c = new C();
          c.n = 5;                     //@tag:init
          int old = c.n++;             //@tag:bump
          print(old);                  //@tag:out
          print(c.n);
        } }
        """
        run = slice_of(source, stdlib=False)
        assert marker_line(source, "tag", "init") in run.thin.lines
        # the new value read by the second print chains through the bump
        run2 = slice_of(source, output_index=1, stdlib=False)
        assert marker_line(source, "tag", "bump") in run2.thin.lines


class TestNestedContainers:
    def test_value_through_three_levels(self):
        source = """
        class Main { static void main(String[] args) {
          HashMap outer = new HashMap();
          TreeMap inner = new TreeMap();
          outer.put("t", inner);
          inner.add("k", "payload");   //@tag:insert
          TreeMap got = (TreeMap) outer.get("t");
          print((String) got.getFirst("k"));   //@tag:out
        } }
        """
        run = slice_of(source)
        assert marker_line(source, "tag", "insert") in run.thin.lines
        # Dynamic thin stays far below dynamic traditional.
        assert len(run.thin.lines) * 2 <= len(run.traditional.lines)


class TestNativeProvenance:
    def test_substring_links_receiver_and_args(self):
        source = """
        class Main { static void main(String[] args) {
          String s = args[0];          //@tag:read
          int cut = s.indexOf("-");    //@tag:cut
          print(s.substring(0, cut));  //@tag:out
        } }
        """
        run = slice_of(source, ["left-right"], stdlib=False)
        assert marker_line(source, "tag", "read") in run.thin.lines
        assert marker_line(source, "tag", "cut") in run.thin.lines

    def test_native_fault_becomes_error_event(self):
        source = """
        class Main { static void main(String[] args) {
          String s = "ab";
          print(s.substring(0, 9));
        } }
        """
        compiled = compile_source(source, include_stdlib=True)
        trace = trace_program(compiled.ast, compiled.table, [])
        assert trace.error_class == "StringIndexOutOfBoundsException"
        assert trace.error_event is not None


class TestCatchReentry:
    def test_second_iteration_after_catch(self):
        source = """
        class E { E() {} }
        class Main { static void main(String[] args) {
          int total = 0;
          for (int i = 0; i < 3; i++) {
            try {
              if (i == 1) { throw new E(); }
              total = total + 10;      //@tag:add
            } catch (E e) {
              total = total + 1;       //@tag:recover
            }
          }
          print(total);                //@tag:out
        } }
        """
        run = slice_of(source, stdlib=False)
        compiled = compile_source(source, include_stdlib=False)
        from repro.interp.interpreter import run_program

        assert run_program(compiled.ast, compiled.table, []).output == ["21"]
        assert marker_line(source, "tag", "add") in run.thin.lines
        assert marker_line(source, "tag", "recover") in run.thin.lines

    def test_catch_parameter_shadowing_a_local(self):
        # A catch parameter may reuse an outer local's name; after the
        # handler the name is the outer local again.
        source = """
        class E { E() {} }
        class Main { static void main(String[] args) {
          int e = 7;                   //@tag:outer
          try { throw new E(); } catch (E e) { print(0); }
          print(e);                    //@tag:out
        } }
        """
        run = slice_of(source, output_index=1, stdlib=False)
        assert run.trace.output == ["0", "7"]
        assert marker_line(source, "tag", "outer") in run.thin.lines

    def test_arguments_of_a_failed_call_are_not_rebound(self):
        # The call on null throws after its arguments were evaluated; the
        # next call's parameter must come from its own argument.
        source = """
        class B { int id(int v) { return v; } }
        class Main {
          static int twice(int v) { return v + v; }
          static void main(String[] args) {
            B b = null;
            try { b.id(40); } catch (NullPointerException x) { }  //@tag:npe
            int k = 3;                 //@tag:k
            print(twice(k));
          }
        }
        """
        run = slice_of(source)
        assert run.trace.output == ["6"]
        assert marker_line(source, "tag", "k") in run.thin.lines
        assert marker_line(source, "tag", "npe") not in run.thin.lines


class TestConstructorProvenance:
    # Each super(...) argument must bind to its own superclass parameter,
    # also when a later argument makes a call or allocates first.
    def _check(self, source: str) -> None:
        from repro.interp.interpreter import run_program

        compiled = compile_source(source, include_stdlib=False)
        plain = run_program(compiled.ast, compiled.table, [])
        first = slice_of(source, output_index=0, stdlib=False)
        assert first.trace.output == plain.output
        assert first.trace.error == plain.error
        second = slice_of(source, output_index=1, stdlib=False)
        k, j = marker_line(source, "tag", "k"), marker_line(source, "tag", "j")
        assert k in first.thin.lines and j not in first.thin.lines
        assert j in second.thin.lines and k not in second.thin.lines

    def test_super_argument_after_a_call(self):
        source = """
        class A { int x; int y; A(int x, int y) { this.x = x; this.y = y; } }
        class B extends A {
          B(int k, int j) { super(k, Main.f(j)); }
        }
        class Main {
          static int f(int v) { return v + 1; }
          static void main(String[] args) {
            int k = 3;                 //@tag:k
            int j = 4;                 //@tag:j
            B b = new B(k, j);
            print(b.x);
            print(b.y);
          }
        }
        """
        self._check(source)

    def test_super_argument_after_an_allocation(self):
        source = """
        class D { int v; D(int v) { this.v = v; } }
        class A { int x; D d; A(int x, D d) { this.x = x; this.d = d; } }
        class B extends A {
          B(int k, int j) { super(k, new D(j)); }
        }
        class Main {
          static void main(String[] args) {
            int k = 3;                 //@tag:k
            int j = 4;                 //@tag:j
            B b = new B(k, j);
            print(b.x);
            print(b.d.v);
          }
        }
        """
        self._check(source)


class TestSeedSelection:
    def test_slice_per_output_event_differs(self):
        source = """
        class Main { static void main(String[] args) {
          int a = 1;                   //@tag:a
          int b = 2;                   //@tag:b
          print(a);
          print(b);
        } }
        """
        first = slice_of(source, output_index=0, stdlib=False)
        second = slice_of(source, output_index=1, stdlib=False)
        assert marker_line(source, "tag", "a") in first.thin.lines
        assert marker_line(source, "tag", "a") not in second.thin.lines
        assert marker_line(source, "tag", "b") in second.thin.lines
