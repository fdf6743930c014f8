"""Points-to analysis and call graph tests."""

from __future__ import annotations

import pytest

from repro.analysis.heapmodel import (
    ARGS_ARRAY_OBJECT,
    STRING_OBJECT,
    StaticKey,
    make_object,
    AbstractObject,
)
from repro.analysis.pointsto import solve_points_to
from repro.budget import Budget, BudgetExceeded
from repro.frontend import compile_source
from repro.suite.loader import load_source


def analyze(source: str, stdlib: bool = False, containers=None):
    compiled = compile_source(source, include_stdlib=stdlib)
    if containers is None:
        pts = solve_points_to(compiled.ir)
    else:
        pts = solve_points_to(compiled.ir, containers=containers)
    return compiled, pts


def var_named(compiled, function: str, prefix: str) -> str:
    fn = compiled.ir.functions[function]
    names = {v for i in fn.instructions() if (v := i.defined_var())}
    names |= set(fn.params)
    matches = sorted(n for n in names if n.startswith(prefix))
    assert matches, f"no var starting with {prefix} in {function}"
    return matches[0]


def classes_of(objs) -> set[str]:
    return {o.class_name for o in objs}


class TestBasics:
    def test_allocation_flows_to_local(self):
        compiled, pts = analyze(
            "class A {} class Main { static void main(String[] args) {"
            " A a = new A(); print(a); } }"
        )
        objs = pts.points_to("Main.main", var_named(compiled, "Main.main", "a~"))
        assert classes_of(objs) == {"A"}

    def test_copy_propagation(self):
        compiled, pts = analyze(
            "class A {} class Main { static void main(String[] args) {"
            " A a = new A(); A b = a; print(b); } }"
        )
        a = pts.points_to("Main.main", var_named(compiled, "Main.main", "a~"))
        b = pts.points_to("Main.main", var_named(compiled, "Main.main", "b~"))
        assert a == b

    def test_field_flow(self):
        compiled, pts = analyze(
            "class Box { Object v; } class A {}"
            "class Main { static void main(String[] args) {"
            " Box box = new Box(); box.v = new A(); Object o = box.v; print(o); } }"
        )
        o = pts.points_to("Main.main", var_named(compiled, "Main.main", "o~"))
        assert classes_of(o) == {"A"}

    def test_distinct_objects_not_conflated_through_distinct_boxes(self):
        compiled, pts = analyze(
            "class Box { Object v; } class A {} class B {}"
            "class Main { static void main(String[] args) {"
            " Box b1 = new Box(); Box b2 = new Box();"
            " b1.v = new A(); b2.v = new B();"
            " Object x = b1.v; Object y = b2.v; print(x); print(y); } }"
        )
        x = pts.points_to("Main.main", var_named(compiled, "Main.main", "x~"))
        y = pts.points_to("Main.main", var_named(compiled, "Main.main", "y~"))
        assert classes_of(x) == {"A"}
        assert classes_of(y) == {"B"}

    def test_aliased_boxes_conflate(self):
        compiled, pts = analyze(
            "class Box { Object v; } class A {} class B {}"
            "class Main { static void main(String[] args) {"
            " Box b1 = new Box(); Box b2 = b1;"
            " b1.v = new A(); b2.v = new B();"
            " Object x = b1.v; print(x); } }"
        )
        x = pts.points_to("Main.main", var_named(compiled, "Main.main", "x~"))
        assert classes_of(x) == {"A", "B"}

    def test_static_field_flow(self):
        compiled, pts = analyze(
            "class A {} class G { static Object HELD; }"
            "class Main { static void main(String[] args) {"
            " G.HELD = new A(); Object o = G.HELD; print(o); } }"
        )
        o = pts.points_to("Main.main", var_named(compiled, "Main.main", "o~"))
        assert classes_of(o) == {"A"}
        assert classes_of(pts.static_points_to("G", "HELD")) == {"A"}

    def test_array_contents(self):
        compiled, pts = analyze(
            "class A {} class Main { static void main(String[] args) {"
            " Object[] xs = new Object[2]; xs[0] = new A();"
            " Object o = xs[1]; print(o); } }"
        )
        o = pts.points_to("Main.main", var_named(compiled, "Main.main", "o~"))
        assert classes_of(o) == {"A"}  # array smashing: one cell

    def test_string_constants_are_one_object(self):
        compiled, pts = analyze(
            "class Main { static void main(String[] args) {"
            ' String s = "x"; Object o = s; print(o); } }'
        )
        o = pts.points_to("Main.main", var_named(compiled, "Main.main", "o~"))
        assert o == {STRING_OBJECT}

    def test_main_args_seeded(self):
        compiled, pts = analyze(
            "class Main { static void main(String[] args) {"
            " String s = args[0]; print(s); } }"
        )
        args = pts.points_to("Main.main", "args")
        assert ARGS_ARRAY_OBJECT in args
        s = pts.points_to("Main.main", var_named(compiled, "Main.main", "s~"))
        assert STRING_OBJECT in s


class TestCallsAndDispatch:
    SOURCE = """
    class A { A self() { return this; } }
    class B extends A { A self() { return new A(); } }
    class Main {
      static void main(String[] args) {
        A r1 = pick(true).self();
        print(r1);
      }
      static A pick(boolean b) {
        if (b) { return new A(); }
        return new B();
      }
    }
    """

    def test_on_the_fly_call_graph(self):
        compiled, pts = analyze(self.SOURCE)
        reachable = pts.call_graph.reachable_functions()
        assert "A.self" in reachable
        assert "B.self" in reachable

    def test_return_values_merge_targets(self):
        compiled, pts = analyze(self.SOURCE)
        r1 = pts.points_to("Main.main", var_named(compiled, "Main.main", "r1~"))
        # A.self (receiver: the A from pick) returns that receiver, and
        # the B receiver dispatches to the B.self override, which returns
        # a fresh A — so every possible result is an A.
        assert classes_of(r1) == {"A"}

    def test_receiver_precision(self):
        # 'this' in a callee only points to actual receivers.
        source = """
        class A { Object id(Object x) { return x; } }
        class P {} class Q {}
        class Main { static void main(String[] args) {
          A a = new A();
          Object p = a.id(new P());
          print(p);
        } }
        """
        compiled, pts = analyze(source)
        this_pts = pts.points_to("A.id", "this")
        assert classes_of(this_pts) == {"A"}

    def test_cast_filters_types(self):
        source = """
        class A {} class B {}
        class Main { static void main(String[] args) {
          Object o = pick(args.length);
          A a = (A) o;
          print(a);
        }
        static Object pick(int n) { if (n > 0) { return new A(); } return new B(); } }
        """
        compiled, pts = analyze(source)
        a = pts.points_to("Main.main", var_named(compiled, "Main.main", "a~"))
        assert classes_of(a) == {"A"}

    def test_unreachable_function_not_analyzed(self):
        compiled, pts = analyze(
            "class Main { static void main(String[] args) { print(1); }"
            " static void dead() { print(2); } }"
        )
        assert "Main.dead" not in pts.call_graph.reachable_functions()

    def test_clinit_is_root(self):
        compiled, pts = analyze(
            "class A {} class G { static Object X = new A(); }"
            "class Main { static void main(String[] args) { print(1); } }"
        )
        assert "G.<clinit>" in pts.call_graph.reachable_functions()
        assert classes_of(pts.static_points_to("G", "X")) == {"A"}


class TestObjectSensitivity:
    TWO_VECTORS = """
    class A {} class B {}
    class Main {
      static void main(String[] args) {
        Vector v1 = new Vector();
        Vector v2 = new Vector();
        v1.add(new A());
        v2.add(new B());
        Object x = v1.get(0);
        Object y = v2.get(0);
        print(x); print(y);
      }
    }
    """

    def test_containers_keep_contents_separate(self):
        compiled, pts = analyze(self.TWO_VECTORS, stdlib=True)
        x = pts.points_to("Main.main", var_named(compiled, "Main.main", "x~"))
        y = pts.points_to("Main.main", var_named(compiled, "Main.main", "y~"))
        assert classes_of(x) == {"A"}
        assert classes_of(y) == {"B"}

    def test_no_sensitivity_merges_contents(self):
        compiled, pts = analyze(self.TWO_VECTORS, stdlib=True, containers=frozenset())
        x = pts.points_to("Main.main", var_named(compiled, "Main.main", "x~"))
        assert classes_of(x) == {"A", "B"}

    def test_cloning_increases_call_graph_nodes(self):
        compiled, pts_sens = analyze(self.TWO_VECTORS, stdlib=True)
        _, pts_insens = analyze(self.TWO_VECTORS, stdlib=True, containers=frozenset())
        assert pts_sens.call_graph.node_count() > pts_insens.call_graph.node_count()
        # ...but the set of reachable *functions* is the same.
        assert (
            pts_sens.call_graph.reachable_functions()
            == pts_insens.call_graph.reachable_functions()
        )

    def test_hashmap_values_separate_per_map(self):
        source = """
        class A {} class B {}
        class Main {
          static void main(String[] args) {
            HashMap m1 = new HashMap();
            HashMap m2 = new HashMap();
            m1.put("k", new A());
            m2.put("k", new B());
            Object x = m1.get("k");
            print(x);
          }
        }
        """
        compiled, pts = analyze(source, stdlib=True)
        x = pts.points_to("Main.main", var_named(compiled, "Main.main", "x~"))
        assert classes_of(x) == {"A"}

    def test_context_depth_is_bounded(self):
        compiled, pts = analyze(self.TWO_VECTORS, stdlib=True)
        for objs in pts.pts.values():
            for obj in objs:
                assert obj.depth() <= 2


class TestHeapModel:
    def test_abstract_object_truncation(self):
        base = AbstractObject(1, "A", "object")
        ctx1 = make_object(2, "B", "object", base, max_depth=2)
        ctx2 = make_object(3, "C", "object", ctx1, max_depth=2)
        assert ctx2.depth() <= 2

    def test_base_strips_context(self):
        base = AbstractObject(1, "A", "object")
        obj = AbstractObject(2, "B", "object", base)
        assert obj.base().context is None
        assert obj.base().site == 2

    def test_static_key_identity(self):
        assert StaticKey("A", "f") == StaticKey("A", "f")
        assert StaticKey("A", "f") != StaticKey("A", "g")


class TestSolverControls:
    def test_cancelled_budget_stops_the_solve(self):
        compiled = compile_source(load_source("minixml"), include_stdlib=True)
        budget = Budget()
        budget.cancel("client gone")
        with pytest.raises(BudgetExceeded) as err:
            solve_points_to(compiled.ir, budget=budget)
        assert err.value.reason == "client gone"

    def test_step_budget_is_polled_at_the_worklist_head(self):
        compiled = compile_source(load_source("minixml"), include_stdlib=True)
        with pytest.raises(BudgetExceeded) as err:
            solve_points_to(compiled.ir, budget=Budget(max_steps=50))
        assert err.value.reason == "steps"
