"""Reference interpreter for MJ, operating on the typed AST.

The interpreter implements exact semantics (dynamic dispatch, exceptions
with unwinding, short-circuit evaluation, Java-style truncated division),
independent of the IR, so it doubles as an oracle for the frontend and as
the test-runner that exposes injected bugs in the benchmark suite — the
reproduction of the SIR "run the test suite to find a failure" step.

It is the package's only evaluator of MJ statements and expressions.  An
optional trace sink (:class:`repro.dynamic.tracer.TraceSink`) observes
every evaluation step and records dynamic dependence events; values stay
raw Python values either way, so a run without a sink pays one ``None``
check per step.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from repro.lang import ast
from repro.lang.symbols import ClassTable
from repro.lang.types import ArrayType, BOOLEAN, ClassType, INT, Type
from repro.interp.natives import NativeFault, call_native
from repro.interp.values import (
    ArrayValue,
    BreakSignal,
    ContinueSignal,
    ExecutionResult,
    FuelExhausted,
    MJThrow,
    MJValue,
    ObjectValue,
    ReturnSignal,
    StaticStore,
    stringify,
    values_equal,
)

if TYPE_CHECKING:
    from repro.dynamic.tracer import TraceSink

_MAX_FRAMES = 900


class _Frame:
    """One activation record: ``this`` plus a stack of local scopes."""

    __slots__ = ("this", "scopes")

    def __init__(self, this: ObjectValue | None) -> None:
        self.this = this
        self.scopes: list[dict[str, MJValue]] = [{}]

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, value: MJValue) -> None:
        self.scopes[-1][name] = value

    def get(self, name: str) -> MJValue:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)

    def set(self, name: str, value: MJValue) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise KeyError(name)


class Interpreter:
    """Executes a type-checked MJ program.

    With a ``sink``, each handler reports its step to the sink after the
    step's own checks pass, so the sink sees evaluation in exactly the
    order the program runs it (see :class:`~repro.dynamic.tracer.TraceSink`
    for the protocol).
    """

    def __init__(
        self,
        program: ast.Program,
        table: ClassTable,
        max_steps: int = 5_000_000,
        sink: TraceSink | None = None,
    ) -> None:
        self.program = program
        self.table = table
        self.max_steps = max_steps
        self.sink = sink
        self.statics = StaticStore()
        self.output: list[str] = []
        self.steps = 0
        self._frame_depth = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run_main(self, args: list[str] | None = None) -> ExecutionResult:
        """Run static initializers then ``main(String[])``."""
        self.output = []
        self.steps = 0
        main = self._find_main()
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200_000)
        try:
            self._run_static_initializers()
            array = ArrayValue(list(args or []))
            if self.sink is not None:
                self.sink.main_args(array)
            self._invoke(main[0], main[1], None, [array])
            return ExecutionResult(self.output, steps=self.steps)
        except MJThrow as thrown:
            return ExecutionResult(
                self.output,
                error=self._render_exception(thrown.value),
                error_class=thrown.value.class_name,
                steps=self.steps,
            )
        except FuelExhausted:
            return ExecutionResult(self.output, steps=self.steps, timed_out=True)
        finally:
            sys.setrecursionlimit(old_limit)

    def _find_main(self) -> tuple[str, ast.MethodDecl]:
        for decl in self.program.classes:
            info = self.table.info(decl.name)
            method = info.methods.get("main")
            if method is not None and method.is_static:
                return decl.name, method
        raise RuntimeError("program has no static main method")

    def _run_static_initializers(self) -> None:
        sink = self.sink
        for decl in self.program.classes:
            for field_decl in decl.fields:
                if field_decl.is_static:
                    value: MJValue = self._default(field_decl.declared_type)
                    self.statics.set(decl.name, field_decl.name, value)
                    if sink is not None:
                        sink.static_default(field_decl, decl.name)
        for decl in self.program.classes:
            frame = _Frame(None)
            for field_decl in decl.fields:
                if field_decl.is_static and field_decl.init is not None:
                    value = self._expr(field_decl.init, frame)
                    self.statics.set(decl.name, field_decl.name, value)
                    if sink is not None:
                        sink.store_static(field_decl, decl.name, field_decl.name)

    def _render_exception(self, value: ObjectValue) -> str:
        message = value.fields.get("message")
        if isinstance(message, str):
            return f"{value.class_name}: {message}"
        return value.class_name

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def _default(self, declared: Type) -> MJValue:
        if declared == INT:
            return 0
        if declared == BOOLEAN:
            return False
        return None

    def _allocate(self, class_name: str) -> ObjectValue:
        """A new object with every instance field at its default."""
        fields: dict[str, MJValue] = {}
        for ancestor in self.table.ancestors(class_name):
            info = self.table.info(ancestor)
            for name, decl in info.fields.items():
                if not decl.is_static and name not in fields:
                    fields[name] = self._default(decl.declared_type)
        return ObjectValue(class_name, fields)

    def _run_constructor(
        self, class_name: str, obj: ObjectValue, args: list[MJValue]
    ) -> None:
        if class_name == "Object":
            return
        info = self.table.info(class_name)
        ctor = info.constructor
        superclass = info.superclass or "Object"
        frame = _Frame(obj)
        body: list[ast.Stmt] = []
        explicit_super: ast.SuperCall | None = None
        if ctor is not None:
            for param, arg in zip(ctor.params, args):
                frame.declare(param.name, arg)
            body = list(ctor.body.statements)
            if body and isinstance(body[0], ast.ExprStmt):
                first = body[0].expr
                if isinstance(first, ast.SuperCall):
                    explicit_super = first
                    body = body[1:]
        sink = self.sink
        if sink is not None:
            sink.enter_frame(ctor.params if ctor is not None else [])
        try:
            super_args = []
            if explicit_super is not None:
                super_args = [self._expr(a, frame) for a in explicit_super.args]
                if sink is not None:
                    sink.pass_args(explicit_super, len(super_args))
            self._run_constructor(superclass, obj, super_args)
            decl = info.decl
            if decl is not None:
                init_frame = _Frame(obj)
                for field_decl in decl.fields:
                    if not field_decl.is_static and field_decl.init is not None:
                        obj.fields[field_decl.name] = self._expr(
                            field_decl.init, init_frame
                        )
                        if sink is not None:
                            sink.store_field(field_decl, obj, field_decl.name, False)
            for stmt in body:
                try:
                    self._stmt(stmt, frame)
                except ReturnSignal:
                    break
        finally:
            if sink is not None:
                sink.exit_frame()

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _invoke(
        self,
        owner: str,
        method: ast.MethodDecl,
        this: ObjectValue | None,
        args: list[MJValue],
    ) -> MJValue:
        self._frame_depth += 1
        if self._frame_depth > _MAX_FRAMES:
            self._frame_depth -= 1
            self._throw(method, "StackOverflowError", f"in {owner}.{method.name}")
        frame = _Frame(this)
        for param, arg in zip(method.params, args):
            frame.declare(param.name, arg)
        sink = self.sink
        if sink is not None:
            sink.enter_frame(method.params)
        try:
            self._stmt(method.body, frame)
        except ReturnSignal as signal:
            return signal.value
        finally:
            self._frame_depth -= 1
            if sink is not None:
                sink.exit_frame()
        return None

    def _traced_call(
        self,
        site: ast.Call,
        owner: str,
        method: ast.MethodDecl,
        this: ObjectValue | None,
        args: list[MJValue],
    ) -> MJValue:
        """:meth:`_invoke` inside the call's control context."""
        sink = self.sink
        assert sink is not None
        sink.enter_call(site, this is not None)
        try:
            return self._invoke(owner, method, this, args)
        finally:
            sink.exit_call(site)

    def _throw(self, node: ast.Node, exc_class: str, message: str) -> None:
        """Raise a builtin runtime exception as an MJ object."""
        obj = ObjectValue(exc_class, {"message": message})
        if self.sink is not None:
            self.sink.throw_builtin(node, obj)
        raise MJThrow(obj)

    def _exception_matches(self, value: ObjectValue, exc_type: Type) -> bool:
        if not isinstance(exc_type, ClassType):
            return False
        target = exc_type.name
        if target == "Object":
            return True
        if self.table.has_class(value.class_name):
            return self.table.is_subclass(value.class_name, target)
        return value.class_name == target

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise FuelExhausted()

    def _stmt(self, stmt: ast.Stmt, frame: _Frame) -> None:
        self._tick()
        _HANDLERS[type(stmt)](self, stmt, frame)

    def _stmt_Block(self, stmt: ast.Block, frame: _Frame) -> None:
        frame.push()
        try:
            for child in stmt.statements:
                self._stmt(child, frame)
        finally:
            frame.pop()

    def _stmt_VarDecl(self, stmt: ast.VarDecl, frame: _Frame) -> None:
        if stmt.init is not None:
            value = self._expr(stmt.init, frame)
        else:
            value = self._default(stmt.declared_type)
        frame.declare(stmt.name, value)
        if self.sink is not None:
            self.sink.declare(stmt)

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt, frame: _Frame) -> None:
        self._expr(stmt.expr, frame)
        if self.sink is not None:
            self.sink.drop()

    def _stmt_Assign(self, stmt: ast.Assign, frame: _Frame) -> None:
        value = self._expr(stmt.value, frame)
        if stmt.op is not None:
            old = self._expr(stmt.target, frame)
            value = self._binop_values(stmt.op, old, value, stmt)
            if self.sink is not None:
                self.sink.compound(stmt)
        self._write_lvalue(stmt.target, value, frame, stmt)

    def _stmt_If(self, stmt: ast.If, frame: _Frame) -> None:
        taken = self._expr(stmt.condition, frame)
        sink = self.sink
        if sink is not None:
            sink.branch(stmt, 1)
        try:
            if taken:
                self._stmt(stmt.then_branch, frame)
            elif stmt.else_branch is not None:
                self._stmt(stmt.else_branch, frame)
        finally:
            if sink is not None:
                sink.end_branch()

    def _stmt_While(self, stmt: ast.While, frame: _Frame) -> None:
        sink = self.sink
        while self._expr(stmt.condition, frame):
            self._tick()
            if sink is not None:
                sink.branch(stmt, 1)
            try:
                self._stmt(stmt.body, frame)
            except BreakSignal:
                return
            except ContinueSignal:
                continue
            finally:
                if sink is not None:
                    sink.end_branch()
        if sink is not None:
            sink.drop()  # the final, false condition

    def _stmt_For(self, stmt: ast.For, frame: _Frame) -> None:
        sink = self.sink
        frame.push()
        try:
            if stmt.init is not None:
                self._stmt(stmt.init, frame)
            while stmt.condition is None or self._expr(stmt.condition, frame):
                if sink is not None:
                    sink.branch(stmt, 0 if stmt.condition is None else 1)
                self._tick()
                try:
                    self._stmt(stmt.body, frame)
                except BreakSignal:
                    return
                except ContinueSignal:
                    pass
                finally:
                    if sink is not None:
                        sink.end_branch()
                if stmt.update is not None:
                    self._stmt(stmt.update, frame)
            if sink is not None:
                sink.drop()  # the final, false condition
        finally:
            frame.pop()

    def _stmt_Return(self, stmt: ast.Return, frame: _Frame) -> None:
        value = None
        if stmt.value is not None:
            value = self._expr(stmt.value, frame)
        if self.sink is not None:
            self.sink.ret(stmt)
        raise ReturnSignal(value)

    def _stmt_Break(self, stmt: ast.Break, frame: _Frame) -> None:
        raise BreakSignal()

    def _stmt_Continue(self, stmt: ast.Continue, frame: _Frame) -> None:
        raise ContinueSignal()

    def _stmt_Throw(self, stmt: ast.Throw, frame: _Frame) -> None:
        value = self._expr(stmt.value, frame)
        if value is None:
            self._throw(stmt, "NullPointerException", "throw null")
        assert isinstance(value, ObjectValue)
        if self.sink is not None:
            self.sink.throw(stmt, value)
        raise MJThrow(value)

    def _stmt_TryCatch(self, stmt: ast.TryCatch, frame: _Frame) -> None:
        sink = self.sink
        mark = len(sink.stack) if sink is not None else 0
        try:
            self._stmt(stmt.try_block, frame)
        except MJThrow as thrown:
            if not self._exception_matches(thrown.value, stmt.exc_type):
                raise
            frame.push()
            outer = sink.catch(stmt, mark) if sink is not None else None
            try:
                frame.declare(stmt.exc_name, thrown.value)
                for child in stmt.catch_block.statements:
                    self._stmt(child, frame)
            finally:
                frame.pop()
                if sink is not None:
                    sink.end_catch(stmt, outer)

    # ------------------------------------------------------------------
    # L-values
    # ------------------------------------------------------------------

    def _write_lvalue(
        self, target: ast.Expr, value: MJValue, frame: _Frame, site: ast.Node
    ) -> None:
        sink = self.sink
        if isinstance(target, ast.VarRef):
            kind, owner = target.resolution or ("", "")
            if kind == "local":
                frame.set(target.name, value)
            elif kind == "field":
                assert frame.this is not None
                frame.this.fields[target.name] = value
            elif kind == "static_field":
                self.statics.set(owner, target.name, value)
            else:
                raise RuntimeError(f"bad assignment target {target.name}")
            if sink is not None:
                sink.write_var(site, target, frame.this)
            return
        if isinstance(target, ast.FieldAccess):
            kind, owner = target.resolution or ("", "")
            if kind == "static_field":
                self.statics.set(owner, target.name, value)
                if sink is not None:
                    sink.store_static(site, owner, target.name)
                return
            base = self._expr(target.target, frame)
            if base is None:
                self._throw(
                    site, "NullPointerException", f"write to {target.name} of null"
                )
            assert isinstance(base, ObjectValue)
            base.fields[target.name] = value
            if sink is not None:
                sink.store_field(site, base, target.name)
            return
        if isinstance(target, ast.ArrayAccess):
            base = self._expr(target.target, frame)
            index = self._expr(target.index, frame)
            if base is None:
                self._throw(site, "NullPointerException", "store into null array")
            self._check_index(site, base, index)
            base.elements[index] = value
            if sink is not None:
                sink.store_element(site, base, index)
            return
        raise RuntimeError("bad assignment target")

    def _check_index(self, node: ast.Node, array: MJValue, index: MJValue) -> None:
        assert isinstance(array, ArrayValue) and isinstance(index, int)
        if not 0 <= index < len(array.elements):
            message = f"index {index}, length {len(array.elements)}"
            self._throw(node, "ArrayIndexOutOfBoundsException", message)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _expr(self, expr: ast.Expr, frame: _Frame) -> MJValue:
        return _HANDLERS[type(expr)](self, expr, frame)

    def _expr_IntLit(self, expr: ast.IntLit, frame):
        if self.sink is not None:
            self.sink.leaf(expr, "const")
        return expr.value

    _expr_BoolLit = _expr_StringLit = _expr_IntLit

    def _expr_NullLit(self, expr, frame):
        if self.sink is not None:
            self.sink.leaf(expr, "const")
        return None

    def _expr_This(self, expr, frame: _Frame):
        if self.sink is not None:
            self.sink.leaf(expr, "this")
        return frame.this

    def _expr_VarRef(self, expr: ast.VarRef, frame: _Frame):
        kind, owner = expr.resolution or ("", "")
        sink = self.sink
        if kind == "local":
            if sink is not None:
                sink.read_local(expr.name)
            return frame.get(expr.name)
        if kind == "field":
            assert frame.this is not None
            if sink is not None:
                sink.load_field(expr, frame.this, expr.name, False)
            return frame.this.fields.get(expr.name)
        if kind == "static_field":
            if sink is not None:
                sink.load_static(expr, owner, expr.name)
            return self.statics.get(owner, expr.name)
        raise RuntimeError(f"class name {expr.name} used as value")

    def _expr_FieldAccess(self, expr: ast.FieldAccess, frame: _Frame):
        kind, owner = expr.resolution or ("", "")
        sink = self.sink
        if kind == "static_field":
            if sink is not None:
                sink.load_static(expr, owner, expr.name)
            return self.statics.get(owner, expr.name)
        base = self._expr(expr.target, frame)
        if kind == "array_length":
            if base is None:
                self._throw(expr, "NullPointerException", "length of null array")
            assert isinstance(base, ArrayValue)
            if sink is not None:
                sink.load_length(expr, base)
            return len(base.elements)
        if base is None:
            self._throw(expr, "NullPointerException", f"read {expr.name} of null")
        assert isinstance(base, ObjectValue)
        if sink is not None:
            sink.load_field(expr, base, expr.name)
        return base.fields.get(expr.name)

    def _expr_ArrayAccess(self, expr: ast.ArrayAccess, frame: _Frame):
        base = self._expr(expr.target, frame)
        index = self._expr(expr.index, frame)
        if base is None:
            self._throw(expr, "NullPointerException", "load from null array")
        self._check_index(expr, base, index)
        if self.sink is not None:
            self.sink.load_element(expr, base, index)
        return base.elements[index]

    def _expr_Call(self, expr: ast.Call, frame: _Frame):
        self._tick()
        kind, owner = expr.resolution or ("", "")
        sink = self.sink
        if kind == "builtin":
            args = [self._expr(a, frame) for a in expr.args]
            if expr.name == "print":
                if sink is not None:
                    sink.output(expr, len(args))
                self.output.append(stringify(args[0]))
                return None
            raise RuntimeError(f"unknown builtin {expr.name}")
        if kind == "native":
            assert expr.receiver is not None
            receiver = self._expr(expr.receiver, frame)
            args = [self._expr(a, frame) for a in expr.args]
            if receiver is None:
                self._throw(
                    expr, "NullPointerException", f"call {expr.name}() on null String"
                )
            assert isinstance(receiver, str)
            try:
                result = call_native(expr.name, receiver, args)
            except NativeFault as fault:
                self._throw(expr, fault.exc_class, fault.message)
            if sink is not None:
                sink.derive(expr, "native", 1 + len(args))
            return result
        if kind == "static":
            args = [self._expr(a, frame) for a in expr.args]
            found = self.table.lookup_method(owner, expr.name)
            assert found is not None
            if sink is not None:
                sink.pass_args(expr, len(args))
                return self._traced_call(expr, found[0], found[1], None, args)
            return self._invoke(found[0], found[1], None, args)
        # virtual
        if expr.receiver is not None:
            receiver = self._expr(expr.receiver, frame)
        else:
            receiver = frame.this
            if sink is not None:
                sink.leaf(expr, "this")
        args = [self._expr(a, frame) for a in expr.args]
        if sink is not None:
            sink.pass_args(expr, len(args))
        if receiver is None:
            self._throw(expr, "NullPointerException", f"call {expr.name}() on null")
        assert isinstance(receiver, ObjectValue)
        target_owner, method = self.table.resolve_virtual(
            receiver.class_name, expr.name
        )
        if sink is not None:
            return self._traced_call(expr, target_owner, method, receiver, args)
        return self._invoke(target_owner, method, receiver, args)

    def _expr_New(self, expr: ast.New, frame: _Frame):
        self._tick()
        args = [self._expr(a, frame) for a in expr.args]
        obj = self._allocate(expr.class_name)
        if self.sink is not None:
            self.sink.pass_args(expr, len(args))
            self.sink.new_object(expr, obj)
        self._run_constructor(expr.class_name, obj, args)
        return obj

    def _expr_NewArray(self, expr: ast.NewArray, frame: _Frame):
        length = self._expr(expr.length, frame)
        assert isinstance(length, int)
        if length < 0:
            self._throw(expr, "NegativeArraySizeException", str(length))
        array = ArrayValue([self._default(expr.element_type)] * length)
        if self.sink is not None:
            self.sink.new_array(expr, array)
        return array

    def _expr_Binary(self, expr: ast.Binary, frame: _Frame):
        op = expr.op
        left = self._expr(expr.left, frame)
        arity = 2
        if op == "&&" or op == "||":
            value = bool(left)
            if value == (op == "&&"):
                value = bool(self._expr(expr.right, frame))
            else:
                arity = 1  # short-circuited
        else:
            right = self._expr(expr.right, frame)
            value = self._binop_values(op, left, right, expr)
        if self.sink is not None:
            self.sink.derive(expr, "binop", arity)
        return value

    def _binop_values(self, op: str, left: MJValue, right: MJValue, node: ast.Node):
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return stringify(left) + stringify(right)
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                self._throw(node, "ArithmeticException", "/ by zero")
            quotient = abs(left) // abs(right)
            return quotient if (left < 0) == (right < 0) else -quotient
        if op == "%":
            if right == 0:
                self._throw(node, "ArithmeticException", "% by zero")
            quotient = abs(left) // abs(right)
            quotient = quotient if (left < 0) == (right < 0) else -quotient
            return left - quotient * right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return values_equal(left, right)
        if op == "!=":
            return not values_equal(left, right)
        raise RuntimeError(f"unknown operator {op}")

    def _expr_Unary(self, expr: ast.Unary, frame: _Frame):
        value = self._expr(expr.operand, frame)
        if self.sink is not None:
            self.sink.derive(expr, "unop", 1)
        if expr.op == "!":
            return not value
        return -value

    def _expr_Cast(self, expr: ast.Cast, frame: _Frame):
        value = self._expr(expr.expr, frame)
        failure = self._cast_failure(value, expr.target_type)
        if failure is not None:
            self._throw(expr, "ClassCastException", failure)
        if self.sink is not None:
            self.sink.derive(expr, "cast", 1)
        return value

    def _cast_failure(self, value: MJValue, target: Type) -> str | None:
        """The ClassCastException message for casting ``value`` to
        ``target``, or None when the cast succeeds."""
        if value is None:
            return None
        if isinstance(target, ClassType):
            if target.name == "Object":
                return None
            if target.name == "String":
                if isinstance(value, str):
                    return None
                return f"{type(value).__name__} to String"
            if isinstance(value, ObjectValue) and self.table.has_class(
                value.class_name
            ):
                if self.table.is_subclass(value.class_name, target.name):
                    return None
                return f"{value.class_name} to {target.name}"
            return f"value to {target.name}"
        if isinstance(target, ArrayType) and not isinstance(value, ArrayValue):
            return f"value to {target}"
        return None

    def _expr_InstanceOf(self, expr: ast.InstanceOf, frame: _Frame):
        value = self._expr(expr.expr, frame)
        if self.sink is not None:
            self.sink.derive(expr, "instanceof", 1)
        if value is None:
            return False
        if expr.class_name == "Object":
            return True
        if expr.class_name == "String":
            return isinstance(value, str)
        if isinstance(value, ObjectValue) and self.table.has_class(value.class_name):
            return self.table.is_subclass(value.class_name, expr.class_name)
        return False

    def _expr_PostfixIncDec(self, expr: ast.PostfixIncDec, frame: _Frame):
        old = self._expr(expr.target, frame)
        assert isinstance(old, int)
        if self.sink is not None:
            self.sink.increment(expr)
        delta = 1 if expr.op == "+" else -1
        self._write_lvalue(expr.target, old + delta, frame, expr)
        return old


# The handler of each AST node class, so dispatch is one dict lookup.
_HANDLERS = {
    cls: getattr(Interpreter, prefix + cls.__name__)
    for prefix, base in (("_stmt_", ast.Stmt), ("_expr_", ast.Expr))
    for cls in base.__subclasses__()
    if hasattr(Interpreter, prefix + cls.__name__)
}


def run_program(
    program: ast.Program,
    table: ClassTable,
    args: list[str] | None = None,
    max_steps: int = 5_000_000,
) -> ExecutionResult:
    """Convenience: run ``main`` of a checked program."""
    return Interpreter(program, table, max_steps=max_steps).run_main(args)
