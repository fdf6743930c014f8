"""Dynamic tracing: exact dynamic dependences for dynamic slicing.

:func:`trace_program` runs the reference interpreter
(:class:`repro.interp.interpreter.Interpreter`) with a :class:`TraceSink`
that records, for every value the program computes, the :class:`Event`
that produced it.  Heap cells map to the store that wrote them, so a
load's producer is exactly that store — no points-to approximation.
Branch decisions and calls form a dynamic control context; dereferenced
pointers become base parents.  The result is the dynamic counterpart of
the paper's dependence taxonomy, enabling dynamic thin slices (§7
relates them to Zhang et al.'s dynamic slicing line of work).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamic.events import Event, EventFactory
from repro.interp.interpreter import Interpreter
from repro.interp.values import ArrayValue, ExecutionResult, ObjectValue
from repro.lang import ast
from repro.lang.symbols import ClassTable


@dataclass
class DynamicTrace:
    """The result of a traced execution."""

    output: list[str]
    output_events: list[Event]
    error: str | None
    error_class: str | None
    error_event: Event | None
    events_created: int
    timed_out: bool = False
    # Producing events of the thrown exception's fields (the message and
    # any payload): slicing a crash should chase the values the
    # exception *carries*, not just the throw itself.
    error_field_events: tuple[Event, ...] = ()

    @property
    def failed(self) -> bool:
        return self.error is not None or self.timed_out


class TraceSink:
    """The event rules of a traced run, fed by the interpreter's hooks.

    Hooks follow an operand-stack discipline: every evaluated expression
    pushes the event that produced its value onto ``stack``, and the
    hook of the enclosing step pops its operands' events in evaluation
    order.  An exception abandons operands mid-expression; the catching
    ``try`` cuts the stack back to its depth on entry.

    Beside the stack the sink keeps the shadow state that gives each
    read its producer: binding events per frame, field events per
    object, length and element events per array, static field events,
    and the control context (the innermost branch or call event, parent
    of every new event).  Heap events live in the values' ``trace``
    slot, so they are freed with the object or array they describe.
    """

    def __init__(self, max_events: int = 2_000_000) -> None:
        self.factory = EventFactory(max_events)
        self._make = self.factory.make
        self.stack: list[Event] = []
        self.output_events: list[Event] = []
        self._control: list[Event] = []
        self._frame: dict[str, Event] = {}
        self._callers: list[dict[str, Event]] = []
        # "pass" events of arguments not yet bound by the callee's frame.
        self._pending: list[Event] = []
        # The "return" event of the invocation now returning, if any.
        self._returned: Event | None = None
        # The exception in flight and its "throw" event.
        self._thrown: tuple[ObjectValue, Event] | None = None
        self._statics: dict[tuple[str, str], Event] = {}

    def _event(
        self,
        node: ast.Node,
        kind: str,
        parents: tuple[Event, ...] = (),
        bases: tuple[Event, ...] = (),
    ) -> Event:
        control = self._control[-1] if self._control else None
        return self._make(node.position.line, kind, parents, bases, control)

    def finish(self, result: ExecutionResult) -> DynamicTrace:
        error_event = None
        field_events: tuple[Event, ...] = ()
        if result.error_class is not None and self._thrown is not None:
            thrown, error_event = self._thrown
            field_events = tuple(thrown.trace.values())
        return DynamicTrace(
            output=result.output,
            output_events=self.output_events,
            error=result.error,
            error_class=result.error_class,
            error_event=error_event,
            events_created=self.factory.count,
            timed_out=result.timed_out,
            error_field_events=field_events,
        )

    # ------------------------------------------------------------------
    # Program start and frames
    # ------------------------------------------------------------------

    def main_args(self, array: ArrayValue) -> None:
        seed = self._make(0, "input")
        array.trace = (seed, [self._make(0, "input") for _ in array.elements])
        self._pending = [seed]

    def static_default(self, decl: ast.FieldDecl, owner: str) -> None:
        self._statics[(owner, decl.name)] = self._event(decl, "default")

    def enter_frame(self, params: list[ast.Param]) -> None:
        """Bind the pending arguments to a new frame's parameters.

        A frame's bindings are one flat map, not a map per block: the
        type checker rejects a local that shadows a live local, and
        :meth:`end_catch` restores what a catch parameter shadowed.
        """
        self._callers.append(self._frame)
        self._frame = dict(zip([p.name for p in params], self._pending))
        self._pending = []

    def exit_frame(self) -> None:
        self._frame = self._callers.pop()

    # ------------------------------------------------------------------
    # Expressions: each pushes the event that produced its value
    # ------------------------------------------------------------------

    def leaf(self, node: ast.Node, kind: str) -> None:
        self.stack.append(self._event(node, kind))

    def derive(self, node: ast.Node, kind: str, arity: int) -> None:
        """Replace the top ``arity`` events by one with them as producers."""
        stack = self.stack
        parents = tuple(stack[-arity:])
        del stack[-arity:]
        stack.append(self._event(node, kind, parents))

    def read_local(self, name: str) -> None:
        self.stack.append(self._frame[name])

    def load_field(
        self, node: ast.Node, obj: ObjectValue, name: str, based: bool = True
    ) -> None:
        bases = (self.stack.pop(),) if based else ()
        stored = obj.trace[name]
        self.stack.append(self._event(node, "load", (stored,), bases))

    def load_static(self, node: ast.Node, owner: str, name: str) -> None:
        stored = self._statics[(owner, name)]
        self.stack.append(self._event(node, "load", (stored,)))

    def load_length(self, node: ast.Node, array: ArrayValue) -> None:
        base = self.stack.pop()
        self.stack.append(self._event(node, "load", (array.trace[0],), (base,)))

    def load_element(self, node: ast.Node, array: ArrayValue, index: int) -> None:
        stack = self.stack
        bases = (stack[-2], stack[-1])
        del stack[-2:]
        stored = array.trace[1][index]
        stack.append(self._event(node, "load", (stored,), bases))

    def output(self, node: ast.Call, arity: int) -> None:
        stack = self.stack
        event = self._event(node, "output", (stack[-arity],))
        del stack[-arity:]
        self.output_events.append(event)
        stack.append(event)

    def increment(self, node: ast.PostfixIncDec) -> None:
        """Push the updated value's event above the old one."""
        one = self._event(node, "const")
        self.stack.append(self._event(node, "binop", (self.stack[-1], one)))

    def new_object(self, node: ast.New, obj: ObjectValue) -> None:
        alloc = self._event(node, "new")
        obj.trace = dict.fromkeys(obj.fields, alloc)
        self.stack.append(alloc)

    def new_array(self, node: ast.NewArray, array: ArrayValue) -> None:
        alloc = self._event(node, "new-array", (self.stack.pop(),))
        array.trace = (alloc, [alloc] * len(array.elements))
        self.stack.append(alloc)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def pass_args(self, site: ast.Node, count: int) -> None:
        """Turn the top ``count`` events into the next callee's arguments."""
        if count:
            stack = self.stack
            self._pending.extend(
                self._event(site, "pass", (arg,)) for arg in stack[-count:]
            )
            del stack[-count:]

    def enter_call(self, site: ast.Call, has_receiver: bool) -> None:
        bases = (self.stack.pop(),) if has_receiver else ()
        self._control.append(self._event(site, "call", (), bases))

    def exit_call(self, site: ast.Call) -> None:
        call = self._control.pop()
        returned, self._returned = self._returned, None
        if returned is not None:
            call = self._event(site, "call-result", (returned,))
        self.stack.append(call)

    # ------------------------------------------------------------------
    # Statements and stores: each pops what its expressions pushed
    # ------------------------------------------------------------------

    def drop(self) -> None:
        self.stack.pop()

    def declare(self, stmt: ast.VarDecl) -> None:
        if stmt.init is not None:
            event = self._event(stmt, "copy", (self.stack.pop(),))
        else:
            event = self._event(stmt, "default")
        self._frame[stmt.name] = event

    def compound(self, stmt: ast.Assign) -> None:
        """``x op= v``: the stack holds v's event, then x's old one."""
        old = self.stack.pop()
        value = self.stack.pop()
        self.stack.append(self._event(stmt, "binop", (old, value)))

    def write_var(
        self, site: ast.Node, target: ast.VarRef, this: ObjectValue | None
    ) -> None:
        kind, owner = target.resolution
        copy = self._event(site, "copy", (self.stack[-1],))
        if kind == "local":
            self.stack.pop()
            self._frame[target.name] = copy
        elif kind == "field":
            assert this is not None
            self.store_field(site, this, target.name, False)
        else:
            self.store_static(site, owner, target.name)

    def store_field(
        self, site: ast.Node, obj: ObjectValue, name: str, based: bool = True
    ) -> None:
        bases = (self.stack.pop(),) if based else ()
        value = self.stack.pop()
        obj.trace[name] = self._event(site, "store", (value,), bases)

    def store_static(self, site: ast.Node, owner: str, name: str) -> None:
        value = self.stack.pop()
        self._statics[(owner, name)] = self._event(site, "static-store", (value,))

    def store_element(self, site: ast.Node, array: ArrayValue, index: int) -> None:
        stack = self.stack
        value, bases = stack[-3], (stack[-2], stack[-1])
        del stack[-3:]
        array.trace[1][index] = self._event(site, "store", (value,), bases)

    def branch(self, stmt: ast.Stmt, arity: int) -> None:
        """Enter a branch decision's control context."""
        parents = (self.stack.pop(),) if arity else ()
        self._control.append(self._event(stmt, "branch", parents))

    def end_branch(self) -> None:
        self._control.pop()

    def ret(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self._returned = None
        else:
            self._returned = self._event(stmt, "return", (self.stack.pop(),))

    def throw(self, stmt: ast.Throw, obj: ObjectValue) -> None:
        self._thrown = (obj, self._event(stmt, "throw", (self.stack.pop(),)))

    def throw_builtin(self, node: ast.Node, obj: ObjectValue) -> None:
        event = self._event(node, "throw")
        obj.trace = {"message": event}
        self._thrown = (obj, event)

    def catch(self, stmt: ast.TryCatch, mark: int) -> Event | None:
        """Bind the caught exception; returns the binding it shadows."""
        assert self._thrown is not None
        del self.stack[mark:]
        self._pending = []  # passed to a call that threw before its frame
        outer = self._frame.get(stmt.exc_name)
        self._frame[stmt.exc_name] = self._event(stmt, "catch", (self._thrown[1],))
        return outer

    def end_catch(self, stmt: ast.TryCatch, outer: Event | None) -> None:
        if outer is None:
            self._frame.pop(stmt.exc_name, None)
        else:
            self._frame[stmt.exc_name] = outer


def trace_program(
    program: ast.Program,
    table: ClassTable,
    args: list[str] | None = None,
    max_steps: int = 2_000_000,
    max_events: int = 2_000_000,
) -> DynamicTrace:
    """Run ``main`` under the reference interpreter, recording events."""
    sink = TraceSink(max_events)
    interpreter = Interpreter(program, table, max_steps=max_steps, sink=sink)
    return sink.finish(interpreter.run_main(args))
