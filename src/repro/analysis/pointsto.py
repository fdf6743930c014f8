"""Andersen-style points-to analysis with on-the-fly call graph.

This is the reproduction of the paper's §6.1 configuration: "a variant of
Andersen's analysis with on-the-fly call graph construction, with fully
object-sensitive cloning for objects of key collections classes".

* Field-sensitive subset constraints over allocation-site objects.
* Call graph discovered during solving (receivers resolve targets).
* Methods whose receiver is an instance of a configured *container*
  class are cloned per receiver object, and allocations inside cloned
  instances carry that context — so each Vector's backing array is a
  distinct abstract object.  Passing an empty container set yields the
  context-insensitive baseline used for the NoObjSens ablation columns
  of Tables 2 and 3.

The solver is a plain difference-propagating worklist: constraints are
generated once per method instance as the call graph discovers it, and
only the delta of a points-to set flows along subset edges.  A variant
with interned keys, online cycle collapsing and a topologically ranked
worklist was measured against this one on the suite and on
``tests/scale/`` and never won by a margin worth its code; see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from repro.analysis.heapmodel import (
    ARGS_ARRAY_OBJECT,
    ARRAY_FIELD,
    AbstractObject,
    FieldKey,
    PointerKey,
    RetKey,
    STRING_OBJECT,
    StaticKey,
    VarKey,
    make_object,
)
from repro.analysis.callgraph import CallGraph, MethodInstance
from repro.budget import Budget
from repro.ir import instructions as ins
from repro.ir.cfg import IRFunction, IRProgram
from repro.lang.symbols import STRING_NATIVES
from repro.lang.types import ArrayType, ClassType, STRING, Type

DEFAULT_CONTAINER_CLASSES = frozenset(
    {
        "Vector",
        "VectorIterator",
        "HashMap",
        "MapEntry",
        "LinkedList",
        "ListNode",
        "Stack",
        "StringBuilder",
        "TreeMap",
        "TreeNode",
    }
)

_STRING_RETURNING_NATIVES = frozenset(
    name for (name, _), sig in STRING_NATIVES.items() if sig.return_type == STRING
)


@dataclass
class _CallSite:
    """A call awaiting receiver objects for resolution."""

    instr: ins.Call
    caller: str
    context: AbstractObject | None


@dataclass
class PointsToResult:
    """Solved points-to sets (non-empty ones only) plus the discovered
    call graph."""

    pts: dict[PointerKey, frozenset[AbstractObject]]
    call_graph: CallGraph
    instances: dict[str, set[AbstractObject | None]]
    containers: frozenset[str]

    def points_to(self, function: str, var: str) -> set[AbstractObject]:
        """The merged (over contexts) points-to set of an SSA variable."""
        memo = self.__dict__.setdefault("_points_to_memo", {})
        cached = memo.get((function, var))
        if cached is None:
            merged: set[AbstractObject] = set()
            for context in self.instances.get(function, {None}):
                merged |= self.pts.get(VarKey(function, var, context), frozenset())
            cached = frozenset(merged)
            memo[(function, var)] = cached
        return set(cached)

    def may_alias(self, fn_a: str, var_a: str, fn_b: str, var_b: str) -> bool:
        return bool(self.points_to(fn_a, var_a) & self.points_to(fn_b, var_b))

    def static_points_to(self, class_name: str, field_name: str):
        return set(self.pts.get(StaticKey(class_name, field_name), frozenset()))

    def __getstate__(self):
        # The points_to memo is a per-process cache; don't persist it.
        state = dict(self.__dict__)
        state.pop("_points_to_memo", None)
        return state


class PointsToAnalysis:
    """On-the-fly constraint generation + difference-propagating worklist."""

    def __init__(
        self,
        program: IRProgram,
        containers: frozenset[str] | None = DEFAULT_CONTAINER_CLASSES,
        max_context_depth: int = 2,
        budget: Budget | None = None,
        warm_pts: dict | None = None,
    ) -> None:
        self.program = program
        self.table = program.table
        self.containers = frozenset(containers or ())
        self.max_context_depth = max_context_depth
        self.budget = budget
        self.warm_pts = warm_pts

        self._pts: dict[PointerKey, set[AbstractObject]] = defaultdict(set)
        self._edges: dict[PointerKey, set[tuple[PointerKey, Type | None]]] = (
            defaultdict(set)
        )
        self._pending: dict[PointerKey, set[AbstractObject]] = defaultdict(set)
        self._worklist: deque[PointerKey] = deque()
        self._load_deps: dict[PointerKey, list[tuple[str, PointerKey]]] = defaultdict(
            list
        )
        self._store_deps: dict[PointerKey, list[tuple[str, PointerKey, Type | None]]] = (
            defaultdict(list)
        )
        self._dispatch_deps: dict[PointerKey, list[_CallSite]] = defaultdict(list)
        self._processed: set[tuple[str, AbstractObject | None]] = set()
        self._instances: dict[str, set[AbstractObject | None]] = defaultdict(set)
        self.call_graph = CallGraph()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def solve(self) -> PointsToResult:
        if self.warm_pts:
            # Warm start (incremental re-solve, see repro.incremental):
            # pre-seed with a translated *prior* least fixpoint whose
            # constraint system is a subset of this program's.  The
            # seeds are final for the old system, so nothing is queued
            # as a delta — old edges would propagate no news — while
            # constraint generation below reads the full sets (field
            # load/store expansion and dispatch resolution walk
            # ``self._pts`` directly) and any genuinely new object
            # still cascades through ``_add_objects`` as usual.  With
            # the subset premise the solve converges to exactly the
            # least fixpoint a cold solve reaches.
            for key, objects in self.warm_pts.items():
                self._pts[key] |= objects
        for root in self.program.entry_points():
            self._ensure_instance(root, None)
            function = self.program.functions[root]
            if function.method_name == "main" and function.params:
                args_key = VarKey(root, function.params[-1], None)
                self._add_objects(args_key, {ARGS_ARRAY_OBJECT})
                self._add_objects(
                    FieldKey(ARGS_ARRAY_OBJECT, ARRAY_FIELD), {STRING_OBJECT}
                )
        self._iterate()
        return PointsToResult(
            pts={k: frozenset(v) for k, v in self._pts.items() if v},
            call_graph=self.call_graph,
            instances=dict(self._instances),
            containers=self.containers,
        )

    # ------------------------------------------------------------------
    # Worklist machinery
    # ------------------------------------------------------------------

    def _add_objects(self, key: PointerKey, objs) -> None:
        new = set(objs) - self._pts[key]
        if not new:
            return
        self._pts[key] |= new
        if key not in self._pending or not self._pending[key]:
            self._worklist.append(key)
        self._pending[key] |= new

    def _add_edge(
        self, src: PointerKey, dst: PointerKey, filter_type: Type | None = None
    ) -> None:
        edge = (dst, filter_type)
        if edge in self._edges[src]:
            return
        self._edges[src].add(edge)
        existing = self._pts.get(src)
        if existing:
            self._add_objects(dst, self._filter(existing, filter_type))

    def _filter(self, objs, filter_type: Type | None):
        if filter_type is None:
            return objs
        return {o for o in objs if self._passes(o, filter_type)}

    def _passes(self, obj: AbstractObject, declared: Type) -> bool:
        if isinstance(declared, ClassType):
            if declared.name == "Object":
                return True
            if declared.name == "String":
                return obj.kind == "string"
            return obj.kind == "object" and self.table.is_subclass(
                obj.class_name, declared.name
            )
        if isinstance(declared, ArrayType):
            return obj.kind == "array"
        return False

    def _iterate(self) -> None:
        budget = self.budget
        while self._worklist:
            if budget is not None:
                budget.poll()
            key = self._worklist.popleft()
            delta = self._pending.get(key)
            if not delta:
                continue
            self._pending[key] = set()
            for dst, filter_type in list(self._edges[key]):
                self._add_objects(dst, self._filter(delta, filter_type))
            for field_name, dest in list(self._load_deps.get(key, ())):
                for obj in delta:
                    self._add_edge(FieldKey(obj, field_name), dest)
            for field_name, src, filt in list(self._store_deps.get(key, ())):
                for obj in delta:
                    self._add_edge(src, FieldKey(obj, field_name), filt)
            for site in list(self._dispatch_deps.get(key, ())):
                for obj in delta:
                    self._resolve_call(site, obj)

    # ------------------------------------------------------------------
    # Constraint generation
    # ------------------------------------------------------------------

    def _ensure_instance(self, fn_name: str, context: AbstractObject | None) -> None:
        if (fn_name, context) in self._processed:
            return
        self._processed.add((fn_name, context))
        self._instances[fn_name].add(context)
        self.call_graph.add_node(MethodInstance(fn_name, context))
        function = self.program.functions.get(fn_name)
        if function is None:
            return
        for instr in function.instructions():
            self._gen_constraints(function, context, instr)
        # Intraprocedural throw -> catch-entry flow, per try region.
        for region in function.try_regions:
            for block_id in region.blocks:
                block = function.blocks.get(block_id)
                if block is None:
                    continue
                for instr in block.instructions:
                    if isinstance(instr, ins.Throw):
                        self._add_edge(
                            VarKey(fn_name, instr.value, context),
                            VarKey(fn_name, region.catch_entry.dest, context),
                        )

    def _var(
        self, fn_name: str, var: str, context: AbstractObject | None
    ) -> VarKey:
        return VarKey(fn_name, var, context)

    def _gen_constraints(
        self,
        function: IRFunction,
        context: AbstractObject | None,
        instr: ins.Instruction,
    ) -> None:
        fn = function.name

        if isinstance(instr, ins.Const):
            if isinstance(instr.value, str):
                self._add_objects(self._var(fn, instr.dest, context), {STRING_OBJECT})
        elif isinstance(instr, ins.Move):
            self._add_edge(
                self._var(fn, instr.src, context), self._var(fn, instr.dest, context)
            )
        elif isinstance(instr, ins.Phi):
            dest = self._var(fn, instr.dest, context)
            for operand in instr.operands.values():
                if not operand.endswith(".undef"):
                    self._add_edge(self._var(fn, operand, context), dest)
        elif isinstance(instr, ins.Cast):
            self._add_edge(
                self._var(fn, instr.src, context),
                self._var(fn, instr.dest, context),
                instr.target_type if instr.target_type.is_reference() else None,
            )
        elif isinstance(instr, ins.BinOp):
            if getattr(instr, "result_is_string", False):
                self._add_objects(self._var(fn, instr.dest, context), {STRING_OBJECT})
        elif isinstance(instr, ins.New):
            obj = make_object(
                instr.uid,
                instr.class_name,
                "object",
                context,
                label=f"{fn}:{instr.position.line}",
                max_depth=self.max_context_depth,
            )
            self._add_objects(self._var(fn, instr.dest, context), {obj})
        elif isinstance(instr, ins.NewArray):
            obj = make_object(
                instr.uid,
                "Array",
                "array",
                context,
                label=f"{fn}:{instr.position.line}",
                max_depth=self.max_context_depth,
            )
            self._add_objects(self._var(fn, instr.dest, context), {obj})
        elif isinstance(instr, ins.FieldLoad):
            base = self._var(fn, instr.base, context)
            dest = self._var(fn, instr.dest, context)
            self._load_deps[base].append((instr.field_name, dest))
            for obj in set(self._pts.get(base, ())):
                self._add_edge(FieldKey(obj, instr.field_name), dest)
        elif isinstance(instr, ins.FieldStore):
            base = self._var(fn, instr.base, context)
            src = self._var(fn, instr.value, context)
            self._store_deps[base].append((instr.field_name, src, None))
            for obj in set(self._pts.get(base, ())):
                self._add_edge(src, FieldKey(obj, instr.field_name))
        elif isinstance(instr, ins.ArrayLoad):
            base = self._var(fn, instr.base, context)
            dest = self._var(fn, instr.dest, context)
            self._load_deps[base].append((ARRAY_FIELD, dest))
            for obj in set(self._pts.get(base, ())):
                self._add_edge(FieldKey(obj, ARRAY_FIELD), dest)
        elif isinstance(instr, ins.ArrayStore):
            base = self._var(fn, instr.base, context)
            src = self._var(fn, instr.value, context)
            self._store_deps[base].append((ARRAY_FIELD, src, None))
            for obj in set(self._pts.get(base, ())):
                self._add_edge(src, FieldKey(obj, ARRAY_FIELD))
        elif isinstance(instr, ins.StaticLoad):
            self._add_edge(
                StaticKey(instr.class_name, instr.field_name),
                self._var(fn, instr.dest, context),
            )
        elif isinstance(instr, ins.StaticStore):
            self._add_edge(
                self._var(fn, instr.value, context),
                StaticKey(instr.class_name, instr.field_name),
            )
        elif isinstance(instr, ins.Return):
            if instr.value is not None:
                self._add_edge(
                    self._var(fn, instr.value, context), RetKey(fn, context)
                )
        elif isinstance(instr, ins.Call):
            self._gen_call(function, context, instr)

    def _gen_call(
        self,
        function: IRFunction,
        context: AbstractObject | None,
        instr: ins.Call,
    ) -> None:
        fn = function.name
        if instr.kind == "builtin":
            return
        if instr.kind == "native":
            if instr.dest is not None and instr.method_name in _STRING_RETURNING_NATIVES:
                self._add_objects(self._var(fn, instr.dest, context), {STRING_OBJECT})
            return
        if instr.kind == "static":
            callee = f"{instr.owner}.{instr.method_name}"
            self._link_call(fn, context, instr, callee, None, receiver_obj=None)
            return
        # virtual / special: resolution depends on receiver objects.
        assert instr.receiver is not None
        site = _CallSite(instr, fn, context)
        receiver_key = self._var(fn, instr.receiver, context)
        self._dispatch_deps[receiver_key].append(site)
        for obj in set(self._pts.get(receiver_key, ())):
            self._resolve_call(site, obj)

    def _resolve_call(self, site: _CallSite, obj: AbstractObject) -> None:
        instr = site.instr
        if obj.kind != "object":
            return  # strings/arrays have no analyzable methods
        if instr.kind == "special":
            callee = f"{instr.owner}.{instr.method_name}"
        else:
            found = self.table.lookup_method(obj.class_name, instr.method_name)
            if found is None:
                return
            owner, _ = found
            callee = f"{owner}.{instr.method_name}"
        if callee not in self.program.functions:
            return
        callee_context = obj if self._is_container_object(obj) else None
        self._link_call(
            site.caller, site.context, instr, callee, callee_context, receiver_obj=obj
        )

    def _is_container_object(self, obj: AbstractObject) -> bool:
        if not self.containers or obj.kind != "object":
            return False
        return any(
            ancestor in self.containers
            for ancestor in self.table.ancestors(obj.class_name)
        )

    def _link_call(
        self,
        caller: str,
        caller_context: AbstractObject | None,
        instr: ins.Call,
        callee: str,
        callee_context: AbstractObject | None,
        receiver_obj: AbstractObject | None,
    ) -> None:
        self._ensure_instance(callee, callee_context)
        callee_fn = self.program.functions.get(callee)
        if callee_fn is None:
            return
        self.call_graph.add_edge(
            MethodInstance(caller, caller_context),
            instr.uid,
            MethodInstance(callee, callee_context),
        )
        formals = list(callee_fn.params)
        formal_types = list(callee_fn.param_types)
        if not callee_fn.is_static:
            this_formal = formals.pop(0)
            formal_types.pop(0)
            this_key = self._var(callee, this_formal, callee_context)
            if receiver_obj is not None:
                self._add_objects(this_key, {receiver_obj})
            elif instr.receiver is not None:
                self._add_edge(
                    self._var(caller, instr.receiver, caller_context), this_key
                )
        for actual, formal, formal_type in zip(instr.args, formals, formal_types):
            self._add_edge(
                self._var(caller, actual, caller_context),
                self._var(callee, formal, callee_context),
                formal_type if formal_type.is_reference() else None,
            )
        if instr.dest is not None:
            self._add_edge(
                RetKey(callee, callee_context),
                self._var(caller, instr.dest, caller_context),
            )


def solve_points_to(
    program: IRProgram,
    containers: frozenset[str] | None = DEFAULT_CONTAINER_CLASSES,
    max_context_depth: int = 2,
    budget: Budget | None = None,
    warm_pts: dict | None = None,
) -> PointsToResult:
    """Run the analysis with the given container-cloning configuration.

    ``budget`` (a :class:`repro.budget.Budget`) is polled at the
    worklist head, so a cancelled request abandons the solve within
    milliseconds by raising :class:`~repro.budget.BudgetExceeded`.

    ``warm_pts`` pre-seeds the solver with a translated prior solution
    (incremental warm edits — the caller guarantees the prior
    constraint system is a subset of this one's).
    """
    return PointsToAnalysis(
        program, containers, max_context_depth, budget, warm_pts=warm_pts
    ).solve()
