"""System dependence graph construction.

The SDG is built over the call graph's *method instances* — (function,
object-sensitivity context) pairs — so container methods cloned per
receiver object contribute distinct statement nodes, exactly like the
cloning-based WALA SDG the paper uses (Table 1's "call graph nodes
exceed methods").  With the NoObjSens configuration every function has a
single instance and the graph collapses to the classic one-node-per-
statement form.

Two heap modes, mirroring §5 of the paper:

* ``heap_mode='direct'`` — the context-insensitive representation
  (§5.2): heap-based value flow becomes *direct* store→load edges keyed
  by per-instance points-to aliasing.  No heap parameters; this is what
  makes the context-insensitive slicers scale.
* ``heap_mode='params'`` — the traditional HRB representation (§5.3):
  procedures get formal-in/out nodes for every heap partition they
  transitively read/write (from mod-ref), call sites get matching
  actual-in/out nodes, and heap flow is routed through them.  Node
  counts explode on heap-heavy programs — reproducing the scalability
  wall the paper reports.

Edges are stored *backward*: ``deps[n]`` lists the nodes ``n`` depends
on, which is the direction every slicer walks.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.callgraph import MethodInstance
from repro.analysis.heapmodel import ARRAY_FIELD, VarKey
from repro.budget import Budget
from repro.analysis.modref import ModRefResult, field_loc, static_loc
from repro.analysis.pointsto import PointsToResult
from repro.frontend import CompiledProgram
from repro.ir import instructions as ins
from repro.ir.cfg import IRFunction
from repro.lang.source import Position
from repro.sdg.controldeps import instruction_control_deps
from repro.sdg.nodes import EdgeKind, ParamNode, SDGNode, StmtNode, is_statement

_EMPTY_PTS: dict[str, frozenset] = {}


class SDG:
    """The dependence graph over statement and parameter nodes."""

    def __init__(self, heap_mode: str, include_control: bool) -> None:
        self.heap_mode = heap_mode
        self.include_control = include_control
        self.deps: dict[SDGNode, list[tuple[SDGNode, EdgeKind]]] = defaultdict(list)
        self.nodes: set[SDGNode] = set()
        # Nodes are interned: add_node returns the canonical instance and
        # stamps it with a small-int ``_nid``, so edge dedup hashes int
        # triples instead of recursive dataclasses.
        self._intern: dict[SDGNode, SDGNode] = {}
        self._edge_seen: set[tuple[int, int, int]] = set()
        # Procedure membership (function name), for pts queries.
        self.proc_of: dict[SDGNode, str] = {}
        # Instruction -> its statement nodes (one per instance).
        self.stmt_index: dict[ins.Instruction, list[StmtNode]] = defaultdict(list)
        self.formal_in: dict[tuple, ParamNode] = {}
        self.formal_out: dict[tuple, ParamNode] = {}
        # Per-instance entry nodes (HRB interprocedural control).
        self.entries: dict[tuple, ParamNode] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: SDGNode, proc: str) -> SDGNode:
        """Register ``node`` and return its canonical instance."""
        canonical = self._intern.get(node)
        if canonical is not None:
            return canonical
        object.__setattr__(node, "_nid", len(self._intern))
        self._intern[node] = node
        self.nodes.add(node)
        self.proc_of[node] = proc
        if isinstance(node, StmtNode):
            self.stmt_index[node.instr].append(node)
        return node

    def add_edge(self, frm: SDGNode, to: SDGNode, kind: EdgeKind) -> None:
        """Record that ``frm`` depends on ``to`` (both must be canonical
        instances previously returned by :meth:`add_node`)."""
        key = (frm._nid, to._nid, kind.index)
        if key in self._edge_seen:
            return
        self._edge_seen.add(key)
        self.deps[frm].append((to, kind))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def dependencies(self, node: SDGNode) -> list[tuple[SDGNode, EdgeKind]]:
        return self.deps.get(node, [])

    def nodes_of_instruction(self, instr: ins.Instruction) -> list[StmtNode]:
        return self.stmt_index.get(instr, [])

    def node_count(self) -> int:
        return len(self.nodes)

    def statement_count(self) -> int:
        return sum(1 for n in self.nodes if is_statement(n))

    def param_node_count(self) -> int:
        return sum(1 for n in self.nodes if isinstance(n, ParamNode))

    def edge_count(self) -> int:
        return len(self._edge_seen)

    def statement_nodes(self):
        for node in self.nodes:
            if isinstance(node, StmtNode):
                yield node

    # ------------------------------------------------------------------
    # Graph protocol, shared with repro.artifact.view.ArtifactView: the
    # tabulation slicer speaks only these methods (plus dependencies()),
    # so it runs unchanged over rich nodes or flat artifact ids.
    # ------------------------------------------------------------------

    def graph_nodes(self):
        return self.nodes

    def node_role(self, node: SDGNode) -> str | None:
        """Parameter-node role, or None for plain statements."""
        return node.role if isinstance(node, ParamNode) else None

    def site_of(self, node: SDGNode) -> int | None:
        """The call-site uid a node belongs to, for actual-in/out
        matching in tabulation; None for nodes off any call site."""
        if isinstance(node, ParamNode):
            if node.role in ("actual_in", "actual_out"):
                return node.site
            return None
        if isinstance(node, StmtNode) and isinstance(node.instr, ins.Call):
            return node.instr.uid
        return None

    def formal_out_nodes(self):
        return list(self.formal_out.values())


class SDGBudgetExceeded(Exception):
    """Raised when 'params' construction exceeds its node budget —
    the analogue of the paper's >10M-node SDGs exhausting memory."""

    def __init__(self, nodes_so_far: int) -> None:
        self.nodes_so_far = nodes_so_far
        super().__init__(f"SDG exceeded node budget at {nodes_so_far} nodes")


def build_sdg(
    compiled: CompiledProgram,
    pts: PointsToResult,
    heap_mode: str = "direct",
    include_control: bool = True,
    modref: ModRefResult | None = None,
    node_budget: int | None = None,
    index_as_producer: bool = False,
    budget: Budget | None = None,
) -> SDG:
    """Assemble the SDG for every call-graph-reachable method instance.

    ``index_as_producer`` is an ablation switch: the paper treats array
    indices like base pointers (excluded from thin slices, recoverable
    via expansion — §4.1); setting this flag classifies index uses as
    producer flow instead, so benches can measure the cost of the
    alternative design.

    ``budget`` (a :class:`repro.budget.Budget`) is polled at the
    per-instance loop heads, so a cancelled request abandons
    construction with :class:`~repro.budget.BudgetExceeded`.
    """
    if heap_mode not in ("direct", "params"):
        raise ValueError(f"unknown heap_mode {heap_mode!r}")
    if heap_mode == "params" and modref is None:
        raise ValueError("heap_mode='params' requires a mod-ref result")
    builder = _SDGBuilder(
        compiled, pts, heap_mode, include_control, modref, node_budget,
        index_as_producer, budget,
    )
    return builder.build()


class _SDGBuilder:
    def __init__(
        self,
        compiled: CompiledProgram,
        pts: PointsToResult,
        heap_mode: str,
        include_control: bool,
        modref: ModRefResult | None,
        node_budget: int | None,
        index_as_producer: bool = False,
        budget: Budget | None = None,
    ) -> None:
        self.compiled = compiled
        self.program = compiled.ir
        self.pts = pts
        self.modref = modref
        self.node_budget = node_budget
        self.index_as_producer = index_as_producer
        self.budget = budget
        self.graph = SDG(heap_mode, include_control)
        # Every reachable method instance with an IR body.
        self.instances: list[tuple[str, object]] = sorted(
            (
                (name, ctx)
                for name, ctxs in pts.instances.items()
                if name in self.program.functions
                for ctx in ctxs
            ),
            key=lambda pair: (pair[0], str(pair[1])),
        )
        # def site of each SSA variable per instance (params -> formal-in)
        self._defs: dict[tuple[str, object], dict[str, SDGNode]] = {}
        # One StmtNode per (instruction, context): later passes reuse the
        # node built by _add_instance_nodes, so its cached hash and set
        # identity pay off across every add_edge call.
        self._stmt_cache: dict[tuple[int, object], StmtNode] = {}
        # pts VarKey entries regrouped per method instance (lazy).
        self._pts_by_instance: dict[tuple[str, object], dict[str, frozenset]] | None = None
        # Per-function dependence pairs, shared by every instance of the
        # function: local def-use chains and control deps are properties
        # of the SSA body, so computing them once and replaying against
        # each context's nodes avoids re-walking multi-instance methods.
        self._flow_pairs_cache: dict[str, list[tuple]] = {}
        self._ctrl_pairs_cache: dict[str, list[tuple]] = {}

    # ------------------------------------------------------------------

    def build(self) -> SDG:
        for name, ctx in self.instances:
            self._poll()
            self._add_instance_nodes(name, ctx)
        for name, ctx in self.instances:
            self._poll()
            self._local_flow(name, ctx)
            if self.graph.include_control:
                self._control(name, ctx)
            self._catch_flow(name, ctx)
        for name, ctx in self.instances:
            self._poll()
            self._calls(name, ctx)
        if self.graph.heap_mode == "direct":
            self._heap_direct()
        else:
            self._heap_params()
        self._array_lengths()
        return self.graph

    def _poll(self) -> None:
        if self.budget is not None:
            self.budget.poll()

    def _check_budget(self) -> None:
        if (
            self.node_budget is not None
            and self.graph.node_count() > self.node_budget
        ):
            raise SDGBudgetExceeded(self.graph.node_count())

    def _function(self, name: str) -> IRFunction:
        return self.program.functions[name]

    def _entry_position(self, function: IRFunction) -> Position:
        entry = function.blocks[function.entry_block]
        if entry.instructions:
            return entry.instructions[0].position
        return Position(0, 0, "<synthetic>")

    def _instance_pts(self, name: str, ctx: object) -> dict[str, frozenset]:
        """Points-to sets of one method instance, keyed by variable."""
        if self._pts_by_instance is None:
            grouped: dict[tuple[str, object], dict[str, frozenset]] = defaultdict(dict)
            for key, objs in self.pts.pts.items():
                if type(key) is VarKey:
                    grouped[(key.function, key.context)][key.var] = objs
            self._pts_by_instance = dict(grouped)
        return self._pts_by_instance.get((name, ctx), _EMPTY_PTS)

    def _pts_of(self, name: str, var: str, ctx: object):
        return self._instance_pts(name, ctx).get(var, frozenset())

    def _add_instance_nodes(self, name: str, ctx: object) -> None:
        function = self._function(name)
        defs: dict[str, SDGNode] = {}
        position = self._entry_position(function)
        if self.graph.include_control:
            entry = self.graph.add_node(
                ParamNode("entry", name, 0, "<entry>", position, ctx), name
            )
            self.graph.entries[(name, ctx)] = entry
        for param in function.params:
            node = self.graph.add_node(
                ParamNode("formal_in", name, 0, param, position, ctx), name
            )
            self.graph.formal_in[(name, ctx, param)] = node
            defs[param] = node
        for instr in function.instructions():
            stmt = self.graph.add_node(StmtNode(instr, ctx), name)
            self._stmt_cache[(instr.uid, ctx)] = stmt
            var = instr.defined_var()
            if var is not None:
                defs[var] = stmt
        self._defs[(name, ctx)] = defs
        self._check_budget()

    def _def_of(self, name: str, ctx: object, var: str) -> SDGNode | None:
        if var.endswith(".undef"):
            return None
        return self._defs[(name, ctx)].get(var)

    def _stmt(self, name: str, ctx: object, instr: ins.Instruction) -> StmtNode:
        node = self._stmt_cache.get((instr.uid, ctx))
        if node is None:
            node = StmtNode(instr, ctx)
            self._stmt_cache[(instr.uid, ctx)] = node
        return node

    def _flow_pairs(self, name: str) -> list[tuple]:
        """(use instr, def instr | param name, kind) triples for ``name``."""
        pairs = self._flow_pairs_cache.get(name)
        if pairs is not None:
            return pairs
        function = self._function(name)
        defs: dict[str, object] = {param: param for param in function.params}
        for instr in function.instructions():
            var = instr.defined_var()
            if var is not None:
                defs[var] = instr
        pairs = []
        for instr in function.instructions():
            direct = list(instr.direct_uses())
            base = list(instr.base_uses())
            if self.index_as_producer and isinstance(
                instr, (ins.ArrayLoad, ins.ArrayStore)
            ):
                base = [instr.base]
                direct.append(instr.index)
            for var in direct:
                definition = defs.get(var)
                if definition is not None:
                    pairs.append((instr, definition, EdgeKind.FLOW))
            for var in base:
                definition = defs.get(var)
                if definition is not None:
                    pairs.append((instr, definition, EdgeKind.BASE))
        self._flow_pairs_cache[name] = pairs
        return pairs

    def _local_flow(self, name: str, ctx: object) -> None:
        stmt_cache = self._stmt_cache
        formal_in = self.graph.formal_in
        add_edge = self.graph.add_edge
        for instr, definition, kind in self._flow_pairs(name):
            if definition.__class__ is str:
                def_node = formal_in.get((name, ctx, definition))
                if def_node is None:
                    continue
            else:
                def_node = stmt_cache[(definition.uid, ctx)]
            add_edge(stmt_cache[(instr.uid, ctx)], def_node, kind)

    def _ctrl_pairs(self, name: str) -> list[tuple]:
        """(instr, controlling instrs | None) pairs; None = entry region."""
        pairs = self._ctrl_pairs_cache.get(name)
        if pairs is not None:
            return pairs
        function = self._function(name)
        controlled = instruction_control_deps(function)
        pairs = []
        for instr in function.instructions():
            controllers = controlled.get(instr)
            if controllers:
                pairs.append(
                    (instr, tuple(c for c in controllers if c is not instr))
                )
            else:
                pairs.append((instr, None))
        self._ctrl_pairs_cache[name] = pairs
        return pairs

    def _control(self, name: str, ctx: object) -> None:
        entry = self.graph.entries.get((name, ctx))
        stmt_cache = self._stmt_cache
        add_edge = self.graph.add_edge
        for instr, controllers in self._ctrl_pairs(name):
            if controllers is None:
                # Top-level statements are control dependent on the
                # procedure entry (Ferrante-style region node); the
                # entry links back to the call sites below, giving the
                # HRB interprocedural control dependence.
                if entry is not None:
                    add_edge(stmt_cache[(instr.uid, ctx)], entry, EdgeKind.CONTROL)
            else:
                node = stmt_cache[(instr.uid, ctx)]
                for controller in controllers:
                    add_edge(node, stmt_cache[(controller.uid, ctx)], EdgeKind.CONTROL)

    def _catch_flow(self, name: str, ctx: object) -> None:
        function = self._function(name)
        for region in function.try_regions:
            catch_node = self._stmt(name, ctx, region.catch_entry)
            if catch_node not in self.graph.nodes:
                continue
            for block_id in region.blocks:
                block = function.blocks.get(block_id)
                if block is None:
                    continue
                for instr in block.instructions:
                    if isinstance(instr, ins.Throw):
                        self.graph.add_edge(
                            catch_node, self._stmt(name, ctx, instr), EdgeKind.CATCH
                        )

    # ------------------------------------------------------------------
    # Calls: value parameters and returns, per callee instance
    # ------------------------------------------------------------------

    def _calls(self, name: str, ctx: object) -> None:
        function = self._function(name)
        caller_instance = MethodInstance(name, ctx)
        for call in function.calls():
            if call.kind in ("native", "builtin"):
                continue  # receiver/args are direct uses of the call node
            callees = self.pts.call_graph.edges.get((caller_instance, call.uid))
            if not callees:
                continue
            for callee in sorted(callees, key=str):
                if callee.function not in self.program.functions:
                    continue
                self._bind_call(name, ctx, call, callee)

    def _bind_call(
        self, caller: str, ctx: object, call: ins.Call, callee: MethodInstance
    ) -> None:
        callee_fn = self._function(callee.function)
        formals = list(callee_fn.params)
        actuals: list[tuple[str, str]] = []  # (formal, actual var)
        if not callee_fn.is_static:
            this_formal = formals.pop(0)
            if call.receiver is not None:
                actuals.append((this_formal, call.receiver))
        for formal, actual in zip(formals, call.args):
            actuals.append((formal, actual))
        for formal, actual in actuals:
            actual_in = self.graph.add_node(
                ParamNode(
                    "actual_in", caller, call.uid, formal, call.position, ctx
                ),
                caller,
            )
            definition = self._def_of(caller, ctx, actual)
            if definition is not None:
                self.graph.add_edge(actual_in, definition, EdgeKind.FLOW)
            formal_in = self.graph.formal_in.get(
                (callee.function, callee.context, formal)
            )
            if formal_in is not None:
                self.graph.add_edge(formal_in, actual_in, EdgeKind.PARAM_IN)
        if call.dest is not None:
            formal_out = self._formal_out(callee, "<ret>")
            self.graph.add_edge(
                self._stmt(caller, ctx, call), formal_out, EdgeKind.PARAM_OUT
            )
        entry = self.graph.entries.get((callee.function, callee.context))
        if entry is not None:
            # Call edge: the callee's entry depends on the call site —
            # an ascend-class edge (PARAM_IN) so both the CI traditional
            # slicer and tabulation's phase structure treat it like the
            # other interprocedural bindings.  Thin slicers never reach
            # entry nodes (they skip CONTROL), so thin slices are
            # unaffected.
            self.graph.add_edge(
                entry, self._stmt(caller, ctx, call), EdgeKind.PARAM_IN
            )
        self._check_budget()

    def _formal_out(self, callee: MethodInstance, slot: str) -> ParamNode:
        key = (callee.function, callee.context, slot)
        node = self.graph.formal_out.get(key)
        if node is None:
            function = self._function(callee.function)
            node = self.graph.add_node(
                ParamNode(
                    "formal_out",
                    callee.function,
                    0,
                    slot,
                    self._entry_position(function),
                    callee.context,
                ),
                callee.function,
            )
            self.graph.formal_out[key] = node
            if slot == "<ret>":
                for ret in function.returns():
                    if ret.value is not None:
                        self.graph.add_edge(
                            node,
                            self._stmt(callee.function, callee.context, ret),
                            EdgeKind.FLOW,
                        )
        return node

    # ------------------------------------------------------------------
    # Heap flow, direct mode (§5.2) — per-instance points-to aliasing
    # ------------------------------------------------------------------

    def _store_sites(self) -> dict[tuple[str, object], list[SDGNode]]:
        """Index of writers per (field, abstract object) or static key."""
        writers: dict[tuple[str, object], list[SDGNode]] = defaultdict(list)
        for name, ctx in self.instances:
            self._poll()
            pmap = self._instance_pts(name, ctx)
            for instr in self._function(name).instructions():
                node = self._stmt(name, ctx, instr)
                if isinstance(instr, ins.FieldStore):
                    for obj in pmap.get(instr.base, ()):
                        writers[(instr.field_name, obj)].append(node)
                elif isinstance(instr, ins.ArrayStore):
                    for obj in pmap.get(instr.base, ()):
                        writers[(ARRAY_FIELD, obj)].append(node)
                elif isinstance(instr, ins.NewArray):
                    for obj in pmap.get(instr.dest, ()):
                        writers[(ARRAY_FIELD, obj)].append(node)
                elif isinstance(instr, ins.StaticStore):
                    writers[
                        ("<static>", (instr.class_name, instr.field_name))
                    ].append(node)
        return writers

    def _heap_direct(self) -> None:
        writers = self._store_sites()
        for name, ctx in self.instances:
            self._poll()
            pmap = self._instance_pts(name, ctx)
            for instr in self._function(name).instructions():
                if not isinstance(
                    instr, (ins.FieldLoad, ins.ArrayLoad, ins.StaticLoad)
                ):
                    continue
                node = self._stmt(name, ctx, instr)
                if isinstance(instr, ins.FieldLoad):
                    for obj in pmap.get(instr.base, ()):
                        for store in writers.get((instr.field_name, obj), ()):
                            self.graph.add_edge(node, store, EdgeKind.HEAP)
                elif isinstance(instr, ins.ArrayLoad):
                    for obj in pmap.get(instr.base, ()):
                        for store in writers.get((ARRAY_FIELD, obj), ()):
                            self.graph.add_edge(node, store, EdgeKind.HEAP)
                elif isinstance(instr, ins.StaticLoad):
                    key = ("<static>", (instr.class_name, instr.field_name))
                    for store in writers.get(key, ()):
                        self.graph.add_edge(node, store, EdgeKind.HEAP)

    # ------------------------------------------------------------------
    # Heap flow, heap-parameter mode (§5.3)
    # ------------------------------------------------------------------

    def _access_locs(self, name: str, ctx: object, instr: ins.Instruction):
        if isinstance(instr, (ins.FieldStore, ins.FieldLoad)):
            return [
                field_loc(o, instr.field_name)
                for o in self._pts_of(name, instr.base, ctx)
            ]
        if isinstance(instr, (ins.ArrayStore, ins.ArrayLoad)):
            return [
                field_loc(o, ARRAY_FIELD)
                for o in self._pts_of(name, instr.base, ctx)
            ]
        if isinstance(instr, ins.NewArray):
            return [
                field_loc(o, ARRAY_FIELD)
                for o in self._pts_of(name, instr.dest, ctx)
            ]
        if isinstance(instr, (ins.StaticStore, ins.StaticLoad)):
            return [static_loc(instr.class_name, instr.field_name)]
        return []

    def _heap_params(self) -> None:
        assert self.modref is not None
        modref = self.modref
        # Formal-in/out heap nodes per instance (mod-ref is per function;
        # instances of one function share its partition sets).
        for name, ctx in self.instances:
            self._poll()
            function = self._function(name)
            position = self._entry_position(function)
            for loc in sorted(modref.ref.get(name, ()), key=str):
                node = self.graph.add_node(
                    ParamNode("formal_in", name, 0, f"heap:{loc}", position, ctx),
                    name,
                )
                self.graph.formal_in[(name, ctx, f"heap:{loc}")] = node
            for loc in sorted(modref.mod.get(name, ()), key=str):
                node = self.graph.add_node(
                    ParamNode("formal_out", name, 0, f"heap:{loc}", position, ctx),
                    name,
                )
                self.graph.formal_out[(name, ctx, f"heap:{loc}")] = node
            self._check_budget()

        for name, ctx in self.instances:
            self._poll()
            self._heap_params_for_instance(name, ctx)

    def _heap_params_for_instance(self, name: str, ctx: object) -> None:
        assert self.modref is not None
        modref = self.modref
        function = self._function(name)
        caller_instance = MethodInstance(name, ctx)

        # Writers/readers per heap loc inside this instance.
        writers: dict[object, list[SDGNode]] = defaultdict(list)
        readers: dict[object, list[SDGNode]] = defaultdict(list)
        for instr in function.instructions():
            locs = self._access_locs(name, ctx, instr)
            node = self._stmt(name, ctx, instr)
            if isinstance(
                instr, (ins.FieldStore, ins.ArrayStore, ins.StaticStore, ins.NewArray)
            ):
                for loc in locs:
                    writers[loc].append(node)
            elif isinstance(instr, (ins.FieldLoad, ins.ArrayLoad, ins.StaticLoad)):
                for loc in locs:
                    readers[loc].append(node)

        # Call-site actual-in/out heap nodes, per callee instance.
        for call in function.calls():
            if call.kind in ("native", "builtin"):
                continue
            callees = self.pts.call_graph.edges.get((caller_instance, call.uid))
            if not callees:
                continue
            for callee in sorted(callees, key=str):
                if callee.function not in self.program.functions:
                    continue
                for loc in sorted(modref.ref.get(callee.function, ()), key=str):
                    actual_in = self.graph.add_node(
                        ParamNode(
                            "actual_in", name, call.uid, f"heap:{loc}",
                            call.position, ctx,
                        ),
                        name,
                    )
                    readers[loc].append(actual_in)
                    formal_in = self.graph.formal_in.get(
                        (callee.function, callee.context, f"heap:{loc}")
                    )
                    if formal_in is not None:
                        self.graph.add_edge(
                            formal_in, actual_in, EdgeKind.PARAM_IN
                        )
                for loc in sorted(modref.mod.get(callee.function, ()), key=str):
                    actual_out = self.graph.add_node(
                        ParamNode(
                            "actual_out", name, call.uid, f"heap:{loc}",
                            call.position, ctx,
                        ),
                        name,
                    )
                    writers[loc].append(actual_out)
                    formal_out = self.graph.formal_out.get(
                        (callee.function, callee.context, f"heap:{loc}")
                    )
                    if formal_out is not None:
                        self.graph.add_edge(
                            actual_out, formal_out, EdgeKind.PARAM_OUT
                        )
            self._check_budget()

        # Flow-insensitive intraprocedural wiring: every reader of a loc
        # depends on every writer of it, plus the incoming formal-in; the
        # formal-out depends on every writer.
        all_locs = set(writers) | set(readers)
        for loc in all_locs:
            formal_in = self.graph.formal_in.get((name, ctx, f"heap:{loc}"))
            formal_out = self.graph.formal_out.get((name, ctx, f"heap:{loc}"))
            for reader in readers.get(loc, ()):
                for writer in writers.get(loc, ()):
                    if reader != writer:
                        self.graph.add_edge(reader, writer, EdgeKind.HEAP)
                if formal_in is not None:
                    self.graph.add_edge(reader, formal_in, EdgeKind.FLOW)
            if formal_out is not None:
                for writer in writers.get(loc, ()):
                    self.graph.add_edge(formal_out, writer, EdgeKind.FLOW)

    # ------------------------------------------------------------------
    # Array lengths: reads of .length reach the allocation's size in both
    # modes (allocation-site based; a documented approximation).
    # ------------------------------------------------------------------

    def _array_lengths(self) -> None:
        allocs: dict[object, list[SDGNode]] = defaultdict(list)
        for name, ctx in self.instances:
            self._poll()
            for instr in self._function(name).instructions():
                if isinstance(instr, ins.NewArray):
                    node = self._stmt(name, ctx, instr)
                    for obj in self._pts_of(name, instr.dest, ctx):
                        allocs[obj].append(node)
        for name, ctx in self.instances:
            for instr in self._function(name).instructions():
                if isinstance(instr, ins.ArrayLength):
                    node = self._stmt(name, ctx, instr)
                    for obj in self._pts_of(name, instr.base, ctx):
                        for alloc in allocs.get(obj, ()):
                            self.graph.add_edge(node, alloc, EdgeKind.HEAP)
