"""Encoding: :class:`~repro.AnalyzedProgram` -> flat artifact bytes.

The encoder flattens the SDG into the struct-of-arrays sections of
:mod:`repro.artifact.format`.  Nodes are renumbered densely, grouped by
owning function (sorted by name, content-sorted within a function), each
node's backward edges are sorted by ``(target, kind)``, and call-site
uids are rank-normalized — so the whole artifact is byte-identical
across processes, hash seeds, restarts, and machines, no matter what
the encoding process compiled beforehand.
That property is what retired the ``_NIL`` hash workarounds the
serialize-once pickle path used to need (see
:mod:`repro.analysis.heapmodel`).
"""

from __future__ import annotations

import array
import hashlib
import json
from typing import TYPE_CHECKING

from repro.ir import instructions as ins
from repro.sdg.nodes import ParamNode, StmtNode, node_position
from repro.artifact.format import (
    KIND_OF_ROLE,
    KIND_STMT,
    NO_SITE,
    ArtifactError,
    pack_sections,
)

if TYPE_CHECKING:  # pragma: no cover - the package imports us at init
    from repro import AnalyzedProgram, AnalyzeOptions


def content_key(source: str, options: "AnalyzeOptions") -> str:
    """Content address of one ``(source, options)`` analysis request.

    Hashes the package version, the options token, and the exact text
    the frontend would consume — the same key the server cache uses
    (:func:`repro.server.cache.cache_key` delegates here), so a worker
    process can stamp the key into the artifact it encodes without
    asking the parent.
    """
    from repro import __version__
    from repro.frontend import source_fingerprint

    hasher = hashlib.sha256()
    hasher.update(f"repro/{__version__}\n".encode("utf-8"))
    hasher.update(options.cache_token().encode("utf-8"))
    hasher.update(b"\n")
    hasher.update(
        source_fingerprint(source, options.include_stdlib).encode("utf-8")
    )
    return hasher.hexdigest()


def _options_meta(options: "AnalyzeOptions") -> dict:
    return {
        "include_stdlib": options.include_stdlib,
        "containers": (
            None if options.containers is None else sorted(options.containers)
        ),
        "heap_mode": options.heap_mode,
        "include_control": options.include_control,
    }


def _context_key(context) -> tuple:
    """Total, content-derived order over object-sensitivity contexts."""
    if context is None:
        return ()
    return (
        context.site,
        context.class_name,
        context.kind,
        context.label,
        _context_key(context.context),
    )


def _node_key(node) -> tuple:
    """Canonical within-function sort key, injective over node identity.

    SDG construction touches hash-ordered sets (points-to frozensets,
    instance sets), so ``add_node`` insertion order varies with the
    interpreter's hash seed; sorting by content is what makes the
    encoding a pure function of the analysis result.
    """
    if isinstance(node, StmtNode):
        return (0, node.instr.uid, "", "", _context_key(node.context))
    position = node_position(node)
    return (
        1,
        node.site,
        node.role,
        node.slot,
        _context_key(node.context),
        position.line,
        position.column,
    )


def _node_order(sdg) -> tuple[list, dict, list[tuple[str, int, int]]]:
    """Dense renumbering grouped by function.

    Functions sort by name; nodes within a function sort by
    :func:`_node_key`.  Both orders are derived from node *content*, so
    the numbering — and with it every canonical section — is identical
    across processes, hash seeds, restarts, and machines.
    """
    by_func: dict[str, list] = {}
    for node, proc in sdg.proc_of.items():
        by_func.setdefault(proc, []).append(node)
    ordered: list = []
    index: dict = {}
    functions: list[tuple[str, int, int]] = []
    for name in sorted(by_func):
        start = len(ordered)
        for node in sorted(by_func[name], key=_node_key):
            index[node] = len(ordered)
            ordered.append(node)
        functions.append((name, start, len(ordered)))
    return ordered, index, functions


def _site_of(node) -> int | None:
    if isinstance(node, ParamNode):
        if node.role in ("actual_in", "actual_out"):
            return node.site
        return None
    if isinstance(node, StmtNode) and isinstance(node.instr, ins.Call):
        return node.instr.uid
    return None


def encode_artifact(analyzed: "AnalyzedProgram", key: str = "") -> bytes:
    """Flatten one analyzed program into artifact bytes.

    ``key`` is stamped into META so a reader can reject a store entry
    filed under the wrong content address.  Run timings are not
    artifact content and are never encoded.
    """
    from repro import __version__

    sdg = analyzed.sdg
    compiled = analyzed.compiled
    nodes, index, functions = _node_order(sdg)
    count = len(nodes)

    kinds = bytearray(count)
    lines = array.array("i", bytes(4 * count))
    sites = array.array("I", bytes(4 * count))
    raw_sites: list[int | None] = [None] * count
    for fid, node in enumerate(nodes):
        if isinstance(node, StmtNode):
            kinds[fid] = KIND_STMT
        else:
            kinds[fid] = KIND_OF_ROLE[node.role]
        lines[fid] = node_position(node).line
        raw_sites[fid] = _site_of(node)
    # Call-site uids come from a process-global counter whose base
    # depends on how many programs this process compiled before (a
    # worker resets it, a thread-mode parent cannot).  The slicers only
    # ever compare sites for equality *within* one artifact, so rank
    # each distinct uid instead of storing it raw — the section becomes
    # a pure function of the analysis result.
    site_rank = {
        site: rank
        for rank, site in enumerate(
            sorted({site for site in raw_sites if site is not None})
        )
    }
    if len(site_rank) >= NO_SITE:
        raise ArtifactError(f"{len(site_rank)} call sites overflow u32")
    for fid, site in enumerate(raw_sites):
        sites[fid] = NO_SITE if site is None else site_rank[site]

    eidx = array.array("I", bytes(4 * (count + 1)))
    etgt = array.array("I")
    eknd = bytearray()
    for fid, node in enumerate(nodes):
        deps = sorted(
            ((index[dep], kind.index) for dep, kind in sdg.dependencies(node))
        )
        for target, kind_index in deps:
            etgt.append(target)
            eknd.append(kind_index)
        eidx[fid + 1] = len(etgt)

    # Seed index: statement nodes bucketed by source line, so
    # ``seeds_at_line`` is a binary search plus one CSR row — no
    # instruction objects, no per-line scans.
    buckets: dict[int, list[int]] = {}
    for fid in range(count):
        if kinds[fid] == KIND_STMT and lines[fid] > 0:
            buckets.setdefault(lines[fid], []).append(fid)
    seed_lines = sorted(buckets)
    lkey = array.array("i", seed_lines)
    lidx = array.array("I", bytes(4 * (len(seed_lines) + 1)))
    lnod = array.array("I")
    for row, line in enumerate(seed_lines):
        lnod.extend(buckets[line])
        lidx[row + 1] = len(lnod)

    strings = [name for name, _start, _end in functions]
    offsets = array.array("I", bytes(4 * (len(strings) + 2)))
    offsets[0] = len(strings)
    blob = bytearray()
    for position, text in enumerate(strings):
        blob.extend(text.encode("utf-8"))
        offsets[position + 2] = len(blob)
    func = array.array("I")
    for ref, (_name, start, end) in enumerate(functions):
        func.extend((ref, start, end))

    full_text = compiled.source.text
    options = analyzed.options
    user_len = len(full_text)
    if options.include_stdlib:
        from repro.frontend import stdlib_source

        user_len = len(full_text) - len(stdlib_source()) - 1
    graph = analyzed.pts.call_graph
    meta = {
        "version": __version__,
        "key": key,
        "filename": compiled.source.name,
        "options": _options_meta(options),
        "user_len": user_len,
        "counts": {
            "classes": len(compiled.table.classes),
            "functions_ir": len(compiled.ir.functions),
            "reachable_functions": graph.function_count(),
            "call_graph_nodes": graph.node_count(),
            "call_graph_edges": graph.edge_count(),
            "sdg_statements": sdg.statement_count(),
            "sdg_edges": sdg.edge_count(),
            "sdg_nodes": count,
        },
    }

    return pack_sections(
        [
            (b"META", json.dumps(meta, sort_keys=True).encode("utf-8")),
            (b"STRS", offsets.tobytes() + bytes(blob)),
            (b"KIND", bytes(kinds)),
            (b"LINE", lines.tobytes()),
            (b"SITE", sites.tobytes()),
            (b"EIDX", eidx.tobytes()),
            (b"ETGT", etgt.tobytes()),
            (b"EKND", bytes(eknd)),
            (b"LKEY", lkey.tobytes()),
            (b"LIDX", lidx.tobytes()),
            (b"LNOD", lnod.tobytes()),
            (b"FUNC", func.tobytes()),
            (b"SRC ", full_text.encode("utf-8")),
        ]
    )
