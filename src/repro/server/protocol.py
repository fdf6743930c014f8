"""Wire format: one JSON object per line, in both directions.

Requests::

    {"id": 1, "method": "slice", "params": {"program": "figure2", "line": 26}}

Responses::

    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": {"type": "NoStatements", "message": "..."}}

``id`` is echoed verbatim so clients can pipeline requests; a response
to an unparseable line carries ``"id": null``.  The payload builders at
the bottom are shared by the daemon and by ``--format json`` in the
CLI, so batch and server output stay byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

from repro import AnalyzedProgram
from repro.artifact import ArtifactView
from repro.slicing.engine import SliceResult

PROTOCOL_VERSION = 1


class ProtocolError(Exception):
    """A line that is not a well-formed request object."""


def encode_message(message: dict[str, Any]) -> str:
    """Render one message as a single line (no embedded newlines)."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True)


def decode_message(line: str) -> dict[str, Any]:
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def ok_response(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any, error_type: str, message: str
) -> dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }


# ----------------------------------------------------------------------
# Result payloads (shared with the CLI's --format json)
# ----------------------------------------------------------------------


def slice_payload(
    result: SliceResult,
    *,
    program: str,
    line: int,
    flavor: str,
    context: int = 0,
) -> dict[str, Any]:
    lines = result.lines
    return {
        "program": program,
        "flavor": flavor,
        "seed_line": line,
        "seed_count": len(result.seeds),
        "lines": sorted(lines),
        "line_count": len(lines),
        "statement_count": result.statement_count,
        "source_view": result.source_view(context=context),
    }


def slice_batch_payload(
    results: list[dict[str, Any]], *, distinct_programs: int
) -> dict[str, Any]:
    """Envelope for ``slice_batch``: per-seed :func:`slice_payload`
    dicts in request order, plus how many distinct analyses fed them."""
    return {
        "count": len(results),
        "distinct_programs": distinct_programs,
        "results": results,
    }


def stats_payload(analyzed: AnalyzedProgram, program: str) -> dict[str, Any]:
    graph = analyzed.pts.call_graph
    counts = {
        "classes": len(analyzed.compiled.table.classes),
        "functions_ir": len(analyzed.compiled.ir.functions),
        "reachable_functions": graph.function_count(),
        "call_graph_nodes": graph.node_count(),
        "call_graph_edges": graph.edge_count(),
        "sdg_statements": analyzed.sdg.statement_count(),
        "sdg_edges": analyzed.sdg.edge_count(),
    }
    return stats_payload_from_counts(
        counts, program=program, timings=analyzed.timings
    )


def stats_payload_from_counts(
    counts: dict[str, Any],
    *,
    program: str,
    timings: dict[str, Any] | None,
) -> dict[str, Any]:
    """:func:`stats_payload` from pre-extracted counts.

    A flat artifact carries the counts in its META section, so the
    daemon can answer ``stats`` for a warm entry without materializing
    the object graph.  The field set is pinned here (extra keys in
    ``counts`` are ignored) so both construction paths stay identical.
    """
    return {
        "program": program,
        "classes": counts["classes"],
        "functions_ir": counts["functions_ir"],
        "reachable_functions": counts["reachable_functions"],
        "call_graph_nodes": counts["call_graph_nodes"],
        "call_graph_edges": counts["call_graph_edges"],
        "sdg_statements": counts["sdg_statements"],
        "sdg_edges": counts["sdg_edges"],
        "timings": timings,
    }


def explain_payload(view: ArtifactView, *, program: str, line: int) -> dict[str, Any]:
    from repro.slicing.flatslice import flat_control_lines

    lines = view.source_lines()
    conditionals = [
        {"line": cond_line, "text": lines[cond_line - 1].strip()}
        for cond_line in sorted(flat_control_lines(view, line))
        if 1 <= cond_line <= len(lines)
    ]
    return {
        "program": program,
        "line": line,
        "seed_count": len(view.seeds_at_line(line)),
        "conditionals": conditionals,
    }


def why_payload(
    view: ArtifactView,
    *,
    program: str,
    source_line: int,
    sink_line: int,
) -> dict[str, Any]:
    from repro.slicing.flatslice import flat_why
    from repro.tooling.navigator import Navigator

    path = flat_why(view, source_line, sink_line)
    payload: dict[str, Any] = {
        "program": program,
        "source_line": source_line,
        "sink_line": sink_line,
        "found": path is not None,
        "path": [],
        "rendered": "",
    }
    if path is not None:
        payload["path"] = [
            {
                "line": step.line,
                "kinds": sorted(kind.value for kind in step.kinds),
                "text": step.text,
            }
            for step in path
        ]
        payload["rendered"] = Navigator.render_path(path)
    return payload


def chop_payload(
    view: ArtifactView,
    *,
    program: str,
    source_line: int,
    sink_line: int,
    flavor: str,
) -> dict[str, Any]:
    from repro.slicing.flatslice import flat_chop

    nodes = flat_chop(view, source_line, sink_line, flavor)
    chopped = {
        view.node_line(node) for node in nodes if view.counts_as_inspected(node)
    }
    lines = view.source_lines()
    rows = [
        {"line": line, "text": lines[line - 1].strip()}
        for line in sorted(chopped)
        if 1 <= line <= len(lines)
    ]
    return {
        "program": program,
        "flavor": flavor,
        "source_line": source_line,
        "sink_line": sink_line,
        "empty": not nodes,
        "lines": rows,
        "line_count": len(rows),
    }
