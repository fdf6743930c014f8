"""Zero-copy read side: :class:`ArtifactView` over bytes or an mmap.

A view wraps one artifact buffer and exposes the SDG as dense int node
ids plus typed array accessors (``memoryview.cast`` over the mapped
pages — nothing is copied or deserialized up front).  Opening a view
costs one header parse and one small JSON decode; the node/edge arrays
are faulted in lazily by the kernel as a slice walks them.  The rich
object graph is never stored: :meth:`to_analyzed_program` rebuilds it
by re-analyzing the embedded source.

Because shards and pool workers open the same store files, the kernel
shares one page-cache copy of each artifact across every process — the
"one read-only mapping for all shards" the sharded tier wants — where
the pickle store gave each process its own private unpickled object
graph.

The view implements the same graph protocol as
:class:`repro.sdg.sdg.SDG` (``dependencies`` / ``node_role`` /
``site_of`` / ``formal_out_nodes`` / ``graph_nodes`` /
``seeds_at_line``), which is what lets
:class:`repro.slicing.tabulation.TabulationSlicer` and the flat
thin/traditional slicers run directly over a warm-disk artifact without
reconstructing a single SDG object.
"""

from __future__ import annotations

import array
import json
import mmap
import threading
from bisect import bisect_left, bisect_right
from pathlib import Path

from repro.sdg.nodes import EdgeKind
from repro.artifact.format import (
    KIND_ACTUAL_IN,
    KIND_ACTUAL_OUT,
    KIND_FORMAL_OUT,
    KIND_STMT,
    NO_SITE,
    NODE_ROLES,
    ArtifactError,
    ArtifactStaleError,
    parse_sections,
    verify_file_digest,
    verify_section_digests,
)

#: ``EKND`` code -> EdgeKind member (index-aligned with EdgeKind.index).
EDGE_KINDS = tuple(EdgeKind)

#: Verification levels, cheapest first.  ``none`` trusts the bytes
#: (structural section-table parse only); ``header`` adds one C-speed
#: crc32 pass over the whole file (catches any random corruption —
#: the serving default); ``deep`` additionally re-checks every
#: per-section digest and runs :meth:`ArtifactView.verify_structure`
#: (the scrubber's level).
VERIFY_LEVELS = ("none", "header", "deep")


class ArtifactView:
    """Lazily-materializing, read-only view of one flat artifact."""

    def __init__(
        self,
        buffer,
        *,
        mapped: mmap.mmap | None = None,
        verify: str = "none",
    ) -> None:
        if verify not in VERIFY_LEVELS:
            raise ValueError(f"unknown verify level {verify!r}")
        self._buffer = memoryview(buffer)
        self._mmap = mapped
        try:
            self._init_sections()
            if verify != "none":
                verify_file_digest(self._buffer)
            if verify == "deep":
                verify_section_digests(self._buffer, self._sections)
                self.verify_structure()
        except ArtifactError:
            # Drop every buffer export before the caller sees the error,
            # or closing the mmap underneath would raise BufferError.
            self.close()
            raise

    def _init_sections(self) -> None:
        sections = self._sections = parse_sections(self._buffer)
        try:
            self._meta = json.loads(bytes(self._section(sections, b"META")))
        except (KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(f"bad META section: {exc}") from None
        try:
            self.kind = self._section(sections, b"KIND").cast("B")
            self.line = self._section(sections, b"LINE").cast("i")
            self.site = self._section(sections, b"SITE").cast("I")
            self.eidx = self._section(sections, b"EIDX").cast("I")
            self.etgt = self._section(sections, b"ETGT").cast("I")
            self.eknd = self._section(sections, b"EKND").cast("B")
            self._lkey = self._section(sections, b"LKEY").cast("i")
            self._lidx = self._section(sections, b"LIDX").cast("I")
            self._lnod = self._section(sections, b"LNOD").cast("I")
            self._func = self._section(sections, b"FUNC").cast("I")
            self._strs = self._section(sections, b"STRS")
            self._src = self._section(sections, b"SRC ")
        except KeyError as exc:
            raise ArtifactError(f"missing section {exc}") from None
        self.node_count = len(self.kind)
        if (
            len(self.eidx) != self.node_count + 1
            or len(self.line) != self.node_count
            or len(self.site) != self.node_count
            or len(self.etgt) != len(self.eknd)
            or len(self._lidx) != len(self._lkey) + 1
        ):
            raise ArtifactError("inconsistent section lengths")
        self._text: str | None = None
        self._lines: list[str] | None = None
        self._formal_outs: list[int] | None = None
        self._forward: tuple | None = None
        self._program = None
        self._lock = threading.Lock()

    def _section(self, sections, tag: bytes):
        offset, length = sections[tag]
        return self._buffer[offset : offset + length]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, verify: str = "header") -> "ArtifactView":
        """Map ``path`` read-only and wrap it (zero-copy).

        The mapping — not a private heap copy — backs every array
        accessor, so concurrent opens of one store file share pages.
        ``verify`` (see :data:`VERIFY_LEVELS`) defaults to ``header``:
        bytes that came off a disk are checked against their whole-file
        digest before any slicer trusts them.
        """
        with open(path, "rb") as handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # empty file
                raise ArtifactError(f"unmappable artifact: {exc}") from None
        try:
            return cls(mapped, mapped=mapped, verify=verify)
        except ArtifactError:
            mapped.close()
            raise

    @classmethod
    def from_buffer(cls, payload: bytes, verify: str = "none") -> "ArtifactView":
        """Wrap in-memory artifact bytes (e.g. a worker's payload).

        Defaults to ``verify="none"``: in-memory bytes were encoded by
        this process tree moments ago and never crossed a disk.
        """
        return cls(payload, verify=verify)

    def close(self) -> None:
        """Release the array views and the mapping (idempotent)."""
        for name in (
            "kind", "line", "site", "eidx", "etgt", "eknd",
            "_lkey", "_lidx", "_lnod", "_func", "_strs", "_src",
        ):
            if hasattr(self, name):
                delattr(self, name)
        buffer, self._buffer = getattr(self, "_buffer", None), None
        if buffer is not None:
            buffer.release()
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    # ------------------------------------------------------------------
    # Identity / metadata
    # ------------------------------------------------------------------

    @property
    def meta(self) -> dict:
        return self._meta

    @property
    def key(self) -> str:
        return self._meta.get("key", "")

    @property
    def package_version(self) -> str:
        return self._meta.get("version", "")

    @property
    def filename(self) -> str:
        return self._meta.get("filename", "<input>")

    @property
    def counts(self) -> dict:
        return self._meta.get("counts", {})

    def validate(self, key: str | None = None) -> None:
        """Reject artifacts from another package version or cache key."""
        from repro import __version__

        if self.package_version != __version__:
            raise ArtifactStaleError(
                f"artifact from package {self.package_version!r} != "
                f"{__version__!r}"
            )
        if key is not None and self.key != key:
            raise ArtifactStaleError("artifact key mismatch")

    def verify_structure(self) -> None:
        """Bounds-check every index array (part of ``verify="deep"``).

        Digests prove the bytes are the ones the encoder wrote; this
        proves the arrays the encoder wrote are a well-formed graph —
        a defense against encoder bugs and crafted files alike.  After
        it passes, no slicer walk can index out of range.
        """
        n = self.node_count
        eidx, etgt, eknd = self.eidx, self.etgt, self.eknd
        if eidx[0] != 0 or eidx[n] != len(etgt):
            raise ArtifactError("EIDX does not span ETGT")
        prev = 0
        for value in eidx:
            if value < prev:
                raise ArtifactError("EIDX not monotonic")
            prev = value
        if len(etgt) and max(etgt) >= n:
            raise ArtifactError("ETGT edge target out of node range")
        if len(eknd) and max(eknd) >= len(EDGE_KINDS):
            raise ArtifactError("EKND edge kind out of range")
        if n and max(self.kind) >= len(NODE_ROLES):
            raise ArtifactError("KIND node kind out of range")
        lkey, lidx, lnod = self._lkey, self._lidx, self._lnod
        for row in range(1, len(lkey)):
            if lkey[row] <= lkey[row - 1]:
                raise ArtifactError("LKEY seed lines not strictly sorted")
        if lidx[0] != 0 or lidx[len(lkey)] != len(lnod):
            raise ArtifactError("LIDX does not span LNOD")
        prev = 0
        for value in lidx:
            if value < prev:
                raise ArtifactError("LIDX not monotonic")
            prev = value
        if len(lnod) and max(lnod) >= n:
            raise ArtifactError("LNOD seed node out of node range")
        strs = self._strs
        if len(strs) < 8:
            raise ArtifactError("STRS table truncated")
        count = strs[:4].cast("I")[0]
        base = 4 * (count + 2)
        if base > len(strs):
            raise ArtifactError("STRS offset table truncated")
        offsets = strs[:base].cast("I")
        if offsets[1] != 0:
            raise ArtifactError("STRS first offset not zero")
        for ref in range(1, count + 1):
            if offsets[ref + 1] < offsets[ref]:
                raise ArtifactError("STRS offsets not monotonic")
        if base + offsets[count + 1] > len(strs):
            raise ArtifactError("STRS blob overruns the section")
        func = self._func
        if len(func) % 3 != 0:
            raise ArtifactError("FUNC table length not a multiple of 3")
        cursor = 0
        for row in range(len(func) // 3):
            ref, start, end = func[row * 3], func[row * 3 + 1], func[row * 3 + 2]
            if ref >= count:
                raise ArtifactError("FUNC name ref out of string range")
            if start != cursor or end < start:
                raise ArtifactError("FUNC node ranges not contiguous")
            cursor = end
        if cursor != n:
            raise ArtifactError("FUNC ranges do not cover all nodes")

    # ------------------------------------------------------------------
    # Graph protocol (shared with repro.sdg.sdg.SDG)
    # ------------------------------------------------------------------

    def graph_nodes(self):
        return range(self.node_count)

    def dependencies(self, node: int) -> list[tuple[int, EdgeKind]]:
        start = self.eidx[node]
        end = self.eidx[node + 1]
        etgt, eknd, kinds = self.etgt, self.eknd, EDGE_KINDS
        return [(etgt[i], kinds[eknd[i]]) for i in range(start, end)]

    def node_role(self, node: int) -> str | None:
        return NODE_ROLES[self.kind[node]]

    def site_of(self, node: int) -> int | None:
        site = self.site[node]
        return None if site == NO_SITE else site

    def formal_out_nodes(self) -> list[int]:
        if self._formal_outs is None:
            kind = self.kind
            self._formal_outs = [
                n for n in range(self.node_count) if kind[n] == KIND_FORMAL_OUT
            ]
        return self._formal_outs

    def forward_edges(self) -> tuple[array.array, array.array, bytes]:
        """Forward CSR ``(fidx, fsrc, fknd)``: the transpose of the
        backward ``(eidx, etgt, eknd)`` arrays, so node ``n``'s
        consumers are ``fsrc[fidx[n]:fidx[n + 1]]``.

        Built by one counting-sort pass the first time a forward walk
        (a chop) needs it, then memoized; a racing second build yields
        the same arrays, so the unlocked publish is safe.  Each row
        lists consumers in ascending node order.
        """
        if self._forward is None:
            n = self.node_count
            eidx, etgt, eknd = self.eidx, self.etgt, self.eknd
            fidx = array.array("I", bytes(4 * (n + 1)))
            for target in etgt:
                fidx[target + 1] += 1
            for node in range(n):
                fidx[node + 1] += fidx[node]
            cursor = fidx[:n]
            fsrc = array.array("I", bytes(4 * len(etgt)))
            fknd = bytearray(len(etgt))
            for node in range(n):
                for i in range(eidx[node], eidx[node + 1]):
                    target = etgt[i]
                    slot = cursor[target]
                    cursor[target] = slot + 1
                    fsrc[slot] = node
                    fknd[slot] = eknd[i]
            self._forward = (fidx, fsrc, bytes(fknd))
        return self._forward

    def seeds_at_line(self, line: int) -> list[int]:
        row = bisect_left(self._lkey, line)
        if row == len(self._lkey) or self._lkey[row] != line:
            return []
        return list(self._lnod[self._lidx[row] : self._lidx[row + 1]])

    def node_line(self, node: int) -> int:
        return self.line[node]

    def is_statement(self, node: int) -> bool:
        return self.kind[node] == KIND_STMT

    def counts_as_inspected(self, node: int) -> bool:
        """Statements plus actual-in/out bindings, mirroring
        :func:`repro.slicing.engine.counts_as_inspected`."""
        return self.kind[node] in (KIND_STMT, KIND_ACTUAL_IN, KIND_ACTUAL_OUT)

    def function_of(self, node: int) -> str:
        """Owning function name, via the per-function id ranges."""
        func = self._func
        starts = [func[i * 3 + 1] for i in range(len(func) // 3)]
        row = bisect_right(starts, node) - 1
        return self.string(func[row * 3])

    def string(self, ref: int) -> str:
        # Cast only the offsets prefix: the UTF-8 blob that follows it
        # is not u32-aligned, so casting the whole section would raise.
        strs = self._strs
        count = strs[:4].cast("I")[0]
        base = 4 * (count + 2)
        if not 0 <= ref < count:
            raise ArtifactError(f"string ref {ref} out of range")
        offsets = strs[:base].cast("I")
        start = base + offsets[ref + 1]
        end = base + offsets[ref + 2]
        return bytes(strs[start:end]).decode("utf-8")

    # ------------------------------------------------------------------
    # Source text
    # ------------------------------------------------------------------

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = bytes(self._src).decode("utf-8")
        return self._text

    def source_lines(self) -> list[str]:
        if self._lines is None:
            self._lines = self.text.splitlines()
        return self._lines

    # ------------------------------------------------------------------
    # Escape hatch
    # ------------------------------------------------------------------

    def to_analyzed_program(self):
        """Materialize the rich object graph (memoized, thread-safe).

        Re-analyzes the embedded user source with the options recorded
        in META — the artifact stores the flat graph only.  The slice
        fast path never calls this.
        """
        if self._program is not None:
            return self._program
        with self._lock:
            if self._program is None:
                self._program = self._reanalyze()
        return self._program

    def _reanalyze(self):
        from repro import AnalyzeOptions, analyze

        recorded = self._meta.get("options", {})
        containers = recorded.get("containers")
        options = AnalyzeOptions(
            include_stdlib=bool(recorded.get("include_stdlib", True)),
            containers=None if containers is None else frozenset(containers),
            heap_mode=recorded.get("heap_mode", "direct"),
            include_control=bool(recorded.get("include_control", True)),
        )
        user_source = self.text[: self._meta.get("user_len", len(self.text))]
        analyzed = analyze(user_source, self.filename, options=options)
        analyzed.timings = None  # wall times belong to the original run
        return analyzed
