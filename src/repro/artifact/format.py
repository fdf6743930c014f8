"""Binary layout of the flat, mmap-able analysis artifact.

One artifact file is a header plus a table of named sections::

    offset 0   magic       8 bytes  b"REPROSDG"
    offset 8   format      u32      ARTIFACT_FORMAT
    offset 12  sections    u32      section count S
    offset 16  file_crc    u32      crc32 of the whole file with this
                                    field zeroed (torn-write detector)
    offset 20  table       S x (tag 4s, offset u64, length u64,
                                crc u32 of the payload bytes)
    ...        section payloads, 8-byte aligned, in table order

All integers are little-endian.  Section payloads are struct-of-arrays
views over the SDG — fixed-width per-node and per-edge arrays that a
reader can address directly through ``memoryview.cast`` on a read-only
``mmap`` without materializing a single Python object per node:

========  =============================================================
``META``  JSON (sorted keys): package version, cache key, filename,
          analyze options, stats counts, user-source length.
``STRS``  Interned string table: u32 count, u32 offsets[count+1],
          then the concatenated UTF-8 bytes (function names).
``KIND``  u8[N] node kind (see :data:`NODE_KINDS`).
``LINE``  i32[N] 1-based source line (0 for positionless nodes).
``SITE``  u32[N] call-site uid for actual-in/out and call statements,
          :data:`NO_SITE` otherwise (tabulation's site matching).
``EIDX``  u32[N+1] CSR row index into ``ETGT``/``EKND``.
``ETGT``  u32[E] backward edge targets (the nodes depended on).
``EKND``  u8[E] edge kind (``EdgeKind.index``).
``LKEY``  i32[L] sorted distinct seed lines.
``LIDX``  u32[L+1] CSR row index into ``LNOD``.
``LNOD``  u32[*] statement-node ids per seed line (slice seeds).
``FUNC``  u32[F*3] per-function (name ref into STRS, node start,
          node end): nodes are renumbered contiguously per function,
          so each function owns one offset-indexed id range.
``SRC ``  UTF-8 full program text (user source + appended stdlib);
          with META's options it is all ``to_analyzed_program()``
          needs to rebuild the rich object graph by re-analysis.
========  =============================================================

Node ids are dense ints ``0..N-1``; edges are stored backward (the
direction every slicer walks), per-node lists sorted by (target, kind)
so the encoding is canonical: every byte of an artifact is a pure
function of ``(source, options, package version)``.
"""

from __future__ import annotations

import struct
import zlib

MAGIC = b"REPROSDG"

#: Version of this binary layout; bumped on any incompatible change.
#: A buffer with any other format is stale: the store discards it and
#: recomputes the analysis.
ARTIFACT_FORMAT = 3

#: Sentinel in ``SITE`` for nodes that belong to no call site.
NO_SITE = 0xFFFFFFFF

#: ``KIND`` codes, index-aligned with :data:`NODE_ROLES`.
KIND_STMT = 0
KIND_ENTRY = 1
KIND_FORMAL_IN = 2
KIND_FORMAL_OUT = 3
KIND_ACTUAL_IN = 4
KIND_ACTUAL_OUT = 5

#: ``KIND`` code -> tabulation role name (None for plain statements).
NODE_ROLES = (None, "entry", "formal_in", "formal_out", "actual_in", "actual_out")

#: ParamNode role -> ``KIND`` code.
KIND_OF_ROLE = {
    "entry": KIND_ENTRY,
    "formal_in": KIND_FORMAL_IN,
    "formal_out": KIND_FORMAL_OUT,
    "actual_in": KIND_ACTUAL_IN,
    "actual_out": KIND_ACTUAL_OUT,
}

_HEADER = struct.Struct("<8sIII")
_ENTRY = struct.Struct("<4sQQI")

#: Byte offset of the whole-file crc32 field inside the header.
_FILE_CRC_OFFSET = 16


class ArtifactError(ValueError):
    """A buffer that is not a valid artifact (bad magic, truncated
    sections, wrong format/package version, key mismatch)."""


class ArtifactDigestError(ArtifactError):
    """Stored bytes do not match their recorded crc32 digest —
    bit rot, a torn write, or a tampered file."""


class ArtifactStaleError(ArtifactError):
    """The artifact is intact but no longer usable — another layout
    format, written by another package version, or filed under the
    wrong cache key.  Stale files are discarded (re-encoded on the next
    miss); corrupt files are quarantined."""


class ArtifactFormatError(ArtifactStaleError):
    """The buffer is an artifact, but from another layout version
    (``found``): stale, whether older or newer than this one."""

    def __init__(self, found: int) -> None:
        super().__init__(
            f"artifact format {found} != supported format {ARTIFACT_FORMAT}"
        )
        self.found = found


def _pad8(length: int) -> int:
    return (8 - length % 8) % 8


def pack_sections(sections: list[tuple[bytes, bytes]]) -> bytes:
    """Assemble header + digest table + 8-byte-aligned payloads.

    Each table entry records ``crc32(payload)``; the header records a
    whole-file crc computed over the finished buffer with the crc field
    itself zeroed, so a single C-speed pass can prove the file intact
    before any section bytes are trusted.
    """
    table_size = _HEADER.size + _ENTRY.size * len(sections)
    offset = table_size + _pad8(table_size)
    entries = []
    chunks = []
    for tag, payload in sections:
        assert len(tag) == 4, tag
        entries.append(
            _ENTRY.pack(tag, offset, len(payload), zlib.crc32(payload))
        )
        chunks.append(payload)
        pad = _pad8(len(payload))
        if pad:
            chunks.append(b"\x00" * pad)
        offset += len(payload) + pad
    head = _HEADER.pack(MAGIC, ARTIFACT_FORMAT, len(sections), 0)
    parts = [head, *entries]
    pad = _pad8(table_size)
    if pad:
        parts.append(b"\x00" * pad)
    parts.extend(chunks)
    buffer = bytearray(b"".join(parts))
    struct.pack_into("<I", buffer, _FILE_CRC_OFFSET, _file_crc(buffer))
    return bytes(buffer)


def _file_crc(buffer) -> int:
    """crc32 of ``buffer`` with the header crc field treated as zero.

    Works on any buffer (bytes, memoryview, mmap) without copying it:
    the crc is streamed around the 4 header bytes being excluded.
    """
    view = memoryview(buffer)
    crc = zlib.crc32(view[:_FILE_CRC_OFFSET])
    crc = zlib.crc32(b"\x00\x00\x00\x00", crc)
    return zlib.crc32(view[_FILE_CRC_OFFSET + 4 :], crc)


def verify_file_digest(buffer) -> None:
    """Check the whole-file crc32 (the ``verify="header"`` level).

    One sequential :func:`zlib.crc32` pass over the mapping — this
    catches any random corruption anywhere in the file, including in
    the section table itself, before a single array read trusts it.
    """
    if len(buffer) < _HEADER.size:
        raise ArtifactError("buffer shorter than the artifact header")
    (recorded,) = struct.unpack_from("<I", buffer, _FILE_CRC_OFFSET)
    actual = _file_crc(buffer)
    if actual != recorded:
        raise ArtifactDigestError(
            f"file digest mismatch: crc32 {actual:#010x} != "
            f"recorded {recorded:#010x}"
        )


def verify_section_digests(buffer, sections: dict[bytes, tuple[int, int]]) -> None:
    """Check every per-section crc32 (part of ``verify="deep"``).

    Localizes corruption to one named section — the quarantine report
    says *which* array rotted, not just "the file is bad".
    """
    view = memoryview(buffer)
    for index, (tag, (offset, length)) in enumerate(sections.items()):
        (recorded,) = struct.unpack_from(
            "<I",
            buffer,
            _HEADER.size + _ENTRY.size * index + _ENTRY.size - 4,
        )
        actual = zlib.crc32(view[offset : offset + length])
        if actual != recorded:
            raise ArtifactDigestError(
                f"section {tag!r} digest mismatch: crc32 {actual:#010x}"
                f" != recorded {recorded:#010x}"
            )


def parse_sections(buffer) -> dict[bytes, tuple[int, int]]:
    """Validate the header and return ``{tag: (offset, length)}``.

    Every section must lie entirely inside ``buffer`` — a torn write
    that truncated the file fails here instead of producing a view
    whose array reads walk off the end of the mapping.  Digest checks
    are separate (:func:`verify_file_digest`,
    :func:`verify_section_digests`) so callers choose how much
    verification the open pays for.
    """
    size = len(buffer)
    if size < _HEADER.size:
        raise ArtifactError("buffer shorter than the artifact header")
    magic, fmt, count, _file_digest = _HEADER.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise ArtifactError("bad magic: not an artifact file")
    if fmt != ARTIFACT_FORMAT:
        raise ArtifactFormatError(fmt)
    table_end = _HEADER.size + _ENTRY.size * count
    if size < table_end:
        raise ArtifactError("truncated section table")
    sections: dict[bytes, tuple[int, int]] = {}
    for index in range(count):
        tag, offset, length, _crc = _ENTRY.unpack_from(
            buffer, _HEADER.size + _ENTRY.size * index
        )
        if offset + length > size:
            raise ArtifactError(
                f"section {tag!r} overruns the buffer (torn write?)"
            )
        sections[tag] = (offset, length)
    return sections
