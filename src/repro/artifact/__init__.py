"""Flat, versioned, mmap-able analysis artifacts.

The write side (:func:`encode_artifact`) flattens an
:class:`~repro.AnalyzedProgram` into struct-of-arrays sections; the read
side (:class:`ArtifactView`) maps those bytes read-only and serves the
slicers directly — see :mod:`repro.artifact.format` for the layout.
Artifacts carry crc32 digests (whole-file + per-section) so
``ArtifactView.open(verify=...)`` rejects corrupt bytes at load time.
"""

from repro.artifact.format import (
    ARTIFACT_FORMAT,
    MAGIC,
    NO_SITE,
    ArtifactDigestError,
    ArtifactError,
    ArtifactFormatError,
    ArtifactStaleError,
    verify_file_digest,
)
from repro.artifact.encode import content_key, encode_artifact
from repro.artifact.view import VERIFY_LEVELS, ArtifactView

__all__ = [
    "ARTIFACT_FORMAT",
    "MAGIC",
    "NO_SITE",
    "VERIFY_LEVELS",
    "ArtifactDigestError",
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactStaleError",
    "ArtifactView",
    "content_key",
    "encode_artifact",
    "verify_file_digest",
]
