"""Versioned line-delimited checkpoints for long segment sweeps.

A checkpoint file starts with a header record carrying a digest of the run
config, followed by one record per completed segment holding its per-order
partial sums as hex floats.  Hex floats round-trip exactly, and the final
reduction is recomputed from the records in segment order, so a resumed run
is bit-identical to an uninterrupted one.

Each record is one newline-terminated line, written and fsynced in one
append.  A crash in the middle of an append leaves a final line without its
newline; loading drops that line and cuts it from the file, so the segment
is recomputed and the next append starts on a fresh line.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any

from .errors import CheckpointError

CHECKPOINT_VERSION = 1

log = logging.getLogger(__name__)


def sha256(data: bytes = b""):
    """A SHA-256 hash object of data, from the interpreter's own module.

    As CPython's random takes its SHA-512: hashlib would load OpenSSL (~3.5
    MB RSS) for a few short hashes.  The hex is hashlib's, so every digest
    matches whichever module made it.
    """
    try:
        from _sha256 import sha256 as new  # Python 3.10-3.11
    except ImportError:
        try:
            from _sha2 import sha256 as new  # Python 3.12+
        except ImportError:
            from hashlib import sha256 as new  # neither built in
    return new(data)


def config_digest(payload: dict[str, Any]) -> str:
    """Stable digest of a run configuration: SHA-256 of its canonical JSON."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


def load(path: str, digest: str) -> dict[int, dict[int, float]]:
    """Completed segment values from path, keyed segment index -> {k: value}.

    Raises CheckpointError on version or digest mismatch, or on a record
    that is damaged anywhere but at the torn end of the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    complete = data.rfind(b"\n") + 1  # bytes up to the last whole line
    lines = data[:complete].decode().splitlines()
    if not lines:
        raise CheckpointError(f"{path}: empty checkpoint file")
    try:
        header = json.loads(lines[0])
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {header.get('version')} != "
                f"{CHECKPOINT_VERSION}"
            )
        if header.get("digest") != digest:
            raise CheckpointError(
                f"{path}: config digest mismatch; refusing to resume"
            )
        done = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            rec = json.loads(line)
            done[int(rec["segment"])] = {
                int(k): float.fromhex(v) for k, v in rec["values"].items()
            }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path}: damaged checkpoint record: {exc}") from exc
    if complete < len(data):
        log.warning("%s: dropping a torn final record of %d bytes",
                    path, len(data) - complete)
        os.truncate(path, complete)
    return done


class CheckpointWriter:
    """Appends segment records; writes the header into a new or empty file."""

    def __init__(self, path: str, digest: str, fresh: bool):
        self._fh = open(path, "w" if fresh else "a")
        if self._fh.tell() == 0:  # "a" opens at the end of what is there
            self._write(json.dumps({"version": CHECKPOINT_VERSION, "digest": digest}))

    def append(self, segment: int, values: dict[int, float]) -> None:
        rec = {
            "segment": segment,
            "values": {str(k): float(v).hex() for k, v in values.items()},
        }
        self._write(json.dumps(rec, sort_keys=True))

    def _write(self, line: str) -> None:
        # Durable before the next segment counts on it.
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()
