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


def config_digest(payload: dict[str, Any]) -> str:
    """Stable digest of a run configuration."""
    import hashlib  # loads OpenSSL (~3.5 MB RSS): only a checkpointed run pays for it

    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


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
    """Appends segment records; writes the header when creating a new file."""

    def __init__(self, path: str, digest: str, fresh: bool):
        mode = "w" if fresh or not os.path.exists(path) else "a"
        self._fh = open(path, mode)
        if mode == "w":
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
