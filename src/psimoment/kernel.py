"""The compiled piece sweep: _sweep.c, built on first use and called by ctypes.

The C source ships next to this module.  load() compiles it with the system
C compiler into a per-user cache directory ($XDG_CACHE_HOME/psimoment, else
~/.cache/psimoment, or psimoment-<uid> in the temp directory where neither
can be written) and loads it from there.  The file name carries a CRC-32 of
the source, the flags, the compiler's name and the machine, so a changed
source or flag builds a new library beside the old ones; a build is
published by an atomic rename, so concurrent first runs never load a
half-written file.
Nothing here runs at import: psimoment.sweep calls load() on its first sweep
and checks the kernel's bits against its numpy path before using it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import tempfile
import zlib

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
COMPILER = "cc"
# -ffp-contract=off keeps every a*b + c at two roundings, as numpy has them;
# -ffast-math or -march=native could change the bits.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_P, _N, _F = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# psimoment_sweep's parameters, as _sweep.c declares them.
ARGTYPES = (_P, _P, _N, _P, _P, _N, _F, _F, _F, _F, _F, _P, _N, _N, _N,
            _P, _P, _P, _P, _P, _P, _N, _P)


def cache_dir() -> str:
    """The first of the per-user and the temp cache directory that is writable."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    user = os.getuid() if hasattr(os, "getuid") else os.getlogin()
    fallback = os.path.join(tempfile.gettempdir(), f"psimoment-{user}")
    for path in (os.path.join(base, "psimoment"), fallback):
        try:
            os.makedirs(path, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK):
            return path
    raise OSError(f"no writable cache directory: {base}/psimoment or {fallback}")


def library_path() -> str:
    """Where the library for this source, these flags and this machine is cached."""
    with open(SOURCE, "rb") as fh:
        key = zlib.crc32(fh.read())
    key = zlib.crc32(repr((FLAGS, COMPILER, platform.machine(), sys.platform)).encode(), key)
    return os.path.join(cache_dir(), f"_sweep-{key:08x}.so")


def build(path: str) -> None:
    """Compile SOURCE to path, through a temporary name in the same directory."""
    import subprocess  # ~4 ms and ~0.3 MB: only a build loads it

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        done = subprocess.run([COMPILER, *FLAGS, "-o", tmp, SOURCE],
                              capture_output=True, text=True, timeout=300)
        if done.returncode:
            raise OSError(f"{COMPILER} exited {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{COMPILER}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """(psimoment_sweep as a ctypes function, its library's path).

    Builds the library first if the cache lacks it.  Raises OSError when no
    compiler, cache directory or load works.
    """
    path = library_path()
    if not os.path.exists(path):
        build(path)
    try:
        fn = ctypes.CDLL(path).psimoment_sweep
    except AttributeError as exc:  # a library without the symbol
        raise OSError(f"{path}: {exc}") from exc
    fn.argtypes, fn.restype = ARGTYPES, None
    return fn, path
