"""The compiled piece sweep: _sweep.c, built on first use and called by ctypes.

The C source ships next to this module.  load() compiles it with the system
C compiler into a per-user cache directory ($XDG_CACHE_HOME/psimoment, else
~/.cache/psimoment, else psimoment-<uid> in the temp directory) and loads it
from there.  The file name carries a CRC-32 of the source, the flags, the
compiler's name and the machine, so a changed source or flag builds a new
library.  A build removes the directory's other libraries only once they are
a day old, so trees whose sources differ can share the cache without
rebuilding each other's.  A build is loaded under a name of its own and then
published by an atomic rename, so concurrent first runs never load a
half-written file; a build that does not load or pass its check is not
published, and a marker keeps later processes from building it again for a
day.

A library runs its constructors when it loads, before any check of its
numbers, so only this user's own files are loaded: a directory or library
that is a symlink, is another user's, or can be written by group or others
is passed over, and where no cache directory is left the library is built
into a fresh private temporary directory, removed once it is loaded.
Nothing here runs at import: psimoment.sweep calls load() on its first sweep
and checks the kernel's bits against its numpy path before using it.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import platform
import stat
import sys
import tempfile
import time
import zlib

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
COMPILER = "cc"
# -ffp-contract=off keeps every a*b + c at two roundings, as numpy has them,
# in every clone the source builds for a CPU's vector width (see _sweep.c),
# and the check against the numpy path's digests proves the bits on each
# machine; -ffast-math would reorder additions and change them.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

# A library, failure marker or leftover temporary file of this age is stale.
STALE_SECONDS = 24 * 3600

_P, _N, _F = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# psimoment_sweep's parameters and result, as _sweep.c declares them.
ARGTYPES = (_P, _P, _N, _P, _P, _N, _P, _N, _F, _F, _F, _F, _P, _N, _N, _N,
            _P, _P, _P, _P, _P, _P, _N, _P, _P)
RESTYPE = _F


def private(path: str) -> bool:
    """Whether path is this user's alone: no symlink, and no one else can write it."""
    st = os.lstat(path)
    return (not stat.S_ISLNK(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def library_name() -> str:
    """The library's file name for this source, these flags and this machine."""
    with open(SOURCE, "rb") as fh:
        key = zlib.crc32(fh.read())
    key = zlib.crc32(repr((FLAGS, COMPILER, platform.machine(), sys.platform)).encode(), key)
    return f"_sweep-{key:08x}.so"


def cache_dir(name: str) -> str | None:
    """The per-user or else the temp cache directory, the first that is this
    user's alone and writable and holds no library called name that is not;
    None where neither is.  Each is made with mode 0700 if missing.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    fallback = os.path.join(tempfile.gettempdir(), f"psimoment-{os.getuid()}")
    for path in (os.path.join(base, "psimoment"), fallback):
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            library = os.path.join(path, name)
            if (private(path) and os.access(path, os.W_OK)
                    and (not os.path.lexists(library) or private(library))):
                return path
        except OSError:
            continue
    return None


def build(out: str) -> None:
    """Compile SOURCE to out, which only its owner can write."""
    import subprocess  # ~4 ms and ~0.3 MB: only a build loads it

    failed = "the compiled kernel did not build or load:"
    try:
        done = subprocess.run([COMPILER, *FLAGS, "-o", out, SOURCE],
                              capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:  # OSError: no such compiler
        raise OSError(f"{failed} {COMPILER}: {exc}") from exc
    if done.returncode:
        raise OSError(f"{failed} {COMPILER} exited {done.returncode}: {done.stderr.strip()}")
    os.chmod(out, 0o755)


def open_checked(path: str, check):
    """psimoment_sweep from the library at path, if check(fn) finds nothing wrong.

    Raises OSError, with the reason, when the library does not load or has
    no such symbol, and when check names what is wrong with it.
    """
    try:
        fn = ctypes.CDLL(path).psimoment_sweep
    except (OSError, AttributeError) as exc:  # AttributeError: no such symbol
        raise OSError(f"the compiled kernel did not build or load: {path}: {exc}") from exc
    fn.argtypes, fn.restype = ARGTYPES, RESTYPE
    problem = check(fn)
    if problem:
        raise OSError(f"the compiled kernel {path} {problem}")
    return fn


_builds = itertools.count()  # this process's builds, for their fresh names


def marker(path: str) -> str:
    """The file that records why a build of the library at path failed."""
    return os.path.splitext(path)[0] + ".bad"


def failed_build(path: str) -> str | None:
    """Why a build of the library at path failed within STALE_SECONDS, or None."""
    try:
        if time.time() - os.stat(marker(path)).st_mtime < STALE_SECONDS:
            with open(marker(path)) as fh:
                return fh.read()
    except OSError:
        pass
    return None


def remove_stale(directory: str) -> None:
    """Remove the directory's libraries, markers and temporary files that are
    STALE_SECONDS old: those of another source or flags, or of a crashed build."""
    now = time.time()
    for other in os.listdir(directory):
        if other.startswith("_sweep-") and other.endswith((".so", ".bad", ".tmp")):
            try:
                if now - os.lstat(os.path.join(directory, other)).st_mtime >= STALE_SECONDS:
                    os.unlink(os.path.join(directory, other))
            except OSError:
                pass


def build_checked(directory: str, name: str, check):
    """Build the library into directory, load and check it, then publish it as name.

    The build is loaded under a fresh name, which this process cannot have
    loaded before (the dynamic loader would hand back that library), and
    renamed to name only once it has passed.  A build that compiles but
    does not load or pass writes the reason to its marker instead.  Then
    the directory's stale files are removed.
    """
    path = os.path.join(directory, name)
    fresh = f"{path}.{os.getpid()}-{next(_builds)}.tmp"
    try:
        build(fresh)
        try:
            fn = open_checked(fresh, check)
        except OSError as exc:
            reason = str(exc).replace(fresh, path)
            with open(marker(path), "w") as fh:
                fh.write(reason)
            raise OSError(reason) from None
        os.replace(fresh, path)
        if os.path.lexists(marker(path)):
            os.unlink(marker(path))
    finally:
        if os.path.lexists(fresh):
            os.unlink(fresh)
        remove_stale(directory)
    return fn, path


def load(check=lambda fn: None):
    """(psimoment_sweep as a ctypes function, its library's path).

    check(fn) returns what is wrong with a loaded kernel, or None.  A cached
    library that does not load or that check faults is rebuilt once; a
    missing one is built.  Raises OSError, whose message says why, when no
    build loads and passes, and without building when a build failed to
    load or pass within the last day.
    """
    if not hasattr(os, "getuid"):
        raise OSError("the compiled kernel is loaded only where files have owners")
    name = library_name()
    directory = cache_dir(name)
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="psimoment-") as directory:
            return build_checked(directory, name, check)
    path = os.path.join(directory, name)
    reason = failed_build(path)
    if reason:
        raise OSError(f"{reason} (a build within the last day; remove {marker(path)} "
                      "to build again)")
    if os.path.exists(path):
        try:
            return open_checked(path, check), path
        except OSError:
            pass
    return build_checked(directory, name, check)
