"""The package exports exactly what README's Library section documents,
every other top-level name in src is read by src itself, a run loads only
the modules it uses, and numpy's scalars make the runs of Python's."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psimoment

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_documented():
    match = re.search(r"^## Library\n(.*?)(?=^## |\Z)", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no '## Library' section"
    section = match.group(1)
    assert all(hasattr(psimoment, name) for name in psimoment.__all__)
    missing = [name for name in psimoment.__all__
               if not re.search(rf"\b{re.escape(name)}\b", section)]
    assert not missing, f"exported but not in README's Library section: {missing}"


SRC = Path(psimoment.__file__).resolve().parent


def _defined(stmt) -> set[str]:
    """Names a top-level statement defines: a def, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def _read(stmt) -> set[str]:
    """Names a statement reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_src_names_have_src_readers():
    # Code that only tests read belongs in the tests.  A name counts as read
    # when src reads it outside its own definition, so recursion does not.
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = _defined(stmt)
            defined |= {(path.name, name) for name in own}
            read |= _read(stmt) - own
    unread = sorted(f"{module}:{name}" for module, name in defined
                    if not (name.startswith("__") and name.endswith("__"))
                    and name not in psimoment.__all__ and name not in read)
    assert not unread, f"src names read by nothing in src: {unread}"


# Run in a fresh interpreter: a serial run without a checkpoint, one with the
# checkpoint path given as argv[1], then a pooled one with argv[2].  Each
# prints which of hashlib (whose _hashlib maps OpenSSL, ~3.5 MB RSS) and the
# modules only a pool needs are loaded: a checkpoint's digest takes the
# interpreter's own SHA-256.
FOOTPRINT = """
import sys
import psimoment, psimoment.cli
LAZY = ("hashlib", "_hashlib", "concurrent.futures.process", "multiprocessing")
psimoment.moment_integral_fixed(1000.0, 10.0, [2, 4], segment_size=256)
print(*[name for name in LAZY if name in sys.modules])
psimoment.moment_integral_fixed(1000.0, 10.0, [2, 4], segment_size=256,
                                checkpoint=sys.argv[1])
print(*[name for name in LAZY if name in sys.modules])
psimoment.moment_integral_fixed(1000.0, 10.0, [2, 4], segment_size=256,
                                checkpoint=sys.argv[2], threads=2)
print(*[name for name in LAZY if name in sys.modules])
"""


def test_serial_run_loads_no_hashlib_or_pool(tmp_path):
    src = str(SRC.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(tmp_path / "ck.jsonl"),
         str(tmp_path / "pooled.jsonl")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "", "", "concurrent.futures.process multiprocessing", ""]


HUGE = 10**400  # an int past the float range


@pytest.mark.parametrize("call", [
    lambda: psimoment.fixed_main_term(HUGE, 1e5, 2),
    lambda: psimoment.scaled_main_term(HUGE, 1e-4, 2),
    lambda: psimoment.cramer_variance(HUGE, 10),
    lambda: psimoment.moment_sum(HUGE, 10**5, [2]),
    lambda: psimoment.moment_integral_fixed(HUGE, 1e5, [2]),
    lambda: psimoment.moment_integral_scaled(HUGE, 1e-4, [2]),
], ids=["fixed_main_term", "scaled_main_term", "cramer_variance", "moment_sum",
        "moment_integral_fixed", "moment_integral_scaled"])
def test_int_past_float_range_is_a_value_error(call):
    # Not the OverflowError of converting it to a float.
    with pytest.raises(ValueError, match="must be finite, got an int of 1329 bits"):
        call()


@pytest.mark.parametrize("call", [
    lambda: psimoment.moment_sum(10**300, 10**300, [2]),
    lambda: psimoment.moment_integral_fixed(1.5e308, 1.5e308, [2]),
    lambda: psimoment.moment_integral_scaled(1e308, 1.0, [2]),
], ids=["moment_sum", "moment_integral_fixed", "moment_integral_scaled"])
def test_huge_finite_run_is_a_value_error(call):
    # Finite, but the window's width at X is inf as a float: the default
    # segment size is capped, not an OverflowError, and the run is refused.
    with pytest.raises(ValueError, match="segment_size 67108864 exceeds 1048576 segments"):
        call()


@pytest.mark.parametrize("fn,X,param", [
    (psimoment.moment_sum, 10**5, 100),
    (psimoment.moment_integral_fixed, 10**5, 100),
    (psimoment.moment_integral_fixed, 1e5, 99.5),
    (psimoment.moment_integral_scaled, 10**5, 1e-2),
    (psimoment.moment_integral_scaled, 1e5, 1e-2),
], ids=["sum", "fixed-int", "fixed-float", "scaled-int", "scaled-float"])
def test_numpy_scalars_are_python_scalars(tmp_path, fn, X, param):
    # numpy's integers (and floats, which subclass float) give the bits and
    # the checkpoint digest of the Python numbers they hold, so a run started
    # with one resumes with the other.
    def numpy_scalar(v):
        return np.int64(v) if isinstance(v, int) else np.float64(v)

    def run(scalar, path=None, resume=False):
        got = fn(scalar(X), scalar(param), [scalar(4), scalar(2)],
                 segment_size=scalar(1 << 14), checkpoint=path, resume=resume)
        return {k: v.hex() for k, v in got.items()}

    want = run(lambda v: v)
    got = run(numpy_scalar)
    assert got == want and all(type(k) is int for k in got)
    by_python, by_numpy = tmp_path / "python.jsonl", tmp_path / "numpy.jsonl"
    assert run(lambda v: v, str(by_python)) == run(numpy_scalar, str(by_numpy)) == want
    lines = by_python.read_text().splitlines()
    assert by_numpy.read_text().splitlines()[0] == lines[0]  # the digest
    by_python.write_text("\n".join(lines[:2]) + "\n")  # the header and one record
    assert run(numpy_scalar, str(by_python), resume=True) == want
    assert by_python.read_text().splitlines() == lines
