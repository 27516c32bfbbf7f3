"""The package exports exactly what README's Library section documents, and
every other top-level name in src is read by src itself."""

import ast
import re
from pathlib import Path

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
