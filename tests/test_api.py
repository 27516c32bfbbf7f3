"""The package exports exactly what README's Library section documents."""

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
