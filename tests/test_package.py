"""The documented library surface: the README snippet and every __all__."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = (
    "padicapery",
    "padicapery.cli",
    "padicapery.curves",
    "padicapery.diophantine",
    "padicapery.eisenstein",
    "padicapery.exactnum",
    "padicapery.expansion",
    "padicapery.oracle",
    "padicapery.qseries",
    "padicapery.recurrence",
)


def library_snippet() -> str:
    """The first python block under the README's "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs(capsys):
    exec(compile(library_snippet(), str(README), "exec"), {})
    assert capsys.readouterr().out == "WITNESS_PASS 4\n"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Every exported name exists, so `from <module> import *` works."""
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})
