"""The documented library surface: the README snippet and every __all__."""

import importlib
import re
import subprocess
import sys
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
# Each name the package exports and the submodule that defines it.
EXPORTS = {
    "FAMILIES": "curves",
    "IdentityError": "curves",
    "OracleInconsistency": "oracle",
    "catalan_2adic_oracle": "oracle",
    "catalog": "curves",
    "criterion_check": "diophantine",
    "sequences": "expansion",
    "zeta_p_oracle": "oracle",
}


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


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run script in a new interpreter that turns every warning into an error."""
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", script],
        capture_output=True,
        text=True,
    )


def load_order(statement: str) -> list[str]:
    """sys.modules after statement, run first in a new interpreter, in the
    order the imports finished."""
    result = run_fresh(f"{statement}\nimport sys\nprint(*sys.modules, sep='\\n')")
    assert result.returncode == 0 and result.stderr == "", result.stderr
    return result.stdout.split()


def loaded_after(statement: str) -> set[str]:
    return set(load_order(statement))


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_first(name):
    """The exports resolve on first use, so any module can be the first one
    loaded, in orders the package itself never takes."""
    result = run_fresh(f"from {name} import *")
    assert (result.returncode, result.stderr) == (0, "")


def test_a_bare_import_loads_no_submodule():
    assert {m for m in loaded_after("import padicapery") if m.startswith("padicapery.")} == set()


@pytest.mark.parametrize("name", ["padicapery.exactnum", "padicapery.qseries"])
def test_arithmetic_loads_neither_dataclasses_nor_the_oracle(name):
    assert {"dataclasses", "padicapery.oracle"} & loaded_after(f"import {name}") == set()


def test_tables_load_neither_the_oracle_nor_the_criterion():
    loaded = loaded_after("from padicapery import sequences")
    assert {"padicapery.oracle", "padicapery.diophantine"} & loaded == set()


def test_cli_import_loads_every_module():
    """perfbench's launcher imports padicapery.cli alone, then wraps names in
    every module, inside the span that times the import."""
    assert set(MODULES) <= loaded_after("import padicapery.cli")


def test_cli_compiles_the_package_before_the_standard_library():
    """sys.modules lists modules in the order their imports finished: the
    oracle's chain loads before dataclasses, and argparse after every package
    module but the CLI itself (see the comment on cli.py's imports)."""
    order = load_order("import padicapery.cli")
    for name in ("oracle", "eisenstein", "qseries", "exactnum"):
        assert order.index(f"padicapery.{name}") < order.index("dataclasses"), name
    package = [m for m in order if m.startswith("padicapery.") and m != "padicapery.cli"]
    assert order.index("argparse") > max(map(order.index, package))


def test_exports_are_their_home_modules_objects():
    import padicapery

    assert padicapery.__all__ == list(EXPORTS)
    for name, home in EXPORTS.items():
        value = getattr(padicapery, name)
        assert value is getattr(importlib.import_module(f"padicapery.{home}"), name)
        assert vars(padicapery)[name] is value


def test_an_unknown_name_is_an_attribute_error():
    import padicapery

    with pytest.raises(AttributeError, match="^module 'padicapery' has no attribute 'curve'$"):
        padicapery.curve


def test_submodules_resolve_after_a_bare_import():
    submodules = [name.split(".")[1] for name in MODULES[1:]]
    script = f"import padicapery\nprint(*(getattr(padicapery, m).__name__ for m in {submodules}))"
    result = run_fresh(script)
    assert (result.stdout, result.stderr) == (" ".join(MODULES[1:]) + "\n", "")


def test_a_failing_submodule_import_is_not_an_attribute_error():
    """A module missing under a submodule is reported as that module."""
    result = run_fresh("import sys\nsys.modules['fractions'] = None\nimport padicapery\npadicapery.curves")
    assert result.returncode == 1
    assert result.stderr.endswith(
        "ModuleNotFoundError: import of fractions halted; None in sys.modules\n"
    )
