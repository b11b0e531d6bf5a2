"""The demos stay in step with the library: every name a demo imports from
marsbid resolves, and the three fast demos run to completion."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
FAST_DEMOS = ("01_synthetic_market", "02_bidding_environment", "03_reward_shaping")


def marsbid_imports(path):
    """``(module, name)`` for every ``from marsbid... import name`` and
    ``(module, None)`` for every ``import marsbid...`` in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "marsbid":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "marsbid"
            )


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    imports = list(marsbid_imports(demo))
    assert imports, f"{demo.name} imports nothing from marsbid"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{demo.name}: {module} has no {name}"


@pytest.mark.parametrize("stem", FAST_DEMOS)
def test_fast_demo_runs(stem, capsys):
    runpy.run_path(str(DEMO_DIR / f"{stem}.py"), run_name="__main__")
    assert capsys.readouterr().out
