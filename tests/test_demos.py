"""The demos and the README stay in step with the library: every name a
demo or a README ``python`` block imports from marsbid resolves, and every
demo and README ``python`` block runs to completion (a few seconds each)."""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def marsbid_imports(source, filename="<source>"):
    """``(module, name)`` for every ``from marsbid... import name`` and
    ``(module, None)`` for every ``import marsbid...`` in the source."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "marsbid":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "marsbid"
            )


def test_all_demos_found():
    assert len(DEMOS) == 5


def assert_imports_resolve(source, label):
    imports = list(marsbid_imports(source, label))
    assert imports, f"{label} imports nothing from marsbid"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{label}: {module} has no {name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    assert_imports_resolve(demo.read_text(), demo.name)


def test_readme_python_blocks_imports_resolve():
    assert README_BLOCKS
    for i, block in enumerate(README_BLOCKS):
        assert_imports_resolve(block, f"README python block {i}")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_fast_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("i", range(len(README_BLOCKS)))
def test_readme_python_block_runs(i, capsys):
    exec(compile(README_BLOCKS[i], f"README python block {i}", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
