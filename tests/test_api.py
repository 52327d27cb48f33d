"""The public surface: the top-level names the README documents."""

import re
import types
from pathlib import Path

import metachain as mc

ROOT = Path(__file__).parent.parent


def readme_api() -> set:
    """Backticked names in the README's "Library API" bullet list."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    return {name for item in bullets for name in re.findall(r"`(\w+)`", item)}


def readme_layout() -> set:
    """The ``.py`` files the README's "Layout" block lists under ``src/metachain/``."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Layout\n", 1)[1].split("```\n", 2)[1]
    package = block.split("src/metachain/\n", 1)[1]
    return set(re.findall(r"^  (\w+\.py) ", package, flags=re.MULTILINE))


def test_all_is_the_documented_api():
    assert set(mc.__all__) == readme_api()
    assert len(mc.__all__) == len(set(mc.__all__))


def test_namespace_holds_only_the_api_and_submodules():
    public = {n for n in dir(mc) if not n.startswith("_")}
    extra = {n for n in public - set(mc.__all__) if not isinstance(getattr(mc, n), types.ModuleType)}
    assert extra == set()
    assert all(hasattr(mc, n) for n in mc.__all__)


def test_readme_layout_names_every_module():
    modules = {p.name for p in (ROOT / "src" / "metachain").glob("*.py")} - {"__init__.py"}
    assert readme_layout() == modules
