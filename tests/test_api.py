"""The public surface: the top-level names the README documents, and the
experiment script that uses them."""

import importlib.util
import json
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


def test_all_is_the_documented_api():
    assert set(mc.__all__) == readme_api()
    assert len(mc.__all__) == len(set(mc.__all__))


def test_namespace_holds_only_the_api_and_submodules():
    public = {n for n in dir(mc) if not n.startswith("_")}
    extra = {n for n in public - set(mc.__all__) if not isinstance(getattr(mc, n), types.ModuleType)}
    assert extra == set()
    assert all(hasattr(mc, n) for n in mc.__all__)


def test_kmc_coverage_script_runs_on_a_tiny_input(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("kmc_coverage", ROOT / "scripts" / "kmc_coverage.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "kmc_coverage.json"
    assert script.main(["--epsilons", "0.5", "--trajectories", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "kmc-coverage-sweep"
    assert f"wrote {out}" in capsys.readouterr().out
