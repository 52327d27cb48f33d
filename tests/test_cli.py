"""Command-line surface and DOT export.

Every invocation goes through ``main(argv)`` so the tests cover exactly
what the console script runs, including the exit-code contract:
0 success, 1 user error, 2 internal invariant violation.
"""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import metachain as mc
from metachain import alg2, cli
from metachain.cli import main
from metachain.demos import tied_min_arc_chain, two_state_chain
from metachain.dot import export_dot

NESTED_INTEGER = str(Path(__file__).parent / "golden" / "nested_integer.graph.json")


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    mc.save_graph(mc.nested_cycle_chain(), path)
    return str(path)


@pytest.fixture()
def two_state_file(tmp_path):
    path = tmp_path / "two.json"
    mc.save_graph(two_state_chain(), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys, demo_file):
    code, doc = run_json(capsys, ["validate", "--input", demo_file])
    assert code == 0
    assert doc["satisfies_a2"] is True


def test_validate_two_closed_classes_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    mc.save_graph(mc.chain_graph([(1, 2, 1), (1, 3, 2)], states=[1, 2, 3]), path)
    code = main(["validate", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "closed communicating class" in captured.err


def test_alg1_report_and_determinism(tmp_path, demo_file):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["alg1", "--input", demo_file, "--out", str(out1)]) == 0
    assert main(["alg1", "--input", demo_file, "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    doc = json.loads(b1)
    assert doc["gamma"][0] == "1"
    assert doc["K"] == 9


def test_alg1_stop_flag(capsys, demo_file):
    code, doc = run_json(capsys, ["alg1", "--input", demo_file, "--stop", "threshold:3"])
    assert code == 0
    assert doc["stop_reason"] == "exponent-threshold"


def test_alg1_bad_stop_exits_one(capsys, demo_file):
    assert main(["alg1", "--input", demo_file, "--stop", "sometimes"]) == 1
    assert "unknown stop criterion" in capsys.readouterr().err


def test_alg2_report(capsys, tmp_path):
    path = tmp_path / "g.json"
    mc.save_graph(mc.nested_cycle_chain_integer(), path)
    code, doc = run_json(capsys, ["alg2", "--input", str(path)])
    assert code == 0
    assert doc["theta"] == ["1", "3", "4"]


def test_wgraphs_selected_sink_counts(capsys, demo_file):
    code, doc = run_json(capsys, ["wgraphs", "--input", demo_file, "--m", "1", "--m", "3"])
    assert code == 0
    assert sorted(doc["wgraphs"]) == ["1", "3"]


def test_wgraphs_on_tied_graph_exits_one(tmp_path, capsys):
    path = tmp_path / "tied.json"
    mc.save_graph(tied_min_arc_chain(), path)
    assert main(["wgraphs", "--input", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_eigs_repeatable_epsilon(capsys, two_state_file):
    code, doc = run_json(
        capsys, ["eigs", "--input", two_state_file, "--epsilon", "0.5", "--epsilon", "0.25"]
    )
    assert code == 0
    assert [row["epsilon"] for row in doc["rows"]] == [0.5, 0.25]
    assert doc["rows"][0]["estimate"] is not None


def test_oracle_bundle(capsys, two_state_file):
    code, doc = run_json(capsys, ["oracle", "--input", two_state_file, "--epsilon", "0.3"])
    assert code == 0
    assert doc["optima"]["1"]["unique"] is True
    assert doc["charpoly"][0]["max_rel_residual"] <= 1e-9
    assert doc["spectral"] is not None


def test_oracle_at_an_epsilon_where_an_arc_rate_underflows_exits_one(capsys):
    assert main(["oracle", "--input", NESTED_INTEGER, "--epsilon", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: arc 3->4 has rate 0.0 at epsilon=0.01")
    assert "math domain error" not in captured.err


def test_compare_ok(capsys, demo_file):
    code, doc = run_json(capsys, ["compare", "--input", demo_file])
    assert code == 0
    assert doc["ok"] is True


def test_compare_violation_writes_the_report_and_exits_two(tmp_path, capsys, demo_file, monkeypatch):
    # the simultaneous sweep runs on another chain over the same states,
    # with every exponent 1, so it releases every arc at once
    other = mc.chain_graph([(a.tail, a.head, 1) for a in mc.nested_cycle_chain().arcs])
    sweep = alg2.run_algorithm2
    monkeypatch.setattr(alg2, "run_algorithm2", lambda g, stop=None: sweep(other, stop))
    out = tmp_path / "compare.json"
    assert main(["compare", "--input", demo_file, "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["ok"] is False
    assert doc["theta"] == ["1"]
    assert "statements violated" in capsys.readouterr().err


def test_kmc_census_and_csv(tmp_path, capsys, two_state_file):
    csv_path = tmp_path / "census.csv"
    code, doc = run_json(
        capsys,
        [
            "kmc", "--input", two_state_file, "--epsilon", "0.5", "--x0", "1",
            "--horizon", "200", "--n", "5", "--seed", "3", "--csv", str(csv_path),
        ],
    )
    assert code == 0
    assert doc["kind"] == "transition-census"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "arc,window,count,frequency"
    assert len(lines) > 1


def test_kmc_tgraph_coverage(capsys, two_state_file):
    code, doc = run_json(
        capsys,
        [
            "kmc", "--input", two_state_file, "--epsilon", "0.5", "--x0", "1",
            "--horizon", "200", "--n", "5", "--seed", "3", "--tgraph", "1",
        ],
    )
    assert code == 0
    assert doc["kind"] == "coverage-report"
    assert 0.0 <= doc["coverage"] <= 1.0


def test_kmc_unknown_start_state(capsys, two_state_file):
    code = main(
        ["kmc", "--input", two_state_file, "--epsilon", "0.5", "--x0", "9",
         "--horizon", "10", "--n", "2"]
    )
    assert code == 1
    assert "9" in capsys.readouterr().err


def test_kmc_at_an_epsilon_where_every_rate_underflows_exits_one(capsys, two_state_file):
    code = main(
        ["kmc", "--input", two_state_file, "--epsilon", "0.001", "--x0", "1", "--horizon", "10"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: state 1 has total exit rate 0.0 at epsilon=0.001")


def test_kmc_refuses_an_unreachable_state_that_cannot_leave(tmp_path, capsys):
    # 3 -> 1 is not reachable from 1, and exp(-800) underflows to 0
    path = tmp_path / "stuck.json"
    mc.save_graph(mc.chain_graph([(1, 2, 1), (2, 1, 1), (3, 1, 800)]), path)
    code = main(["kmc", "--input", str(path), "--epsilon", "1", "--x0", "1", "--horizon", "10"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: state 3 has total exit rate 0.0 at epsilon=1.0")


def test_kmc_window_needs_two_numbers(capsys, two_state_file):
    code = main(
        ["kmc", "--input", two_state_file, "--epsilon", "0.5", "--x0", "1",
         "--horizon", "10", "--n", "2", "--window", "5"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --window must be t_lo:t_hi, two numbers, got '5'\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--tgraph", "99"], "error: window index 99 out of range; the run has 4 transition graphs\n"),
        (["--window", "5:1"], "error: window must satisfy 0 <= t_lo < t_hi, got (5.0, 1.0)\n"),
        (["--window=-1:5", "--tgraph", "2"], "error: window must satisfy 0 <= t_lo < t_hi, got (-1.0, 5.0)\n"),
    ],
)
def test_kmc_refuses_a_bad_tgraph_or_window_before_simulating(capsys, monkeypatch, extra, message):
    monkeypatch.setattr(cli, "simulate_ensemble", lambda *args: pytest.fail("simulated before refusing"))
    argv = ["kmc", "--input", NESTED_INTEGER, "--epsilon", "0.3", "--x0", "1", "--horizon", "100", "--n", "3000"]
    assert main(argv + extra) == 1
    assert capsys.readouterr() == ("", message)


def test_alg2_covering_stop_with_an_unknown_state_exits_one(capsys):
    golden = str(Path(__file__).parent / "golden" / "nested.graph.json")
    assert main(["alg2", "--input", golden, "--stop", "covering:1;99"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: covering stop names states not in the graph: [99]\n"


def test_kinesin_sweep_grid(capsys):
    code, doc = run_json(capsys, ["kinesin-sweep", "--grid", "1:3:1"])
    assert code == 0
    assert doc["kind"] == "kinesin-sweep"
    assert len(doc["intervals"]) == 1
    assert doc["intervals"][0]["exponent_fit"] == {"intercept": "21/2", "slope": "-1"}


def test_kinesin_sweep_no_bisect_is_gone(capsys):
    assert main(["kinesin-sweep", "--grid", "1:3:1", "--no-bisect"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --no-bisect" in captured.err


def test_kinesin_sweep_requires_grid(capsys):
    assert main(["kinesin-sweep"]) == 1
    assert "needs --grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1:3", "1:3:0", "1:x:1"])
def test_kinesin_sweep_bad_grid_exits_one(capsys, grid):
    assert main(["kinesin-sweep", "--grid", grid]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_kinesin_sweep_empty_grid_names_start_and_stop(capsys):
    assert main(["kinesin-sweep", "--grid", "1:0:1"]) == 1
    assert capsys.readouterr().err == (
        "error: grid '1:0:1' is empty: its start 1 lies above its stop 0\n"
    )


def test_float_exponent_in_json_exits_one(tmp_path, capsys):
    path = tmp_path / "float.json"
    arcs = [{"from": 1, "to": 2, "U": 1.1}, {"from": 2, "to": 1, "U": "2"}]
    path.write_text(json.dumps({"states": [1, 2], "arcs": arcs}))
    assert main(["alg1", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "float 1.1" in captured.err


@pytest.mark.parametrize("command", ["validate", "alg1", "alg2", "compare"])
def test_state_id_neither_int_nor_str_exits_one(tmp_path, capsys, command):
    path = tmp_path / "float_state.json"
    arcs = [{"from": 1, "to": 2.5, "U": "1"}, {"from": 2.5, "to": 1, "U": "2"}]
    path.write_text(json.dumps({"states": [1, 2.5], "arcs": arcs}))
    assert main([command, "--input", str(path)]) == 1
    assert "invalid state id 2.5" in capsys.readouterr().err


def test_kmc_rejects_a_second_epsilon(capsys, two_state_file):
    code = main(
        ["kmc", "--input", two_state_file, "--epsilon", "0.5", "--epsilon", "0.3",
         "--x0", "1", "--horizon", "10", "--n", "2"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "one --epsilon" in captured.err


def test_kmc_sweep_points_are_one_epsilon_coverage_reports(capsys):
    base = ["kmc", "--input", NESTED_INTEGER, "--x0", "1", "--tgraph", "2", "--n", "30"]
    code, doc = run_json(capsys, base + ["--epsilon", "0.3", "--epsilon", "0.25", "--seed", "11"])
    assert code == 0
    assert doc["kind"] == "kmc-coverage-sweep" and doc["threshold"] == "3"
    assert [p["epsilon"] for p in doc["points"]] == [0.3, 0.25]
    for i, point in enumerate(doc["points"]):
        eps, horizon = point.pop("epsilon"), point.pop("horizon")
        assert horizon == math.exp(3 / eps)
        one = ["--epsilon", repr(eps), "--horizon", repr(horizon), "--seed", str(11 + i)]
        assert run_json(capsys, base + one) == (0, point)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--epsilon", "0.3"], "error: kmc needs --horizon, or --tgraph for a coverage sweep\n"),
        (["--epsilon", "0.3", "--tgraph", "2", "--window", "0:5"], "error: --window and --csv need --horizon\n"),
        (["--epsilon", "0.3", "--tgraph", "2", "--csv", "census.csv"], "error: --window and --csv need --horizon\n"),
        (["--epsilon", "1e-05", "--tgraph", "2"], "error: horizon exp(3/1e-05) is too large for a float\n"),
    ],
)
def test_kmc_sweep_refusals_exit_one(tmp_path, capsys, monkeypatch, extra, message):
    monkeypatch.chdir(tmp_path)
    assert main(["kmc", "--input", NESTED_INTEGER, "--x0", "1", "--n", "2"] + extra) == 1
    assert capsys.readouterr() == ("", message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "bad, message",
    [
        ("-1", "error: epsilon must be a finite positive real, got -1.0\n"),
        ("1e-05", "error: horizon exp(3/1e-05) is too large for a float\n"),
    ],
)
def test_kmc_sweep_checks_every_epsilon_before_simulating(capsys, monkeypatch, bad, message):
    monkeypatch.setattr(cli, "simulate_ensemble", lambda *args: pytest.fail("simulated before refusing"))
    argv = ["kmc", "--input", NESTED_INTEGER, "--x0", "1", "--tgraph", "2", "--n", "3000",
            "--epsilon", "0.2", "--epsilon", "0.15", "--epsilon", bad]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", message)


def test_unknown_flag_exits_one(demo_file, capsys):
    assert main(["alg1", "--input", demo_file, "--frobnicate"]) == 1


def test_unknown_command_exits_one(capsys):
    assert main(["transmogrify"]) == 1


def test_unreadable_input_exits_one(capsys, tmp_path):
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 1


def test_malformed_weight_names_token(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t2\tbanana\n2\t1\t1\n")
    assert main(["validate", "--input", str(path)]) == 1
    assert "banana" in capsys.readouterr().err


CYCLE_ARCS = [{"from": 1, "to": 2, "U": "1"}, {"from": 2, "to": 1, "U": "2"}]


@pytest.mark.parametrize(
    "doc, token",
    [
        ({"states": [1, 2], "arcs": [[1, 2, "1"], [2, 1, "2"]]}, "arc entry must be a JSON object"),
        ({"states": [1, 2], "arcs": [dict(a, kappa=[1]) for a in CYCLE_ARCS]}, "prefactor must be"),
        ({"states": [1, 2], "arcs": [dict(a, kappa="1") for a in CYCLE_ARCS]}, "prefactor must be"),
        ({"states": "12", "arcs": CYCLE_ARCS}, "'states' must be a JSON list"),
        ({"states": [1, 2], "arcs": {"1": CYCLE_ARCS}}, "'arcs' must be a JSON list"),
        ({"states": [1, 2], "arcs": [dict(a, kappa=True) for a in CYCLE_ARCS]}, "prefactor must be"),
        pytest.param(  # raw text: a JSON number too large for a float reads as inf
            '{"states": [1, 2], "arcs": [{"from": 1, "to": 2, "U": "1", "kappa": 1e400},'
            ' {"from": 2, "to": 1, "U": "2", "kappa": 1.0}]}',
            "prefactor must be",
            id="kappa-1e400",
        ),
    ],
)
def test_malformed_graph_json_exits_one(tmp_path, capsys, doc, token):
    path = tmp_path / "malformed.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["validate", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and token in captured.err


@pytest.mark.parametrize(
    "text, token",
    [
        pytest.param("1\t2\t1\tinf\n2\t1\t2\t1.0\n", "prefactor must be", id="kappa-inf"),
        pytest.param("1\t2\t1\tnan\n2\t1\t2\t1.0\n", "prefactor must be", id="kappa-nan"),
        pytest.param(
            "1\t2\t1\t1.0\n2\t1\t2\tabc\n", "line 2: prefactor must be", id="kappa-abc"
        ),
        pytest.param("1\t2\t1\n2\t1\n", "line 2: expected 3 or 4 columns", id="short-row"),
    ],
)
def test_malformed_graph_tsv_exits_one(tmp_path, capsys, text, token):
    path = tmp_path / "malformed.tsv"
    path.write_text(text)
    assert main(["alg1", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and token in captured.err


def test_state_tokens_read_alike_in_tsv_and_flags(tmp_path, capsys):
    path = tmp_path / "tokens.tsv"
    path.write_text("1_0\t+-5\t1\n+-5\t1_0\t2\n+-5\t7\t3\n7\t+-5\t1\n")
    assert mc.load_graph(path).states == (7, "+-5", "1_0")
    code, doc = run_json(
        capsys,
        ["kmc", "--input", str(path), "--epsilon", "0.5", "--x0", "1_0",
         "--horizon", "10", "--n", "2"],
    )
    assert code == 0 and doc["kind"] == "transition-census"
    code, doc = run_json(capsys, ["alg2", "--input", str(path), "--stop", "covering:+-5;7"])
    assert code == 0
    assert doc["stop_reason"] == "class-covering"
    assert set(doc["covering_class"]) == {7, "+-5", "1_0"}


def test_unexpected_exception_exits_two(demo_file, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "alg1", broken)
    assert main(["alg1", "--input", demo_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error (this is a bug): RuntimeError: boom\n"


# DOT export


DOT_EDGE = re.compile(r'(n\d+) -> (n\d+) \[label="([^"]+)"')


def _check_dot_shape(text):
    """Tiny structural grammar check: header, balanced braces, quoted ids."""
    assert text.startswith("digraph ")
    assert text.count("{") == text.count("}")
    assert text.rstrip().endswith("}")
    return DOT_EDGE.findall(text)


def test_export_dot_round_trips_weights():
    g = two_state_chain()
    text = export_dot(g)
    edges = _check_dot_shape(text)
    assert len(edges) == 2
    weights = sorted(Fraction(label) for _, _, label in edges)
    assert weights == [Fraction(1), Fraction(2)]


def test_export_dot_styles():
    g = mc.nested_cycle_chain_integer()
    text = export_dot(g, closed_classes=[{1, 2, 3}], absorbing=[7])
    _check_dot_shape(text)
    assert "subgraph cluster_0" in text
    assert "lightskyblue" in text and "lightsalmon" in text


def test_export_dot_renders_tgraphs():
    report = mc.run_algorithm2(mc.nested_cycle_chain_integer())
    text = export_dot(report.tgraphs[2])
    edges = _check_dot_shape(text)
    assert len(edges) == 8


def test_export_dot_demo_cli(capsys):
    code = main(["export-dot", "--demo"])
    out = capsys.readouterr().out
    assert code == 0
    _check_dot_shape(out)


def test_export_dot_refuses_a_format_for_the_demo(capsys):
    assert main(["export-dot", "--demo", "--format", "tsv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --format applies to an --input file, not to --demo\n"


def test_export_dot_needs_a_source(capsys):
    assert main(["export-dot"]) == 1
    assert "one of the arguments --input --demo is required" in capsys.readouterr().err


def test_export_dot_input_styles_closed_classes(tmp_path, capsys):
    # {1, 2} is a closed class, 3 is absorbing and 4 is transient
    path = tmp_path / "split.json"
    mc.save_graph(mc.chain_graph([(1, 2, 1), (2, 1, 2), (4, 1, 1), (4, 3, 2)], states=[1, 2, 3, 4]), path)
    assert main(["export-dot", "--input", str(path)]) == 0
    text = capsys.readouterr().out
    assert len(_check_dot_shape(text)) == 4
    assert text.count("subgraph cluster_") == 1
    cluster = text.split("subgraph cluster_0 {", 1)[1].split("}", 1)[0]
    assert 'label="1"' in cluster and 'label="2"' in cluster
    assert cluster.count("fillcolor=lightskyblue") == 2
    assert text.count("fillcolor=lightsalmon") == 1
    assert '[label="3", style=filled, fillcolor=lightsalmon]' in text
    assert '[label="4"];' in text  # the transient state is not filled
    assert main(["export-dot", "--input", str(path), "--demo"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err


# 1 and "1" (and 10 and "10") print alike, so a class holding both is
# ordered by more than its members' names
HASH_SEED_CHAIN = [("a", 1, 5), (1, 2, 2), (2, "10", 1), ("10", "1", 1), ("1", "a", 4),
                   (1, "10", 2), ("10", 1, 1), ("1", "10", 2), ("1", 1, 1)]


def test_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "mixed.json"
    mc.save_graph(mc.chain_graph(HASH_SEED_CHAIN), path)
    package_root = str(Path(mc.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"alg2-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "metachain.cli", "alg2", "--input", str(path),
             "--stop", "covering:1;2", "--out", str(out)],
            env=env, check=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["covering_class"] == [1, "1", "10", 2]
