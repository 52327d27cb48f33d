"""Byte-exact command-line reports for the built-in example chains.

Each file under ``tests/golden`` is the output of one ``metachain``
invocation on one demo chain (saved next to it as ``<demo>.graph.json``),
on the motor model or on the built-in example (``demo.dot``).
A refactor of the sweeps or the sampler must leave every byte of these
reports unchanged.
The same chain saved as ``<demo>.graph.tsv`` must give the same bytes.
``<demo>.optima.json`` holds the oracle's optimal in-forests for every sink
count, in enumeration order, with their ``unique`` flags.

Regenerate the files (only when a report is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from pathlib import Path

import pytest

import metachain as mc
from metachain.cli import main
from metachain.demos import tied_min_arc_chain, tied_optimum_chain, two_state_chain

GOLDEN = Path(__file__).parent / "golden"

DEMOS = {
    "nested": mc.nested_cycle_chain,
    "nested_integer": mc.nested_cycle_chain_integer,
    "two_state": two_state_chain,
    "tied_min_arc": tied_min_arc_chain,
    "tied_optimum": tied_optimum_chain,
}
TIE_FREE = ("nested", "two_state")  # wgraphs refuses a run with ties


def _cases() -> dict:
    cases = {}
    for demo in DEMOS:
        graph = str(GOLDEN / f"{demo}.graph.json")
        cases[f"{demo}.alg1_lex.json"] = ["alg1", "--input", graph]
        cases[f"{demo}.alg1_revlex.json"] = ["alg1", "--input", graph, "--tie-break", "revlex"]
        cases[f"{demo}.alg2.json"] = ["alg2", "--input", graph]
        cases[f"{demo}.alg2_covering.json"] = ["alg2", "--input", graph, "--stop", "covering:1;2"]
        cases[f"{demo}.compare.json"] = ["compare", "--input", graph]
        if demo in TIE_FREE:
            cases[f"{demo}.wgraphs.json"] = ["wgraphs", "--input", graph]
    cases["kinesin_sweep.json"] = ["kinesin-sweep", "--grid", "1/4:41/4:1"]
    # a seed's trajectories, and so this census, must not change
    cases["nested_integer.kmc.json"] = [
        "kmc", "--input", str(GOLDEN / "nested_integer.graph.json"), "--epsilon", "0.3", "--x0", "1",
        "--horizon", "22000", "--n", "200", "--seed", "7", "--tgraph", "2",
    ]
    # without --horizon: the coverage sweep over an epsilon schedule
    cases["nested_integer.kmc_coverage.json"] = [
        "kmc", "--input", str(GOLDEN / "nested_integer.graph.json"), "--x0", "1", "--tgraph", "2",
        "--epsilon", "0.3", "--epsilon", "0.2", "--n", "200", "--seed", "4000",
    ]
    cases["demo.dot"] = ["export-dot", "--demo"]
    # state 3 is absorbing: its node takes the absorbing fill
    cases["tied_min_arc.dot"] = ["export-dot", "--input", str(GOLDEN / "tied_min_arc.graph.json")]
    return cases


CASES = _cases()
TSV_CASES = {
    f"{demo}.{kind}.json": [kind.split("_")[0], "--input", str(GOLDEN / f"{demo}.graph.tsv")]
    for demo in DEMOS
    for kind in ("alg1_lex", "alg2", "compare")
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def optima_json(g) -> str:
    """``enumerate_all_optimal(g)`` as canonical JSON, exact rationals only."""
    per_m = mc.enumerate_all_optimal(g)
    return mc.dump_json({
        str(m): {"unique": unique, "wgraphs": [w.to_json_dict() for w in graphs]}
        for m, (graphs, unique) in per_m.items()
    })


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_oracle_optima_match_golden_bytes(demo):
    g = mc.load_graph(GOLDEN / f"{demo}.graph.json")
    assert optima_json(g).encode() == (GOLDEN / f"{demo}.optima.json").read_bytes()


@pytest.mark.parametrize("name", sorted(TSV_CASES))
def test_tsv_input_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(TSV_CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for demo, make in DEMOS.items():
        mc.save_graph(make(), GOLDEN / f"{demo}.graph.json")
        mc.save_graph(make(), GOLDEN / f"{demo}.graph.tsv")
        (GOLDEN / f"{demo}.optima.json").write_bytes(optima_json(make()).encode())
    for name, argv in CASES.items():
        if main(argv + ["--out", str(GOLDEN / name)]) != 0:
            raise SystemExit(f"{name}: {' '.join(argv)} failed")


if __name__ == "__main__":
    _write_golden()
