"""Exact-rational parsing and the JSON/TSV graph formats."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import metachain as mc
from metachain.chain import ChainGraph
from metachain.demos import two_state_chain
from metachain.graphio import (
    format_rational,
    graph_from_json_dict,
    graph_from_tsv,
    graph_to_json_dict,
    graph_to_tsv,
)


def test_parse_rational_accepts_common_shapes():
    assert mc.parse_rational(Fraction(3, 4)) == Fraction(3, 4)
    assert mc.parse_rational(7) == Fraction(7)
    assert mc.parse_rational("3/4") == Fraction(3, 4)
    assert mc.parse_rational("1.1") == Fraction(11, 10)


def test_parse_rational_rejects_floats():
    # even a float that is exact in binary: the policy is by type, not value
    for value in (1.1, 0.5, 3.0):
        with pytest.raises(mc.GraphError, match="float"):
            mc.parse_rational(value)
    with pytest.raises(mc.GraphError):
        mc.StopCriterion.exponent_threshold(0.1)
    with pytest.raises(mc.GraphError):
        mc.KinesinParams(zeta=2.5)


def test_parse_rational_rejects_bool_and_junk():
    with pytest.raises(mc.GraphError):
        mc.parse_rational(True)
    with pytest.raises(mc.GraphError):
        mc.parse_rational("abc")


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(11, 10)) == "11/10"


@given(st.fractions(min_value=-100, max_value=100))
def test_format_parse_round_trip(q):
    assert mc.parse_rational(format_rational(q)) == q


def _same_graph(a: ChainGraph, b: ChainGraph) -> bool:
    if a.states != b.states:
        return False
    am = {p: (x.weight, x.kappa) for p, x in a.arc_map.items()}
    bm = {p: (x.weight, x.kappa) for p, x in b.arc_map.items()}
    return am == bm


def test_json_round_trip_plain():
    g = mc.nested_cycle_chain()
    doc = graph_to_json_dict(g)
    assert doc["schema"] == 1
    assert doc["kind"] == "chain-graph"
    assert _same_graph(graph_from_json_dict(doc), g)


def test_json_round_trip_with_prefactors():
    g = mc.chain_graph([(1, 2, "1/3", 1.25), (2, 1, 2, 0.7)])
    doc = graph_to_json_dict(g)
    back = graph_from_json_dict(doc)
    assert _same_graph(back, g)
    assert back.arc_map[(1, 2)].kappa == 1.25


def test_json_dict_survives_serialization():
    g = two_state_chain()
    text = mc.dump_json(graph_to_json_dict(g))
    assert _same_graph(graph_from_json_dict(json.loads(text)), g)


def test_json_missing_key_rejected():
    with pytest.raises(mc.GraphError):
        graph_from_json_dict({"schema": 1, "kind": "chain-graph"})


def test_dump_json_is_deterministic():
    doc = graph_to_json_dict(mc.nested_cycle_chain())
    one = mc.dump_json(doc)
    two = mc.dump_json(json.loads(one))
    assert one == two
    assert one.endswith("\n")


def test_tsv_round_trip_plain():
    g = mc.nested_cycle_chain()
    back = graph_from_tsv(graph_to_tsv(g))
    assert _same_graph(back, g)


def test_tsv_round_trip_with_prefactors():
    g = mc.chain_graph([(1, 2, 1, 2.0), (2, 1, "7/5", 0.3)])
    back = graph_from_tsv(graph_to_tsv(g))
    assert _same_graph(back, g)


def test_tsv_skips_comments_and_blanks():
    text = "# weighted arcs\n\n1\t2\t1\n2\t1\t3/2\n"
    g = graph_from_tsv(text)
    assert g.states == (1, 2)
    assert g.arc_map[(2, 1)].weight == Fraction(3, 2)


def test_tsv_malformed_line_names_line_number():
    with pytest.raises(mc.GraphError, match="line 2"):
        graph_from_tsv("1\t2\t1\n2\t1\n")


def test_save_load_by_suffix(tmp_path):
    g = mc.nested_cycle_chain()
    for name in ("g.json", "g.tsv"):
        path = tmp_path / name
        mc.save_graph(g, path)
        assert _same_graph(mc.load_graph(path), g)


def test_load_format_override(tmp_path):
    g = two_state_chain()
    path = tmp_path / "graph.dat"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_tsv(g))
    assert _same_graph(mc.load_graph(path, fmt="tsv"), g)
    with pytest.raises(ValueError):
        mc.load_graph(path)


def test_save_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        mc.save_graph(two_state_chain(), tmp_path / "g.json", fmt="xml")


@pytest.mark.parametrize(
    "rows",
    [
        [("7", 7, 1), (7, "7", 2)],  # the string "7" reads back as the int 7
        [("a b", 1, 1), (1, "a b", 2)],  # a blank splits the column
        [("x#y", 1, 1), (1, "x#y", 2)],  # '#' starts a comment
        [("t\tu", 1, 1), (1, "t\tu", 2)],
        [("n\nm", 1, 1), (1, "n\nm", 2)],
        [("r\rs", 1, 1), (1, "r\rs", 2)],  # a carriage return ends the line
        [("nb\u00a0sp", 1, 1), (1, "nb\u00a0sp", 2)],  # a no-break space splits columns
        [("+5", 1, 1), (1, "+5", 2)],
        [(" pad", 1, 1), (1, " pad", 2)],
    ],
)
def test_tsv_writer_refuses_states_that_do_not_read_back(rows, tmp_path):
    g = mc.chain_graph(rows)
    with pytest.raises(mc.GraphError, match="cannot be written as TSV"):
        graph_to_tsv(g)
    with pytest.raises(mc.GraphError):
        mc.save_graph(g, tmp_path / "x.tsv")
    assert not (tmp_path / "x.tsv").exists()
    assert _same_graph(graph_from_json_dict(graph_to_json_dict(g)), g)  # JSON keeps them


def test_tsv_writer_refuses_a_state_on_no_arc():
    with pytest.raises(mc.GraphError, match="cannot be written as TSV"):
        graph_to_tsv(mc.chain_graph([(1, 2, 1)], states=[1, 2, 3]))


_TOKENS = st.one_of(
    st.integers(-50, 50),
    st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=4),
)


@given(
    st.lists(st.tuples(_TOKENS, _TOKENS, st.fractions(1, 50)), max_size=8),
    st.booleans(),
)
def test_every_graph_the_tsv_writer_accepts_reads_back_equal(rows, with_prefactors):
    rows = list({(t, h): (t, h, w) for t, h, w in rows if t != h}.values())
    if not rows:
        return
    if with_prefactors:
        rows = [(t, h, w, float(i + 1) / 3) for i, (t, h, w) in enumerate(rows)]
    g = mc.chain_graph(rows)
    try:
        text = graph_to_tsv(g)
    except mc.GraphError:
        return
    assert graph_to_json_dict(graph_from_tsv(text)) == graph_to_json_dict(g)
