"""Exact-rational parsing and the JSON/TSV graph formats."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import metachain as mc
from conftest import arcs_by_pair
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


def _general_path(token: str):
    """What parse_rational gave every string before its ASCII fast path."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return mc.GraphError


TOKENS = ["0", "00", "3/00", "3/0", "3/", "/3", "+3", "-3/4", " 3", "3 ", "1.5", "1_0",
          "1/2/3", "0/7", "007/014", "\u0663", "\u0661/\u0662", "3/\u0664", "", "/"]


@given(
    st.one_of(
        st.sampled_from(TOKENS),
        st.from_regex(r"[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
        st.text(alphabet="0123456789/+-._ e\u0660\u0663\u00b2", max_size=8),
    )
)
def test_parse_rational_fast_path_matches_general_path(token):
    expected = _general_path(token)
    if expected is mc.GraphError:
        with pytest.raises(mc.GraphError, match="unparseable rational"):
            mc.parse_rational(token)
    else:
        got = mc.parse_rational(token)
        assert type(got) is Fraction and got == expected


@given(st.fractions(min_value=-100, max_value=100))
def test_format_parse_round_trip(q):
    assert mc.parse_rational(format_rational(q)) == q


def _same_graph(a: ChainGraph, b: ChainGraph) -> bool:
    if a.states != b.states:
        return False
    am = {p: (x.weight, x.kappa) for p, x in arcs_by_pair(a).items()}
    bm = {p: (x.weight, x.kappa) for p, x in arcs_by_pair(b).items()}
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
    assert arcs_by_pair(back)[(1, 2)].kappa == 1.25


def test_json_dict_survives_serialization():
    g = two_state_chain()
    text = mc.dump_json(graph_to_json_dict(g))
    assert _same_graph(graph_from_json_dict(json.loads(text)), g)


def test_json_missing_key_rejected():
    with pytest.raises(mc.GraphError):
        graph_from_json_dict({"schema": 1, "kind": "chain-graph"})


DOCS = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    ),
    max_size=6,
)


@given(DOCS)
@example({"k: v": 1, "s": ["a,b", "x\ny", 'q"uote', "\u00e9\u4e2d", "\\", "},{"], "t": {"k,\n\"": "v\u00e9"}})
def test_dump_json_writes_one_entry_per_line(doc):
    text = mc.dump_json(doc)
    assert text.endswith("\n") and text.isascii()
    assert json.loads(text) == doc == json.loads(json.dumps(doc, sort_keys=True))
    lines = text.splitlines()
    if not doc:
        assert lines == ["{}"]
        return
    assert (lines[0], lines[-1]) == ("{", "}")
    # one line per top-level key, and one more per entry of a non-empty
    # list or object plus its closing bracket
    starts = [i for i, line in enumerate(lines) if line.startswith('  "')]
    assert len(starts) == len(doc)
    for i, key in zip(starts, sorted(doc)):
        got, end = json.JSONDecoder().raw_decode(lines[i], 2)
        assert got == key and lines[i][end:end + 2] == ": "
        value = doc[key]
        if isinstance(value, (list, dict)) and value:
            entries = lines[i + 1:i + 1 + len(value)]
            assert all(e.startswith("    ") for e in entries)
            assert lines[i + 1 + len(value)] in ("  ]", "  ],", "  }", "  },")
            if isinstance(value, list):
                assert [json.loads(e.strip().rstrip(",")) for e in entries] == value
            else:
                assert json.loads("{" + ",".join(e.strip().rstrip(",") for e in entries) + "}") == value
        else:
            assert json.loads(lines[i][end + 2:].rstrip(",")) == value
    assert len(lines) == 2 + len(doc) + sum(
        len(v) + 1 for v in doc.values() if isinstance(v, (list, dict)) and v
    )


def test_dump_json_refuses_keys_it_cannot_lay_out():
    for doc in ({1: "a"}, {"a": {None: 1}}):
        with pytest.raises(TypeError, match="string keys"):
            mc.dump_json(doc)


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
    assert arcs_by_pair(g)[(2, 1)].weight == Fraction(3, 2)


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
