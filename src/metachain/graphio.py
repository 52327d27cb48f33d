"""Reading and writing chain graphs (JSON and TSV) with exact rationals.

Rational exponents survive a round trip bit-exactly: they are serialized
as ``"p/q"`` strings (or plain integers) and re-parsed with Fraction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .chain import Arc, ChainGraph, GraphError, State, parse_rational, state_key

__all__ = [
    "parse_rational",
    "format_rational",
    "graph_to_json_dict",
    "graph_from_json_dict",
    "dump_json",
    "load_graph",
    "save_graph",
    "graph_to_tsv",
    "graph_from_tsv",
]


def format_rational(q: Fraction) -> str:
    """Canonical string form: ``"3"`` for integers, ``"11/10"`` otherwise."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def state_to_json(s: State) -> Union[int, str]:
    """A state id as JSON: ints stay numbers, anything else becomes a string."""
    return s if isinstance(s, int) else str(s)


def arc_to_json(a: Arc) -> dict:
    entry = {
        "from": state_to_json(a.tail),
        "to": state_to_json(a.head),
        "U": format_rational(a.weight),
    }
    if a.kappa is not None:
        entry["kappa"] = a.kappa
    return entry


def graph_to_json_dict(g: ChainGraph) -> dict:
    return {
        "schema": 1,
        "kind": "chain-graph",
        "states": [state_to_json(s) for s in sorted(g.states, key=state_key)],
        "arcs": [
            arc_to_json(a)
            for a in sorted(g.arcs, key=lambda a: (state_key(a.tail), state_key(a.head)))
        ],
    }


def graph_from_json_dict(doc: dict) -> ChainGraph:
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    try:
        states = doc["states"]
        raw_arcs = doc["arcs"]
    except KeyError as exc:
        raise GraphError(f"graph document missing key {exc.args[0]!r}") from exc
    for key, value in (("states", states), ("arcs", raw_arcs)):
        if not isinstance(value, list):
            raise GraphError(f"graph {key!r} must be a JSON list, got {value!r}")
    arcs = []
    for entry in raw_arcs:
        if not isinstance(entry, dict):
            raise GraphError(f"arc entry must be a JSON object, got {entry!r}")
        try:
            tail, head, u = entry["from"], entry["to"], entry["U"]
        except KeyError as exc:
            raise GraphError(f"arc entry missing key {exc.args[0]!r}: {entry!r}") from exc
        kappa = entry.get("kappa")
        if kappa is not None and (isinstance(kappa, bool) or not isinstance(kappa, (int, float))):
            raise GraphError(f"arc prefactor must be a number, got {kappa!r}: {entry!r}")
        arc = Arc(
            tail,
            head,
            parse_rational(u),
            None if kappa is None else float(kappa),
        )
        arcs.append(arc)
    return ChainGraph(tuple(states), tuple(arcs))


def dump_json(doc: dict) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def graph_to_tsv(g: ChainGraph) -> str:
    lines = ["# tail\thead\tU" + ("\tkappa" if g.has_prefactors else "")]
    for a in sorted(g.arcs, key=lambda a: (state_key(a.tail), state_key(a.head))):
        row = f"{a.tail}\t{a.head}\t{format_rational(a.weight)}"
        if a.kappa is not None:
            row += f"\t{a.kappa!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _coerce_state(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def graph_from_tsv(text: str) -> ChainGraph:
    """Parse ``tail<TAB>head<TAB>U[<TAB>kappa]`` rows; ``#`` starts a comment.

    State tokens that look like integers become ints, anything else stays a
    string.  The state set is collected from the arcs.
    """
    arcs: list[Arc] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise GraphError(f"line {lineno}: expected 3 or 4 columns, got {len(parts)}")
        tail, head = _coerce_state(parts[0]), _coerce_state(parts[1])
        weight = parse_rational(parts[2])
        kappa = float(parts[3]) if len(parts) == 4 else None
        arcs.append(Arc(tail, head, weight, kappa))
    seen = set()
    states = []
    for a in arcs:
        for s in (a.tail, a.head):
            if s not in seen:
                seen.add(s)
                states.append(s)
    return ChainGraph(tuple(sorted(states, key=state_key)), tuple(arcs))


def load_graph(path: Union[str, Path], fmt: str | None = None) -> ChainGraph:
    path = Path(path)
    if fmt is None:
        fmt = "tsv" if path.suffix.lower() in (".tsv", ".txt") else "json"
    text = path.read_text()
    if fmt == "json":
        return graph_from_json_dict(json.loads(text))
    if fmt == "tsv":
        return graph_from_tsv(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def save_graph(g: ChainGraph, path: Union[str, Path], fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "tsv" if path.suffix.lower() in (".tsv", ".txt") else "json"
    if fmt == "json":
        path.write_text(dump_json(graph_to_json_dict(g)))
    elif fmt == "tsv":
        path.write_text(graph_to_tsv(g))
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
