"""Reading and writing chain graphs (JSON and TSV) with exact rationals.

Rational exponents survive a round trip bit-exactly: they are serialized
as ``"p/q"`` strings (or plain integers) and re-parsed with Fraction.
"""

from __future__ import annotations

import functools
import gc
import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .chain import Arc, ChainGraph, GraphError, chain_graph, parse_state, state_key, state_to_json

__all__ = [
    "format_rational",
    "graph_to_json_dict",
    "graph_from_json_dict",
    "dump_json",
    "load_graph",
    "save_graph",
    "graph_to_tsv",
    "graph_from_tsv",
]


def gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector paused, then put it back
    as it was, also when ``fn`` raises.  A report allocates a few small
    objects per step while the sweep's own objects stay live, so collections
    would walk those again and again without freeing any."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def format_rational(q: Fraction) -> str:
    """Canonical string form: ``"3"`` for integers, ``"11/10"`` otherwise.
    Takes a Fraction or an int as it is."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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
    return chain_graph(map(_json_row, raw_arcs), states)


def _json_row(entry) -> tuple:
    if not isinstance(entry, dict):
        raise GraphError(f"arc entry must be a JSON object, got {entry!r}")
    try:
        row = (entry["from"], entry["to"], entry["U"])
    except KeyError as exc:
        raise GraphError(f"arc entry missing key {exc.args[0]!r}: {entry!r}") from exc
    kappa = entry.get("kappa")
    return row if kappa is None else (*row, kappa)


def _compact_encoder():
    """One compact, sorted-keys, ASCII JSON encoder, as a function of a value.

    ``JSONEncoder.encode`` builds CPython's C encoder anew on every call, so
    the C encoder is built once here from the same settings; without the C
    accelerator the pure-Python ``encode`` is used.
    """
    enc = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
    make = json.encoder.c_make_encoder
    if make is None:
        return enc.encode
    c = make(
        None, enc.default, json.encoder.encode_basestring_ascii, None,
        enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan,
    )
    return lambda value: "".join(c(value, 0))


_encode = _compact_encoder()


def _encode_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"dump_json takes string keys, got {key!r}")
    return _encode(key)


def dump_json(doc: dict) -> str:
    """Canonical JSON text of a document with string keys.

    Keys are sorted and each top-level key starts a line.  A non-empty list
    or object under a top-level key is written one entry per line, each
    entry in compact JSON; any other value stays on its key's line.  Output
    is ASCII (other characters are escaped), so no string value can break
    the layout, and ends with a newline.
    """
    lines = []
    for key in sorted(doc):
        value = doc[key]
        head = f"  {_encode_key(key)}: "
        if isinstance(value, (list, tuple)) and value:
            body = ",\n    ".join(map(_encode, value))
            lines.append(f"{head}[\n    {body}\n  ]")
        elif isinstance(value, dict) and value:
            body = ",\n    ".join(f"{_encode_key(k)}: {_encode(value[k])}" for k in sorted(value))
            lines.append(f"{head}{{\n    {body}\n  }}")
        else:
            lines.append(head + _encode(value))
    return "{\n" + ",\n".join(lines) + "\n}\n" if lines else "{}\n"


def graph_to_tsv(g: ChainGraph) -> str:
    """TSV text that ``graph_from_tsv`` reads back as ``g``.  Refuses a state
    on no arc (TSV names states only in arcs) and a state whose token is
    empty, holds whitespace or ``#``, or reads back as another state."""
    on_arcs = {s for a in g.arcs for s in (a.tail, a.head)}
    for s in g.states:
        t = str(s)
        unreadable = not t or "#" in t or any(c.isspace() for c in t) or parse_state(t) != s
        if unreadable or s not in on_arcs:
            raise GraphError(f"state {s!r} cannot be written as TSV; write JSON instead")
    lines = ["# tail\thead\tU" + ("\tkappa" if g.has_prefactors else "")]
    for a in sorted(g.arcs, key=lambda a: (state_key(a.tail), state_key(a.head))):
        row = f"{a.tail}\t{a.head}\t{format_rational(a.weight)}"
        if a.kappa is not None:
            row += f"\t{a.kappa!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def graph_from_tsv(text: str) -> ChainGraph:
    """Parse ``tail<TAB>head<TAB>U[<TAB>kappa]`` rows; ``#`` starts a comment.

    State columns are read by ``parse_state`` (an ASCII ``[+-]?[0-9]+``
    token is an int, anything else a string), the U column by
    ``parse_rational`` and the kappa column as a float; ``chain_graph``
    then checks the rows.  The state set is collected from the arcs.
    """
    rows: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise GraphError(f"line {lineno}: expected 3 or 4 columns, got {len(parts)}")
        row = (parse_state(parts[0]), parse_state(parts[1]), parts[2])
        if len(parts) == 4:
            try:
                row += (float(parts[3]),)
            except ValueError:
                raise GraphError(f"line {lineno}: prefactor must be a number, got {parts[3]!r}") from None
        rows.append(row)
    return chain_graph(rows)


def _graph_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        return fmt
    return "tsv" if path.suffix.lower() in (".tsv", ".txt") else "json"


def load_graph(path: Union[str, Path], fmt: str | None = None) -> ChainGraph:
    path = Path(path)
    fmt = _graph_format(path, fmt)
    text = path.read_text()
    if fmt == "json":
        return graph_from_json_dict(json.loads(text))
    if fmt == "tsv":
        return graph_from_tsv(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def save_graph(g: ChainGraph, path: Union[str, Path], fmt: str | None = None) -> None:
    path = Path(path)
    fmt = _graph_format(path, fmt)
    if fmt == "json":
        path.write_text(dump_json(graph_to_json_dict(g)))
    elif fmt == "tsv":
        path.write_text(graph_to_tsv(g))
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
