"""Seeded input corpus: chain families, kinesin grids, numeric chains.

Everything here is plain Python.  The generators never call the package,
and the graph files follow the documented JSON format (schema 1, exponents
as rational strings), so the program under test only ever sees inputs.

Why each family is here:

* ``distinct``: a Hamiltonian cycle plus random arcs (three arcs per
  state), exponents ``k/7`` drawn from a wide range so ties are rare.  Both
  sweeps take about ``n + cycles`` steps; the simultaneous sweep runs one
  SCC pass per step, so its quadratic terms show here.
* ``ties``: the same topology with small integer exponents.  The
  simultaneous sweep needs only a few dozen release steps while the
  single-arc sweep still takes about ``2n``, and extraction is refused.
* ``deep``: a birth-death funnel with rising barriers on the 1/7 grid.
  Every state joins the cycle around the bottom state 1 in turn, so the
  contraction trees nest ``n - 1`` levels deep.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# The breakpoints of the default kinesin model's switch sweep.
KINESIN_BREAKPOINTS = frozenset(
    Fraction(x) for x in ("1/2", "9/2", "5", "11/2", "6", "19/2", "10")
)
KINESIN_STEPS = tuple(
    Fraction(x) for x in ("1/8", "1/6", "1/4", "1/3", "3/8", "1/2", "2/3", "3/4", "1")
)


@dataclass
class Chain:
    """One generated chain: id, family, arcs, graph file text and path."""

    cid: str
    family: str
    states: tuple
    arcs: tuple  # (tail, head, Fraction)
    text: str
    extra: dict = field(default_factory=dict)
    path: Path | None = None

    @property
    def n(self) -> int:
        return len(self.states)


def _rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def graph_document(states, arcs) -> dict:
    return {
        "schema": 1,
        "kind": "chain-graph",
        "states": list(states),
        "arcs": [{"from": t, "to": h, "U": _rat(w)} for t, h, w in arcs],
    }


def make_chain(cid: str, family: str, states, arcs, **extra) -> Chain:
    text = json.dumps(graph_document(states, arcs))
    return Chain(cid, family, tuple(states), tuple(arcs), text, dict(extra))


def write_chains(chains, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for ch in chains:
        ch.path = directory / f"{ch.cid}.json"
        ch.path.write_text(ch.text)


def cycle_plus_random(rng: random.Random, n: int, n_arcs: int) -> list:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    seen = set(pairs)
    n_arcs = min(n_arcs, n * (n - 1))
    while len(pairs) < n_arcs:
        t, h = rng.randint(1, n), rng.randint(1, n)
        if t != h and (t, h) not in seen:
            seen.add((t, h))
            pairs.append((t, h))
    return pairs


def distinct_arcs(rng: random.Random, n: int, n_arcs: int) -> list:
    pairs = cycle_plus_random(rng, n, n_arcs)
    ks = rng.sample(range(7, 7 * 10**5), len(pairs))
    return [(t, h, Fraction(k, 7)) for (t, h), k in zip(pairs, ks)]


def ties_arcs(rng: random.Random, n: int, n_arcs: int, top: int = 10) -> list:
    pairs = cycle_plus_random(rng, n, n_arcs)
    return [(t, h, Fraction(rng.randint(1, top))) for t, h in pairs]


def deep_arcs(rng: random.Random, n: int) -> list:
    """Birth-death funnel draining into state 1.

    The downhill exponent out of state i+1 rises with i and stays below the
    uphill exponent out of state i, so the cycle around state 1 absorbs the
    states one at a time.
    """
    arcs = []
    for i in range(1, n):
        down = Fraction(7000 * i + rng.randint(1, 6999), 7)
        up = down + Fraction(rng.randint(1, 35000), 7)
        arcs.append((i, i + 1, up))
        arcs.append((i + 1, i, down))
    return arcs


def band_arcs(rng: random.Random, n: int) -> list:
    """Spectral chains: a Hamiltonian cycle plus random arcs (three per state),
    exponents in [1/2, 2] on a 1/700000 grid, fine enough that ties are rare."""
    pairs = cycle_plus_random(rng, n, 3 * n)
    return [(t, h, Fraction(rng.randint(350000, 1400000), 700000)) for t, h in pairs]


def family_arcs(rng: random.Random, family: str, n: int) -> list:
    if family == "distinct":
        return distinct_arcs(rng, n, 3 * n)
    if family == "ties":
        return ties_arcs(rng, n, 3 * n)
    if family == "deep":
        return deep_arcs(rng, n)
    raise ValueError(f"unknown family {family!r}")


def tiny_arcs(rng: random.Random, family: str, n: int) -> list:
    """Atlas chains of 4-9 states: a Hamiltonian cycle plus n random arcs,
    or a birth-death funnel."""
    if family == "deep":
        return deep_arcs(rng, n)
    if family == "distinct":
        return distinct_arcs(rng, n, 2 * n)
    return ties_arcs(rng, n, 2 * n, top=4)


def states_of(arcs) -> list:
    return sorted({s for t, h, _w in arcs for s in (t, h)})


def kinesin_grid(rng: random.Random, index: int, points: int = 12, blocks: int = 12) -> list:
    """Inclusive grid of ``points`` values.

    The step cycles through KINESIN_STEPS with the index, and the start is a
    random multiple of 1/8 inside one of ``blocks`` equal slices of (0, 6],
    taken in turn, so every run spreads its grids alike over the breakpoints
    while some grids still put a point on one.
    """
    step = KINESIN_STEPS[index % len(KINESIN_STEPS)]
    width = 48 // blocks
    block = (index // len(KINESIN_STEPS)) % blocks
    start = Fraction(width * block + rng.randint(1, width), 8)
    return [start + i * step for i in range(points)]
