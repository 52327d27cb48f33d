"""Weighted-digraph model of a metastable continuous-time Markov chain.

A chain is a finite digraph whose arcs carry exact rational exponents
(``weight``) and, optionally, positive float prefactors (``kappa``).  The
jump rate along an arc is ``kappa * exp(-weight / epsilon)``; an absent arc
stands for an infinite exponent, i.e. a forbidden transition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Real
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

State = Union[int, str]

_FLOAT_MAX = sys.float_info.max
_PLAIN_STATE_TYPES = (int, str)

__all__ = [
    "Arc",
    "ChainGraph",
    "ClosedClasses",
    "GeneratorMatrix",
    "GraphError",
    "ValidationFailure",
    "ValidationReport",
    "SymmetryError",
    "EnumerationCapError",
    "InternalInvariantError",
    "arc_rate",
    "chain_graph",
    "check_epsilon",
    "closed_communicating_classes",
    "generator_matrix",
    "parse_rational",
    "parse_state",
    "state_key",
    "strongly_connected_components",
    "super_vertex_name",
    "validate",
]


class GraphError(ValueError):
    """Structural violation in a chain graph (bad arc, bad weight, ...)."""


class ValidationFailure(ValueError):
    """The graph violates a standing assumption required by the caller."""


class SymmetryError(ValueError):
    """The operation needs a symmetry-free run, but ties were detected."""


class EnumerationCapError(ValueError):
    """Brute-force enumeration refused: the state count exceeds the cap."""


class InternalInvariantError(AssertionError):
    """A provable invariant failed.  This is a bug, not a user error."""


def state_key(s: State):
    """Deterministic total order over state ids; ints sort before strings.

    A state id is an int or a str; anything else (a bool, a float, None)
    is rejected.
    """
    if isinstance(s, int) and not isinstance(s, bool):
        return (0, s, "")
    if isinstance(s, str):
        return (1, 0, str(s))
    raise GraphError(f"invalid state id {s!r}: state ids are ints or strings")


def state_to_json(s: State) -> int | str:
    """A state id as JSON: ints stay numbers, anything else becomes a string."""
    return s if isinstance(s, int) else str(s)


def state_set_to_json(states) -> list:
    """A set of state ids as a JSON list, by name; the int 1 goes before the
    string "1", so the order never rests on set iteration."""
    return [state_to_json(s) for s in sorted(states, key=lambda s: (str(s), state_key(s)))]


def parse_state(token: str) -> State:
    """Read a state id from text: an ASCII ``[+-]?[0-9]+`` token is an int,
    anything else is the stripped token as a string."""
    t = token.strip()
    if t.isascii() and (t.isdigit() or t[:1] in ("+", "-") and t[1:].isdigit()):
        return int(t)
    return t


def super_vertex_name(states: Iterable[State]) -> str:
    """Display name of a state set, such as "{1,2,3}": its members in state order."""
    return "{" + ",".join(str(s) for s in sorted(states, key=state_key)) + "}"


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, Fraction or string.

    Strings accept both ``"3/4"`` and decimal forms like ``"1.1"`` (which
    means exactly 11/10, not the nearest binary float).  Floats and bools
    are rejected: an exponent must be exact, and a float rarely is.
    """
    if isinstance(value, str):
        # "digits" and "digits/digits" skip Fraction's regex; any other
        # string, a zero denominator included, takes the general path
        num, slash, den = value.partition("/")
        if value.isascii() and num.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphError(f"unparseable rational {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise GraphError(f"cannot parse rational from {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise GraphError(
            f"float {value!r} is not an exact rational; pass a Fraction, an int "
            "or a decimal/rational string so exactness is preserved"
        )
    raise GraphError(f"cannot parse rational from {value!r}")


@dataclass(frozen=True)
class Arc:
    """Directed arc with exact exponent and optional positive prefactor."""

    tail: State
    head: State
    weight: Fraction
    kappa: float | None = None

    def pair(self) -> tuple[State, State]:
        return (self.tail, self.head)


@dataclass(frozen=True)
class ChainGraph:
    """A checked chain.  A prefactor is a finite positive int or float, stored as a float."""

    states: tuple[State, ...]
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if not self.states:
            raise GraphError("a chain graph needs at least one state")
        seen: set[State] = set()
        for s in self.states:
            state_key(s)
            if s in seen:
                raise GraphError(f"duplicate state {s!r}")
            seen.add(s)
        pairs: set[tuple[State, State]] = set()
        with_prefactors = self.has_prefactors
        arcs = list(self.arcs)
        for i, a in enumerate(arcs):
            t, h, w, k = a.tail, a.head, a.weight, a.kappa
            if type(t) not in _PLAIN_STATE_TYPES or type(h) not in _PLAIN_STATE_TYPES:
                state_key(t)  # a bool or float may equal a state in ``seen``
                state_key(h)
            if t not in seen or h not in seen:
                problem = " references an unknown state"
            elif t == h:
                problem = " is a self-loop"
            elif (t, h) in pairs:
                problem = " appears more than once"
            elif not isinstance(w, Fraction):
                problem = f" has non-Fraction weight {w!r}"
            elif w.numerator <= 0:
                problem = f" has nonpositive weight {w}"
            elif (k is not None) != with_prefactors:
                problem = " mixes prefactor modes: prefactors are all-or-none"
            elif k is None or (type(k) is float and 0 < k <= _FLOAT_MAX):
                problem = None
            elif isinstance(k, bool) or not isinstance(k, (int, float)) or not 0 < k <= _FLOAT_MAX:
                problem = f": prefactor must be a finite positive number, got {k!r}"
            else:
                problem = None
                arcs[i] = Arc(t, h, w, float(k))
            if problem:
                raise GraphError(f"arc {t!r}->{h!r}{problem}")
            pairs.add((t, h))
        object.__setattr__(self, "arcs", tuple(arcs))

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def has_prefactors(self) -> bool:
        return bool(self.arcs) and self.arcs[0].kappa is not None

    @cached_property
    def integer_weights(self) -> tuple[int, dict[tuple[State, State], int]]:
        """``(scale, {pair: int})``: every exponent times ``scale``, the lcm
        of their denominators.  Computed once per graph; the sweeps, the
        oracle and the in-forest expansion all compare these integers."""
        scale = math.lcm(*(a.weight.denominator for a in self.arcs))
        return scale, {
            (a.tail, a.head): a.weight.numerator * (scale // a.weight.denominator)
            for a in self.arcs
        }

    @cached_property
    def arc_map(self) -> dict[tuple[State, State], Arc]:
        return {a.pair(): a for a in self.arcs}

    @cached_property
    def _out(self) -> dict[State, tuple[Arc, ...]]:
        out: dict[State, list[Arc]] = {s: [] for s in self.states}
        for a in self.arcs:
            out[a.tail].append(a)
        return {s: tuple(arcs) for s, arcs in out.items()}

    def out_arcs(self, s: State) -> tuple[Arc, ...]:
        return self._out[s]

    def adjacency(self) -> dict[State, list[State]]:
        return {s: [a.head for a in self._out[s]] for s in self.states}


def chain_graph(arcs: Iterable[Sequence], states: Iterable[State] | None = None) -> ChainGraph:
    """Build a ChainGraph from ``(tail, head, weight[, kappa])`` rows.

    This is the one builder every graph reader goes through.  Weights may
    be ints, Fractions or rational/decimal strings (see ``parse_rational``).
    A prefactor is taken as given: an int or a float that is finite and
    positive, never a string or a bool.  When ``states`` is omitted the
    state set is collected from the arcs and sorted deterministically.
    """
    built: list[Arc] = []
    for item in arcs:
        if len(item) == 3:
            t, h, w = item
            kappa = None
        elif len(item) == 4:
            t, h, w, kappa = item
        else:
            raise GraphError(f"arc tuple {item!r} must have 3 or 4 entries")
        try:
            w = parse_rational(w)
        except GraphError as exc:
            raise GraphError(f"arc {t!r}->{h!r}: {exc}") from exc
        built.append(Arc(t, h, w, kappa))
    if states is None:
        states = sorted({s for a in built for s in (a.tail, a.head)}, key=state_key)
    return ChainGraph(tuple(states), tuple(built))


def _normalize(
    g: "ChainGraph | Mapping[State, Iterable[State]]",
    vertices: Iterable[State] | None = None,
) -> tuple[list[State], dict[State, list[State]]]:
    if isinstance(g, ChainGraph):
        return list(g.states), g.adjacency()
    adj = {v: list(heads) for v, heads in g.items()}
    if vertices is None:
        verts: list[State] = list(adj)
        known = set(verts)
        for heads in adj.values():
            for h in heads:
                if h not in known:
                    known.add(h)
                    verts.append(h)
    else:
        verts = list(vertices)
    for v in verts:
        adj.setdefault(v, [])
    return verts, adj


def strongly_connected_components(
    g: "ChainGraph | Mapping[State, Iterable[State]]",
    vertices: Iterable[State] | None = None,
) -> list[frozenset]:
    """Tarjan's algorithm, iterative so deep graphs cannot overflow the stack.

    Components come out in reverse topological order of the condensation.
    """
    verts, adj = _normalize(g, vertices)
    index: dict[State, int] = {}
    lowlink: dict[State, int] = {}
    on_stack: set[State] = set()
    stack: list[State] = []
    components: list[frozenset] = []
    counter = 0

    for root in verts:
        if root in index:
            continue
        # Explicit DFS state machine: (vertex, iterator over successors).
        work = [(root, iter(adj[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    return components


class ClosedClasses(NamedTuple):
    nontrivial: tuple[frozenset, ...]
    absorbing: tuple[State, ...]


def closed_communicating_classes(
    g: "ChainGraph | Mapping[State, Iterable[State]]",
    vertices: Iterable[State] | None = None,
) -> ClosedClasses:
    """Closed communicating classes of a digraph.

    Returns the nontrivial classes (mutually reachable sets of two or more
    vertices with no arc leaving the set) and, separately, the absorbing
    vertices (single vertices without outgoing arcs).
    """
    verts, adj = _normalize(g, vertices)
    nontrivial: list[frozenset] = []
    absorbing: list[State] = []
    for comp in strongly_connected_components(adj, verts):
        closed = all(h in comp for v in comp for h in adj[v])
        if not closed:
            continue
        if len(comp) >= 2:
            nontrivial.append(comp)
        else:
            absorbing.append(next(iter(comp)))
    nontrivial.sort(key=lambda c: sorted(map(state_key, c)))
    absorbing.sort(key=state_key)
    return ClosedClasses(tuple(nontrivial), tuple(absorbing))


@dataclass(frozen=True)
class ValidationReport:
    n: int
    scc_partition: tuple[frozenset, ...]
    closed_classes: tuple[frozenset, ...]
    is_irreducible: bool
    satisfies_a2: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": 2,
            "kind": "validation-report",
            "n": self.n,
            "scc_partition": [state_set_to_json(c) for c in self.scc_partition],
            "closed_classes": [state_set_to_json(c) for c in self.closed_classes],
            "is_irreducible": self.is_irreducible,
            "satisfies_a2": self.satisfies_a2,
        }

    def require_one_closed_class(self) -> None:
        """Refuse a chain without exactly one closed communicating class."""
        if not self.satisfies_a2:
            raise ValidationFailure(
                "expected exactly one closed communicating class, found "
                f"{len(self.closed_classes)}: "
                + ", ".join(super_vertex_name(c) for c in self.closed_classes)
            )


def validate(g: ChainGraph) -> ValidationReport:
    """Semantic validation: SCC partition, closed classes, key assumptions.

    ``satisfies_a2`` means the chain has exactly one closed communicating
    class (counting an absorbing state as a trivial closed class), which is
    what the timescale algorithms require of their input.
    """
    sccs = strongly_connected_components(g)
    adj = g.adjacency()
    closed = [c for c in sccs if all(h in c for v in c for h in adj[v])]
    closed.sort(key=lambda c: sorted(map(state_key, c)))
    return ValidationReport(
        n=g.n,
        scc_partition=tuple(sccs),
        closed_classes=tuple(closed),
        is_irreducible=len(sccs) == 1,
        satisfies_a2=len(closed) == 1,
    )


@dataclass(frozen=True)
class GeneratorMatrix:
    states: tuple[State, ...]
    epsilon: float
    matrix: np.ndarray
    order_one_only: bool = False

    @property
    def index(self) -> dict[State, int]:
        return {s: i for i, s in enumerate(self.states)}

    def norm(self) -> float:
        return float(np.max(np.abs(self.matrix)))


def check_epsilon(epsilon) -> float:
    """The one epsilon rule: a real number, not a bool, finite and positive.
    It is returned as a float, so every caller computes in float64."""
    if isinstance(epsilon, Real) and not isinstance(epsilon, bool):
        try:
            eps = float(epsilon)
        except OverflowError:
            eps = math.inf
        if 0 < eps < math.inf:
            return eps
    raise ValueError(f"epsilon must be a finite positive real, got {epsilon!r}")


def arc_rate(a: Arc, epsilon: float) -> float:
    """Jump rate ``kappa * exp(-U/epsilon)`` of one arc; kappa is 1 when absent."""
    kappa = 1.0 if a.kappa is None else a.kappa
    return kappa * float(np.exp(-float(a.weight) / epsilon))


def generator_matrix(g: ChainGraph, epsilon: float) -> GeneratorMatrix:
    """Dense generator ``L`` with ``L_ij = kappa_ij * exp(-U_ij/epsilon)``.

    Rows sum to zero by construction.  If the graph carries no prefactors
    they default to 1 and the result is flagged ``order_one_only``: its
    entries are correct to exponential order only.
    """
    epsilon = check_epsilon(epsilon)
    idx = {s: i for i, s in enumerate(g.states)}
    n = g.n
    L = np.zeros((n, n), dtype=float)
    for a in g.arcs:
        L[idx[a.tail], idx[a.head]] = arc_rate(a, epsilon)
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return GeneratorMatrix(
        states=g.states,
        epsilon=epsilon,
        matrix=L,
        order_one_only=not g.has_prefactors,
    )
