"""Kinetic Monte Carlo simulation and transition-census checks.

The simulator (Gillespie's direct method) draws exponential holding times
with the total exit rate of the current state and picks the next arc
proportionally to its rate, so trajectories are exact samples of the chain
at the given epsilon.  The rate tables come from the arcs, never from a
dense generator.  A call builds a state's table the first time one of its
walks enters that state, and an ensemble shares its tables across its
trajectories, so a short ensemble on a large chain pays only for the states
it visits; no table outlives the call.  A table holds the state's
cumulative rates as a Python list, so an event costs two scalar draws, one
``bisect`` and two list appends (under 2 us in CPython).

A state whose exit rates all underflow at that epsilon is refused, visited
or not, since its holding time would not be finite.  Tables are built on
first entry only when no arc's rate can fall below exp(-700), which holds
when the chain has no prefactors and every exponent is below 700 epsilon;
otherwise every table is built before the first jump, in state order, and
the first such state is refused.

A trajectory stores its jumps as two flat columns: the jump times in an
``array("d")`` and the arcs taken in a tuple of the graph's own ``Arc``
objects, 16 bytes per jump.  ``Trajectory.jumps`` reads them as a lazy
sequence of ``(time, arc)`` pairs.  Census helpers count which arcs the
jumps used inside a time window; comparing those counts against a
transition graph's arc set quantifies how strongly the dynamics
concentrates on the predicted transitions.

Randomness comes from numpy's PCG64 as ``default_rng(seed)`` starts it;
each event draws an exponential and then a uniform, so a seed gives the
same trajectory as in earlier versions.  Ensembles derive one 64-bit seed
per trajectory from a single ``SeedSequence`` root, and every census
records the seeds and the generator name.  ``simulate`` calls
``default_rng``; an ensemble instead derives the PCG64 state of all its
seeds in one vectorised pass, replaying ``SeedSequence``'s hash and
PCG64's seeding (both fixed by NumPy's stream-compatibility policy,
NEP 19), and walks every trajectory on one generator set to its seed's
state: constructing a generator per seed cost about 10 us, a third of a
short trajectory.  Once per process the derivation is checked against
``default_rng`` itself, and a mismatch raises ``InternalInvariantError``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Real

import numpy as np

from .chain import (
    Arc,
    ChainGraph,
    GraphError,
    InternalInvariantError,
    State,
    arc_rate,
    check_epsilon,
    state_key,
    state_to_json,
)
from .graphio import gc_paused

__all__ = [
    "GENERATOR_NAME",
    "Trajectory",
    "TransitionCensus",
    "CoverageReport",
    "simulate",
    "simulate_ensemble",
    "census",
    "census_vs_tgraph",
]

GENERATOR_NAME = "numpy-PCG64"


class _Jumps(Sequence):
    """A trajectory's jumps as ``(time, arc)`` pairs, read from its two
    columns without copying them.  A slice is a tuple of pairs, and the
    view equals another view or the tuple of pairs with the same jumps."""

    __slots__ = ("_times", "_arcs")

    def __init__(self, times: array, arcs: tuple):
        self._times = times
        self._arcs = arcs

    def __len__(self) -> int:
        return len(self._arcs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(zip(self._times[i], self._arcs[i]))
        return (self._times[i], self._arcs[i])

    def __iter__(self):
        return zip(self._times, self._arcs)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Jumps):
            return self._times == other._times and self._arcs == other._arcs
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"_Jumps({tuple(self)!r})"


@dataclass(frozen=True)
class Trajectory:
    """One sampled path from ``initial``: jump k happens at ``times[k]``
    along ``arcs[k]``, one of the graph's own arcs.  ``jumps`` views the
    two columns as ``(time, arc)`` pairs."""

    initial: State
    times: array = field(hash=False)  # an array is unhashable; equal arcs stand for it in the hash
    arcs: tuple
    horizon: float
    seed: int
    epsilon: float
    absorbed: bool
    truncated: bool
    generator_name: str = GENERATOR_NAME

    @property
    def jumps(self) -> _Jumps:
        return _Jumps(self.times, self.arcs)

    @property
    def n_jumps(self) -> int:
        return len(self.arcs)

    def end_time(self) -> float:
        # A truncated trajectory carries no information past its last jump.
        if self.truncated and self.times:
            return self.times[-1]
        return self.horizon


def _check_start(g: ChainGraph, x0: State, horizon: float, seed, max_events, n=1) -> list:
    """Check the start state and horizon; return the horizon as a float (a
    real too large for one is infinite), then the seed, the event cap and
    the ensemble size as ints, refusing a bool or a non-integer."""
    try:
        g.out_arcs(x0)
    except KeyError:
        raise GraphError(f"unknown start state {x0!r}") from None
    if isinstance(horizon, bool) or not isinstance(horizon, Real) or not horizon > 0:
        raise GraphError(f"horizon must be a real number > 0, got {horizon!r}")
    try:
        out = [float(horizon)]
    except OverflowError:
        out = [math.inf]
    for name, value, least in (("seed", seed, 0), ("max_events", max_events, 1), ("ensemble size n", n, 1)):
        try:
            out.append(operator.index(value))
        except TypeError:
            out.append(least - 1)
        if out[-1] < least or isinstance(value, bool):
            raise GraphError(f"{name} must be an int >= {least}, got {value!r}")
    return out


# exp(-700) is a normal double whose reciprocal is finite (both overflow
# and underflow start past exp(+-708)), so a state whose arcs all have
# U / epsilon below this and prefactor 1 has a finite holding time.
_SAFE_EXPONENT = 700.0


def _rate_table(g: ChainGraph, s: State, epsilon: float):
    """(arcs, cumulative rates, total rate, 1 / total) of state s, or None
    when s is absorbing.

    The arc tuple ends with its last arc once more, so that when
    ``u * total`` reaches ``total`` and ``bisect_right`` returns
    ``len(cum)``, the walk still takes the last arc, without a branch."""
    arcs = g.out_arcs(s)
    if not arcs:
        return None
    cum = list(accumulate(arc_rate(a, epsilon) for a in arcs))  # sequential adds: np.cumsum's doubles
    total = cum[-1]
    if not (total > 0 and math.isfinite(1.0 / total)):
        raise GraphError(
            f"state {s!r} has total exit rate {total!r} at epsilon={epsilon!r}, "
            "so its holding time is not finite; use a larger epsilon"
        )
    return (arcs + (arcs[-1],), cum, total, 1.0 / total)


class _RateTables(dict):
    """One call's rate tables: a state's table is built on its first lookup."""

    __slots__ = ("_g", "_epsilon")

    def __init__(self, g: ChainGraph, epsilon: float):
        super().__init__()
        self._g = g
        self._epsilon = epsilon

    def __missing__(self, s: State):
        table = self[s] = _rate_table(self._g, s, self._epsilon)
        return table


def _rates_stay_normal(g: ChainGraph, epsilon: float) -> bool:
    """True when no arc's rate can fall below exp(-700): the chain has no
    prefactors and its largest exponent is below 700 epsilon."""
    if g.has_prefactors:
        return False
    scale, weights = g.integer_weights
    try:
        return max(weights.values(), default=0) / scale < _SAFE_EXPONENT * epsilon
    except OverflowError:  # an exponent too large for a float
        return False


def _rate_tables(g: ChainGraph, epsilon: float) -> dict:
    """The rate tables of one call, keyed by state.

    They are built on first entry when every state's holding time is
    known to be finite; otherwise every table is built now, in state
    order, so the first state whose exit rates underflow is refused
    whether or not a walk would reach it."""
    epsilon = check_epsilon(epsilon)
    tables = _RateTables(g, epsilon)
    if not _rates_stay_normal(g, epsilon):
        tables.update({s: _rate_table(g, s, epsilon) for s in g.states})
    return tables


@gc_paused
def simulate(
    g: ChainGraph,
    epsilon: float,
    x0: State,
    horizon: float,
    seed: int,
    max_events: int = 10**6,
) -> Trajectory:
    """Sample one trajectory from x0 over [0, horizon], deterministic in seed.

    The seed is an int >= 0.  Ends early when an absorbing state is reached
    (flagged ``absorbed``) or when the event cap, an int >= 1, trips
    (flagged ``truncated``, never silent).
    """
    horizon, seed, cap, _n = _check_start(g, x0, horizon, seed, max_events)
    return _walk(np.random.default_rng(seed), _rate_tables(g, epsilon), epsilon, x0, horizon, seed, cap)


def _walk(rng, tables: dict, epsilon: float, x0: State, horizon: float, seed: int, max_events: int):
    exponential, uniform = rng.exponential, rng.random
    t = 0.0
    state = x0
    times: list = []
    arcs: list = []
    add_time, add_arc = times.append, arcs.append
    absorbed = truncated = False
    for _ in range(max_events):
        table = tables[state]
        if table is None:
            absorbed = True
            break
        padded, cum, total, mean = table
        t += exponential(mean)
        if t > horizon:
            break
        arc = padded[bisect_right(cum, uniform() * total)]
        add_time(t)
        add_arc(arc)
        state = arc.head
    else:
        truncated = True
    # positional: a keyword call to the frozen dataclass costs ~0.5 us more per trajectory
    return Trajectory(
        x0, array("d", times), tuple(arcs), horizon, int(seed), float(epsilon), absorbed, truncated
    )


# What ``np.random.default_rng(seed)`` does to an int seed below 2**64, as
# fixed by NumPy's stream-compatibility policy (NEP 19): ``SeedSequence``
# hashes the seed's two 32-bit words into a pool of four words, draws eight
# words from the pool, and ``PCG64`` takes them as a 128-bit initial state
# and a 128-bit stream selector.  Every ``SeedSequence`` hash multiplies by
# a power of a fixed constant, one per call in a fixed order, so those
# powers are tabled here once.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _powers(init: int, mult: int, k: int) -> list:
    """init * mult**i mod 2**32 for i = 0..k."""
    out = [init]
    for _ in range(k):
        out.append(out[-1] * mult & _MASK32)
    return out


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


def _hashmix(x: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of x, whose hash constants are ``xor``
    before the call and ``mul`` after it."""
    x = (x ^ xor) * mul
    x ^= x >> _XSHIFT
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of x and y."""
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


# hashmix call k, for k = 0..15, xors with _A[k] and multiplies by _A[k + 1].
_A = _powers(0x43B0D7E5, 0x931E8875, 16)
# Calls 0 and 1 hash the seed's low and high word; calls 2 and 3 hash zeros.
_FILL_XOR, _FILL_MUL = _column(_A[0:2]), _column(_A[1:3])
_FILL_ZEROS = _hashmix(np.zeros((2, 1), dtype=np.uint32), _column(_A[2:4]), _column(_A[3:5]))


def _cross_constants(src: int) -> tuple:
    """Hash constants of the step that mixes pool word src into the other
    three, in pool order, with hashmix calls 4 + 3 * src onwards; src's own
    row gets zeros, and the step puts that row back."""
    xor, mul = [0] * 4, [0] * 4
    for k, d in enumerate([d for d in range(4) if d != src], start=4 + 3 * src):
        xor[d], mul[d] = _A[k], _A[k + 1]
    return _column(xor), _column(mul)


# Calls 4..15 mix each pool word into the other three, src = 0..3 in turn.
_CROSS = [_cross_constants(src) for src in range(4)]
# generate_state's word i reads pool word i % 4 and hashes with _B[i], _B[i + 1].
# The eight words are taken in the order that puts each 128-bit number's
# low 64 bits first: (2, 3, 0, 1) is the initial state, (6, 7, 4, 5) the selector.
_B = _powers(0x8B51F9DD, 0x58F38DED, 8)
_WORDS = [2, 3, 0, 1, 6, 7, 4, 5]
_WORD_ROWS = [i % 4 for i in _WORDS]
_WORD_XOR, _WORD_MUL = _column([_B[i] for i in _WORDS]), _column([_B[i + 1] for i in _WORDS])


def _pcg64_states(seeds: np.ndarray) -> list:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(s)`` starts
    from, for each s in a uint64 array, in one pass over all of them."""
    n = len(seeds)
    words = seeds.astype("<u8", copy=False).view("<u4").reshape(n, 2).T  # low word, high word
    pool = np.empty((4, n), dtype=np.uint32)
    pool[:2] = _hashmix(words, _FILL_XOR, _FILL_MUL)
    pool[2:] = _FILL_ZEROS
    for src, (xor, mul) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[src], xor, mul))
        mixed[src] = pool[src]
        pool = mixed
    out = _hashmix(pool[_WORD_ROWS], _WORD_XOR, _WORD_MUL)
    halves = np.ascontiguousarray(out.T).astype("<u4", copy=False).view("<u8").tolist()
    pairs = []
    for state_lo, state_hi, seq_lo, seq_hi in halves:
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        pairs.append(((((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return pairs


def _bit_generator_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


@functools.cache
def _check_stream_derivation() -> None:
    """Refuse, once per process, to run ensembles whose streams would not
    be the ones ``np.random.default_rng`` gives the same seeds."""
    seeds = np.array([0, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
    for s, pair in zip(seeds.tolist(), _pcg64_states(seeds)):
        if np.random.default_rng(s).bit_generator.state != _bit_generator_state(*pair):
            raise InternalInvariantError(
                f"the PCG64 state derived for seed {s} is not the one numpy {np.__version__} gives"
            )


@gc_paused
def simulate_ensemble(
    g: ChainGraph,
    epsilon: float,
    x0: State,
    horizon: float,
    n: int,
    seed: int,
    max_events: int = 10**6,
) -> tuple:
    """n independent trajectories; per-trajectory seeds spawn from one root.

    n is an int >= 1 and the root seed an int >= 0.  The trajectories
    share one set of rate tables, each built when a walk first enters its
    state, and the tables are dropped when the call returns.  A state whose
    holding time is not finite is refused, reached or not.  Each
    trajectory is the one ``simulate`` gives at its own seed.
    """
    horizon, seed, cap, n = _check_start(g, x0, horizon, seed, max_events, n)
    _check_stream_derivation()
    tables = _rate_tables(g, epsilon)
    child_seeds = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    out = []
    for s, pair in zip(child_seeds.tolist(), _pcg64_states(child_seeds)):
        bit_generator.state = _bit_generator_state(*pair)
        out.append(_walk(rng, tables, epsilon, x0, horizon, s, cap))
    return tuple(out)


@dataclass(frozen=True)
class TransitionCensus:
    counts: dict
    n_trajectories: int
    epsilon: float
    window: tuple
    seeds: tuple
    generator_name: str
    per_trajectory: tuple

    @property
    def total_jumps(self) -> int:
        return sum(self.counts.values())

    def to_csv(self) -> str:
        """One row per arc; a state is named by its JSON token, so the
        string ``"1"`` and the int ``1`` differ."""
        lo, hi = self.window
        total = self.total_jumps
        out = io.StringIO()
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(["arc", "window", "count", "frequency"])
        for t, h, c in _arc_counts_to_json(self.counts):
            freq = c / total if total else 0.0
            rows.writerow([f"{json.dumps(t)}->{json.dumps(h)}", f"({lo};{hi}]", c, f"{freq:.6g}"])
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "schema": 2,
            "kind": "transition-census",
            "epsilon": self.epsilon,
            "window": list(self.window),
            "n_trajectories": self.n_trajectories,
            "total_jumps": self.total_jumps,
            "generator": self.generator_name,
            "seeds": [int(s) for s in self.seeds],
            "counts": _arc_counts_to_json(self.counts),
        }


def _arc_counts_to_json(counts: dict) -> list:
    """Per-arc counts as ``[from, to, count]`` entries in state order."""
    return [
        [state_to_json(t), state_to_json(h), c]
        for (t, h), c in sorted(counts.items(), key=lambda kv: (state_key(kv[0][0]), state_key(kv[0][1])))
    ]


def census(trajectories: Sequence[Trajectory], window: tuple) -> TransitionCensus:
    """Count per-arc jumps with jump time in (t_lo, t_hi], per trajectory set."""
    return _census(trajectories, window, frozenset())[0]


def _check_window(window: tuple) -> tuple:
    """The census window ``(t_lo, t_hi)``, refused unless 0 <= t_lo < t_hi."""
    lo, hi = window
    if not (hi > lo >= 0):
        raise GraphError(f"window must satisfy 0 <= t_lo < t_hi, got {window!r}")
    return lo, hi


def _census(trajectories: Sequence[Trajectory], window: tuple, pairs: frozenset) -> tuple:
    """The census of ``window``, and per trajectory how many of its
    in-window jumps run along an arc in ``pairs``, in one walk."""
    lo, hi = _check_window(window)
    if not trajectories:
        raise GraphError("census needs at least one trajectory")
    eps = trajectories[0].epsilon
    counts: dict = {}
    per_traj: list = []
    on_per: list = []
    for traj in trajectories:
        if traj.epsilon != eps:
            raise GraphError("all trajectories in one census must share epsilon")
        k = on = 0
        for t, arc in zip(traj.times, traj.arcs):
            if lo < t <= hi:
                pair = arc.pair()
                counts[pair] = counts.get(pair, 0) + 1
                k += 1
                on += pair in pairs
        per_traj.append(k)
        on_per.append(on)
    return TransitionCensus(
        counts=counts,
        n_trajectories=len(trajectories),
        epsilon=eps,
        window=(float(lo), float(hi)),
        seeds=tuple(t.seed for t in trajectories),
        generator_name=GENERATOR_NAME,
        per_trajectory=tuple(per_traj),
    ), on_per


@dataclass(frozen=True)
class CoverageReport:
    census: TransitionCensus
    coverage: float
    stderr: float
    on_count: int
    off_count: int
    off_arcs: dict

    def to_json_dict(self) -> dict:
        return {
            "schema": 2,
            "kind": "coverage-report",
            "coverage": self.coverage,
            "stderr": self.stderr,
            "on_count": self.on_count,
            "off_count": self.off_count,
            "off_arcs": _arc_counts_to_json(self.off_arcs),
            "census": self.census.to_json_dict(),
        }


def census_vs_tgraph(
    trajectories: Sequence[Trajectory], tgraph, window: tuple
) -> CoverageReport:
    """Fraction of in-window jumps that run along the transition graph's arcs.

    The standard error is cluster-robust over trajectories (jumps within a
    trajectory are correlated, so per-jump binomial errors would overstate
    the precision).
    """
    pairs = tgraph.pairs()
    cen, on_per = _census(trajectories, window, pairs)
    if cen.total_jumps == 0:
        raise GraphError("no jumps observed in the window; census is empty")
    on = sum(on_per)
    off_arcs = {p: c for p, c in cen.counts.items() if p not in pairs}
    total = cen.total_jumps
    coverage = on / total
    resid_sq = sum((k - coverage * tot) ** 2 for k, tot in zip(on_per, cen.per_trajectory))
    stderr = float(np.sqrt(resid_sq)) / total

    return CoverageReport(
        census=cen,
        coverage=coverage,
        stderr=stderr,
        on_count=on,
        off_count=total - on,
        off_arcs=off_arcs,
    )

