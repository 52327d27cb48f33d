"""Workload recipes, the timed stages and the output checks.

A run is a closed loop with one caller: every call into the package waits
for its result before the next one starts.  A workload is a recipe that
sizes five stages and gives each a share of ``--seconds``:

* ``sweep`` and ``tiny`` (chains of at most nine states): each chain goes
  file -> ``load_graph`` -> ``run_algorithm1`` / ``run_algorithm2`` ->
  ``to_json_dict`` -> ``dump_json`` -> written file, then
  ``compare_alg1_alg2``, ``extract_wgraph`` for every m and, on tiny
  chains, ``enumerate_all_optimal``;
* ``kinesin``: ``kinesin_sweep`` with bisection over grids;
* ``spectral``: ``compare_spectrum`` over an epsilon schedule;
* ``kmc``: ``simulate_ensemble`` of short trajectories, a few long
  event-capped trajectories, and ``census_vs_tgraph`` on both.

Every workload runs every stage, so every end-to-end metric is defined on
every workload; the recipe decides where the time goes.  The stages'
units (one operation on one chain, one grid, ...) are interleaved so each
stage's samples spread over the whole run, and each stage makes passes
until the run's time is used, at least one full pass.  Times are medians
over passes, summed over the units of one pass.

Each attempted operation gets one outcome on its first pass: ``pass``, a
documented refusal (``SymmetryError``, ``EnumerationCapError``) or ``fail``
with a reason tag.  Checks run outside the timed calls and read only
gamma, delta, theta, multiplicity, in-forests (sinks, arcs, weight),
kinesin boundaries and spectral defects.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import signal
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import corpus
from spans import Tracer

clock = time.perf_counter

# Failure tags of the defects known at the time the benchmark was written.
# A failure is filed under one of these only when it has the defect's own
# signature (see the checks below); any other failure gets another tag and
# makes the run report ``correct: false``.
KNOWN_DEFECTS = {
    "wgraph-identity": "(a) extract_wgraph gives a valid forest heavier than delta_m + ... + delta_(n-1)",
    "wgraph-not-optimal": "(a) extract_wgraph gives a valid forest heavier than the enumerated optimum",
    "kinesin-on-breakpoint": "(b) a grid point on a breakpoint gives inexact boundaries next to it, not the breakpoint",
    "kinesin-bracket": "(e) a bracket spanning two breakpoints (ends included) gives a point between them flagged exact",
    "kinesin-inexact": "(f) a breakpoint no bisection midpoint hits is found but flagged inexact",
    "report-recursion": "(c) report building raises RecursionError once contraction trees nest ~500 deep",
    "spectral-defect": "(d) float64 eigenvalues miss slow modes whose rate is below float resolution",
}

SPECTRAL_SCHEDULE = (0.2, 0.1, 0.05, 0.04, 0.03)
# The numerical rate must lie within exp(+-2) of exp(-delta/eps), i.e. the
# defect |eps * log(lambda) + delta| is at most 2 * eps.
SPECTRAL_TOL_FACTOR = 2.0
# Defect (d) is a mode whose predicted rate exp(-delta/eps) is below float64
# resolution: under the first-order error bound of its computed eigenvalue,
# machine epsilon times ||L||_F over the eigenvalue's condition number s
# (LAPACK Users' Guide, error bounds for the nonsymmetric eigenproblem).
FLOAT_RESOLUTION = float(np.finfo(float).eps)
# Defect (b) leaves the boundary within this share of its bracket's width
# from the breakpoint (bisection runs 20 steps before it gives up).
ON_BREAKPOINT_SLACK = Fraction(1, 2**16)

ENSEMBLE_EPS = 1.0
ENSEMBLE_HORIZON = 50.0
LONG_EPS = 0.5
LONG_HORIZON = 1e300  # long trajectories end at their event cap, flagged truncated

STAGES = ("sweep", "tiny", "kinesin", "spectral", "kmc")

# On a machine whose cores other tenants share, speed drifts by 10-50% within
# seconds.  A SIGALRM handler times two small fixed kernels every
# SPEED_EVERY_S while the run goes on: an integer loop, and numpy scalar
# draws and searches as in the KMC event loop.  Every sample is scaled by
# the mean of SPEED_REF_S / kernel time over its own interval (widened by
# SPEED_WINDOW_S), so times are seconds of a machine on which the kernels
# take SPEED_REF_S.  Calls that spend their time in numpy (NUMPY_BOUND) are
# scaled by the numpy kernel, the rest by the integer loop: each kernel
# left about half the spread of the other on the calls it resembles.
# Kernels that touch much memory were tried and dropped: inside the handler
# they time the cache misses of the interrupted call, which a change to the
# package would move.
SPEED_REF_S = 100e-6
SPEED_EVERY_S = 0.025
SPEED_WINDOW_S = 0.1
NUMPY_BOUND = frozenset(
    {"spectrum", "kmc_ensemble", "kmc_long", "spectral.eig", "chain.generator", "kmc.simulate"}
)


@dataclass(frozen=True)
class Recipe:
    big: tuple  # (family, states, count) of the sweep stage's chains
    tiny: int  # 4-9-state chains of the tiny stage, every (family, size) equally often
    grids: int  # kinesin grids of 12 points
    spectral: tuple  # (states, count) of band chains
    nested: bool  # add nested_cycle_chain to the spectral stage
    ensemble: tuple  # (states, trajectories) of the short-trajectory ensemble
    long: tuple  # (states, events per trajectory, trajectories)
    seeded: frozenset  # parts drawn from --seed; the others are fixed probes
    shares: dict  # stage -> share of --seconds, for every stage that has units


RECIPES = {
    # Few large chains: sweep asymptotics, report size and memory.
    "ladder": Recipe(
        big=(("distinct", 250, 2), ("ties", 250, 2), ("deep", 600, 1)),
        tiny=30,
        grids=6,
        spectral=(60, 2),
        nested=False,
        ensemble=(300, 30),
        long=(7, 10000, 2),
        seeded=frozenset({"big"}),
        shares={"sweep": 0.72, "tiny": 0.07, "kinesin": 0.06, "spectral": 0.05, "kmc": 0.10},
    ),
    # Thousands of tiny chains and many kinesin grids: per-call overhead.
    "atlas": Recipe(
        big=(),
        tiny=900,
        grids=108,
        spectral=(60, 2),
        nested=False,
        ensemble=(300, 30),
        long=(7, 10000, 2),
        seeded=frozenset({"tiny", "grids"}),
        shares={"tiny": 0.58, "kinesin": 0.32, "spectral": 0.03, "kmc": 0.07},
    ),
    # The float side: spectra and kinetic Monte Carlo, little sweeping.
    "numeric": Recipe(
        big=(("distinct", 20, 1), ("ties", 20, 1), ("deep", 20, 1)),
        tiny=30,
        grids=6,
        spectral=(150, 4),
        nested=True,
        ensemble=(300, 400),
        long=(7, 40000, 4),
        seeded=frozenset({"spectral", "kmc"}),
        shares={"sweep": 0.05, "tiny": 0.05, "kinesin": 0.05, "spectral": 0.35, "kmc": 0.5},
    ),
}


@dataclass
class Corpus:
    sweep: list
    grids: list
    spectral: list
    ensembles: list
    long: list


def build_corpus(mc, workload: str, seed: int) -> Corpus:
    """Generate the workload's inputs, graph files as text, in memory.

    Each part of the recipe has its own random stream.  Parts named in
    ``recipe.seeded`` are drawn from the seed; the rest are probes drawn from
    a fixed stream, the same in every run, so that stages a workload does
    not focus on still give every metric with little run-to-run spread.
    """
    recipe = RECIPES[workload]

    def rng(part: str) -> random.Random:
        origin = seed if part in recipe.seeded else "probe"
        return random.Random(f"metachain-bench/{workload}/{part}/{origin}")

    make = corpus.make_chain
    sweep = []
    r = rng("big")
    for family, n, count in recipe.big:
        for i in range(count):
            arcs = corpus.family_arcs(r, family, n)
            sweep.append(make(f"{family}-{n}-{i}", family, corpus.states_of(arcs), arcs))
    r = rng("tiny")
    families = ("distinct", "ties", "deep")
    for i in range(recipe.tiny):
        family, n = families[i % 3], 4 + (i // 3) % 6
        arcs = corpus.tiny_arcs(r, family, n)
        sweep.append(make(f"tiny-{family}-{i}", family, corpus.states_of(arcs), arcs))
    r = rng("grids")
    grids = [corpus.kinesin_grid(r, i) for i in range(recipe.grids)]
    r = rng("spectral")
    spectral = []
    n_band, count = recipe.spectral
    for i in range(count):
        arcs = corpus.band_arcs(r, n_band)
        spectral.append(make(f"band-{n_band}-{i}", "band", corpus.states_of(arcs), arcs))
    if recipe.nested:
        g = mc.nested_cycle_chain()
        arcs = [(a.tail, a.head, a.weight) for a in g.arcs]
        spectral.append(make("nested_cycle_chain", "demo", g.states, arcs))
    r = rng("kmc")
    n_ens, trajectories = recipe.ensemble
    pairs = corpus.cycle_plus_random(r, n_ens, 3 * n_ens)
    arcs = [(t, h, Fraction(r.randint(7, 28), 7)) for t, h in pairs]
    ensembles = [
        make(f"kmc-{n_ens}", "kmc", corpus.states_of(arcs), arcs,
              trajectories=trajectories, seed=r.randrange(2**32))
    ]
    n_long, events, trajectories = recipe.long
    arcs = corpus.ties_arcs(r, n_long, 3 * n_long, top=4)
    long = [
        make(f"long-{n_long}", "kmc", corpus.states_of(arcs), arcs,
              events=events, seeds=[r.randrange(2**32) for _ in range(trajectories)])
    ]
    return Corpus(sweep, grids, spectral, ensembles, long)


def write_corpus(c: Corpus, directory: Path) -> None:
    corpus.write_chains(c.sweep + c.spectral + c.ensembles + c.long, directory)


class SpeedProbe:
    """Samples machine speed from a SIGALRM handler in the running thread."""

    def __init__(self):
        self.at: list = []  # kernel start times
        self.kernels = {"python": [], "numpy": []}  # kernel durations
        self._previous = None
        self._rng = np.random.default_rng(0)  # its own stream, not the package's
        self._edges = np.arange(1.0, 9.0)

    def _tick(self, _signum, _frame) -> None:
        t0 = clock()
        total = 0
        for i in range(1000):
            total += i * i % 7
        t1 = clock()
        for _ in range(15):
            self._rng.exponential(1.0)
            int(np.searchsorted(self._edges, self._rng.random() * 8.0, side="right"))
        self.at.append(t0)
        self.kernels["python"].append(t1 - t0)
        self.kernels["numpy"].append(clock() - t1)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(8):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float, name: str = "") -> float:
        """Seconds in [t0, t1] at the reference speed, for a call named ``name``."""
        kernel = self.kernels["numpy" if name in NUMPY_BOUND else "python"]
        lo = bisect.bisect_left(self.at, t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + SPEED_WINDOW_S)
        window = kernel[lo:hi] or kernel[-8:]
        return (t1 - t0) * statistics.fmean(SPEED_REF_S / k for k in window)


class Ledger:
    """One outcome per attempted operation, recorded on its first pass."""

    def __init__(self):
        self.outcomes: dict = {}

    def record(self, key, status: str, reason: str | None = None, detail: str = "") -> None:
        self.outcomes.setdefault(key, (status, reason, detail))

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def failures(self) -> list:
        return [(k, r, d) for k, (s, r, d) in self.outcomes.items() if s == "fail"]

    def refusals(self) -> int:
        return sum(1 for s, _r, _d in self.outcomes.values() if s == "refused")


def _timed(fn, *args):
    """(result, exception, (start, end)) of one call."""
    t0 = clock()
    try:
        return fn(*args), None, (t0, clock())
    except Exception as exc:  # the benchmark records every failure and goes on
        return None, exc, (t0, clock())


def identity_failures(ws, delta) -> dict:
    """m -> (message, heavier) for every m where W(m) != delta_m + ... + delta_(n-1).

    This is the identity W(m) - W(m+1) = delta_m summed from m up (W(n) = 0),
    so a wrong forest shows at its own m only.  ``heavier`` says the
    extracted forest weighs more than the sum.
    """
    out = {}
    expected = Fraction(0)
    for m in range(len(ws), 0, -1):
        expected += delta[m - 1]
        got = ws[m - 1].total_weight
        if got != expected:
            out[m] = (f"m={m}: W(m)={got} but delta_m+...+delta_(n-1)={expected}", got > expected)
    return out


def eigenvalue_error_bounds(chain, eps: float) -> np.ndarray:
    """Float64 error bound of each generator eigenvalue, in the order
    ``compare_spectrum`` gives them (index 0 is the zero eigenvalue).

    The generator is built here from the chain's arcs, not by the package.
    The condition number of eigenvalue i is 1 / (||x_i|| ||y_i||) with x_i
    its right eigenvector and y_i the matching row of the inverse of the
    eigenvector matrix.
    """
    index = {s: i for i, s in enumerate(chain.states)}
    gen = np.zeros((chain.n, chain.n))
    for t, h, u in chain.arcs:
        rate = math.exp(-float(u) / eps)
        gen[index[t], index[h]] += rate
        gen[index[t], index[t]] -= rate
    eigs, right = np.linalg.eig(gen)
    norms = np.linalg.norm(right, axis=0) * np.linalg.norm(np.linalg.inv(right), axis=1)
    order = np.lexsort((np.abs(eigs.imag), -eigs.real))
    return (FLOAT_RESOLUTION * np.linalg.norm(gen) * norms)[order]


def forest_problem(chain, w, m: int) -> str | None:
    """Why ``w`` is not an in-forest of the chain with m sinks and its stated
    weight, or None."""
    weight = {(t, h): u for t, h, u in chain.arcs}
    succ = dict(w.arcs)
    if len(succ) != len(w.arcs) or any(p not in weight for p in w.arcs):
        return f"m={m}: arcs are not out-arcs of distinct states of the chain"
    sinks = set(w.sinks)
    if len(sinks) != m or sinks & succ.keys() or sinks | succ.keys() != set(chain.states):
        return f"m={m}: sinks and arc tails do not partition the states into {m} sinks"
    if sum((weight[p] for p in w.arcs), Fraction(0)) != w.total_weight:
        return f"m={m}: total weight {w.total_weight} is not the sum of its arcs"
    rooted = set(sinks)  # states whose arcs lead to a sink
    for v in succ:
        path = set()
        while v not in rooted:
            if v in path:
                return f"m={m}: arcs form a cycle through {v}"
            path.add(v)
            v = succ[v]
        rooted |= path
    return None


def boundary_defect(b, grid) -> str | None:
    """Failure tag of one kinesin boundary; None if it is exact, on a
    breakpoint and inside the grid span."""
    bp = corpus.KINESIN_BREAKPOINTS
    v = b.refined
    if b.exact and v in bp and grid[0] <= v <= grid[-1]:
        return None
    if v is None or not b.lo < v < b.hi:
        return "kinesin-boundary"
    spanned = sorted(x for x in bp if b.lo <= x <= b.hi)
    near = (b.hi - b.lo) * ON_BREAKPOINT_SLACK
    if not b.exact and any(abs(v - x) <= near for x in (b.lo, b.hi) if x in bp):
        return "kinesin-on-breakpoint"
    if b.exact and v not in bp and len(spanned) >= 2 and spanned[0] < v < spanned[-1]:
        return "kinesin-bracket"
    if not b.exact and v in bp:
        return "kinesin-inexact"
    return "kinesin-boundary"


def sweep_ops(chain) -> tuple:
    """Operations on one sweep chain, in order; enumeration only up to 9 states."""
    return ("alg1", "alg2", "compare", "wgraphs") + (("oracle",) if chain.n <= 9 else ())


def _sorted_nondecreasing(xs) -> bool:
    return all(a <= b for a, b in zip(xs, xs[1:]))


class Runner:
    """Runs the stages of one workload and keeps samples, outcomes and counts."""

    def __init__(self, mc, corpus_: Corpus, out_dir: Path, tracer: Tracer, speed: SpeedProbe):
        self.mc = mc
        self.speed = speed
        self.corpus = corpus_
        self.out_dir = out_dir
        self.tr = tracer
        self.ledger = Ledger()
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.raw = defaultdict(list)  # untraced samples before speed scaling
        self.bytes_out: dict = {}
        self.simulated: dict = {}  # (kind, cid) -> (trajectories, events) of one pass
        self.checking = False
        self.traced = False
        self.warmup = False  # a traced run's first pass: checked, not timed
        self.passes: dict = {}
        self.layer: dict = defaultdict(float)  # per-layer values per traced pass
        self._ctx: dict = {}  # cid -> results of the chain's earlier operations
        self.all_spans: list = []
        self.family = {}

    # -- bookkeeping ---------------------------------------------------

    def sample(self, metric: str, key, span: tuple) -> None:
        if self.warmup:
            return
        self.samples[self.traced][(metric, key)].append(self.speed.scale(*span, metric))
        if not self.traced:
            self.raw[(metric, key)].append(span[1] - span[0])

    def fail_or_refuse(self, key, exc, recursion_tag: str | None = None) -> None:
        mc = self.mc
        if isinstance(exc, (mc.SymmetryError, mc.EnumerationCapError)):
            self.ledger.record(key, "refused", type(exc).__name__)
        elif isinstance(exc, RecursionError) and recursion_tag:
            self.ledger.record(key, "fail", recursion_tag, str(exc)[:120])
        elif isinstance(exc, mc.InternalInvariantError):
            self.ledger.record(key, "fail", "invariant", str(exc)[:200])
        else:
            self.ledger.record(key, "fail", f"exception:{type(exc).__name__}", str(exc)[:200])

    def check(self, key, problems: list, tag: str) -> None:
        if problems:
            self.ledger.record(key, "fail", tag, "; ".join(problems)[:300])
        else:
            self.ledger.record(key, "pass")

    # -- sweep stage ---------------------------------------------------

    def _report(self, chain, alg: int):
        mc, tr = self.mc, self.tr
        sweep = mc.run_algorithm1 if alg == 1 else mc.run_algorithm2
        out_path = self.out_dir / f"alg{alg}.json"
        got: dict = {}

        def flow():
            got["g"] = tr.call("graphio.load", mc.load_graph, chain.path)
            got["rep"] = tr.call(f"alg{alg}.sweep", sweep, got["g"])
            got["building"] = True
            doc = tr.call(f"alg{alg}.report_build", got["rep"].to_json_dict)
            got["building"] = False
            data = tr.call("graphio.dump", mc.dump_json, doc).encode()
            with open(out_path, "wb") as fh:
                fh.write(data)
            return len(data)

        nbytes, exc, span = _timed(tr.call, f"alg{alg}_report", flow)
        self.sample(f"alg{alg}_report", chain.cid, span)
        self.bytes_out[(alg, chain.cid)] = nbytes or 0
        rep = got.get("rep")
        if tr.enabled and rep is not None:
            # counters read report fields that a later report layout may
            # drop; a missing field counts as 0 instead of stopping the run
            if alg == 1:
                tr.count("alg1.steps", len(rep.gamma))
                tr.count("alg1.cycles", getattr(rep, "n_cycles", 0))
                tr.count("alg1.tgraph_arc_refs",
                         sum(len(getattr(t, "arcs", ())) for t in getattr(rep, "tgraphs", ())))
            else:
                tr.count("alg2.steps", len(rep.theta))
                tr.count("alg2.classes", len(getattr(rep, "classes", ())))
        if nbytes:
            tr.count("graphio.bytes_out", nbytes)
        key = (chain.cid, f"alg{alg}_report")
        if self.checking:
            if exc is not None:
                # (c) only where it happens: inside to_json_dict
                self.fail_or_refuse(key, exc, recursion_tag="report-recursion" if got.get("building") else None)
            elif alg == 1:
                self.check(key, self._alg1_problems(chain, rep), "alg1-results")
            else:
                self.check(key, self._alg2_problems(rep), "alg2-results")
        return got.get("g"), rep

    @staticmethod
    def _alg1_problems(chain, rep) -> list:
        problems = []
        gamma, delta = list(rep.gamma), list(rep.delta)
        if len(delta) != chain.n - 1 or any(d is None for d in delta):
            problems.append("delta incomplete")
        elif not set(delta) <= set(gamma):
            problems.append("a delta is not a transfer threshold")
        if not _sorted_nondecreasing(gamma):
            problems.append("gamma not nondecreasing")
        return problems

    @staticmethod
    def _alg2_problems(rep) -> list:
        problems = []
        theta, mult = list(rep.theta), list(rep.multiplicity)
        if any(a >= b for a, b in zip(theta, theta[1:])):
            problems.append("theta not strictly increasing")
        if len(mult) != len(theta) or any(k < 1 for k in mult):
            problems.append("multiplicity does not match theta")
        return problems

    def sweep_op(self, chain, op: str) -> None:
        """One operation on one chain; later operations reuse earlier results."""
        mc, tr = self.mc, self.tr
        if op == "alg1":
            self._ctx.pop(chain.cid, None)
            if chain.n >= 100:
                gc.collect()
            ctx = self._ctx[chain.cid] = {}
            ctx["g"], ctx["r1"] = self._report(chain, 1)
            return
        ctx = self._ctx[chain.cid]
        if op == sweep_ops(chain)[-1]:
            del self._ctx[chain.cid]
        if op == "alg2":
            ctx["r2"] = self._report(chain, 2)[1]
            return
        g, r1, r2 = ctx.get("g"), ctx.get("r1"), ctx.get("r2")
        if op == "compare":
            if g is None or r1 is None or r2 is None:
                return  # a sweep failed and was counted; nothing to compare
            cmp_, exc, span = _timed(tr.call, "alg2.compare", mc.compare_alg1_alg2, g, "lex", r1, r2)
            self.sample("compare", chain.cid, span)
            if self.checking:
                key = (chain.cid, "compare")
                if exc is not None:
                    self.fail_or_refuse(key, exc)
                elif not cmp_.ok:
                    bad = [s.number for s in getattr(cmp_, "statements", ()) if not s.ok]
                    self.ledger.record(key, "fail", "compare-statement", f"statements {bad} fail")
                else:
                    self.ledger.record(key, "pass")
            return
        if op == "wgraphs":
            ctx["ws"] = None
            if r1 is None:
                return

            def extract_all():
                return [tr.call("wgraph.extract", mc.extract_wgraph, r1, m) for m in range(1, chain.n)]

            ws, exc, span = _timed(tr.call, "wgraphs", extract_all)
            self.sample("wgraphs", chain.cid, span)
            ctx["ws"] = ws
            if self.checking:
                broken = {} if exc is not None else identity_failures(ws, r1.delta)
                for m in range(1, chain.n):
                    key = (chain.cid, "wgraph", m)
                    if exc is not None:
                        self.fail_or_refuse(key, exc)
                    elif (invalid := forest_problem(chain, ws[m - 1], m)) is not None:
                        self.ledger.record(key, "fail", "wgraph-invalid", invalid)
                    elif m in broken:
                        message, heavier = broken[m]
                        # (a): a valid forest heavier than the optimum the deltas give
                        self.ledger.record(key, "fail", "wgraph-identity" if heavier else "wgraph-lighter",
                                           message)
                    else:
                        self.ledger.record(key, "pass")
            return
        # op == "oracle": only chains of at most nine states get this operation
        if g is None:
            return
        per_m, exc, span = _timed(tr.call, "wgraph.enumerate", mc.enumerate_all_optimal, g)
        self.sample("oracle", chain.cid, span)
        if not self.checking:
            return
        key = (chain.cid, "enumerate")
        if exc is not None:
            self.fail_or_refuse(key, exc)
            return
        self.ledger.record(key, "pass")
        ws = ctx.get("ws")
        if ws is None:
            return  # extraction refused: nothing to compare against
        for m in range(1, chain.n):
            optima, unique = per_m[m]
            best = optima[0]
            ext = ws[m - 1]
            key = (chain.cid, "oracle", m)
            if (invalid := forest_problem(chain, ext, m)) is not None:
                self.ledger.record(key, "fail", "wgraph-invalid", invalid)
            elif ext.total_weight > best.total_weight:
                # (a): a valid forest heavier than the optimum
                self.ledger.record(key, "fail", "wgraph-not-optimal",
                                   f"m={m}: extracted {ext.total_weight}, optimum {best.total_weight}")
            elif ext.total_weight < best.total_weight:
                self.ledger.record(key, "fail", "wgraph-lighter",
                                   f"m={m}: extracted {ext.total_weight} below the optimum {best.total_weight}")
            elif unique and ext.arcs != best.arcs:
                self.ledger.record(key, "fail", "wgraph-arcs",
                                   f"m={m}: extracted arcs differ from the unique optimum")
            else:
                self.ledger.record(key, "pass")

    # -- kinesin stage -------------------------------------------------

    def kinesin_item(self, index: int, grid: list) -> None:
        mc, tr = self.mc, self.tr
        res, exc, span = _timed(tr.call, "kinesin.sweep", mc.kinesin_sweep, grid, None, True)
        self.sample("kinesin", index, span)
        bp = corpus.KINESIN_BREAKPOINTS
        tr.count("kinesin.grid_points", len(grid))
        if res is not None:
            # boundaries found exactly on a breakpoint: every fix of (b), (e)
            # or (f) raises it, a missed boundary lowers it
            tr.count("kinesin.boundaries", sum(1 for b in res.boundaries if b.exact and b.refined in bp))
        if not self.checking:
            return
        key = (f"grid-{index}", "kinesin_sweep")
        if exc is not None:
            self.fail_or_refuse(key, exc)
            return
        self.ledger.record(key, "pass")
        tags = {}
        for j, b in enumerate(res.boundaries):
            tags[j] = tag = boundary_defect(b, grid)
            if tag is None:
                self.ledger.record((f"grid-{index}", "boundary", j), "pass")
            else:
                self.ledger.record((f"grid-{index}", "boundary", j), "fail", tag,
                                   f"bracket [{b.lo}, {b.hi}] gave {b.refined} (exact={b.exact})")
        # Every breakpoint inside the grid span must come back as a boundary.
        found = {b.refined for b in res.boundaries}
        for x in sorted(bp):
            if not grid[0] < x < grid[-1]:
                continue
            key = (f"grid-{index}", "breakpoint", x)
            if x in found:
                self.ledger.record(key, "pass")
                continue
            # (b): it sits on a grid point; (e): a bracket that spans it gave another point
            if x in grid:
                cause = "kinesin-on-breakpoint"
            else:
                cause = next((tags[j] for j, b in enumerate(res.boundaries)
                              if tags[j] == "kinesin-bracket" and b.lo < x < b.hi), "kinesin-missed")
            self.ledger.record(key, "fail", cause, f"breakpoint {x} in grid [{grid[0]}, {grid[-1]}] not found")

    # -- spectral stage ------------------------------------------------

    def spectral_item(self, chain, g, r1) -> None:
        mc, tr = self.mc, self.tr

        def schedule():
            # one call per epsilon, so a failure at one loses only its own row
            out = []
            for eps in SPECTRAL_SCHEDULE:
                row, exc, _span = _timed(mc.compare_spectrum, g, r1, (eps,))
                out.append((row and row[0], exc))
            return out

        rows, _exc, span = _timed(tr.call, "spectrum", schedule)
        self.sample("spectrum", chain.cid, span)
        if not self.checking:
            return
        for eps, (row, exc) in zip(SPECTRAL_SCHEDULE, rows):
            key = (chain.cid, "spectrum", eps)
            if exc is not None:
                if isinstance(exc, mc.GraphError) and "below float resolution" in str(exc):
                    # (d) as compare_spectrum itself reports it: a nonpositive eigenvalue
                    self.ledger.record(key, "fail", "spectral-defect", str(exc)[:200])
                else:
                    self.fail_or_refuse(key, exc)
                continue
            tol = SPECTRAL_TOL_FACTOR * eps
            bad = [(m, d) for m, d in enumerate(row.defect, start=1) if not d <= tol]
            if not bad:
                self.ledger.record(key, "pass")
                continue
            # (d) only for modes whose predicted rate float64 cannot resolve
            bound = eigenvalue_error_bounds(chain, eps)
            resolvable = [m for m, _d in bad if bound[m] < math.exp(-float(r1.delta[m - 1]) / eps)]
            detail = "; ".join(f"eps={eps} m={m} defect={d:.3g} > {tol:.3g}" for m, d in bad)
            self.ledger.record(key, "fail", "spectral-mismatch" if resolvable else "spectral-defect",
                               detail[:300])

    # -- kmc stage -----------------------------------------------------

    def kmc_item(self, chain, g, tgraph, kind: str) -> None:
        mc, tr = self.mc, self.tr
        kmc_mod = mc.kmc
        x0 = chain.states[0]
        if kind == "ensemble":
            eps, horizon = ENSEMBLE_EPS, ENSEMBLE_HORIZON
            n_traj, seed = chain.extra["trajectories"], chain.extra["seed"]

            def simulate():
                return kmc_mod.simulate_ensemble(g, eps, x0, horizon, n_traj, seed)

        else:
            eps, horizon = LONG_EPS, LONG_HORIZON
            events, seeds = chain.extra["events"], chain.extra["seeds"]

            def simulate():
                return tuple(kmc_mod.simulate(g, eps, x0, horizon, s, max_events=events) for s in seeds)

        trajs, exc, span = _timed(tr.call, f"kmc_{kind}", simulate)
        self.sample(f"kmc_{kind}", chain.cid, span)
        if trajs is not None:
            self.simulated[(kind, chain.cid)] = (len(trajs), sum(t.n_jumps for t in trajs))
            window = (0.0, max(t.end_time() for t in trajs))
            cov, exc_c, span_c = _timed(tr.call, "kmc.census", mc.census_vs_tgraph, trajs, tgraph, window)
            self.sample("kmc_census", chain.cid, span_c)
        if not self.checking:
            return
        key = (chain.cid, f"kmc_{kind}")
        if exc is not None:
            self.fail_or_refuse(key, exc)
            return
        problems = self._trajectory_problems(g, trajs, horizon)
        if kind == "long":
            problems += [f"seed {t.seed}: {t.n_jumps} events, truncated={t.truncated}"
                         for t in trajs if not (t.truncated and t.n_jumps == events)]
        self.check(key, problems, "kmc-trajectory")
        key = (chain.cid, "kmc_census")
        if exc_c is not None:
            self.fail_or_refuse(key, exc_c)
        else:
            ok = 0.0 <= cov.coverage <= 1.0 and cov.on_count + cov.off_count == cov.census.total_jumps
            self.check(key, [] if ok else ["coverage counts inconsistent"], "kmc-census")
        again = simulate()
        same = mc.census(again, window).counts == mc.census(trajs, window).counts
        self.check((chain.cid, "kmc_determinism"), [] if same else ["census differs for the same seed"],
                   "kmc-determinism")

    @staticmethod
    def _trajectory_problems(g, trajs, horizon: float) -> list:
        arcs = {(a.tail, a.head) for a in g.arcs}
        problems = []
        for t in trajs:
            state, t_prev = t.initial, 0.0
            for when, arc in t.jumps:
                if arc.tail != state or (arc.tail, arc.head) not in arcs or not t_prev < when <= horizon:
                    problems.append(f"seed {t.seed}: inconsistent jump at t={when}")
                    break
                state, t_prev = arc.head, when
        return problems

    # -- scheduling ----------------------------------------------------

    def run(self, shares: dict, seconds: float, trace: bool, patches) -> None:
        """Interleave the stages' units for about ``seconds``.

        The next unit always comes from the stage that has used the least
        time relative to its share, so every stage's samples spread over the
        whole run.  Each stage makes at least one full pass.  In a traced run
        the first pass of every stage only warms up and checks; then untraced
        and traced passes alternate, at least one of each, and their
        difference is the tracing overhead.
        """
        units = {s: self._stage_units(s) for s in STAGES}
        active = [s for s in STAGES if units[s]]
        state = {s: {"pass": 0, "pos": 0, "used": 0.0, "done": {False: 0, True: 0}} for s in active}
        pending = {s: defaultdict(float) for s in active}
        committed = {s: defaultdict(float) for s in active}

        def finished(st) -> bool:
            return st["done"][False] >= 1 + trace and (not trace or st["done"][True] >= 1)

        deadline = clock() + seconds
        while not (clock() > deadline and all(finished(state[s]) for s in active)):
            stage = min(active, key=lambda s: state[s]["used"] / shares[s])
            st = state[stage]
            self.checking = st["pass"] == 0
            self.warmup = trace and st["pass"] == 0
            self.traced = trace and st["pass"] % 2 == 1
            kind, payload = units[stage][st["pos"]]
            t0 = clock()
            if self.traced:
                with self.tr.active(patches):
                    self._run_unit(kind, payload)
                self._harvest(pending[stage])
            else:
                self._run_unit(kind, payload)
            st["used"] += clock() - t0
            st["pos"] += 1
            if st["pos"] == len(units[stage]):
                st["done"][self.traced] += 1
                if self.traced:
                    for key, value in pending[stage].items():
                        committed[stage][key] += value
                pending[stage].clear()
                st["pos"] = 0
                st["pass"] += 1
        for s in active:
            self.passes[s] = dict(state[s]["done"])
            for key, value in committed[s].items():
                self.layer[key] += value / state[s]["done"][True]
        self.checking = self.traced = self.warmup = False

    def _harvest(self, acc) -> None:
        """Move the spans and counts of one traced unit into ``acc``."""
        spans, counts = self.tr.take()
        scale = self.speed.scale
        for name, (calls, incl, self_s) in Tracer.totals(spans, scale).items():
            acc[("span", name)] += incl
            acc[("self", name)] += self_s
            acc[("calls", name)] += calls
        for (name, fam), incl in Tracer.totals_by(spans, self.family.get, scale).items():
            if fam in ("distinct", "ties", "deep"):
                acc[("family", name, fam)] += incl
        for name, value in counts.items():
            acc[("count", name)] += value
        offset = len(self.all_spans)
        for name, start, end, parent, chain in spans:
            self.all_spans.append([name, start, end, None if parent is None else parent + offset, chain])

    def _stage_units(self, stage: str) -> list:
        """Units of one pass, in order; building them runs nothing timed."""
        c, mc = self.corpus, self.mc
        if stage in ("sweep", "tiny"):
            chains = [ch for ch in c.sweep if (ch.n <= 9) == (stage == "tiny")]
            out = []
            for ch in chains:
                self.family[ch.cid] = ch.family
                out.extend(("sweep", (ch, op)) for op in sweep_ops(ch))
            return out
        if stage == "kinesin":
            return [("kinesin", (i, grid)) for i, grid in enumerate(c.grids)]
        if stage == "spectral":
            out = []
            for ch in c.spectral:
                g = mc.load_graph(ch.path)
                out.append(("spectral", (ch, g, mc.run_algorithm1(g))))
            return out
        out = []
        for kind, chains in (("ensemble", c.ensembles), ("long", c.long)):
            for ch in chains:
                g = mc.load_graph(ch.path)
                r2 = mc.run_algorithm2(g)
                tgraph = r2.tgraphs[min(2, len(r2.tgraphs) - 1)]
                out.append(("kmc", (ch, g, tgraph, kind)))
        return out

    def _run_unit(self, kind: str, payload) -> None:
        if kind == "kinesin":
            self.tr.chain = f"grid-{payload[0]}"
            self.kinesin_item(*payload)
        else:
            self.tr.chain = payload[0].cid
            {"sweep": self.sweep_op, "spectral": self.spectral_item, "kmc": self.kmc_item}[kind](*payload)
        self.tr.chain = None

    # -- results -------------------------------------------------------

    def total(self, metric: str, traced: bool = False, raw: bool = False) -> float:
        """Sum over items of the median per-item time: one pass, in seconds."""
        samples = self.raw if raw else self.samples[traced]
        return sum(statistics.median(v) for (m, _k), v in samples.items() if m == metric and v)

    def failure_tags(self) -> Counter:
        return Counter(reason for _k, reason, _d in self.ledger.failures())
