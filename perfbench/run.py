#!/usr/bin/env python3
"""Seeded, layered benchmark of the metachain package.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the current directory.  The run
generates its corpus from the seed, writes it as graph files, runs the
workload's stages for about ``--seconds`` seconds in one process and one
thread, checks every output, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced passes and reports per-layer ones.
See ``perfbench/README.md`` for the metrics, workloads and known failures.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, also inside LAPACK; set before numpy loads

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import stages
from spans import Tracer

SETUP_REPEATS = 9
SETUP_REF_S = 0.005  # set-up seconds are scaled to a machine where the reference task takes this
BENCH_DIR = Path(".bench_work")

OP_METRICS = (
    "alg1_report", "alg2_report", "compare", "wgraphs", "oracle",
    "kinesin", "spectrum", "kmc_ensemble", "kmc_long", "kmc_census",
)

# Per-layer times: inclusive seconds per pass of the span, as "<span>_s".
LAYER_SPANS = (
    "graphio.load", "graphio.dump", "chain.validate", "chain.generator",
    "alg1.sweep", "alg1.report_build", "alg1.hierarchy",
    "alg2.sweep", "alg2.report_build", "alg2.hierarchy", "alg2.compare",
    "wgraph.extract", "wgraph.enumerate", "kinesin.sweep", "spectral.eig",
    "kmc.simulate", "kmc.census",
)
LAYER_COUNTS = (
    "graphio.bytes_out", "alg1.steps", "alg1.cycles", "alg1.tgraph_arc_refs",
    "alg2.steps", "alg2.classes", "kinesin.grid_points", "kinesin.boundaries",
    "kmc.events", "kmc.trajectories", "kmc.truncated",
)
FAMILY_SPANS = ("alg1.sweep", "alg1.report_build", "alg2.sweep", "alg2.report_build")
FAMILIES = ("distinct", "ties", "deep")


def _patches(mc):
    """Module functions the package calls internally, wrapped in traced passes."""

    def sweep2_counts(tr, rep):
        tr.count("alg2.steps", len(rep.theta))
        tr.count("alg2.classes", len(rep.classes))

    def simulate_counts(tr, traj):
        tr.count("kmc.trajectories", 1)
        tr.count("kmc.events", traj.n_jumps)
        tr.count("kmc.truncated", int(traj.truncated))

    return [
        (mc.alg1, "validate", "chain.validate", None),
        (mc.alg2, "validate", "chain.validate", None),
        (mc.alg1, "cycle_hierarchy", "alg1.hierarchy", None),
        (mc.alg2, "class_hierarchy", "alg2.hierarchy", None),
        (mc.spectral, "generator_matrix", "chain.generator", None),
        (mc.kmc, "generator_matrix", "chain.generator", None),
        (mc.spectral, "numerical_eigenvalues", "spectral.eig", None),
        (mc.kmc, "simulate", "kmc.simulate", simulate_counts),
        (mc.kinesin, "run_algorithm2", "alg2.sweep", sweep2_counts),
    ]


def _import_package(root: Path):
    src = root / "src"
    if not (src / "metachain" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no package at {src / 'metachain'}; run from the repository root"
        )
    sys.path.insert(0, str(src))
    import metachain

    return metachain


def _reference_task() -> float:
    """Seconds of a fixed task of the kind corpus generation does: random
    draws, fractions and JSON text.

    Set-up is timed against it rather than against the speed probe: on a
    shared machine, generation speeds up and slows down with this task much
    more closely than with the probe's integer loop.
    """
    t0 = time.perf_counter()
    rng = random.Random(0)
    arcs = [{"from": i, "to": rng.randrange(500), "U": str(Fraction(rng.randrange(1, 7 * 10**5), 7))}
            for i in range(1500)]
    json.dumps(arcs)
    return time.perf_counter() - t0


def _self_check(mc) -> bool:
    """A planted wrong delta must be caught by the in-forest identity check."""
    g = mc.nested_cycle_chain()
    rep = mc.run_algorithm1(g)
    ws = [mc.extract_wgraph(rep, m) for m in range(1, g.n)]
    caught = []
    for change in (1, -1):
        planted = list(rep.delta)
        planted[0] += change
        caught.append(1 in stages.identity_failures(ws, planted))
    return all(caught)


def end_to_end(runner, setup_s: float) -> dict:
    t = runner.total
    mb = 1e6
    sim_ens = t("kmc_ensemble")
    sim_long = t("kmc_long")
    trajs = sum(n for (kind, _c), (n, _e) in runner.simulated.items() if kind == "ensemble")
    events = sum(e for (kind, _c), (_n, e) in runner.simulated.items() if kind == "long")
    attempted = runner.ledger.attempted
    failed = len(runner.ledger.failures())
    return {
        "setup_s": (setup_s, "s"),
        "alg1_report_s": (t("alg1_report"), "s"),
        "alg2_report_s": (t("alg2_report"), "s"),
        "compare_s": (t("compare"), "s"),
        "wgraphs_s": (t("wgraphs"), "s"),
        "oracle_s": (t("oracle"), "s"),
        "atlas_s": (t("kinesin"), "s"),
        "spectrum_s": (t("spectrum"), "s"),
        "kmc_traj_per_s": (trajs / sim_ens, "traj/s"),
        "kmc_events_per_s": (events / sim_long, "events/s"),
        "report_mb": (sum(runner.bytes_out.values()) / mb, "MB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": ((attempted - failed) / attempted, "ok/attempted"),
    }


def per_layer(runner) -> dict:
    layer = runner.layer
    out = {}
    for span in LAYER_SPANS:
        out[f"{span}_s"] = (layer.get(("span", span), 0.0), "s")
    for name in LAYER_COUNTS:
        out[name] = (layer.get(("count", name), 0.0), "bytes" if name.endswith("bytes_out") else "count")
    for span in FAMILY_SPANS:
        for fam in FAMILIES:
            out[f"{span}_s.{fam}"] = (layer.get(("family", span, fam), 0.0), "s")
    untraced = sum(runner.total(m, traced=False) for m in OP_METRICS)
    traced = sum(runner.total(m, traced=True) for m in OP_METRICS)
    out["trace.untraced_s"] = (untraced, "s")
    out["trace.traced_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def print_layer_table(runner) -> None:
    layer = runner.layer
    names = sorted({k[1] for k in layer if k[0] == "span"})
    print(f"{'span':<22}{'calls/pass':>12}{'incl s/pass':>14}{'self s/pass':>14}")
    for name in names:
        print(
            f"{name:<22}{layer[('calls', name)]:>12.0f}"
            f"{layer[('span', name)]:>14.5f}{layer[('self', name)]:>14.5f}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(stages.RECIPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    mc = _import_package(root)

    work = root / BENCH_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    with stages.SpeedProbe() as speed:
        return _run(mc, args, work, speed)


def _run(mc, args, work: Path, speed) -> int:
    # setup_s times generating the corpus and its graph file text; writing
    # the files happens once and is reported apart, because its kernel time
    # varied fourfold from run to run on a shared 2-core machine.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = _reference_task()
        t0 = time.perf_counter()
        corpus = stages.build_corpus(mc, args.workload, args.seed)
        elapsed = time.perf_counter() - t0
        reference = (before + _reference_task()) / 2
        setup_times.append(elapsed * SETUP_REF_S / reference)
    setup_s = statistics.median(setup_times)
    t0 = time.perf_counter()
    stages.write_corpus(corpus, work / "chains")
    write_s = time.perf_counter() - t0
    (work / "out").mkdir(parents=True, exist_ok=True)

    tracer = Tracer()
    runner = stages.Runner(mc, corpus, work / "out", tracer, speed)
    recipe = stages.RECIPES[args.workload]
    runner.run(recipe.shares, args.seconds, bool(args.trace), _patches(mc))

    self_check = _self_check(mc)
    failures = runner.ledger.failures()
    unknown = sorted({r for _k, r, _d in failures if r not in stages.KNOWN_DEFECTS})
    correct = self_check and not unknown

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(corpus.sweep)} sweep chains, {len(corpus.grids)} grids, "
          f"{len(corpus.spectral)} spectral chains")
    print("passes per stage (untraced, traced): "
          + ", ".join(f"{s} {p[False]},{p[True]}" for s, p in runner.passes.items()))
    print(f"set-up: {setup_s:.4f} s generating (median of {SETUP_REPEATS}), "
          f"{write_s:.4f} s writing {len(list((work / 'chains').iterdir()))} graph files")
    print(f"self-check (planted wrong delta caught): {'ok' if self_check else 'FAILED'}")
    attempted = runner.ledger.attempted
    print(f"outcomes: {attempted} attempted, {len(failures)} failed, "
          f"{runner.ledger.refusals()} refused (documented), fail_frac "
          f"{len(failures) / attempted:.5f}")
    for tag, count in sorted(runner.failure_tags().items()):
        known = stages.KNOWN_DEFECTS.get(tag, "NOT A KNOWN DEFECT")
        example = next(d for _k, r, d in failures if r == tag)
        print(f"  fail {tag}: {count}  [{known}]  e.g. {example[:160]}")
    if unknown:
        print(f"unexpected failure tags: {unknown}")
    print("speed: kernel medians " + ", ".join(
        f"{kind} {statistics.median(times) * 1e6:.1f} us" for kind, times in speed.kernels.items())
        + f" over {len(speed.at)} samples; times are scaled to {stages.SPEED_REF_S * 1e6:.0f} us")
    print("unscaled s/pass: " + ", ".join(f"{m} {runner.total(m, raw=True):.4g}" for m in OP_METRICS))

    if args.trace:
        metrics = per_layer(runner)
        print_layer_table(runner)
        over = metrics["trace.overhead_s"][0]
        base = metrics["trace.untraced_s"][0]
        print(f"tracing overhead: {over:.4f} s per pass on {base:.4f} s untraced "
              f"({100 * over / base:.2f}%)")
        Tracer.dump(runner.all_spans, work / "spans.jsonl")
    else:
        metrics = end_to_end(runner, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28}{value:>16.6g} {unit}")

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    doc = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
               unscaled={m: runner.total(m, raw=True) for m in OP_METRICS},
               kernel_us={kind: [round(k * 1e6, 2) for k in times]
                          for kind, times in speed.kernels.items()},
               failures=[{"op": repr(k), "reason": r, "detail": d} for k, r, d in failures])
    (work / f"BENCH_{args.workload}.json").write_text(json.dumps(doc, indent=1))
    shutil.rmtree(work / "chains", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
