#!/usr/bin/env python3
"""Measure how strongly simulated jumps concentrate on a transition graph.

Simulates an ensemble of trajectories at each epsilon in a schedule, counts
the jumps that run along the arcs of a chosen transition graph from the
tie-tolerant sweep, and writes per-epsilon coverage with cluster-robust
standard errors.  Coverage should rise toward one as epsilon shrinks.

Example:
    python scripts/kmc_coverage.py --epsilons 0.3,0.2,0.15 --trajectories 500
"""

import argparse
import math
import sys

import metachain as mc
from metachain.chain import parse_state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", help="graph file (.json or .tsv); default: built-in integer example")
    ap.add_argument("--tgraph", type=int, default=2, help="window index into the sweep")
    ap.add_argument("--epsilons", default="0.3,0.2,0.15,0.1")
    ap.add_argument("--trajectories", type=int, default=2500)
    ap.add_argument("--x0", default=None, help="start state (default: first state)")
    ap.add_argument("--seed", type=int, default=4000)
    ap.add_argument("--out", default="kmc_coverage.json")
    args = ap.parse_args(argv)

    g = mc.load_graph(args.input) if args.input else mc.nested_cycle_chain_integer()
    sweep = mc.run_algorithm2(g)
    if not (0 < args.tgraph < len(sweep.tgraphs)):
        raise SystemExit(
            f"--tgraph must lie in [1, {len(sweep.tgraphs) - 1}] for this graph"
        )
    tgraph = sweep.tgraphs[args.tgraph]
    threshold = float(tgraph.threshold)
    x0 = g.states[0] if args.x0 is None else parse_state(args.x0)

    epsilons = [float(tok) for tok in args.epsilons.split(",") if tok]
    results = []
    for i, eps in enumerate(epsilons):
        horizon = math.exp(threshold / eps)
        ens = mc.simulate_ensemble(
            g, eps, x0, horizon, args.trajectories, seed=args.seed + i
        )
        rep = mc.census_vs_tgraph(ens, tgraph, (0.0, horizon))
        results.append((eps, horizon, rep))

    doc = {
        "schema": 1,
        "kind": "kmc-coverage-sweep",
        "tgraph_index": args.tgraph,
        "threshold": str(tgraph.threshold),
        "trajectories": args.trajectories,
        "seed": args.seed,
        "points": [
            {"epsilon": eps, "horizon": horizon, **rep.to_json_dict()}
            for eps, horizon, rep in results
        ],
    }
    with open(args.out, "w") as fh:
        fh.write(mc.dump_json(doc))

    print(f"{'eps':>8}  {'coverage':>10}  {'stderr':>10}  {'jumps':>8}")
    for eps, _hor, rep in results:
        print(
            f"{eps:>8g}  {rep.coverage:>10.5f}  {rep.stderr:>10.5f}"
            f"  {rep.census.total_jumps:>8}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
