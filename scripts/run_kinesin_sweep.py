#!/usr/bin/env python3
"""Sweep the motor model's switch exponent and save the behavior atlas.

Walks the two-ring model's switch exponent over the span of a rational
grid one exact regime at a time (one sweep per regime), groups the grid
points by contraction behavior, and writes the full result (intervals,
fitted slowest exponents, the exact zeta of every behavior change) as JSON.

Example:
    python scripts/run_kinesin_sweep.py --grid 1/4:41/4:1/2 --out sweep.json
"""

import argparse
import sys
from fractions import Fraction

import metachain as mc
from metachain.kinesin import parse_grid


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", default="1/4:41/4:1/2", help="start:stop:step, rationals")
    ap.add_argument("--psi", default="2", help="chemical tilt (rational)")
    ap.add_argument(
        "--no-bisect",
        action="store_true",
        help="report each behavior change as its bracketing grid points, not its exact zeta",
    )
    ap.add_argument("--out", default="kinesin_sweep.json")
    args = ap.parse_args(argv)

    try:
        grid = parse_grid(args.grid)
    except mc.GraphError as exc:
        raise SystemExit(f"bad grid {args.grid!r}: {exc}")
    params = mc.KinesinParams(zeta=Fraction(1), psi=mc.parse_rational(args.psi))
    result = mc.kinesin_sweep(grid, params=params, bisect=not args.no_bisect)

    with open(args.out, "w") as fh:
        fh.write(mc.dump_json(result.to_json_dict()))

    crit = ", ".join(str(v) for v in result.critical_values)
    print(f"{len(result.intervals)} behavior intervals over {len(result.grid)} grid points")
    print(f"critical switch exponents: {crit or 'none found'}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
