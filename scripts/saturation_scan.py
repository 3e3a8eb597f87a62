"""Scan F, H and the saturation ratio S = F/H along the coupling axis.

Writes one CSV block per requested D value and prints where each curve
bottoms out.  Useful for checking how much of the quantum bound the
magnetization measurement gives up around the critical point.

    python scripts/saturation_scan.py --gamma 0.7 --D 0 0.1 0.3 --out scan.csv
"""

import argparse
import csv
import sys

from dmchain.sweep import SweepSpec, sweep


def scan(gamma, d_values, j_lo, j_hi, points):
    rows = []
    for D in d_values:
        table = sweep(SweepSpec("J", (j_lo, j_hi, points),
                                {"gamma": gamma, "D": float(D)}))
        for i, j in enumerate(table.axis_values):
            if table.errors[i]:  # failed point, keep scanning
                print("skip J=%g D=%g: %s" % (j, D, table.errors[i]),
                      file=sys.stderr)
                continue
            rows.append((D, j, table.columns["F"][i], table.columns["H"][i],
                         table.columns["S"][i]))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=0.7)
    ap.add_argument("--D", type=float, nargs="+", default=[0.0, 0.1, 0.3])
    ap.add_argument("--j-range", type=float, nargs=2, default=[-2.0, 2.0])
    ap.add_argument("--points", type=int, default=400)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    rows = scan(args.gamma, args.D, args.j_range[0], args.j_range[1],
                args.points)

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    w = csv.writer(sink)
    w.writerow(["D", "J", "F", "H", "S"])
    for row in rows:
        w.writerow(["%.17g" % v for v in row])
    if args.out:
        sink.close()
        print("wrote %d rows to %s" % (len(rows), args.out))

    for D in args.D:
        # S has a removable zero at exactly J=0 (F(0)=0, limit is 1);
        # not what "where does the curve bottom out" is asking
        sub = [(s, j) for d, j, _, _, s in rows if d == D and j != 0.0]
        if not sub:
            print("gamma=%g D=%g: no point succeeded" % (args.gamma, D))
            continue
        s_min, j_min = min(sub)
        print("gamma=%g D=%g: min S = %.4f at J = %.3f"
              % (args.gamma, D, s_min, j_min))


if __name__ == "__main__":
    main()
