#!/usr/bin/env python3
"""Measure how routing, the raw scan, and the full network forward scale with
token count, and compare the two normalization choices. Writes CSVs and
prints fitted log-log slopes (linear scaling shows up as slope ~1)."""

import argparse
import csv

from hsmoe.bench import fit_loglog_slope, network_sweep, norm_comparison, routing_sweep, scan_sweep


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-exp", type=int, default=10)
    ap.add_argument("--max-exp", type=int, default=16)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--prefix", default="scaling")
    args = ap.parse_args()

    n_values = [2 ** k for k in range(args.min_exp, args.max_exp + 1)]
    for name, rows in (("routing", routing_sweep(n_values, seed=args.seed, repeats=args.repeats)),
                       ("scan", scan_sweep(n_values, seed=args.seed, repeats=args.repeats)),
                       ("network", network_sweep(n_values, seed=args.seed, repeats=args.repeats))):
        path = f"{args.prefix}_{name}.csv"
        write_csv(rows, path)
        slope = fit_loglog_slope([r["N"] for r in rows], [r["wall_ms"] for r in rows])
        print(f"{name:8s} slope {slope:5.3f}  ({path})")

    layer_times = norm_comparison(seed=args.seed)
    print(f"norm layers over sweep sizes: dyt {layer_times['dyt']:.2f}ms  "
          f"ln {layer_times['ln']:.2f}ms")


if __name__ == "__main__":
    main()
