#!/usr/bin/env python3
"""Measure end-to-end matching time as graph size grows.

Generates evolved grid pairs at a range of sizes and times labeling plus
matching.  Output is CSV on stdout.
"""

import argparse
import sys
import time

from roadmatch.generator import gen_irregular_grid, perturb
from roadmatch.matcher import match


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[5000, 10000, 20000, 40000],
                    help="approximate vertex counts")
    ap.add_argument("--cols", type=int, default=200)
    ap.add_argument("--irregularity", type=float, default=0.15)
    ap.add_argument("--remove-vertices", type=float, default=0.02)
    ap.add_argument("--add-edges", type=float, default=0.01)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--max-product", type=int, default=4096)
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--rng-seed", type=int, default=0)
    args = ap.parse_args()

    print("n,label_time_s,seed_time_s,match_time_s,total_s,matched")
    for n in args.sizes:
        rows = max(2, round(n / args.cols))
        g1 = gen_irregular_grid(rows, args.cols, args.irregularity, args.rng_seed)
        g2, _ = perturb(g1, args.remove_vertices, 0.0, args.add_edges, args.rng_seed + 1)
        best = None
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            res = match(g1, g2, k=args.k, max_product=args.max_product,
                        rng_seed=args.rng_seed)
            total = time.perf_counter() - t0
            if best is None or total < best[0]:
                best = (total, res)
        total, res = best
        s = res.stats
        print(f"{g1.vertex_count},{s.label_time_s:.3f},{s.seed_time_s:.3f},"
              f"{s.match_time_s:.3f},{total:.3f},{s.matched}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
