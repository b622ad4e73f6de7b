#!/usr/bin/env python3
"""Scan label depth k on an evolved synthetic pair.

Reports, per k: approximation ratio, the number of labels shared by both
graphs (cross-present; none means an empty matching), largest seed product,
matched count, and ground-truth correctness.  The shared labels and the
largest product are read from the seed index built over both graphs'
label lists, and the pair is flooded from that same index.  Output is
CSV on stdout.
"""

import argparse
import sys

from roadmatch.generator import gen_irregular_grid, perturb, score_against_ground_truth
from roadmatch.matcher import flood_match
from roadmatch.metrics import approximation_ratio
from roadmatch.seed_index import SeedIndex, label_pair


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=30)
    ap.add_argument("--cols", type=int, default=30)
    ap.add_argument("--irregularity", type=float, default=0.15)
    ap.add_argument("--remove-vertices", type=float, default=0.05)
    ap.add_argument("--add-edges", type=float, default=0.02)
    ap.add_argument("--k-min", type=int, default=1)
    ap.add_argument("--k-max", type=int, default=8)
    ap.add_argument("--max-product", type=int, default=10**6)
    ap.add_argument("--rng-seed", type=int, default=0)
    args = ap.parse_args()

    g1 = gen_irregular_grid(args.rows, args.cols, args.irregularity, args.rng_seed)
    g2, gt = perturb(g1, args.remove_vertices, 0.0, args.add_edges, args.rng_seed + 1)

    print("k,approximation_ratio,cross_present_labels,max_product,matched,correct_fraction")
    for k in range(args.k_min, args.k_max + 1):
        labels1, labels2 = label_pair(g1, g2, k)
        ratio = approximation_ratio(labels1, labels2)
        idx = SeedIndex(labels1, labels2, args.max_product)
        state = flood_match(g1, g2, idx, args.rng_seed)
        pairs = [(v, w) for v, w in enumerate(state.matched1) if w is not None]
        score = score_against_ground_truth(pairs, gt)
        print(
            f"{k},{ratio:.4f},{len(idx.labels)},{idx.largest_product},"
            f"{len(pairs)},{score.correct_fraction:.4f}"
        )
        sys.stdout.flush()


if __name__ == "__main__":
    main()
