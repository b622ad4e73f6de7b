"""Command-line interface: gen, perturb, label, tune-k, match, validate, oracle.

Only ``validate`` and ``perturb`` read coordinates; ``label``, ``tune-k``,
``match`` and ``oracle`` load their graphs without them (``coords=False``),
which checks the files just the same.

All output is deterministic under fixed flags and --rng-seed.  Exit codes:
0 success, 1 input error, 2 configuration error (e.g. product bound
exceeded).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

from .errors import ConfigurationError, InputError
from .generator import check_fractions, gen_irregular_grid, perturb
from .ingest import erg_lines, load_graph, load_pair, read_utf8
from .labeling import DEFAULT_K, check_k, label_nodes
from .matcher import MatchResult, check_match_args, match
from .metrics import (
    DEFAULT_BUCKET_KM,
    DEFAULT_THRESHOLD_MILES,
    approximation_ratio,
    check_bucket_km,
    check_threshold_miles,
    pair_distance_histogram,
    threshold_ratio,
)
from .oracle import DEFAULT_SIZE_CAP, MAX_SIZE_CAP, brute_force_max_conformal, check_size_cap
from .seed_index import (
    DEFAULT_K_MAX,
    DEFAULT_MAX_PRODUCT,
    auto_tune_k,
    check_tune_args,
    label_pair,
)


def _add_format(p):
    p.add_argument("--format", choices=["erg", "segments"], default="erg",
                   help="input graph format (default erg)")


def _write(path: str | None, text: str) -> None:
    _write_lines(path, (text,))


def _write_lines(path: str | None, lines: Iterable[str]) -> None:
    """Write the strings ``lines`` to the file at path, or to stdout for
    None or "-", each as it comes."""
    if path is None or path == "-":
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def format_matching(result: MatchResult) -> str:
    lines = [f"m {v} {w}" for v, w in result.pairs]
    lines += [f"u1 {v}" for v in result.unmatched1]
    lines += [f"u2 {v}" for v in result.unmatched2]
    s = result.stats
    lines += [
        "# stats",
        f"# k: {s.k}",
        f"# max_product: {s.max_product}",
        f"# rng_seed: {s.rng_seed}",
        f"# label_time_s: {s.label_time_s:.6f}",
        f"# seed_time_s: {s.seed_time_s:.6f}",
        f"# match_time_s: {s.match_time_s:.6f}",
        f"# matched: {s.matched}",
    ]
    return "\n".join(lines) + "\n"


def parse_matching(text: str):
    """Read back a matching file: (pairs, unmatched1, unmatched2, stats).

    ``stats`` holds the ``# key: value`` comments whose value is a number;
    other comments are skipped.  InputError, naming the line, for a record
    that is not ``m v1 v2``, ``u1 v`` or ``u2 v`` and for a ``# k:`` value
    that is not a non-negative integer.
    """
    pairs, u1, u2 = [], [], []
    stats: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, val = body.partition(":")
                key, val = key.strip(), val.strip()
                try:
                    stats[key] = value = float(val)
                except ValueError:
                    value = None
                if key == "k" and not (value is not None and value >= 0 and value.is_integer()):
                    raise InputError(
                        f"line {lineno}: matching file's k must be a non-negative integer, "
                        f"got {val}"
                    )
            continue
        kind, *fields = line.split()
        try:
            ids = [int(f) for f in fields]
        except ValueError:
            ids = []
        if kind == "m" and len(ids) == 2:
            pairs.append((ids[0], ids[1]))
        elif kind in ("u1", "u2") and len(ids) == 1:
            (u1 if kind == "u1" else u2).append(ids[0])
        else:
            raise InputError(f"line {lineno}: malformed matching record: {line!r}")
    return pairs, u1, u2, stats


def _check_flags(args) -> None:
    """Refuse the flag values a command would refuse, before it reads any
    file, so that a bad flag wins over every fault of the files.  Each
    check is the library's own, with its message."""
    command = args.command
    if command == "perturb":
        check_fractions(args.remove_vertices, args.remove_edges, args.add_edges)
    elif command == "label":
        check_k(args.k)
    elif command == "tune-k":
        check_tune_args(args.max_product, args.k_max)
    elif command == "match":
        check_match_args(args.k, args.max_product, args.auto_k, args.k_max)
    elif command == "validate":
        check_threshold_miles(args.threshold_miles)
        check_bucket_km(args.bucket_km)
        if args.k is not None:
            check_k(args.k)
    elif command == "oracle":
        check_size_cap(args.size_cap)


def _cmd_gen(args) -> int:
    g = gen_irregular_grid(args.rows, args.cols, args.irregularity, args.rng_seed)
    _write_lines(args.output, erg_lines(g))
    return 0


def _cmd_perturb(args) -> int:
    g = load_graph(args.graph, args.format)
    evolved, gt = perturb(
        g, args.remove_vertices, args.remove_edges, args.add_edges, args.rng_seed
    )
    _write_lines(args.output, erg_lines(evolved))
    if args.truth:
        lines = [f"t {old} {new}" for old, new in sorted(gt.mapping.items())]
        _write(args.truth, "\n".join(lines) + "\n")
    return 0


def _cmd_label(args) -> int:
    g = load_graph(args.graph, args.format, coords=False)
    table, labels = label_nodes(g, args.k)
    out = []
    for v, lab in enumerate(labels):
        out.append(f"label {v} {','.join(str(d) for d in lab)}")
    sizes: dict[int, int] = {}
    for verts in table.values():
        sizes[len(verts)] = sizes.get(len(verts), 0) + 1
    out.append("# summary")
    out.append(f"# labels: {len(table)}")
    for size in sorted(sizes):
        out.append(f"# entries_of_size_{size}: {sizes[size]}")
    _write(args.output, "\n".join(out) + "\n")
    return 0


def _cmd_tune_k(args) -> int:
    g1, g2 = load_pair(args.graph1, args.graph2, args.format, coords=False)
    report = auto_tune_k(g1, g2, args.max_product, args.k_max)
    for k, p in report.per_k:
        print(f"k: {k} max_product: {p}")
    print(f"chosen_k: {report.k}")
    print(f"achieved_max_product: {report.max_product}")
    if not report.max_product:
        print(
            f"warning: no label at any k in [1, {args.k_max}] is shared by both graphs; "
            f"a match would be empty",
            file=sys.stderr,
        )
    elif not report.bounded:
        print(
            f"warning: no k in [1, {args.k_max}] meets the bound {args.max_product}; "
            f"reporting the minimizing k",
            file=sys.stderr,
        )
    return 0


def _cmd_match(args) -> int:
    g1, g2 = load_pair(args.graph1, args.graph2, args.format, coords=False)
    result = match(
        g1,
        g2,
        k=args.k,
        max_product=args.max_product,
        rng_seed=args.rng_seed,
        auto_k=args.auto_k,
        k_max=args.k_max,
    )
    _write(args.output, format_matching(result))
    # A label product of 0 means no label is shared by both graphs.
    if not result.stats.max_product:
        if args.auto_k:
            where, hint = f"any k in [1, {args.k_max}]", ""
        else:
            where, hint = f"k={result.stats.k}", "; a smaller k shares more labels (see tune-k)"
        print(
            f"warning: no label at {where} is shared by both graphs, "
            f"so the matching is empty{hint}",
            file=sys.stderr,
        )
    return 0


def _check_pairs(pairs: list[tuple[int, int]], n1: int, n2: int) -> None:
    """InputError unless every pair names vertices of both graphs and no
    vertex is matched twice."""
    seen: tuple[set[int], set[int]] = (set(), set())
    for v1, v2 in pairs:
        for side, v, n in ((0, v1, n1), (1, v2, n2)):
            if not 0 <= v < n:
                raise InputError(
                    f"matching pair 'm {v1} {v2}': graph{side + 1} has no vertex {v} "
                    f"({n} vertices)"
                )
            if v in seen[side]:
                raise InputError(
                    f"matching pair 'm {v1} {v2}': vertex {v} of graph{side + 1} "
                    f"is matched twice"
                )
            seen[side].add(v)


def _cmd_validate(args) -> int:
    g1, g2 = load_pair(args.graph1, args.graph2, args.format)
    # Before anything is labeled or printed.
    if args.hist and (g1.coords is None or g2.coords is None):
        raise InputError("histogram requires coordinates on both graphs")
    pairs, _, _, stats = parse_matching(read_utf8(args.matching))
    _check_pairs(pairs, g1.vertex_count, g2.vertex_count)
    # Score the labeling the matching was made with unless told otherwise.
    k = args.k if args.k is not None else int(stats.get("k", DEFAULT_K))
    ratio = approximation_ratio(*label_pair(g1, g2, k))
    print(f"approximation_ratio: {ratio:.4f}")
    if g1.coords is not None and g2.coords is not None:
        rep = threshold_ratio(pairs, g1.coords, g2.coords, args.threshold_miles)
        print(f"threshold_ratio: {rep.ratio:.4f}")
        print(f"pairs_within_threshold: {rep.within}")
        print(f"pairs_with_coords: {rep.total}")
        print(f"pairs_excluded_missing_coords: {rep.excluded_missing_coords}")
    else:
        print("threshold_ratio: n/a (coordinates missing)")
    for key in ("label_time_s", "seed_time_s", "match_time_s"):
        if key in stats:
            print(f"{key}: {stats[key]:.6f}")
    if args.hist:
        rows = pair_distance_histogram(pairs, g1.coords, g2.coords, args.bucket_km)
        csv = "bucket_km,count\n" + "".join(f"{b},{c}\n" for b, c in rows)
        _write(args.hist, csv)
    return 0


def _cmd_oracle(args) -> int:
    # It accepts graphs of at most MAX_SIZE_CAP vertices: no worker could pay.
    g1 = load_graph(args.graph1, args.format, coords=False)
    g2 = load_graph(args.graph2, args.format, coords=False)
    card, witness = brute_force_max_conformal(g1, g2, args.size_cap)
    print(f"max_conformal_cardinality: {card}")
    for v, w in sorted(witness.items()):
        print(f"m {v} {w}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadmatch",
        description="Topological change detection between road-network snapshots.",
    )
    sub = parser.add_subparsers(dest="command")

    p_gen = sub.add_parser("gen", help="generate a synthetic network")
    gen_sub = p_gen.add_subparsers(dest="kind")
    p_grid = gen_sub.add_parser("grid", help="irregular grid")
    p_grid.add_argument("--rows", type=int, required=True)
    p_grid.add_argument("--cols", type=int, required=True)
    p_grid.add_argument("--irregularity", type=float, default=0.15)
    p_grid.add_argument("--rng-seed", type=int, default=0)
    p_grid.add_argument("-o", "--output", default="-")
    p_grid.set_defaults(func=_cmd_gen)

    p_pert = sub.add_parser("perturb", help="evolve a snapshot with ground truth")
    p_pert.add_argument("graph")
    p_pert.add_argument("--remove-vertices", type=float, default=0.0)
    p_pert.add_argument("--remove-edges", type=float, default=0.0)
    p_pert.add_argument("--add-edges", type=float, default=0.0)
    p_pert.add_argument("--rng-seed", type=int, default=0)
    p_pert.add_argument("-o", "--output", default="-")
    p_pert.add_argument("--truth", default=None)
    _add_format(p_pert)
    p_pert.set_defaults(func=_cmd_perturb)

    p_label = sub.add_parser("label", help="emit per-vertex labels and table summary")
    p_label.add_argument("graph")
    p_label.add_argument("--k", type=int, default=DEFAULT_K)
    p_label.add_argument("-o", "--output", default="-")
    _add_format(p_label)
    p_label.set_defaults(func=_cmd_label)

    p_tune = sub.add_parser("tune-k", help="scan k against the product bound")
    p_tune.add_argument("graph1")
    p_tune.add_argument("graph2")
    p_tune.add_argument("--max-product", type=int, default=DEFAULT_MAX_PRODUCT)
    p_tune.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    _add_format(p_tune)
    p_tune.set_defaults(func=_cmd_tune_k)

    p_match = sub.add_parser("match", help="compute a conformal matching")
    p_match.add_argument("graph1")
    p_match.add_argument("graph2")
    p_match.add_argument("--k", type=int, default=DEFAULT_K)
    p_match.add_argument("--auto-k", action="store_true")
    p_match.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    p_match.add_argument("--max-product", type=int, default=DEFAULT_MAX_PRODUCT)
    p_match.add_argument("--rng-seed", type=int, default=0)
    p_match.add_argument("-o", "--output", default="-")
    _add_format(p_match)
    p_match.set_defaults(func=_cmd_match)

    p_val = sub.add_parser("validate", help="score a matching against geometry")
    p_val.add_argument("matching")
    p_val.add_argument("graph1")
    p_val.add_argument("graph2")
    p_val.add_argument("--k", type=int, default=None,
                       help=f"label depth (default: the matching's '# k:' line, else {DEFAULT_K})")
    p_val.add_argument("--threshold-miles", type=float, default=DEFAULT_THRESHOLD_MILES)
    p_val.add_argument("--hist", default=None,
                       help="write a CSV histogram of the matched pairs' distances")
    p_val.add_argument("--bucket-km", type=float, default=DEFAULT_BUCKET_KM)
    _add_format(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_oracle = sub.add_parser("oracle", help="exact maximum conformal matching (tiny graphs)")
    p_oracle.add_argument("graph1")
    p_oracle.add_argument("graph2")
    p_oracle.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP,
                          help=f"largest graph searched, at most {MAX_SIZE_CAP} "
                               f"(default {DEFAULT_SIZE_CAP})")
    _add_format(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on bad usage; we use 1
        return 0 if e.code == 0 else 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        _check_flags(args)
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
