#!/usr/bin/env python3
"""Benchmark of ``roadmatch match`` on generated road-network snapshot pairs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/roadmatch`` and
``BENCHMARK.json``.  The run generates the workload's snapshot pair, numbered
by the seed, writes both snapshots as ERG files under ``.bench_work/``, and
calls the user-facing operation ``roadmatch match g1.erg g2.erg ...``
in-process through ``roadmatch.cli.dispatch``, back to back (closed loop, one
client, one thread) for ``--seconds`` seconds.  Every match is checked: exit
code, ``verify_conformal``, the pair/unmatched digest against the run's first
match, and agreement with the generator's ground truth.  Each timed match,
the import and each set-up repetition run under ``hostprobe.HostProbe``,
which samples the host's speed while they run; the gated times are
rescaled by it (see README.md), and the wall times stay in the record.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced matches and prints the per-layer metrics.
The last line of standard output is the result object; a fuller record
(environment, samples, behaviour counters, failures) goes to
``.bench_work/results/``.  Exits 1 without a result when the program cannot
be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostprobe import HostProbe
from spans import ROOT as ROOT_SPAN
from spans import Tracer
from workloads import DEFAULT_SEED, TOY_COLS, TOY_ROWS, WORKLOADS, make_pair

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# Set-up is repeated and its median reported, so one slow repetition does
# not move setup_s.
SETUP_REPS = 3


def import_program():
    """Import roadmatch from the checkout's src/; (module, wall s, rescaled s)."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    with HostProbe() as probe:
        t0 = time.perf_counter()
        import roadmatch
        import roadmatch.cli
        import_s = time.perf_counter() - t0
    where = Path(roadmatch.__file__).resolve().parent.parent
    if where != src:
        raise ImportError(f"roadmatch imported from {where}, not from {src}")
    return roadmatch, import_s, probe.rescaled(import_s)


class Run:
    """State of one benchmark run: the pair, the reference match, the tally."""

    def __init__(self, rm, workload: str, seed: int, toy: bool, workdir: Path):
        self.rm = rm
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.toy = toy
        self.workdir = workdir
        self.reference: dict | None = None
        self.full_reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def setup(self) -> tuple[float, float, float]:
        """Generate and write the pair SETUP_REPS times.

        Returns the medians of the rescaled and of the wall seconds of a
        repetition, and of the wall seconds spent generating.
        """
        rm, wl = self.rm, self.wl
        rows, cols = (TOY_ROWS, TOY_COLS) if self.toy else (wl.rows, wl.cols)
        p1, p2 = self.workdir / "g1.erg", self.workdir / "g2.erg"
        self.out = self.workdir / "match.txt"
        self.argv = ["match", str(p1), str(p2), *wl.match_flags, "-o", str(self.out)]
        ref_s, rep_s, gen_s = [], [], []
        for _ in range(SETUP_REPS):
            with HostProbe() as probe:
                t0 = time.perf_counter()
                self.g1, self.g2, self.truth = make_pair(rm, wl, self.seed, rows, cols)
                t1 = time.perf_counter()
                p1.write_text(rm.emit_erg(self.g1), encoding="utf-8")
                p2.write_text(rm.emit_erg(self.g2), encoding="utf-8")
                dt = time.perf_counter() - t0
            ref_s.append(probe.rescaled(dt))
            rep_s.append(dt)
            gen_s.append(t1 - t0)
        return statistics.median(ref_s), statistics.median(rep_s), statistics.median(gen_s)

    def dispatch(self, tracer: Tracer, probe: HostProbe | None):
        """One `roadmatch match` under the tracer and probe; (exit code, seconds, error)."""
        gc.collect()
        try:
            tracer.install()
            try:
                dispatch = tracer.wrap(ROOT_SPAN, self.rm.cli.dispatch)
                with probe or contextlib.nullcontext():
                    t0 = time.perf_counter()
                    rc = dispatch(self.argv)
                    dt = time.perf_counter() - t0
                return rc, dt, None
            finally:
                tracer.uninstall()
        except Exception:  # a crash in the program is a failed match, not a crash here
            return -1, 0.0, traceback.format_exc(limit=5)

    def check(self, rc: int) -> dict:
        """Gate one match: exit code, partition, conformality, digest, quality."""
        if rc != 0:
            return {"ok": False, "reason": f"exit code {rc}"}
        rm = self.rm
        text = self.out.read_text(encoding="utf-8")
        pairs, u1, u2, stats = rm.cli.parse_matching(text)
        if sorted([v for v, _ in pairs] + u1) != list(range(self.g1.vertex_count)) or sorted(
            [w for _, w in pairs] + u2
        ) != list(range(self.g2.vertex_count)):
            return {"ok": False, "reason": "pairs and unmatched lists do not partition the vertices"}
        t0 = time.perf_counter()
        ok, why = rm.verify_conformal(self.g1, self.g2, pairs)
        verify_s = time.perf_counter() - t0
        if not ok:
            return {"ok": False, "reason": f"verify_conformal: {why}"}
        body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
        res = {
            "ok": True,
            "reason": None,
            "digest": hashlib.sha256(body.encode()).hexdigest(),
            "k": stats.get("k"),
            "matched": len(pairs),
            "correct": sum(1 for v, w in pairs if self.truth.get(v) == w),
            "verify_s": verify_s,
        }
        if self.reference is not None:
            if res["digest"] != self.reference["digest"]:
                return {"ok": False, "reason": "matching differs from the run's first match"}
            return res
        if self.toy:
            return res
        # First match of the run: hold it to the quality gate.
        got = (res["matched"], res["correct"])
        want = self.wl.recorded.get(self.seed)
        if want is not None and got != tuple(want):
            return {"ok": False, "reason": f"(matched, correct) {got} != recorded {tuple(want)}"}
        recall = res["correct"] / len(self.truth)
        precision = res["correct"] / res["matched"] if res["matched"] else 0.0
        if recall < self.wl.min_recall or precision < self.wl.min_precision:
            return {
                "ok": False,
                "reason": f"recall {recall:.4f} / precision {precision:.4f} below floors "
                f"{self.wl.min_recall} / {self.wl.min_precision}",
            }
        return res

    def match(self, traced: bool = False, probe: HostProbe | None = None):
        """Dispatch, gate and tally one match; (check result, seconds, tracer).

        The first passing match is the reference: every later match must
        reproduce its digest and light counters, and every traced match the
        full counters of the first traced one.
        """
        tracer = Tracer(spans=traced)
        rc, dt, err = self.dispatch(tracer, probe)
        res = self.check(rc) if err is None else {"ok": False, "reason": err}
        if res["ok"]:
            light = tracer.light_counters()
            if self.reference is None:
                self.reference = dict(res, counters=light, missing=tracer.missing)
            elif light != self.reference["counters"]:
                res = {"ok": False, "reason": f"behaviour counters changed: {light}"}
        if res["ok"] and traced:
            if self.full_reference is None:
                self.full_reference = {"counters": dict(tracer.counters),
                                       "calls": tracer.call_counts()}
            elif tracer.counters != self.full_reference["counters"]:
                res = {"ok": False, "reason": f"traced counters changed: {tracer.counters}"}
        self.attempted += 1
        if not res["ok"]:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(res["reason"])
        return res, dt, tracer


def traced_numbers(tracer: Tracer, res: dict) -> dict:
    nums = dict(tracer.self_times())
    nums["seed_index.tune_s"] = tracer.stage_seconds()
    nums["trace.diff_s"] = tracer.root_seconds()
    nums["trace.spans"] = len(tracer.span_name)
    nums["graph.verify_s"] = res["verify_s"]
    return nums


def end_to_end(run: Run, samples, ref_samples, setup_s) -> dict:
    """``samples``: wall s, ``ref_samples``: rescaled s, per passing match."""
    diff_s = statistics.median(samples) if samples else 0.0
    diff_ref_s = statistics.median(ref_samples) if ref_samples else 0.0
    n = run.g1.vertex_count + run.g2.vertex_count
    ref = run.reference or {"matched": 0, "correct": 0}
    return {
        "diff_ref_s": diff_ref_s,
        "vertices_per_ref_s": n / diff_ref_s if diff_ref_s else 0.0,
        "diff_s": diff_s,
        "vertices_per_s": n / diff_s if diff_s else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "truth_recall": ref["correct"] / len(run.truth),
        "truth_precision": ref["correct"] / ref["matched"] if ref["matched"] else 0.0,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run, traced: list[dict], untraced: list[float], gen_s: float) -> dict:
    """Counters of the traced matches, medians of their timings."""
    ref = run.full_reference or {"counters": {}, "calls": {}}
    counters, calls = ref["counters"], ref["calls"]
    out = {name: float(v) for name, v in counters.items()}
    out["seed_index.updates"] = calls.get("seed_index.update", 0)
    out["veb.ops"] = calls.get("veb.op", 0)
    out["matcher.rollbacks"] = calls.get("matcher.rollback", 0)
    pairs = counters.get("matcher.trial_pairs", 0)
    out["matcher.useful_ratio"] = counters.get("matcher.commit_pairs", 0) / pairs if pairs else 0.0
    for name in traced[0] if traced else ():
        out[name] = statistics.median(t[name] for t in traced)
    out["trace.untraced_diff_s"] = statistics.median(untraced or [0.0])
    out["trace.overhead_s"] = out.get("trace.diff_s", 0.0) - out["trace.untraced_diff_s"]
    out["generator.gen_s"] = gen_s
    return out


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30)
            env["git_commit"] = head.stdout.strip() or None
            env["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run; returns the full record including the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rm, import_s, import_ref_s = import_program()
    workdir = WORK / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        r = Run(rm, workload, seed, toy, workdir)
        setup_ref_s, setup_wall_s, gen_s = r.setup()
        samples, ref_samples, probe_means, untraced, traced = [], [], [], [], []
        last_tracer = None
        t_start = time.perf_counter()
        while True:
            probe = None if trace else HostProbe()
            res, dt, _ = r.match(probe=probe)
            if trace:
                if res["ok"]:
                    untraced.append(dt)
                res, _, last_tracer = r.match(traced=True)
                if res["ok"]:
                    traced.append(traced_numbers(last_tracer, res))
            elif res["ok"]:
                samples.append(dt)
                ref_samples.append(probe.rescaled(dt))
                probe_means.append(probe.mean_s())
            if time.perf_counter() - t_start >= seconds:
                break
        if trace:
            metrics = per_layer(r, traced, untraced, gen_s)
            wanted = spec["per_layer"]
        else:
            metrics = end_to_end(r, samples, ref_samples, import_ref_s + setup_ref_s)
            wanted = spec["end_to_end"]
        result = {
            "correct": r.failed == 0,
            "attempted": r.attempted,
            "failed": r.failed,
            # A metric no passing match produced reads 0; the run is then not correct.
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                        for m in wanted},
        }
        if last_tracer is not None:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            last_tracer.write(str(WORK / "traces" / f"{workload}-s{seed}{'-toy' if toy else ''}.spans"))
        return {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "toy": toy,
            "environment": environment(),
            "n1": r.g1.vertex_count,
            "n2": r.g2.vertex_count,
            "import_s": import_s,
            "setup_wall_s": import_s + setup_wall_s,
            "reference": r.reference,
            "traced_reference": r.full_reference,
            "samples_s": samples,
            "samples_ref_s": ref_samples,
            "probe_mean_s": probe_means,
            "untraced_s": untraced,
            "traced": traced,
            "diff_samples": len(samples),
            "diff_s_max": max(samples, default=None),
            "failed_frac": r.failed / r.attempted,
            "failures": r.failures,
            "all_metrics": metrics,
            "result": result,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="10x10 grids, no quality floors (used by selfcheck.py)")
    args = ap.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except (ImportError, OSError) as e:
        print(f"benchmark cannot run here: {e}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}{'-toy' if args.toy else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    result = record["result"]
    for metric, m in result["metrics"].items():
        print(f"{metric}: {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for metric in ("diff_s", "vertices_per_s"):
            print(f"{metric} (wall, not rescaled): {record['all_metrics'][metric]:.6g}")
        print(f"diff_s samples: {record['diff_samples']}, max {record['diff_s_max']}")
    for reason in record["failures"]:
        print(f"failure: {reason}", file=sys.stderr)
    print(f"record: {results / name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
