#!/usr/bin/env python3
"""Memory of one ``roadmatch match`` on a generated snapshot pair.

The pair is generated by the CLI in child processes (``roadmatch gen
grid``, then ``roadmatch perturb``), so this process holds only the
package when the match starts.  Then ``roadmatch match`` runs here twice,
through ``roadmatch.cli.dispatch``:

1. untraced, for the calling process's peak RSS (``ru_maxrss``) before
   and after the match, and the peak RSS (``VmHWM``) of each worker
   process the match forks, read from ``/proc/<pid>/status`` just before
   the worker is reaped.  A forked worker's peak counts the pages it
   shares with the caller;
2. under ``tracemalloc``, for the allocation sites that hold the most
   memory at the caller's traced peak.  A CPU-time timer (``SIGPROF``)
   samples the traced memory, and each reading above every earlier one
   takes a snapshot; no thread is started, so the match forks its
   workers as it does untraced, and they run untraced.

The pair is the recipe of the benchmark's ``irregular-k4-40k`` pair
(by default its 200 x 200 grid, k = 4), without its random renumbering.
Usage:

    PYTHONPATH=src python3 scripts/mem_report.py
    PYTHONPATH=src python3 scripts/mem_report.py --rows 60 --cols 60
"""

import argparse
import os
import resource
import signal
import subprocess
import sys
import tempfile
import tracemalloc

from roadmatch import cli, worker

MIB = 1024 * 1024

# The irregular-k4-40k recipe: the grid's irregularity and seed, the
# perturbation's fractions (its seed is the next one), the match's flags.
IRREGULARITY = 0.15
REMOVE_VERTICES, ADD_EDGES = 0.02, 0.01
RNG_SEED = 9
MATCH_FLAGS = ["--k", "4", "--max-product", "4096"]
TOP = 12  # allocation sites listed


def maxrss_mb() -> float:
    """This process's peak RSS so far, in MB (``ru_maxrss`` is in kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def vm_hwm_mb(pid: int) -> float | None:
    """The peak RSS of a live process, in MB, or None where /proc lacks it."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


class WorkerPeaks:
    """Records each worker's ``VmHWM`` as ``worker.job`` closes it, before
    it is killed and reaped."""

    def __init__(self):
        self.peaks: list[tuple[str, int, float | None]] = []

    def __enter__(self):
        self._close = close = worker._Worker.close
        peaks = self.peaks

        def read_then_close(peer):
            if peer._status is None:  # not reaped yet
                peaks.append((peer._name, peer._pid, vm_hwm_mb(peer._pid)))
            close(peer)

        worker._Worker.close = read_then_close
        return self

    def __exit__(self, *exc):
        worker._Worker.close = self._close


class PeakSnapshot:
    """Traces allocations and keeps a snapshot from near the traced peak.

    Every ``interval`` seconds of CPU time the traced memory is read, and
    a reading above every earlier one (by more than ``step`` bytes) takes
    a new snapshot in place of the last.
    """

    def __init__(self, interval: float = 0.005, step: int = 256 * 1024):
        self.interval, self.step = interval, step
        self.snapshot = None
        self.at = 0  # traced bytes when the snapshot was taken
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            current = tracemalloc.get_traced_memory()[0]
            if current > self.at + self.step:
                self.snapshot = None  # freed before the next is taken
                self.snapshot = tracemalloc.take_snapshot()
                self.at = current
        finally:
            self._busy = False

    def __enter__(self):
        tracemalloc.start()
        self._handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._handler)
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def site(trace_stat) -> str:
    frame = trace_stat.traceback[0]
    parts = frame.filename.replace(os.sep, "/").split("/")
    return f"{'/'.join(parts[-2:])}:{frame.lineno}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rows", type=int, default=200)
    ap.add_argument("--cols", type=int, default=200)
    args = ap.parse_args()

    # A forked worker runs untraced, as it does in a real run.
    os.register_at_fork(after_in_child=tracemalloc.stop)
    with tempfile.TemporaryDirectory() as d:
        p1, p2, out = (os.path.join(d, name) for name in ("g1.erg", "g2.erg", "m.txt"))
        roadmatch = [sys.executable, "-m", "roadmatch.cli"]
        subprocess.run([*roadmatch, "gen", "grid", "--rows", str(args.rows),
                        "--cols", str(args.cols), "--irregularity", str(IRREGULARITY),
                        "--rng-seed", str(RNG_SEED), "-o", p1], check=True)
        subprocess.run([*roadmatch, "perturb", p1, "--remove-vertices",
                        str(REMOVE_VERTICES), "--add-edges", str(ADD_EDGES),
                        "--rng-seed", str(RNG_SEED + 1), "-o", p2], check=True)
        argv = ["match", p1, p2, *MATCH_FLAGS, "-o", out]
        print(f"pair: {args.rows} x {args.cols} grid, files of "
              f"{os.path.getsize(p1) / MIB:.2f} and {os.path.getsize(p2) / MIB:.2f} MiB")
        print(f"match: {' '.join(MATCH_FLAGS)}")

        before = maxrss_mb()
        with WorkerPeaks() as workers:
            if cli.dispatch(argv) != 0:
                sys.exit("the match failed")
        print(f"caller ru_maxrss: {before:.1f} MB before the match, {maxrss_mb():.1f} MB after")
        for name, pid, hwm in workers.peaks:
            shown = "unknown" if hwm is None else f"{hwm:.1f} MB"
            print(f"worker {name} (pid {pid}) VmHWM: {shown}")
        if not workers.peaks:
            print("no worker was forked")

        with PeakSnapshot() as traced:
            if cli.dispatch(argv) != 0:
                sys.exit("the traced match failed")
    print(f"caller traced peak: {traced.peak / MIB:.1f} MiB; "
          f"snapshot taken at {traced.at / MIB:.1f} MiB")
    if traced.snapshot is None:
        print("no snapshot: the match ended before the first sample")
        return
    snapshot = traced.snapshot.filter_traces([
        tracemalloc.Filter(False, tracemalloc.__file__),
        tracemalloc.Filter(False, "<frozen importlib._bootstrap*>"),
    ])
    print(f"top {TOP} allocation sites in that snapshot:")
    for stat in snapshot.statistics("lineno")[:TOP]:
        print(f"  {stat.size / MIB:7.2f} MiB {stat.count:9d} blocks  {site(stat)}")


if __name__ == "__main__":
    main()
