"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``roadmatch`` at the name the calling
module looks up (``roadmatch.matcher.run_trial``, ``SeedIndex.remove_vertex``
and so on), so nothing under ``src/`` changes.  In span mode every wrapped
call records one span (name, start, end, parent) in compact arrays held in
memory; the spans are reduced to per-name self times after the run and can
be written to disk.  In count mode the tracer wraps only the calls made a
few hundred times per match at most (``LIGHT``), counts them and runs their
result hooks, so every timed match records its behaviour counters
(matched, k, labels, pops, retired labels) at no measurable cost;
per-trial counters need span mode.

``uninstall`` restores every patched name.  A target that no longer exists
(a module or method removed by a later change) is skipped and listed in
``missing``; its layer then reports zero calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  "Class.method" patches the class, so
# every instance picks the wrapper up through normal attribute lookup.
SPANS = (
    ("roadmatch.cli", "load_graph", "ingest.load_graph"),
    ("roadmatch.cli", "match", "matcher.match"),
    ("roadmatch.cli", "format_matching", "cli.format_matching"),
    ("roadmatch.matcher", "label_nodes", "labeling.label_nodes"),
    ("roadmatch.seed_index", "label_nodes", "labeling.label_nodes"),
    ("roadmatch.matcher", "auto_tune_k", "seed_index.auto_tune_k"),
    ("roadmatch.matcher", "max_cross_product", "seed_index.max_cross_product"),
    ("roadmatch.matcher", "build_seed_index", "seed_index.build"),
    ("roadmatch.matcher", "run_trial", "matcher.run_trial"),
    ("roadmatch.matcher", "MatchState.abort_trial", "matcher.rollback"),
    ("roadmatch.seed_index", "SeedIndex.pop_min_label", "seed_index.pop"),
    ("roadmatch.seed_index", "SeedIndex.vertices", "seed_index.vertices"),
    ("roadmatch.seed_index", "SeedIndex.retire_label", "seed_index.retire"),
    ("roadmatch.seed_index", "SeedIndex.remove_vertex", "seed_index.update"),
    ("roadmatch.seed_index", "SeedIndex.add_vertex", "seed_index.update"),
    ("roadmatch.veb", "VebTree.insert", "veb.op"),
    ("roadmatch.veb", "VebTree.delete", "veb.op"),
    ("roadmatch.veb", "VebTree.min", "veb.op"),
    ("roadmatch.veb", "VebTree.contains", "veb.op"),
)

# Counted (and hooked) but never given a span: either too fine-grained to
# time without distorting the trial they run in, or only a marker.
COUNTED = (
    ("roadmatch.matcher", "pair_admissible", "matcher.admissible"),
    ("roadmatch.matcher", "MatchState.commit_trial", "matcher.commit_trial"),
)

ROOT = "cli.dispatch"

# Span names wrapped in count mode, and the counters they feed.
LIGHT = {
    ROOT,
    "ingest.load_graph",
    "matcher.match",
    "cli.format_matching",
    "labeling.label_nodes",
    "seed_index.auto_tune_k",
    "seed_index.build",
    "seed_index.pop",
    "seed_index.retire",
}
LIGHT_COUNTERS = (
    "ingest.bytes_in",
    "labeling.calls",
    "labeling.vertices_labeled",
    "labeling.labels_distinct",
    "seed_index.k_chosen",
    "seed_index.k_tried",
    "seed_index.pops",
    "seed_index.retired",
    "matcher.matched",
    "cli.bytes_out",
)

# Self time of each span name lands in exactly one bucket, so the buckets
# add up to the root span.  run_trial is split into trials and the commit
# re-run by ``Tracer.commit_spans``.
SELF_BUCKETS = {
    ROOT: "cli.self_s",
    "ingest.load_graph": "ingest.parse_s",
    "cli.format_matching": "cli.format_s",
    "labeling.label_nodes": "labeling.label_s",
    "seed_index.auto_tune_k": "seed_index.build_s",
    "seed_index.max_cross_product": "seed_index.build_s",
    "seed_index.build": "seed_index.build_s",
    "seed_index.pop": "seed_index.pop_s",
    "seed_index.vertices": "seed_index.pop_s",
    "seed_index.retire": "seed_index.pop_s",
    "seed_index.update": "seed_index.update_s",
    "veb.op": "veb.s",
    "matcher.match": "matcher.self_s",
    "matcher.run_trial": "matcher.trial_s",
    "matcher.rollback": "matcher.rollback_s",
}
COMMIT_BUCKET = "matcher.commit_s"


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for a patch target, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    """One traced (or counted) pass over the program; create one per match."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.commit_spans: set[int] = set()
        self.counters = {
            "ingest.bytes_in": 0,
            "labeling.calls": 0,
            "labeling.vertices_labeled": 0,
            "labeling.labels_distinct": 0,
            "seed_index.k_chosen": 0,
            "seed_index.k_tried": 0,
            "seed_index.pops": 0,
            "seed_index.retired": 0,
            "matcher.trials": 0,
            "matcher.trial_pairs": 0,
            "matcher.commit_pairs": 0,
            "matcher.admissible_checks": 0,
            "matcher.admissible_rejects": 0,
            "matcher.matched": 0,
            "cli.bytes_out": 0,
        }
        self._last_trial = (-1, 0)
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    # -- hooks: run after a wrapped call returns, outside its span ---------

    def _hook(self, name: str):
        c = self.counters
        if name == "ingest.load_graph":
            def hook(args, result, index):
                c["ingest.bytes_in"] += os.path.getsize(args[0])
        elif name == "cli.format_matching":
            def hook(args, result, index):
                c["cli.bytes_out"] += len(result.encode())
        elif name == "labeling.label_nodes":
            def hook(args, result, index):
                c["labeling.calls"] += 1
                c["labeling.vertices_labeled"] += args[0].vertex_count
        elif name == "seed_index.auto_tune_k":
            def hook(args, result, index):
                c["seed_index.k_tried"] += len(getattr(result, "per_k", ()))
        elif name == "seed_index.build":
            def hook(args, result, index):
                c["labeling.labels_distinct"] += len(getattr(result, "labels", ()))
        elif name == "seed_index.pop":
            def hook(args, result, index):
                c["seed_index.pops"] += result is not None
        elif name == "seed_index.retire":
            def hook(args, result, index):
                c["seed_index.retired"] += 1
        elif name == "matcher.run_trial":
            def hook(args, result, index):
                c["matcher.trials"] += 1
                c["matcher.trial_pairs"] += result
                self._last_trial = (index, result)
        elif name == "matcher.commit_trial":
            def hook(args, result, index):
                # The run_trial just before a commit is the winner's re-run.
                last, card = self._last_trial
                c["matcher.trials"] -= 1
                c["matcher.trial_pairs"] -= card
                c["matcher.commit_pairs"] += card
                if last >= 0:
                    self.commit_spans.add(last)
        elif name == "matcher.admissible":
            def hook(args, result, index):
                c["matcher.admissible_checks"] += 1
                c["matcher.admissible_rejects"] += not result
        elif name == "matcher.match":
            def hook(args, result, index):
                c["matcher.matched"] += len(result.pairs)
                c["seed_index.k_chosen"] = result.stats.k
                if not c["seed_index.k_tried"]:
                    c["seed_index.k_tried"] = 1  # fixed --k
        else:
            return None
        return hook

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = True):
        nid = self._id(name)
        hook = self._hook(name)
        calls = self.calls
        if not (span and self.spans):
            def counted(*args, **kwargs):
                calls[nid] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result, -1)
                return result
            return counted

        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack

        def traced(*args, **kwargs):
            calls[nid] += 1
            i = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_start[i] = t0
                span_end[i] = t1
            if hook is not None:
                hook(args, result, i)
            return result
        return traced

    def install(self) -> None:
        for table, span in ((SPANS, True), (COUNTED, False)):
            for module_name, attr, name in table:
                if not self.spans and name not in LIGHT:
                    continue
                target = _resolve(module_name, attr)
                if target is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                owner, key = target
                original = inspect.getattr_static(owner, key)
                self._patches.append((owner, key, original))
                setattr(owner, key, self.wrap(name, original, span))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reduction ---------------------------------------------------------

    def light_counters(self) -> dict[str, int]:
        return {name: self.counters[name] for name in LIGHT_COUNTERS}

    def call_counts(self) -> dict[str, int]:
        return {name: self.calls[i] for i, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        """Duration of the first root span (the traced dispatch)."""
        root = self._ids[ROOT]
        for i, nid in enumerate(self.span_name):
            if nid == root and self.span_parent[i] == -1:
                return self.span_end[i] - self.span_start[i]
        raise ValueError("no root span recorded")

    def self_times(self) -> dict[str, float]:
        """Self seconds per bucket of SELF_BUCKETS (plus the commit bucket).

        A span's self time is its duration minus the durations of its
        direct children; wrapped calls never overlap their siblings.
        """
        n = len(self.span_name)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        buckets = {b: 0.0 for b in SELF_BUCKETS.values()}
        buckets[COMMIT_BUCKET] = 0.0
        bucket_of = [SELF_BUCKETS.get(name) for name in self.names]
        commits = self.commit_spans
        for i in range(n):
            s = end[i] - start[i] - child[i]
            if i in commits:
                buckets[COMMIT_BUCKET] += s
            else:
                buckets[bucket_of[self.span_name[i]]] += s
        return buckets

    def stage_seconds(self) -> float:
        """Wall seconds of the stage that fixes k and labels both graphs.

        Under --auto-k that is auto_tune_k; under a fixed --k it is the
        label_nodes calls the matcher makes itself.
        """
        tune = self._ids.get("seed_index.auto_tune_k")
        label = self._ids.get("labeling.label_nodes")
        match = self._ids.get("matcher.match")
        total = 0.0
        for i, nid in enumerate(self.span_name):
            p = self.span_parent[i]
            if nid == tune or (nid == label and p >= 0 and self.span_name[p] == match):
                total += self.span_end[i] - self.span_start[i]
        return total

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": ["name:i", "parent:q", "start:d", "end:d"],
            "byteorder": sys.byteorder,
            "commit_spans": sorted(self.commit_spans),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path: str):
    """Inverse of Tracer.write: (header, [(name, parent, start, end), ...])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays.append(arr)
    names = header["names"]
    spans = [(names[n], p, s, e) for n, p, s, e in zip(*arrays)]
    return header, spans
