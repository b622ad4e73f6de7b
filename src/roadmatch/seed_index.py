"""Seed selection: per-label cross products and the minimum among them.

The index holds only the labels L present in both graphs, the only ones
that can seed, and tracks the product n1(L)*n2(L) of their counts of
still-unmatched vertices.  A product table maps each product to the labels
currently holding it; the minimum is taken over the distinct products
present, which stay few (at most 117 at a pop on the benchmark's
workloads, on ``shallow-k1-7k``).  The vertices of each committed trial are removed
in one batch and every affected label's product is recomputed once.
Labels (``bytes``, one byte per degree; see ``labeling``) are interned to
integer ids, in label order, at build time; all internal structures work
on ids, and error messages show a label as a tuple of its degrees.
Building the index checks the product bound at a fixed k; under auto-k the
tuner's report does (``TuneReport.bounded``).

A label reaches the index in one form: the per-vertex label list of each
graph, as ``labeling.label_nodes`` gives it, with None for a vertex that
has no label.  The index finds the shared labels and, in one pass per
side, each vertex's label id and the vertices of each shared label.

``label_pair`` labels both snapshots at a fixed k through the one driver
(``labeling.labels_by_depth``), the second in a worker process while
this one labels the first, when that pays (``labeling.labeling_job``),
and returns the two label lists.
``auto_tune_k`` picks the label depth k: it walks both graphs' labels at
k = 1, 2, ... through one driver each (``labeling.labels_by_depth``), the
second in lockstep in the worker, and counts each side's labels itself at
each k.  After each k both drivers go on labeling only the vertices whose
labels can still be shared, found by one sorted scan over both graphs'
counts (``_compatible``) and sent back as keep-sets.  Its report carries
the two last label lists, those of the chosen k.  The index,
``auto_tune_k`` and ``metrics.approximation_ratio`` are the only places
that find the labels both graphs share.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import islice
from dataclasses import dataclass

from .errors import ConfigurationError, InputError, InternalError
from .graph import EmbeddedGraph
from .labeling import Label, labeling_job, labels_by_depth

DEFAULT_MAX_PRODUCT = 24
DEFAULT_K_MAX = 12

# Entries of SeedIndex.label_of besides label ids.
UNINDEXED = -1  # the vertex's label is not cross-present
REMOVED = -2  # removed, or not a vertex of the graph


def check_max_product(max_product: int) -> None:
    """InputError for a product bound below 1."""
    if max_product < 1:
        raise InputError(f"max_product must be >= 1, got {max_product}")


def check_tune_args(max_product: int, k_max: int) -> None:
    """InputError unless the tuner's product bound and deepest k are >= 1."""
    if max_product < 1 or k_max < 1:
        raise InputError("max_product and k_max must be >= 1")


class SeedIndex:
    def __init__(
        self, labels1: list[Label | None], labels2: list[Label | None], max_product: int
    ):
        """Index the labels that the per-vertex label lists of two graphs
        share; a vertex whose entry is None has no label."""
        check_max_product(max_product)
        self.max_product = max_product
        # Only a label with vertices on both sides can seed, and counts only
        # fall, so no other label can ever become cross-present.  Ids follow
        # label order, which keeps pop_min_label's tie-break on the labels.
        shared = set(labels1).intersection(labels2)
        shared.discard(None)
        self.labels: list[Label] = sorted(shared)
        ids = {lab: lid for lid, lab in enumerate(self.labels)}
        # Per side: label id -> set of that side's still-unmatched vertices.
        self.members: tuple[list[set[int]], list[set[int]]] = (
            [set() for _ in self.labels], [set() for _ in self.labels]
        )
        # Per side, by vertex id: its label id, UNINDEXED or REMOVED.
        self.label_of: tuple[list[int], list[int]] = (
            [UNINDEXED] * len(labels1), [UNINDEXED] * len(labels2)
        )
        for labels, label_of, members in zip((labels1, labels2), self.label_of, self.members):
            for v, lab in enumerate(labels):
                if lab in ids:
                    label_of[v] = lid = ids[lab]
                    members[lid].add(v)
        products = [len(a) * len(b) for a, b in zip(*self.members)]
        # Largest n1*n2 over labels present on both sides, as built.
        self.largest_product = max(products, default=0)
        if self.largest_product > max_product:
            lid = products.index(self.largest_product)
            raise ConfigurationError(
                f"max label product {self.largest_product} exceeds bound {max_product}; "
                f"re-tune k (see the tune-k command) or raise the bound; "
                f"the label is {tuple(self.labels[lid])}"
            )
        self.product: dict[int, int] = dict(enumerate(products))
        self.bucket: dict[int, set[int]] = {}
        for lid, p in self.product.items():
            self.bucket.setdefault(p, set()).add(lid)

    def _unindex_label(self, lid: int) -> None:
        p = self.product.pop(lid)
        b = self.bucket[p]
        b.discard(lid)
        if not b:
            del self.bucket[p]

    def _reindex(self, lid: int) -> None:
        # A label out of ``product`` was retired or has no vertex left on a
        # side; counts only fall, so it can never seed again.
        if lid not in self.product:
            return
        self._unindex_label(lid)
        p = len(self.members[0][lid]) * len(self.members[1][lid])
        if p:
            self.product[lid] = p
            self.bucket.setdefault(p, set()).add(lid)

    def retire_label(self, lid: int) -> None:
        """Permanently stop offering this label as a seed source.

        Its vertices stay tracked and can still be matched through floods
        seeded elsewhere.  The label must still be indexed (in ``product``).
        """
        self._unindex_label(lid)

    def pop_min_label(self, rng: random.Random) -> int | None:
        """Label id with minimal product, ties broken uniformly by rng.

        Returns None when no cross-present label remains (termination
        signal).  The label stays indexed until its vertices are consumed.
        """
        if not self.bucket:
            return None
        candidates = sorted(self.bucket[min(self.bucket)])
        return candidates[rng.randrange(len(candidates))]

    def vertices(self, side: int, lid: int) -> list[int]:
        return sorted(self.members[side][lid])

    def remove_pairs(self, pairs: list[tuple[int, int]]) -> None:
        """Remove both vertices of every matched pair, re-indexing each
        touched label once.  A vertex whose label is not indexed is only
        marked removed; removing a vertex twice, or one the graph does not
        have, is an InternalError."""
        touched = set()
        for v1, v2 in pairs:
            for side, v in ((0, v1), (1, v2)):
                label_of = self.label_of[side]
                lid = label_of[v] if 0 <= v < len(label_of) else REMOVED
                if lid == REMOVED:
                    raise InternalError(
                        f"vertex {v} not present on side {side} (double removal?)"
                    )
                label_of[v] = REMOVED
                if lid != UNINDEXED:
                    self.members[side][lid].discard(v)
                    touched.add(lid)
        for lid in touched:
            self._reindex(lid)


def label_pair(
    g1: EmbeddedGraph, g2: EmbeddedGraph, k: int
) -> tuple[list[Label], list[Label]]:
    """``(label_nodes(g1, k)[1], label_nodes(g2, k)[1])``, computed at once.

    g2 is labeled in a worker process while this one labels g1, when that
    pays (``labeling.labeling_job``).  The results are the same either way.
    """
    with labeling_job(g2, k, last=k) as second:
        labels1 = next(labels_by_depth(g1, k, last=k))
        return labels1, second.receive()


def _compatible(counts1: Counter, counts2: Counter) -> tuple[set[Label], set[Label]]:
    """Per side, the labels counted there that equal, are a proper prefix
    of, or extend a label counted on the other side.

    A label counted on both sides is kept on both.  In sorted order a
    label's extensions follow it directly, so one scan finds the rest: a
    label with neither a proper prefix nor an extension in the scan is
    passed over, and the others go on a stack of the labels that are
    prefixes of the current one, each with the sides of its own prefixes.
    A label is settled when it is popped: by then each of its extensions
    has passed and handed its sides down to it.
    """
    keys1, keys2 = counts1.keys(), counts2.keys()
    shared = keys1 & keys2
    keep = (set(shared), set(shared))
    # [label, its side (1 first, 2 second, 3 both), sides of its proper
    # prefixes, sides of its proper extensions so far]
    stack: list[list] = []

    def settle() -> None:
        lab, sides, below, above = stack.pop()
        seen = sides | below | above
        if sides == 1 and seen & 2:
            keep[0].add(lab)
        elif sides == 2 and seen & 1:
            keep[1].add(lab)
        if stack:
            stack[-1][3] |= sides | above

    # One list, no set of all labels: the scan runs at the tuner's peak.
    labels = [*keys1, *(lab for lab in keys2 if lab not in keys1)]
    labels.sort()
    labels.append(b"")  # the last label's successor, which extends no label
    for lab, nxt in zip(labels, islice(labels, 1, None)):
        while stack and not lab.startswith(stack[-1][0]):
            settle()
        if stack or nxt.startswith(lab):
            below = stack[-1][1] | stack[-1][2] if stack else 0
            stack.append([lab, (lab in keys1) | (lab in keys2) << 1, below, 0])
    while stack:
        settle()
    return keep


@dataclass
class TuneReport:
    k: int
    max_product: int
    bounded: bool  # whether max_product <= requested bound
    per_k: list[tuple[int, int]]
    # Both graphs' label lists at the chosen k, None at each vertex no
    # longer labeled there; None if unbounded with p > 0.
    labels: tuple[list[Label | None], list[Label | None]] | None = None


def auto_tune_k(
    g1: EmbeddedGraph,
    g2: EmbeddedGraph,
    max_product: int = DEFAULT_MAX_PRODUCT,
    k_max: int = DEFAULT_K_MAX,
) -> TuneReport:
    """Smallest k in [1, k_max] whose max cross product p is within the bound.

    A k qualifies only when 0 < p <= bound: p = 0 means no label is shared
    by both graphs, so nothing could seed and the matching would be empty.
    Scans k ascending (monotonicity of the max product is not guaranteed:
    small symmetric components can hold a floor).  If no k qualifies,
    returns the k minimizing p among those with p > 0, smallest k on ties,
    flagged as unbounded and without label lists; if no k has a shared
    label, k = 1 with p = 0 and lists of None.  A bounded report's lists
    are the chosen k's: every label both graphs share there is in them.

    A depth-(k+1) label extends the depth-k one, and labels carry no level
    boundaries, so two vertices of different graphs can share a deeper
    label only if at every depth before it one's label equals, is a proper
    prefix of, or extends the other's.  After each k, a vertex whose label
    is compatible in that way with no label of the other graph
    (``_compatible``) leaves its graph's live set: it can never share a
    label again, so it is neither labeled nor counted any more.  The counts
    of the labels present in both graphs, and so p, are those of all the
    vertices.  The scan stops when no vertex is live, and ``per_k`` ends
    there.

    One driver per graph (``labeling.labels_by_depth``) labels its live
    vertices at each k, walking their balls afresh; only the live vertices
    are walked again at the next k.  Both sides' labels are counted here
    for that k's max product.  g2's driver runs in lockstep in a worker
    process when that pays (``labeling.labeling_job``): at each k it sends
    its label list and waits for its keep-set.  At the chosen k, the two
    last label lists go in the report, and the job is left without a
    further command.  The shared labels and their vertices equal those of
    labeling both graphs from scratch at every k.
    """
    check_tune_args(max_product, k_max)
    per_k = []
    with labeling_job(g2, 1, last=k_max) as second:
        first = labels_by_depth(g1, 1, last=k_max)
        labels1 = next(first)
        for k in range(1, k_max + 1):
            labels2 = second.receive()
            # No label is empty, so filter(None, ...) drops just the Nones.
            counts1, counts2 = Counter(filter(None, labels1)), Counter(filter(None, labels2))
            shared = counts1.keys() & counts2.keys()
            p = max((counts1[lab] * counts2[lab] for lab in shared), default=0)
            per_k.append((k, p))
            if 0 < p <= max_product:
                return TuneReport(k, p, True, per_k, (labels1, labels2))
            keep1, keep2 = _compatible(counts1, counts2)
            # Freed before the next labels arrive.
            del counts1, counts2, shared, labels2
            if not keep1 or k == k_max:
                break  # no deeper k can share a label, or none may be tried
            second.send(keep2)
            labels1 = first.send(keep1)
        first.close()  # frees the kernel
    p, k = min(((p, k) for k, p in per_k if p), default=(0, 1))
    labels = None if p else ([None] * g1.vertex_count, [None] * g2.vertex_count)
    return TuneReport(k, p, False, per_k, labels)
