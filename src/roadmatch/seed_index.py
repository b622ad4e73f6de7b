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
Building the index is also the one place that checks the product bound.

``label_pair`` labels both snapshots at a fixed k, the second in a worker
process while this one labels the first, when that pays
(``labeling.labeling_job``).  ``auto_tune_k`` picks the label depth k: it
grows both graphs' labels one level per k in a single pass
(``labeling.labels_by_depth``), the second in lockstep in the worker, and
counts them at each k, rather than labeling both graphs from scratch at
every k.  The worker's per-k counts are ``Counter``s keyed by the label
bytes, so they pickle small.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigurationError, InputError, InternalError
from .graph import EmbeddedGraph
from .labeling import (
    Label,
    MasterTable,
    label_nodes,
    labeling_job,
    labels_by_depth,
    master_table,
)

DEFAULT_MAX_PRODUCT = 24

# Entries of SeedIndex.label_of besides label ids.
UNINDEXED = -1  # the vertex's label is not cross-present
REMOVED = -2  # removed, or never in the table


class SeedIndex:
    def __init__(self, mt1: MasterTable, mt2: MasterTable, max_product: int):
        if max_product < 1:
            raise InputError(f"max_product must be >= 1, got {max_product}")
        self.max_product = max_product
        # Only a label with vertices on both sides can seed, and counts only
        # fall, so no other label can ever become cross-present.  Ids follow
        # label order, which keeps pop_min_label's tie-break on the labels.
        self.labels: list[Label] = sorted(
            lab for lab in mt1.keys() & mt2.keys() if mt1[lab] and mt2[lab]
        )
        # Per side: label id -> set of that side's still-unmatched vertices.
        self.members: tuple[list[set[int]], list[set[int]]] = (
            [set(mt1[lab]) for lab in self.labels],
            [set(mt2[lab]) for lab in self.labels],
        )
        # Per side, by vertex id: its label id, UNINDEXED or REMOVED.
        self.label_of: tuple[list[int], list[int]] = (
            _label_map(mt1, self.labels), _label_map(mt2, self.labels)
        )
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
        self.retired: set[int] = set()

    def _unindex_label(self, lid: int) -> None:
        p = self.product.pop(lid)
        b = self.bucket[p]
        b.discard(lid)
        if not b:
            del self.bucket[p]

    def _reindex(self, lid: int) -> None:
        if lid in self.product:
            self._unindex_label(lid)
        if lid in self.retired:
            return
        p = len(self.members[0][lid]) * len(self.members[1][lid])
        if p:
            self.product[lid] = p
            self.bucket.setdefault(p, set()).add(lid)

    def retire_label(self, lid: int) -> None:
        """Permanently stop offering this label as a seed source.

        Its vertices stay tracked and can still be matched through floods
        seeded elsewhere.
        """
        self.retired.add(lid)
        if lid in self.product:
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
        marked removed; removing a vertex twice, or one the tables never
        held, is an InternalError."""
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


def _label_map(mt: MasterTable, labels: list[Label]) -> list[int]:
    """Flat map from each vertex id of mt to the id of its label in labels.

    Only the indexed labels are looked up: hashing every label of a deep
    table costs more than the rest of the build.
    """
    label_of = [REMOVED] * (max(map(max, filter(None, mt.values())), default=-1) + 1)
    for verts in mt.values():
        for v in verts:
            label_of[v] = UNINDEXED
    for lid, lab in enumerate(labels):
        for v in mt[lab]:
            label_of[v] = lid
    return label_of


def build_seed_index(
    mt1: MasterTable, mt2: MasterTable, max_product: int = DEFAULT_MAX_PRODUCT
) -> SeedIndex:
    return SeedIndex(mt1, mt2, max_product)


def label_pair(
    g1: EmbeddedGraph, g2: EmbeddedGraph, k: int
) -> tuple[tuple[MasterTable, list[Label]], tuple[MasterTable, list[Label]]]:
    """``label_nodes(g1, k)`` and ``label_nodes(g2, k)``, computed at once.

    g2 is labeled in a worker process while this one labels g1, when that
    pays (see ``labeling.labeling_job``); the results are the same either
    way.
    """
    with labeling_job(g2, k) as second:
        first = label_nodes(g1, k)
        return first, second.receive()


def _prefix_across(counts1: Counter, counts2: Counter) -> bool:
    """Whether a label counted on one side is a proper prefix of a label
    counted on the other.

    In sorted order a label's extensions follow it directly, so one scan
    keeps a stack of the labels that are prefixes of the current one.  They
    all lie on the top one's side, or the scan would have stopped, so only
    the top is compared.
    """
    stack: list[tuple[Label, int]] = []  # (label, 1 first side, 2 second, 3 both)
    for lab in sorted(counts1.keys() | counts2.keys()):
        sides = (lab in counts1) | (lab in counts2) << 1
        while stack and not lab.startswith(stack[-1][0]):
            stack.pop()
        if stack and stack[-1][1] | sides == 3:
            return True
        stack.append((lab, sides))
    return False


@dataclass
class TuneReport:
    k: int
    max_product: int
    bounded: bool  # whether max_product <= requested bound
    per_k: list[tuple[int, int]]
    tables: tuple[MasterTable, MasterTable] | None = None


def auto_tune_k(
    g1: EmbeddedGraph,
    g2: EmbeddedGraph,
    max_product: int = DEFAULT_MAX_PRODUCT,
    k_max: int = 12,
) -> TuneReport:
    """Smallest k in [1, k_max] whose max cross product p is within the bound.

    A k qualifies only when 0 < p <= bound: p = 0 means no label is shared
    by both graphs, so nothing could seed and the matching would be empty.
    Scans k ascending (monotonicity of the max product is not guaranteed:
    small symmetric components can hold a floor).  A depth-(k+1) label
    extends the depth-k one, and labels carry no level boundaries, so two
    vertices with different depth-k labels can share a deeper one only if
    one's depth-k label is a proper prefix of the other's.  The scan
    therefore stops at the first k with p = 0 at which no label of one
    graph is a proper prefix of a label of the other (``_prefix_across``),
    and ``per_k`` ends there.  If no k qualifies, returns the k minimizing
    p among those with p > 0, smallest k on ties, flagged as unbounded; if
    no k has a shared label, k = 1 with p = 0.

    One pass grows both graphs' labels a level per k (``labels_by_depth``)
    and counts them for each k's max product, so tuning walks each ball
    about once rather than once per k tried.  g2's pass runs in lockstep in
    a worker process when that pays: at each k it sends its label counts
    and waits for "next" or "stop", and on "stop" sends its table.  Its
    results, tables included, equal labeling both graphs from scratch at
    every k.  The growth state is freed before the chosen k's tables are
    built; only the unbounded case labels again, at the minimizing k.
    """
    if max_product < 1 or k_max < 1:
        raise InputError("max_product and k_max must be >= 1")
    per_k = []
    with labeling_job(g2, k_max, by_depth=True) as second:
        depths1 = labels_by_depth(g1)
        for k, labels1 in zip(range(1, k_max + 1), depths1):
            # Rebinding frees the counts of the last k before the next arrive.
            counts1 = Counter(labels1)
            counts2 = second.receive()
            p = max(
                (n * counts1[lab] for lab, n in counts2.items() if lab in counts1),
                default=0,
            )
            dead_end = not p and not _prefix_across(counts1, counts2)
            del counts2
            per_k.append((k, p))
            if 0 < p <= max_product:
                second.send("stop")
                del counts1
                depths1.close()  # frees the growth state; the labels at k stay
                return TuneReport(
                    k, p, True, per_k, (master_table(labels1), second.receive()[0])
                )
            if dead_end:
                break  # no deeper k can share a label either
            if k < k_max:
                second.send("next")
    del depths1, labels1, counts1  # the growth state and the k_max labels
    p, k = min(((p, k) for k, p in per_k if p), default=(0, 1))
    (mt1, _), (mt2, _) = label_pair(g1, g2, k)
    return TuneReport(k, p, False, per_k, (mt1, mt2))
