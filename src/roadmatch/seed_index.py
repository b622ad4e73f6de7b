"""Seed selection: per-label cross products with a vEB priority structure.

For every label L present in both graphs the index tracks the product
n1(L)*n2(L) of its occurrence counts.  A vEB tree over products answers
min-product queries; a product table maps each product back to the labels
currently holding it.  The vertices of each committed trial are removed in
one batch and every affected label's product is recomputed once.  Labels
are interned to integer ids at build time; all internal structures work on
ids.  Building the index is also the one place that checks the product
bound.

``label_pair`` labels both snapshots at a fixed k, the second in a worker
process while this one labels the first, when that pays
(``labeling.labeling_job``).  ``auto_tune_k`` picks the label depth k: it
grows both graphs' labels one level per k in a single pass
(``labeling.labels_by_depth``), the second in lockstep in the worker, and
counts them at each k, rather than labeling both graphs from scratch at
every k.
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
from .veb import VebTree

DEFAULT_MAX_PRODUCT = 24


class SeedIndex:
    def __init__(self, mt1: MasterTable, mt2: MasterTable, max_product: int):
        if max_product < 1:
            raise InputError(f"max_product must be >= 1, got {max_product}")
        self.max_product = max_product
        all_labels = sorted(set(mt1) | set(mt2))
        self.labels: list[Label] = all_labels
        self.label_id: dict[Label, int] = {lab: i for i, lab in enumerate(all_labels)}
        # Per side: label id -> set of still-unmatched vertices with that label.
        self.side_vertices: tuple[list[set[int]], list[set[int]]] = (
            [set() for _ in all_labels],
            [set() for _ in all_labels],
        )
        self.vertex_label: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for side, mt in ((0, mt1), (1, mt2)):
            for lab, verts in mt.items():
                lid = self.label_id[lab]
                self.side_vertices[side][lid].update(verts)
                for v in verts:
                    self.vertex_label[side][v] = lid
        self.product: dict[int, int] = {}
        self.bucket: dict[int, set[int]] = {}
        self.retired: set[int] = set()
        self.veb = VebTree(max_product)
        products = {}
        for lid in range(len(all_labels)):
            n1 = len(self.side_vertices[0][lid])
            n2 = len(self.side_vertices[1][lid])
            if n1 and n2:
                products[lid] = n1 * n2
        # Largest n1*n2 over labels present on both sides, as built.
        self.largest_product = max(products.values(), default=0)
        if self.largest_product > max_product:
            lid = max(products, key=products.__getitem__)
            raise ConfigurationError(
                f"max label product {self.largest_product} exceeds bound {max_product}; "
                f"re-tune k (see the tune-k command) or raise the bound; "
                f"the label is {self.labels[lid]}"
            )
        for lid, p in products.items():
            self._index_label(lid, p)

    def _index_label(self, lid: int, p: int) -> None:
        self.product[lid] = p
        b = self.bucket.get(p)
        if b is None:
            b = self.bucket[p] = set()
            self.veb.insert(p)
        b.add(lid)

    def _unindex_label(self, lid: int) -> None:
        p = self.product.pop(lid)
        b = self.bucket[p]
        b.discard(lid)
        if not b:
            del self.bucket[p]
            self.veb.delete(p)

    def _reindex(self, lid: int) -> None:
        if lid in self.product:
            self._unindex_label(lid)
        if lid in self.retired:
            return
        n1 = len(self.side_vertices[0][lid])
        n2 = len(self.side_vertices[1][lid])
        if n1 and n2:
            self._index_label(lid, n1 * n2)

    def retire_label(self, lid: int) -> None:
        """Permanently stop offering this label as a seed source.

        Its vertices stay tracked and can still be matched through floods
        seeded elsewhere.
        """
        self.retired.add(lid)
        if lid in self.product:
            self._unindex_label(lid)

    def __bool__(self) -> bool:
        return bool(self.veb)

    def pop_min_label(self, rng: random.Random) -> int | None:
        """Label id with minimal product, ties broken uniformly by rng.

        Returns None when no cross-present label remains (termination
        signal).  The label stays indexed until its vertices are consumed.
        """
        p = self.veb.min()
        if p is None:
            return None
        candidates = sorted(self.bucket[p])
        return candidates[rng.randrange(len(candidates))]

    def vertices(self, side: int, lid: int) -> list[int]:
        return sorted(self.side_vertices[side][lid])

    def _take(self, side: int, v: int) -> int:
        """Drop v from its label's vertex set and return the label id."""
        lid = self.vertex_label[side].get(v)
        if lid is None or v not in self.side_vertices[side][lid]:
            raise InternalError(f"vertex {v} not present on side {side} (double removal?)")
        self.side_vertices[side][lid].discard(v)
        return lid

    def remove_vertex(self, side: int, v: int) -> None:
        self._reindex(self._take(side, v))

    def remove_pairs(self, pairs: list[tuple[int, int]]) -> None:
        """Remove both vertices of every matched pair, re-indexing each
        touched label once; equal to one remove_vertex call per vertex."""
        touched = set()
        for v1, v2 in pairs:
            touched.add(self._take(0, v1))
            touched.add(self._take(1, v2))
        for lid in touched:
            self._reindex(lid)

    def snapshot(self):
        """Canonical structural fingerprint, for rollback-exactness checks."""
        return (
            tuple(tuple(sorted(s)) for s in self.side_vertices[0]),
            tuple(tuple(sorted(s)) for s in self.side_vertices[1]),
            tuple(sorted(self.product.items())),
            tuple(sorted((p, tuple(sorted(b))) for p, b in self.bucket.items())),
            tuple(sorted(self.bucket)),
            tuple(sorted(self.retired)),
        )


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
    """Smallest k in [1, k_max] whose max cross product is within the bound.

    Scans k ascending (monotonicity of the max product is not guaranteed:
    small symmetric components can hold a floor).  If no k qualifies,
    returns the k minimizing the max product, smallest k on ties, flagged
    as unbounded.

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
            counts1 = Counter(labels1)
            p = max(
                (n * counts1[lab] for lab, n in second.receive().items() if lab in counts1),
                default=0,
            )
            per_k.append((k, p))
            if p <= max_product:
                second.send("stop")
                del counts1
                depths1.close()  # frees the growth state; the labels at k stay
                return TuneReport(
                    k, p, True, per_k, (master_table(labels1), second.receive()[0])
                )
            if k < k_max:
                second.send("next")
    del depths1, labels1, counts1  # the growth state and the k_max labels
    p, k = min((p, k) for k, p in per_k)
    (mt1, _), (mt2, _) = label_pair(g1, g2, k)
    return TuneReport(k, p, False, per_k, (mt1, mt2))
