"""Information-dominance analysis of communication structures.

Receiver i1 dominates i2 when i1 observes every channel i2 observes.
The set of ordered dominating pairs is the whole story as far as
attainable outcomes go: one structure is at least as useful to the
sender as another precisely when its dominance set is contained in the
other's.  On top of the raw pairs this module builds the covering-edge
graph used by the grid solver, minimal antichain structures on few
channels, and structures induced by social networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DuplicateRows, ReceiverCountMismatch, ValidationError
from .model import CommunicationStructure


def dominance_set(structure: CommunicationStructure) -> frozenset[tuple[int, int]]:
    """All ordered pairs (i1, i2), i1 != i2, with row i1 >= row i2 entrywise.

    Identical rows dominate each other, so duplicates contribute pairs in
    both orders.
    """
    dominates, k = structure.dominance_masks[0], structure.k
    return frozenset((i1, i2) for i1 in range(k) for i2 in range(k) if dominates[i1] >> i2 & 1)


def is_superior(
    candidate: CommunicationStructure, reference: CommunicationStructure
) -> bool:
    """True iff candidate serves the sender at least as well as reference.

    Characterized purely by dominance sets: candidate is superior iff
    every dominating pair of candidate already holds in reference.
    Channel counts may differ; receiver counts may not.
    """
    if candidate.k != reference.k:
        raise ReceiverCountMismatch(
            f"cannot compare structures with {candidate.k} and {reference.k} receivers"
        )
    mine, theirs = candidate.dominance_masks[0], reference.dominance_masks[0]
    return all(c | r == r for c, r in zip(mine, theirs))


@dataclass(frozen=True)
class DominationGraph:
    """Covering pairs of the dominance order on a duplicate-free structure.

    An edge (i1, i2) means i1 dominates i2 with no third receiver
    strictly between them.  The graph is a forest when no receiver is
    the lower end of two edges: then the receivers that dominate one are
    its ancestors.
    """

    edges: frozenset[tuple[int, int]]

    @property
    def is_forest(self) -> bool:
        return len(self.edges) == len({i2 for _, i2 in self.edges})


def domination_graph(structure: CommunicationStructure) -> DominationGraph:
    """Covering-edge graph of the dominance order, from dominance_masks.

    Requires duplicate-free rows (merge first); with ties removed the
    dominance relation is a strict partial order, so covering edges are
    well defined and acyclic.
    """
    if structure.has_duplicate_rows():
        raise DuplicateRows("structure has duplicate receiver rows; merge duplicates first")
    dominates, dominated_by = structure.dominance_masks
    # i1 covers i2 when no receiver that i1 dominates dominates i2
    edges = frozenset(
        (i1, i2)
        for i2, above in enumerate(dominated_by)
        for i1 in range(structure.k)
        if above >> i1 & 1 and not dominates[i1] & above
    )
    return DominationGraph(edges)


def sperner_channel_count(k: int) -> int:
    """Smallest m >= 1 whose middle binomial layer has at least k sets."""
    if k < 1:
        raise ValidationError("receiver count must be positive")
    m = 1
    while comb(m, m // 2) < k:
        m += 1
    return m


def sperner_structure(k: int) -> CommunicationStructure:
    """A dominance-free structure on the fewest channels.

    Rows are the lexicographically first k subsets of size ⌊m/2⌋ of the
    m channels; distinct equal-size subsets never contain one another,
    so the dominance set is empty.
    """
    m = sperner_channel_count(k)
    rows = []
    for subset in combinations(range(m), m // 2):
        if len(rows) == k:
            break
        rows.append(tuple(1 if j in subset else 0 for j in range(m)))
    return CommunicationStructure(tuple(rows))


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected simple graph on receivers 0..k-1."""

    k: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("network needs at least one vertex")
        norm = set()
        for e in self.edges:
            pair = frozenset(e)
            if len(pair) != 2:
                raise ValidationError(f"network edge must join two distinct vertices: {set(e)}")
            a, b = sorted(pair)
            if not (0 <= a < self.k and 0 <= b < self.k):
                raise ValidationError(f"network edge {sorted(pair)} out of range")
            norm.add(pair)
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacent(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges


def network_structure(graph: NetworkGraph) -> CommunicationStructure:
    """Square structure where receiver i observes channel j iff j = i or
    i and j are adjacent (each receiver hears his closed neighborhood)."""
    k = graph.k
    rows = tuple(
        tuple(1 if j == i or graph.adjacent(i, j) else 0 for j in range(k))
        for i in range(k)
    )
    return CommunicationStructure(rows)


def check_private_equivalence_condition(
    graph: NetworkGraph,
) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Decide whether the network-derived structure is dominance-free.

    The test: for every ordered adjacent pair (i1, i2) there must be a
    third vertex adjacent to i2 but not to i1.  Such a witness breaks
    any containment of i2's closed neighborhood in i1's.  Returns the
    verdict together with the adjacent pairs lacking a witness.
    """
    failing = []
    for e in graph.edges:
        for i1, i2 in ((min(e), max(e)), (max(e), min(e))):
            witnesses = [
                ip
                for ip in range(graph.k)
                if ip != i1 and graph.adjacent(i2, ip) and not graph.adjacent(i1, ip)
            ]
            if not witnesses:
                failing.append((i1, i2))
    return (not failing, tuple(sorted(failing)))
