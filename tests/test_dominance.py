import random
from itertools import product

import pytest

from mcpersuasion.dominance import (
    DominationGraph,
    NetworkGraph,
    check_private_equivalence_condition,
    dominance_set,
    domination_graph,
    is_superior,
    network_structure,
    sperner_channel_count,
    sperner_structure,
)
from mcpersuasion.errors import DuplicateRows, ReceiverCountMismatch, ValidationError
from mcpersuasion.model import CommunicationStructure


def S(rows):
    return CommunicationStructure(tuple(tuple(r) for r in rows))


def identity(k):
    return S([[1 if i == j else 0 for j in range(k)] for i in range(k)])


def test_dominance_set_examples():
    assert dominance_set(S([[1, 1], [0, 1]])) == {(0, 1)}
    assert dominance_set(identity(4)) == frozenset()
    # duplicate rows dominate in both orders
    assert dominance_set(S([[1, 0], [1, 0]])) == {(0, 1), (1, 0)}


def test_dominance_transitive_random():
    rng = random.Random(5)
    for _ in range(150):
        k = rng.randint(2, 6)
        n = rng.randint(1, 5)
        M = S([[rng.randint(0, 1) for _ in range(n)] for _ in range(k)])
        pairs = dominance_set(M)
        for a, b in pairs:
            for c, d in pairs:
                if b == c and a != d:
                    assert (a, d) in pairs


def test_is_superior():
    chain = S([[1, 1], [0, 1]])
    assert is_superior(identity(2), chain)
    assert not is_superior(chain, identity(2))
    assert is_superior(chain, chain)
    # channel counts may differ
    assert is_superior(S([[1, 0, 0], [0, 1, 0]]), chain)
    with pytest.raises(ReceiverCountMismatch):
        is_superior(identity(2), identity(3))


def test_domination_graph_star():
    g = domination_graph(S([[1, 1], [1, 0], [0, 1]]))
    assert g.edges == {(0, 1), (0, 2)}
    assert g.is_forest
    assert g.parent == (None, 0, 0)
    assert g.roots() == (0,)
    assert g.top_down() == (0, 1, 2)


def test_domination_graph_chain_covering_only():
    g = domination_graph(S([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
    # (0, 2) holds but is not covering: 1 sits between
    assert g.edges == {(0, 1), (1, 2)}
    assert g.is_forest and g.parent == (None, 0, 1)
    assert g.top_down() == (0, 1, 2)


def test_domination_graph_two_parents_not_forest():
    g = domination_graph(S([[1, 1, 0], [0, 1, 1], [0, 1, 0]]))
    assert g.edges == {(0, 2), (1, 2)}
    assert not g.is_forest
    with pytest.raises(ValidationError):
        g.parent


def test_domination_graph_rejects_duplicates():
    with pytest.raises(DuplicateRows):
        domination_graph(S([[1, 0], [1, 0]]))


def _random_structures(seed, duplicates):
    """300 seeded random structures with k <= 7 and n <= 5: with
    duplicates, each has a row copied onto another; without, the rows
    are distinct."""
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(1, 5)
        k = rng.randint(2 if duplicates else 1, min(7, 1 << n))
        masks = rng.sample(range(1 << n), k)
        if duplicates:
            a, b = rng.sample(range(k), 2)
            masks[a] = masks[b]
        yield S([[m >> j & 1 for j in range(n)] for m in masks])


def _inclusion_pairs(M):
    """The dominance order by brute force: channel-set inclusion."""
    chans = [set(M.channels_of(i)) for i in range(M.k)]
    return {(a, b) for a in range(M.k) for b in range(M.k) if a != b and chans[a] >= chans[b]}


def _covering_by_thirds(pairs, k):
    """The k^3 covering rule: (i1, i2) is an edge unless some third
    receiver i3 has (i1, i3) and (i3, i2) in pairs."""
    return {
        (i1, i2)
        for i1, i2 in pairs
        if not any((i1, i3) in pairs and (i3, i2) in pairs for i3 in range(k) if i3 not in (i1, i2))
    }


@pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
def test_kept_order_is_channel_set_inclusion(duplicates):
    for M in _random_structures(41 + duplicates, duplicates):
        pairs = _inclusion_pairs(M)
        dominates, dominated_by = M.dominance_masks
        for a in range(M.k):
            for b in range(M.k):
                assert bool(dominates[a] >> b & 1) == ((a, b) in pairs), M.matrix
                assert bool(dominated_by[b] >> a & 1) == ((a, b) in pairs), M.matrix
                if a != b and M.matrix[a] == M.matrix[b]:
                    assert (a, b) in pairs and (b, a) in pairs
        assert dominance_set(M) == pairs
        assert M.has_duplicate_rows() == duplicates


def test_covering_edges_match_the_rule_by_thirds():
    for M in _random_structures(43, duplicates=False):
        g = domination_graph(M)
        edges = _covering_by_thirds(_inclusion_pairs(M), M.k)
        assert g.edges == edges, M.matrix
        assert g.cover_parents == tuple(
            tuple(sorted(p for p, c in edges if c == i)) for i in range(M.k)
        )


def test_the_order_is_derived_once_and_kept():
    M = S([[1, 1], [0, 1], [1, 0]])
    assert M.dominance_masks is M.dominance_masks
    assert M.dominance_masks == ((0b110, 0, 0), (0, 0b001, 0b001))
    # the kept order is no field: it leaves equality and hashing alone
    assert M == S([[1, 1], [0, 1], [1, 0]]) and hash(M) == hash(S(M.matrix))


def test_sperner_channel_counts():
    assert [sperner_channel_count(k) for k in (1, 2, 3, 4, 6, 7)] == [1, 2, 3, 4, 4, 5]


def test_sperner_structures():
    assert sperner_structure(2).matrix == ((1, 0), (0, 1))
    six = sperner_structure(6)
    assert six.n == 4
    assert six.matrix == (
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    )
    for k in range(1, 51):
        assert dominance_set(sperner_structure(k)) == frozenset()


def test_sperner_minimality_small_k_exhaustive():
    # one channel fewer always forces a dominating pair
    for k in (2, 3, 4):
        n = sperner_channel_count(k) - 1
        for masks in product(range(1 << n), repeat=k):
            assert any(
                a != b and masks[a] | masks[b] == masks[a]
                for a in range(k)
                for b in range(k)
            ), f"k={k}, n={n}, masks={masks}"


def circle(k):
    return NetworkGraph(k, frozenset(frozenset((i, (i + 1) % k)) for i in range(k)))


def grid_graph(rows, cols):
    k = rows * cols
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.add(frozenset((v, v + 1)))
            if r + 1 < rows:
                edges.add(frozenset((v, v + cols)))
    return NetworkGraph(k, frozenset(edges))


def test_network_structure_circle():
    M = network_structure(circle(4))
    assert M.matrix == (
        (1, 1, 0, 1),
        (1, 1, 1, 0),
        (0, 1, 1, 1),
        (1, 0, 1, 1),
    )
    assert dominance_set(M) == frozenset()
    ok, failing = check_private_equivalence_condition(circle(4))
    assert ok and failing == ()


def test_condition_triangle_fails():
    tri = NetworkGraph(3, frozenset({frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))}))
    ok, failing = check_private_equivalence_condition(tri)
    assert not ok
    assert len(failing) == 6
    # all rows identical: everyone dominates everyone
    assert len(dominance_set(network_structure(tri))) == 6


def test_condition_grid_passes():
    ok, failing = check_private_equivalence_condition(grid_graph(3, 3))
    assert ok and failing == ()
    assert dominance_set(network_structure(grid_graph(3, 3))) == frozenset()


def test_condition_matches_dominance_random():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(3, 8)
        edges = frozenset(
            frozenset(pair)
            for pair in [
                (a, b)
                for a in range(k)
                for b in range(a + 1, k)
                if rng.random() < 0.4
            ]
        )
        G = NetworkGraph(k, edges)
        ok, _ = check_private_equivalence_condition(G)
        assert ok == (dominance_set(network_structure(G)) == frozenset())


def test_network_graph_validation():
    with pytest.raises(ValidationError):
        NetworkGraph(3, frozenset({frozenset((0,))}))
    with pytest.raises(ValidationError):
        NetworkGraph(3, frozenset({frozenset((0, 5))}))


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: sperner_channel_count(0), "receiver count must be positive"),
        (lambda: NetworkGraph(0, frozenset()), "network needs at least one vertex"),
    ],
    ids=["sperner-count", "empty-network"],
)
def test_dominance_refusals_name_their_fault(refuse, message):
    """Each refusal in dominance.py that no other test reaches, with its
    message."""
    with pytest.raises(ValidationError) as refused:
        refuse()
    assert str(refused.value) == message
