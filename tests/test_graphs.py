from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserhom.graphs import (
    Graph,
    bit_indices,
    closed_neighborhood,
    complement,
    induced,
    induced_matching_number,
    is_chordal,
    is_cochordal,
    neighborhood,
    _conflict_rows,
    matching_checks,
)
from kneserhom.export import to_dot_graph
from kneserhom.kneser import build

from conftest import CountingGuards, complete_graph, cycle_graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@st.composite
def random_graphs(draw, max_n: int = 8):
    n = draw(st.integers(0, max_n))
    edges = [e for e in itertools.combinations(range(n), 2)
             if draw(st.booleans())]
    return Graph.from_edges(n, edges)


def test_graph_validation() -> None:
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # wrong adj length
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # self loops
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def transpose(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 << u for u in range(n) if adj[u] >> v & 1)
                 for v in range(n))


@st.composite
def loopless_rows(draw, max_n: int = 9):
    """n rows in range and without self-loops: either drawn at random or a
    symmetric adjacency with up to three entries flipped, so that both
    symmetric and barely asymmetric rows are common."""
    n = draw(st.integers(0, max_n))
    cells = [(v, u) for v in range(n) for u in range(n) if v != u]
    if draw(st.booleans()):
        return n, tuple(draw(st.integers(0, (1 << n) - 1)) & ~(1 << v)
                        for v in range(n))
    rows = [0] * n
    for v, u in cells:
        if v < u and draw(st.booleans()):
            rows[v] |= 1 << u
            rows[u] |= 1 << v
    if cells:
        for v, u in draw(st.lists(st.sampled_from(cells), max_size=3)):
            rows[v] ^= 1 << u
    return n, tuple(rows)


@given(loopless_rows())
@settings(max_examples=300)
def test_symmetry_check_is_the_transpose(case) -> None:
    n, adj = case
    t = transpose(n, adj)
    if t == adj:
        assert Graph(n, adj).adj == adj
    else:
        v, u = min((v, u) for v in range(n) for u in range(n)
                   if adj[v] >> u & 1 and not t[v] >> u & 1)
        with pytest.raises(ValueError, match=rf"not symmetric at \({v},{u}\)$"):
            Graph(n, adj)


def test_symmetry_check_cases() -> None:
    # Only below the diagonal: no upper entry lacks its mirror, so only the
    # entry count catches it.
    with pytest.raises(ValueError, match=r"not symmetric at \(2,0\)"):
        Graph(3, (0, 0, 0b001))
    # Only above the diagonal.
    with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
        Graph(3, (0b100, 0, 0))
    # One entry above and one below, neither mirrored: the counts agree, so
    # only the mirror test catches it.
    with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
        Graph(3, (0b010, 0, 0b001))
    # Two unmirrored entries in one row: the walk goes down the row, but the
    # message names the lowest pair.
    with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
        Graph(4, (0b1110, 0b0001, 0, 0))
    # The mirror walk fails in row 3 at (3,4), but the lowest unmirrored
    # pair lies below the diagonal in an earlier row.
    with pytest.raises(ValueError, match=r"not symmetric at \(2,0\)"):
        Graph(5, (0, 0, 1, 16, 0))
    # A negative row is refused by the range check before any bit walk.
    with pytest.raises(ValueError, match="mentions vertices >= n"):
        Graph(2, (-1, 0))
    with pytest.raises(ValueError, match="mentions vertices >= n"):
        Graph(2, (0, -2))


@given(random_graphs(max_n=9))
def test_edges_are_the_sorted_upper_pairs(g: Graph) -> None:
    pairs = sorted((v, u) for v in range(g.n) for u in range(g.n)
                   if v < u and g.adj[v] >> u & 1)
    assert g.edges() == tuple(pairs)


def test_edges_and_counts() -> None:
    g = cycle_graph(4)
    assert g.edges() == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert g.edge_count() == 4
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert Graph(0, ()).edges() == ()


@given(random_graphs())
def test_complement_involution(g: Graph) -> None:
    assert complement(complement(g)) == g


def test_complement_involution_on_kneser(kn52) -> None:
    assert complement(complement(kn52.graph)) == kn52.graph


@given(random_graphs())
def test_complement_edge_partition(g: Graph) -> None:
    total = g.n * (g.n - 1) // 2
    assert g.edge_count() + complement(g).edge_count() == total
    assert not set(g.edges()) & set(complement(g).edges())


def test_induced_reindexes_ascending() -> None:
    g = cycle_graph(5)
    sub = induced(g, 0b10110)  # vertices 1, 2, 4
    assert sub.n == 3
    assert sub.edges() == ((0, 1),)  # only 1-2 survives
    with pytest.raises(ValueError):
        induced(g, 1 << 5)


def test_neighborhoods() -> None:
    g = star_graph(4)
    assert neighborhood(g, 1 << 0) == 0b11110
    assert neighborhood(g, 1 << 1) == 1
    assert closed_neighborhood(g, 1 << 1) == 0b11
    assert neighborhood(g, 0) == 0


def verify_peo_independently(g: Graph, peo: tuple[int, ...]) -> bool:
    # Simulated elimination: each vertex's later neighbours must be a clique.
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in bit_indices(g.adj[v]) if pos[u] > pos[v]]
        for a, b in itertools.combinations(later, 2):
            if not g.has_edge(a, b):
                return False
    return True


def test_chordality_known_cases() -> None:
    assert is_chordal(complete_graph(5))
    assert is_chordal(path_graph(6))
    assert is_chordal(star_graph(5))
    assert is_chordal(cycle_graph(3))
    assert is_chordal(Graph(0, ()))
    assert is_chordal(Graph(1, (0,)))
    for n in range(4, 9):
        assert not is_chordal(cycle_graph(n))


@given(random_graphs())
@settings(max_examples=200)
def test_chordality_witness_verifies(g: Graph) -> None:
    nx = pytest.importorskip("networkx")
    res = is_chordal(g)
    if res.chordal:
        assert res.peo is not None and sorted(res.peo) == list(range(g.n))
        assert verify_peo_independently(g, res.peo)
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    assert res.chordal == nx.is_chordal(ref)


def test_cochordal_cases() -> None:
    # The 4-cycle is its own complement's union of two edges: cochordal.
    assert is_cochordal(cycle_graph(4))
    assert is_cochordal(complete_graph(4))
    assert is_cochordal(star_graph(3))
    # Complement of C6 contains an induced 4-cycle.
    assert not is_cochordal(cycle_graph(6))


def test_three_disjoint_requires_edges() -> None:
    g = cycle_graph(6)
    assert matching_checks(g, [(0, 2), (3, 4)]) == (False, False, False)
    assert matching_checks(g, [(0, 1), (3, 4)])[:2] == (True, True)
    assert matching_checks(g, [(0, 1), (2, 3)])[:2] == (True, False)  # 1-2 is a cross edge
    assert matching_checks(g, [(0, 1), (1, 2)])[:2] == (True, False)  # shared endpoint


def label_criterion(kn, e, f) -> bool:
    # Two Kneser edges (A, B), (A', B') sit three-disjoint exactly when
    # A is not contained in B' and A' is not contained in B.
    (a1, b1), (a2, b2) = e, f
    in_ab = kn.subset_of(a1) & ~kn.subset_of(b2) == 0
    in_ba = kn.subset_of(a2) & ~kn.subset_of(b1) == 0
    return not in_ab and not in_ba and len({a1, b1, a2, b2}) == 4


@pytest.mark.parametrize(
    "m,k",
    [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (6, 2)],
)
def test_three_disjoint_matches_containment_criterion(m: int, k: int) -> None:
    kn = build(m, k)
    g = kn.graph
    edges = g.edges()
    rows = _conflict_rows(g, edges)
    for (i, e), (j, f) in itertools.combinations(enumerate(edges), 2):
        conflict = not label_criterion(kn, e, f)
        assert (rows[i] >> j & 1, rows[j] >> i & 1) == (conflict, conflict), (e, f)


def brute_three_disjoint(edge_set, e, f) -> bool:
    # Four distinct ends and none of the four cross pairs an edge.
    (a, b), (c, d) = e, f
    return (len({a, b, c, d}) == 4
            and not any(frozenset(p) in edge_set for p in ((a, c), (a, d), (b, c), (b, d))))


@st.composite
def graphs_with_families(draw):
    """A graph on at most 10 vertices, its edges, and a family drawn from
    them with repeats and either orientation: families that share ends,
    hold cross edges, or are not maximal all come up."""
    n = draw(st.integers(0, 10))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    fam = []
    if edges:
        for a, b in draw(st.lists(st.sampled_from(edges), max_size=6)):
            fam.append((b, a) if draw(st.booleans()) else (a, b))
    return Graph.from_edges(n, edges), edges, fam


@given(graphs_with_families())
@settings(max_examples=300, deadline=None)
def test_reach_masks_match_pair_tests(case) -> None:
    g, edges, fam = case
    edge_set = {frozenset(e) for e in edges}
    pairwise = all(brute_three_disjoint(edge_set, e, f)
                   for e, f in itertools.combinations(fam, 2))
    maximal = all(any(not brute_three_disjoint(edge_set, e, f) for f in fam)
                  for e in edges if e not in fam)
    assert matching_checks(g, fam) == (True, pairwise, maximal)
    for family in (edges, fam):
        rows = _conflict_rows(g, family)
        for i, e in enumerate(family):
            want = sum(1 << j for j, f in enumerate(family)
                       if j != i and not brute_three_disjoint(edge_set, e, f))
            assert rows[i] == want, (family, i)


@given(graphs_with_families(), st.data())
@settings(max_examples=100, deadline=None)
def test_matching_checks_refuses_a_non_edge(case, data) -> None:
    # One non-edge among edges fails all three checks: the reach lemma
    # holds only for edges.
    g, edges, fam = case
    edge_set = {frozenset(e) for e in edges}
    non_edges = [(u, v) for u in range(g.n) for v in range(g.n)
                 if frozenset((u, v)) not in edge_set]
    if not non_edges:
        return
    u, v = data.draw(st.sampled_from(non_edges))
    fam.insert(data.draw(st.integers(0, len(fam))), (u, v))
    assert matching_checks(g, fam) == (False, False, False)


# Sizes, witnesses and node counts, pinned from the pairwise-loop
# conflict rows that the reach masks replaced; the rows, and so the search,
# must come out the same.
PINNED_MATCHINGS = [
    (build(5, 2).graph, 6, ((0, 10), (3, 12), (4, 13), (6, 15), (7, 16), (9, 19)), 409),
    (cycle_graph(6), 2, ((0, 1), (3, 4)), 5),
    (Graph.from_edges(9, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 7), (2, 4), (2, 7),
                          (2, 8), (3, 6), (3, 7), (4, 5), (4, 6), (5, 6), (5, 7),
                          (5, 8), (6, 8), (7, 8)]),
     2, ((0, 1), (5, 6)), 19),
    (Graph.from_edges(10, [(0, 3), (0, 4), (1, 4), (2, 5), (2, 6), (2, 7), (3, 8),
                           (3, 9), (4, 6), (5, 6)]),
     3, ((1, 4), (2, 5), (3, 8)), 15),
]


@pytest.mark.parametrize("g,size,witness,nodes", PINNED_MATCHINGS)
def test_induced_matching_work_is_pinned(g, size, witness, nodes) -> None:
    guards = CountingGuards()
    assert induced_matching_number(g, guards) == (size, witness)
    assert guards.counts == {"induced_matching_number": nodes}


def test_induced_matching_small_cases() -> None:
    assert induced_matching_number(cycle_graph(6)).size == 2
    assert induced_matching_number(path_graph(2)).size == 1
    assert induced_matching_number(complete_graph(4)).size == 1
    assert induced_matching_number(Graph(3, (0, 0, 0))).size == 0


def test_induced_matching_ladders() -> None:
    # A ladder of n disjoint rungs plus nothing else: all rungs fit.
    for n in [2, 3, 6]:
        kn = build(2, 1) if n == 2 else None
        g = Graph.from_edges(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])
        assert induced_matching_number(g).size == n


def test_induced_matching_witness_is_valid(kn52) -> None:
    g = kn52.graph
    res = induced_matching_number(g)
    assert res.size == 6
    assert len(res.edges) == 6
    edge_set = {frozenset(e) for e in g.edges()}
    assert all(frozenset(e) in edge_set for e in res.edges)
    for e, f in itertools.combinations(res.edges, 2):
        assert brute_three_disjoint(edge_set, e, f)


def test_induced_matching_edge_cap() -> None:
    g = complete_graph(7)  # 21 edges
    with pytest.raises(ValueError):
        induced_matching_number(g, max_edges=20)


def test_degrees_of_kneser(kn52) -> None:
    g = kn52.graph
    assert all(row.bit_count() == 3 for row in g.adj)


def test_to_dot_is_deterministic(kn21) -> None:
    out = to_dot_graph(kn21)
    assert out == to_dot_graph(kn21)
    assert out.startswith("graph H_2_1 {")
    assert 'side="L"' in out and 'side="R"' in out
    assert out.count(" -- ") == kn21.graph.edge_count()

