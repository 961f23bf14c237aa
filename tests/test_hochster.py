from __future__ import annotations

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserhom import hochster, morse
from kneserhom.cli import _betti_table_json, _betti_table_triangle
from kneserhom.combinatorics import binom
from kneserhom.config import GuardExceeded, Guards
from kneserhom.graphs import Graph, complement, induced
from kneserhom.hochster import (
    BettiTable,
    ComplexSlice,
    _boundary_columns,
    _rank,
    enumerate_faces,
    full_betti_oracle,
    linear_strand_oracle,
    pd_of,
    reduced_h0,
    reduced_homology_dims,
    reg_of,
)
from kneserhom.kneser import build
from kneserhom.symmetry import subset_orbits

from conftest import FROZEN_TABLES, complete_graph, cycle_graph


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


@st.composite
def graph_and_mask(draw, max_n: int = 7):
    n = draw(st.integers(1, max_n))
    edges = [e for e in itertools.combinations(range(n), 2)
             if draw(st.booleans())]
    g = Graph.from_edges(n, edges)
    w = draw(st.integers(0, (1 << n) - 1))
    return g, w


def test_reduced_h0_counts_split_pairs() -> None:
    g = cycle_graph(6)
    # a pair contributes 1 exactly when it is an edge
    assert reduced_h0(g, 0b000011) == 1
    assert reduced_h0(g, 0b000101) == 0
    assert reduced_h0(g, 0b100001) == 1
    assert sum(reduced_h0(g, 1 << u | 1 << v)
               for u, v in itertools.combinations(range(6), 2)) == 6
    assert reduced_h0(g, 1 << 3) == 0  # single vertex: one component


def test_reduced_h0_matches_the_complement_graph_count() -> None:
    # reduced_h0 reads the complement rows off g; networkx, on the built
    # complement Graph, must count the same components.
    nx = pytest.importorskip("networkx")
    g = build(6, 2).graph
    comp = complement(g)
    rng = random.Random(62)
    for _ in range(300):
        # an AND of one to four random words: dense and sparse masks alike
        w = g.full_mask
        for _ in range(rng.randint(1, 4)):
            w &= rng.getrandbits(g.n)
        w = w or 1
        sub = induced(comp, w)
        h = nx.Graph(sub.edges())
        h.add_nodes_from(range(sub.n))
        assert reduced_h0(g, w) == nx.number_connected_components(h) - 1, hex(w)


def test_reduced_h0_validation() -> None:
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        reduced_h0(g, 0)
    with pytest.raises(ValueError):
        reduced_h0(g, 1 << 4)


def test_linear_strand_equals_edge_count_at_one() -> None:
    for g in [cycle_graph(5), cycle_graph(8), complete_graph(5),
              build(5, 2).graph]:
        assert linear_strand_oracle(g, 1) == g.edge_count()


def test_linear_strand_validation() -> None:
    with pytest.raises(ValueError):
        linear_strand_oracle(cycle_graph(4), 0)


def test_linear_strand_thread_count_does_not_change_result() -> None:
    g = build(5, 2).graph
    for i in [1, 2, 3]:
        single = linear_strand_oracle(g, i, threads=1)
        assert linear_strand_oracle(g, i, threads=4) == single
        assert linear_strand_oracle(g, i, threads=7) == single


def test_linear_strand_guard() -> None:
    tight = Guards(max_subsets=10, max_faces=10 ** 6,
                   max_matrix_cells=10 ** 6, max_search_nodes=10 ** 6)
    with pytest.raises(GuardExceeded) as exc:
        linear_strand_oracle(cycle_graph(8), 3, guards=tight)
    assert exc.value.guard == "max_subsets"
    assert "KNESERHOM_MAX_SUBSETS" in str(exc.value)


def test_linear_strand_refuses_a_fractional_orbit_sum(monkeypatch) -> None:
    # A 3-cycle passed off as an automorphism of the path 0-1-2 puts all
    # three vertices in one orbit; the weighted sum is then 3/2.
    monkeypatch.setattr("kneserhom.symmetry.automorphisms", lambda adj: [(1, 2, 0)])
    with pytest.raises(RuntimeError, match="3-vertex graph at i=1 is not an integer"):
        linear_strand_oracle(Graph.from_edges(3, [(0, 1), (1, 2)]), 1)


def test_linear_strand_guard_counts_every_subset_not_the_walk() -> None:
    # H(6,2) at i = 5 walks far fewer prefixes than the C(29, 5) subsets
    # that hold vertex 0, but stands for C(30, 6)
    tight = Guards(max_subsets=593_774)
    with pytest.raises(GuardExceeded) as exc:
        linear_strand_oracle(build(6, 2).graph, 5, guards=tight)
    assert exc.value.needed == 593_775
    assert "linear strand i=5 on a 30-vertex graph" in str(exc.value)


def test_refusals_show_a_need_past_64_bits_by_its_bit_length() -> None:
    # the needs 2^100 and C(200, 51), a 160-bit number, would print as 31
    # and 48 digits; the exception keeps them exact
    with pytest.raises(GuardExceeded) as exc:
        full_betti_oracle(empty_graph(100))
    assert exc.value.needed == 1 << 100
    assert "full Betti table on 100 vertices: max_subsets limit exceeded " \
        "(needs 2^100, limit 1200000)" in str(exc.value)
    with pytest.raises(GuardExceeded) as exc:
        linear_strand_oracle(empty_graph(200), 50)
    assert exc.value.needed == binom(200, 51)
    assert "linear strand i=50 on a 200-vertex graph: max_subsets limit exceeded " \
        "(needs at least 2^159, limit 1200000)" in str(exc.value)


def test_linear_strand_reads_the_stabiliser_only_where_it_can_pay(monkeypatch) -> None:
    # The oracle reads the root stabilisers only when i >= 3 and
    # n^2 <= C(n, i+1): below i = 3 they save nothing, and the second bound
    # keeps their |generators| n^2 list steps within the subsets the guard
    # lets through.  At i = n - 1, C(n, n) = 1 < n^2.
    class Read(Exception):
        pass

    def refuse(adj):
        raise Read

    monkeypatch.setattr(hochster, "root_stabiliser_orbits", refuse)
    h62 = build(6, 2).graph
    assert [linear_strand_oracle(h62, i) for i in (1, 2)] == [90, 450]
    assert linear_strand_oracle(build(3, 1).graph, 5) == 0
    assert linear_strand_oracle(complete_graph(6), 5) == 5
    assert linear_strand_oracle(build(4, 2).graph, 9) == 0  # C(12, 10) = 66 < 144
    with pytest.raises(Read):
        linear_strand_oracle(h62, 3)
    with pytest.raises(Read):
        linear_strand_oracle(build(4, 2).graph, 8)  # C(12, 9) = 220


def test_linear_strand_merges_under_the_root_stabiliser(monkeypatch) -> None:
    # On H(6,2) the stabiliser S_2 x S_4 of vertex 0 cuts the 29 other
    # vertices into 5 parts, and from i = 3 on the walk starts at one
    # prefix {0, s} per part.  Summed over the vertex orbit alone, the walk
    # merged 405, 3,653 and 23,750 times at i = 3, 4 and 5; at i = 1 and 2
    # both walks are the plain one.
    g = build(6, 2).graph
    merge = hochster._add_vertex
    calls = [0]

    def counted(reaches, v, row):
        calls[0] += 1
        return merge(reaches, v, row)

    monkeypatch.setattr(hochster, "_add_vertex", counted)
    merges = []
    for i in range(1, 6):
        calls[0] = 0
        linear_strand_oracle(g, i)
        merges.append(calls[0])
    assert merges == [0, 28, 70, 687, 4_836]
    assert all(now < before for now, before in zip(merges[2:], (405, 3_653, 23_750)))


def test_linear_strand_walks_deep_degrees_without_recursion() -> None:
    # C(n, n) = 1 passes the guard at i = n - 1, so the walk grows one
    # 1,100-vertex subset; the complement of a path on more than three
    # vertices is connected.
    n = 1100
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    assert linear_strand_oracle(path, n - 1) == 0


def test_linear_strand_of_a_complete_graph() -> None:
    # the complement of K_n[W] is edgeless: |W| components, so every
    # (i+1)-subset adds i
    for n in range(2, 10):
        g = complete_graph(n)
        for i in range(1, n):
            assert linear_strand_oracle(g, i) == binom(n, i + 1) * i, (n, i)


def test_enumerate_faces_counts() -> None:
    # no edges: the full simplex
    assert enumerate_faces(empty_graph(4), 0b1111).face_count() == 16
    # complete graph: only the empty face and the vertices
    sl = enumerate_faces(complete_graph(5), 0b11111)
    assert tuple(len(s) for s in sl.strata) == (1, 5)
    # one edge on two vertices
    g = Graph.from_edges(2, [(0, 1)])
    assert enumerate_faces(g, 0b11).face_count() == 3
    # hexagon: 1 + 6 + 9 + 2 independent sets
    sl = enumerate_faces(cycle_graph(6), 0b111111)
    assert tuple(len(s) for s in sl.strata) == (1, 6, 9, 2)
    assert sl.face_count() == 18


def test_enumerate_faces_strata_sorted() -> None:
    sl = enumerate_faces(cycle_graph(6), 0b111111)
    for stratum in sl.strata:
        assert list(stratum) == sorted(stratum)
        assert len(set(stratum)) == len(stratum)


def test_enumerate_faces_guard() -> None:
    tight = Guards(max_subsets=10 ** 6, max_faces=10,
                   max_matrix_cells=10 ** 6, max_search_nodes=10 ** 6)
    with pytest.raises(GuardExceeded) as exc:
        enumerate_faces(empty_graph(6), 0b111111, guards=tight)
    assert exc.value.guard == "max_faces"
    # The 64 faces of the empty graph on 6 vertices, the empty face among
    # them, fit a limit of 64 and not one of 63.
    assert enumerate_faces(empty_graph(6), 0b111111,
                           guards=Guards(max_faces=64)).face_count() == 64
    with pytest.raises(GuardExceeded) as exc:
        enumerate_faces(empty_graph(6), 0b111111, guards=Guards(max_faces=63))
    assert (exc.value.guard, exc.value.needed) == ("max_faces", 64)
    # A slice outside the graph is refused before the guard is consulted.
    with pytest.raises(ValueError, match="outside the graph"):
        enumerate_faces(empty_graph(6), 1 << 6, guards=Guards(max_faces=0))


def test_homology_of_handmade_complexes() -> None:
    # void complex
    assert reduced_homology_dims(ComplexSlice(())) == ()
    # the empty-face-only complex
    sl = enumerate_faces(cycle_graph(4), 0)
    assert reduced_homology_dims(sl) == (1,)
    # two points
    g = Graph.from_edges(2, [(0, 1)])
    assert reduced_homology_dims(enumerate_faces(g, 0b11)) == (0, 1)
    # a simplex is contractible
    sl = enumerate_faces(empty_graph(3), 0b111)
    assert reduced_homology_dims(sl) == (0, 0, 0, 0)
    # two disjoint edges as a complex: connected components minus one
    sl = enumerate_faces(cycle_graph(4), 0b1111)
    assert reduced_homology_dims(sl) == (0, 1, 0)
    # pentagon: circle up to homotopy
    sl = enumerate_faces(cycle_graph(5), 0b11111)
    assert reduced_homology_dims(sl) == (0, 0, 1)
    # hexagon: wedge of two circles
    sl = enumerate_faces(cycle_graph(6), 0b111111)
    assert reduced_homology_dims(sl) == (0, 0, 2, 0)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_homology_characteristic_invariance_small(char: int) -> None:
    sl = enumerate_faces(cycle_graph(6), 0b111111)
    assert reduced_homology_dims(sl, field_char=char) == (0, 0, 2, 0)


def test_homology_rejects_bad_characteristic() -> None:
    sl = enumerate_faces(cycle_graph(4), 0b11)
    for char in [1, 4, 9, -2]:
        with pytest.raises(ValueError):
            reduced_homology_dims(sl, field_char=char)


def test_is_prime_matches_trial_division() -> None:
    primes = [p for p in range(2, 5000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    assert [p for p in range(-3, 5000) if hochster._is_prime(p)] == primes


def test_a_large_prime_characteristic_is_accepted_fast() -> None:
    g = build(3, 1).graph
    start = time.perf_counter()
    table = full_betti_oracle(g, field_char=2 ** 61 - 1)
    assert time.perf_counter() - start < 0.5
    assert table.entries == full_betti_oracle(g, field_char=0).entries


@pytest.mark.parametrize("char", [561, 3_215_031_751, 318_665_857_834_031_151_167_461,
                                  3_317_044_064_679_887_385_961_981])
def test_pseudoprimes_and_the_bound_are_refused(char: int) -> None:
    # 561 is a Carmichael number; 3,215,031,751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7, and 318,665,857,834,031,151,167,461 to every
    # prime base up to 37.  The last is the bound, and is named.
    with pytest.raises(ValueError, match="prime below 3317044064679887385961981, "
                                         f"got {char}$"):
        full_betti_oracle(build(3, 1).graph, field_char=char)


def test_homology_guard() -> None:
    tight = Guards(max_subsets=10 ** 6, max_faces=10 ** 6,
                   max_matrix_cells=4, max_search_nodes=10 ** 6)
    sl = enumerate_faces(cycle_graph(6), 0b111111)
    with pytest.raises(GuardExceeded) as exc:
        reduced_homology_dims(sl, guards=tight)
    assert exc.value.guard == "max_matrix_cells"


@given(graph_and_mask())
@settings(max_examples=150, deadline=None)
def test_euler_characteristic_consistency(gw) -> None:
    # alternating face count equals alternating homology dimension; a strong
    # cross-check on every rank computation at once
    g, w = gw
    sl = enumerate_faces(g, w)
    h = reduced_homology_dims(sl)
    chi_faces = sum((-1) ** c * len(s) for c, s in enumerate(sl.strata))
    chi_hom = sum((-1) ** c * d for c, d in enumerate(h))
    assert chi_faces == chi_hom


@given(graph_and_mask())
@settings(max_examples=60, deadline=None)
def test_characteristic_agreement_on_random_slices(gw) -> None:
    # no torsion appears in flag complexes this small
    g, w = gw
    sl = enumerate_faces(g, w)
    h2 = reduced_homology_dims(sl, field_char=2)
    assert reduced_homology_dims(sl, field_char=0) == h2
    assert reduced_homology_dims(sl, field_char=3) == h2


def _rank_q_reference(cols, n_rows: int) -> int:
    sympy = pytest.importorskip("sympy")
    if not cols or not n_rows:
        return 0
    dense = [[col.get(r, 0) for col in cols] for r in range(n_rows)]
    return sympy.Matrix(dense).rank()


def _boundary_ranks_agree(sl: ComplexSlice) -> None:
    for lower, upper in zip(sl.strata, sl.strata[1:]):
        cols = _boundary_columns(lower, upper)
        assert _rank(cols, 0) == _rank_q_reference(cols, len(lower))


@given(graph_and_mask())
@settings(max_examples=60, deadline=None)
def test_rank_over_q_matches_sympy_on_random_slices(gw) -> None:
    g, w = gw
    _boundary_ranks_agree(enumerate_faces(g, w))


def test_rank_over_q_matches_sympy_on_kneser_slices(kn52) -> None:
    rng = random.Random(52)
    for _ in range(12):
        w = 0
        for v in rng.sample(range(kn52.graph.n), rng.randint(4, 9)):
            w |= 1 << v
        _boundary_ranks_agree(enumerate_faces(kn52.graph, w))


@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-4, 4),
                                max_size=4), max_size=6))
@settings(max_examples=100, deadline=None)
def test_rank_over_q_matches_sympy_on_integer_columns(cols) -> None:
    # entries other than +-1 exercise the gcd scaling of the reduction
    assert _rank(cols, 0) == _rank_q_reference(cols, 6)


def test_cone_vertex_kills_homology() -> None:
    # a vertex isolated in the induced subgraph cones the whole complex
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])  # vertex 4 isolated
    for w in range(1 << 4, 1 << 5):  # every w containing vertex 4
        h = reduced_homology_dims(enumerate_faces(g, w))
        assert all(d == 0 for d in h), w


@st.composite
def small_graphs(draw, max_n: int = 10) -> Graph:
    """A graph on 0 to max_n vertices."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_cone_marks_are_the_slices_with_an_isolated_vertex(g: Graph) -> None:
    # The walk yields no slice with an isolated vertex, and counts the rest
    # of the 2^n subsets as cones: exactly those with an isolated vertex.
    walk, weights = subset_orbits(g.adj), 0
    while True:
        try:
            w, weight = next(walk)
        except StopIteration as done:
            cones = done.value
            break
        assert all(g.adj[v] & w for v in range(g.n) if w >> v & 1), (g.adj, w)
        weights += weight
    isolated = sum(any(w >> v & 1 and not g.adj[v] & w for v in range(g.n))
                   for w in range(1 << g.n))
    assert (cones, weights) == (isolated, (1 << g.n) - isolated), g.adj


def test_full_betti_builds_no_cone_slice(monkeypatch) -> None:
    # H(4,2) is a perfect matching on 12 vertices: the 64 unions of its
    # edges are the only slices with no isolated vertex, and its edge ideal
    # is a complete intersection of 6 quadrics.
    g = build(4, 2).graph
    built = []
    real = morse.homology
    monkeypatch.setattr(morse, "homology",
                        lambda adj, w, *rest: built.append(w) or real(adj, w, *rest))
    table = full_betti_oracle(g).entries
    assert table == {(i, 2 * i): binom(6, i) for i in range(7)}
    assert built
    for w in built:
        assert all(g.adj[v] & w for v in range(g.n) if w >> v & 1), w
        assert all(w >> v & 1 == w >> u & 1 for v, u in g.edges()), w


@pytest.mark.parametrize("m,k", sorted(FROZEN_TABLES))
def test_full_betti_tables_frozen(m: int, k: int) -> None:
    t = full_betti_oracle(build(m, k).graph, field_char=2)
    assert t.entries == FROZEN_TABLES[(m, k)]


@pytest.mark.parametrize("m,k", sorted(FROZEN_TABLES))
def test_full_betti_characteristic_zero_agrees(m: int, k: int) -> None:
    g = build(m, k).graph
    assert full_betti_oracle(g, field_char=0).entries == FROZEN_TABLES[(m, k)]


@pytest.mark.parametrize("m,k", sorted(FROZEN_TABLES))
def test_full_betti_degrees_stay_in_range(m: int, k: int) -> None:
    # Degrees never exceed the vertex count, and the free module in
    # homological position zero contributes exactly one generator.
    n = build(m, k).graph.n
    table = FROZEN_TABLES[(m, k)]
    assert all(i <= j <= n for i, j in table)
    assert table[(0, 0)] == 1


def test_full_betti_pd_reg() -> None:
    t31 = full_betti_oracle(build(3, 1).graph)
    assert pd_of(t31) == 4 and reg_of(t31) == 2
    t42 = full_betti_oracle(build(4, 2).graph)
    assert pd_of(t42) == 6 and reg_of(t42) == 6
    empty = BettiTable(n=0, field_char=2, entries={})
    assert pd_of(empty) == 0 and reg_of(empty) == 0


def test_full_betti_strand_agreement() -> None:
    # the two oracle routes agree on the linear strand
    for m, k in FROZEN_TABLES:
        g = build(m, k).graph
        t = FROZEN_TABLES[(m, k)]
        for i in range(1, g.n):
            assert linear_strand_oracle(g, i) == t.get((i, i + 1), 0), (m, k, i)


def test_full_betti_refuses_large_input_quickly() -> None:
    # H(5,2) fits the default guards; H(6,2) has 2^30 subsets.
    g = build(6, 2).graph
    t0 = time.monotonic()
    with pytest.raises(GuardExceeded):
        full_betti_oracle(g)
    assert time.monotonic() - t0 < 5.0


def test_full_betti_builds_the_full_complex_first(monkeypatch) -> None:
    # The W = V tree of H(5,2) has 42 nodes: a max_faces below that is
    # refused before the orbit walk starts.
    def no_walk(*args):
        raise AssertionError("the orbit walk started")

    monkeypatch.setattr("kneserhom.hochster.subset_orbits", no_walk)
    with pytest.raises(GuardExceeded) as exc:
        full_betti_oracle(build(5, 2).graph, guards=Guards(max_faces=41))
    assert exc.value.guard == "max_faces"
    assert "full Betti table on 20 vertices" in str(exc.value)


def test_full_betti_max_faces_counts_the_whole_table() -> None:
    # Each slice of H(4,1) builds a small tree; the guard counts them all
    # together, so the table is refused though no one slice comes near.
    with pytest.raises(GuardExceeded) as exc:
        full_betti_oracle(build(4, 1).graph, guards=Guards(max_faces=20))
    assert exc.value.guard == "max_faces"


def test_betti_table_validation() -> None:
    with pytest.raises(ValueError):
        BettiTable(n=4, field_char=2, entries={(-1, 0): 1})
    with pytest.raises(ValueError):
        BettiTable(n=4, field_char=2, entries={(2, 1): 1})
    with pytest.raises(ValueError):
        BettiTable(n=4, field_char=2, entries={(1, 2): 0})


def test_betti_table_json_round_trip() -> None:
    t = full_betti_oracle(build(3, 1).graph)
    text = _betti_table_json(t)
    data = json.loads(text)
    assert {(e["i"], e["j"]): int(e["value"]) for e in data["entries"]} == t.entries
    assert data["char"] == t.field_char
    # values serialize as decimal strings
    assert '"value": "6"' in text


def test_betti_table_json_big_values_survive() -> None:
    big = 10 ** 40 + 7
    t = BettiTable(n=4, field_char=0, entries={(1, 2): big})
    data = json.loads(_betti_table_json(t))
    assert data["entries"] == [{"i": 1, "j": 2, "value": str(big)}]
    assert data["char"] == 0


def test_betti_table_triangle_golden(kn21) -> None:
    t = full_betti_oracle(kn21.graph)
    expected = (
        "       0 1 2\n"
        "total: 1 2 1\n"
        "    0: 1 . .\n"
        "    1: . 2 .\n"
        "    2: . . 1\n"
    )
    assert _betti_table_triangle(t) == expected
