"""The symmetry module against plain edge sets, and the orbit sums of
`hochster` against brute-force sums over every vertex subset.

The full table is checked against `plain_table`, a Hochster sum over every
vertex subset written here from `enumerate_faces` and
`reduced_homology_dims` alone: it takes no orbits and folds no vertices.
A random relabelling of H(m, k) keeps none of the candidate generators, so
`full_betti_oracle` sums it over 2^n one-subset orbits, and its table must
equal the one summed over the orbits of the unrelabelled graph.  The root
stabilisers of `root_stabiliser_orbits` are checked against the point
stabilisers of the whole group, listed element by element, and on groups
too large to list against a walk over the ordered vertex pairs.  The linear
strand is checked against a union-find count written here, sharing no code
with `hochster`, on graphs with one vertex orbit, with n singleton orbits,
with orbits of sizes 1 and 2, with two orbits that interleave in id
order, on graphs that keep one generator of a Kneser graph, and on dense
and sparse random graphs.  All but the random graphs also check the
searches of `bounds`, which start at one vertex per orbit, against the
brute forces of `conftest`.  The two-level walk of `subset_orbits` is
checked against the orbits of every vertex subset, found by closure, and
its weights and cones against 2^n.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneserhom import symmetry
from kneserhom.bounds import independent_domination_number, tau_of
from kneserhom.combinatorics import binom
from kneserhom.graphs import Graph
from kneserhom.hochster import (enumerate_faces, full_betti_oracle, linear_strand_oracle,
                                reduced_homology_dims)
from kneserhom.kneser import build
from kneserhom.symmetry import (_closure, _kneser_parameters, _unions, automorphisms,
                                candidate_generators, orbit_roots, root_stabiliser_orbits,
                                subset_orbits)

from conftest import brute_gamma, brute_independent_domination


def preserves(perm, g: Graph) -> bool:
    edges = {frozenset(e) for e in g.edges()}
    return {frozenset(perm[v] for v in e) for e in edges} == edges


def image(perm, mask: int) -> int:
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def own_candidates(m: int, k: int):
    """The transposition, cycle and side swap proposed for H(m, k) itself."""
    n = 2 * build(m, k).n_left
    i = list(_kneser_parameters(n)).index((m, k))
    return candidate_generators(n)[3 * i:3 * i + 3]


def relabelled(g: Graph) -> Graph:
    """g with its vertex ids shuffled by a fixed seed."""
    perm = list(range(g.n))
    random.Random(1).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def without_rung_edge(m: int, k: int) -> Graph:
    """H(m, k) less the edge {1, ..., k} -- {1, ..., m-k}."""
    kn = build(m, k)
    a = kn.left_id((1 << k) - 1)
    b = kn.right_id((1 << (m - k)) - 1)
    return Graph.from_edges(kn.graph.n, [e for e in kn.graph.edges() if e != (a, b)])


def two_paths() -> Graph:
    """H(3,1) less {1}--{1,3} and {2}--{2,3}: the paths {1} {1,2} {2} and
    {1,3} {3} {2,3}, whose vertex orbits (0, 1, 4, 5) and (2, 3) interleave
    in id order."""
    kn = build(3, 1)
    drop = {(kn.left_id(0b001), kn.right_id(0b101)), (kn.left_id(0b010), kn.right_id(0b110))}
    return Graph.from_edges(kn.graph.n, [e for e in kn.graph.edges() if e not in drop])


def orbit_sets(g: Graph) -> list[tuple[int, ...]]:
    """The vertex orbits of g's verified automorphisms, read off
    `orbit_roots`, as sorted tuples in order of smallest vertex."""
    return [tuple(v for v in range(g.n) if orbit >> v & 1)
            for _, orbit, _ in orbit_roots(g.adj)]


def closure_orbits(n: int, gens) -> list[tuple[int, ...]]:
    """Vertex orbits by closing each vertex under the generators."""
    out = []
    for v in range(n):
        if any(v in o for o in out):
            continue
        orbit, todo = {v}, [v]
        while todo:
            x = todo.pop()
            for p in gens:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    todo.append(p[x])
        out.append(tuple(sorted(orbit)))
    return out


def whole_group(n: int, gens) -> set[tuple[int, ...]]:
    """Every element of the group the generators span, by closing the
    identity under composition with each generator."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        h = todo.pop()
        for p in gens:
            ph = tuple(p[x] for x in h)
            if ph not in group:
                group.add(ph)
                todo.append(ph)
    return group


def edge_orbits(edges, p) -> set[tuple[int, int]]:
    """The edges e, p(e), p(p(e)), ... of each of the edges."""
    out = set()
    for e in edges:
        while e not in out:
            out.add(e)
            e = tuple(sorted((p[e[0]], p[e[1]])))
    return out


def find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        v = parent[v]
    return v


def brute_strand(g: Graph, i: int) -> int:
    """The sum, over every (i+1)-subset W, of the number of components of
    the complement of G[W], less one, by union-find over vertex pairs."""
    edges = set(g.edges())
    parent = list(range(g.n))
    total = 0
    for w in itertools.combinations(range(g.n), i + 1):
        for v in w:
            parent[v] = v
        for u, v in itertools.combinations(w, 2):
            if (u, v) not in edges:
                parent[find(parent, u)] = find(parent, v)
        total += len({find(parent, v) for v in w}) - 1
    return total


def plain_table(g: Graph, char: int) -> dict:
    """The Betti table of R/I(G) by Hochster's formula, slice by slice over
    every vertex subset W: beta_{i,j} adds dim H~_{j-i-1} of every W of size
    j."""
    entries: dict = {}
    for w in range(1 << g.n):
        j = w.bit_count()
        for c, d in enumerate(reduced_homology_dims(enumerate_faces(g, w), char)):
            if d:
                entries[(j - c, j)] = entries.get((j - c, j), 0) + d
    return entries


def strand_degrees(n: int):
    """Every i whose brute force checks at most 50,000 vertex pairs."""
    return [i for i in range(1, n) if binom(n, i + 1) * binom(i + 1, 2) <= 50_000]


# H(2,1) is two disjoint edges, and (0 1)(2 3), the lift of the
# transposition, preserves every perfect matching on four vertices: no
# relabelling of it escapes the candidates.
RELABELLED = [(3, 1), (4, 1), (5, 1), (6, 1), (4, 2)]


@pytest.mark.parametrize("m,k", RELABELLED)
def test_relabelled_graph_keeps_no_generator(m: int, k: int) -> None:
    assert automorphisms(relabelled(build(m, k).graph).adj) == []


@pytest.mark.parametrize("m,k", RELABELLED)
@pytest.mark.parametrize("char", [2, 3, 0])
def test_orbit_sum_equals_brute_force(m: int, k: int, char: int) -> None:
    g = build(m, k).graph
    brute = full_betti_oracle(relabelled(g), field_char=char)
    assert automorphisms(g.adj)
    assert full_betti_oracle(g, field_char=char) == brute


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("char", [2, 3, 0])
def test_table_of_kneser_graph_equals_plain_sum(m: int, char: int) -> None:
    g = build(m, 1).graph
    assert full_betti_oracle(g, field_char=char).entries == plain_table(g, char)


def mask_images(perm) -> list[int]:
    """The image under perm of every mask below 2^len(perm), as the walk
    builds them: the OR of the images of the mask's bits, by doubling."""
    return _unions([1 << x for x in perm])


@pytest.mark.parametrize("n", [10, 12])
def test_mask_images_match_bit_by_bit_images(n: int) -> None:
    # n = 10 is H(5,1); n = 12 is H(4,2), and H(6,1) too
    candidates = candidate_generators(n)
    assert candidates
    for perm in candidates:
        images = mask_images(perm)
        assert len(images) == 1 << n
        assert all(images[w] == image(perm, w) for w in range(1 << n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
def test_mask_images_of_any_permutation_match_bit_by_bit_images(perm) -> None:
    n = len(perm)
    images = mask_images(perm)
    assert len(images) == 1 << n
    assert all(images[w] == image(perm, w) for w in range(1 << n))


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (5, 1), (7, 1), (4, 2), (6, 3), (10, 2),
                                 (9, 4)])
def test_candidates_of_kneser_graphs_are_verified_automorphisms(m: int, k: int) -> None:
    g = build(m, k).graph
    candidates = candidate_generators(g.n)
    assert len(candidates) % 3 == 0 and candidates
    for perm in candidates:
        assert sorted(perm) == list(range(g.n))
    kept = automorphisms(g.adj)
    # each verified candidate is kept once: on H(2,1) the transposition is
    # the 2-cycle, and on 12 vertices H(4,2) and H(6,1) share the side swap
    assert len(set(kept)) == len(kept)
    assert kept == list(dict.fromkeys(p for p in candidates if preserves(p, g)))
    assert all(p in kept for p in own_candidates(m, k))


# Every H(m, k) on at most 1,584 vertices, the size of H(12,5), the largest
# graph the benchmark builds; C(12, 6) = 924 > 792, so k <= 5.
UP_TO_1584 = [(m, k) for k in range(1, 6) for m in range(2 * k, 793)
              if 2 * binom(m, k) <= 1584]


def test_candidates_commute_with_the_reversal() -> None:
    # Right id n-1-v holds the complement of left id v's subset, and a
    # permutation of [m] commutes with complementing, so each lifted
    # candidate p has p[n-1-v] = n-1-p[v]; the side swap is the reversal.
    for n in sorted({2 * binom(m, k) for m, k in UP_TO_1584}):
        candidates = candidate_generators(n)
        assert len(candidates) == 3 * len(list(_kneser_parameters(n)))
        for p in candidates:
            assert sorted(p) == list(range(n))
            assert p[::-1] == tuple(n - 1 - x for x in p)
        assert candidates[2::3] == [tuple(range(n - 1, -1, -1))] * (len(candidates) // 3)


def test_candidates_are_kept_on_the_built_graph() -> None:
    # The check costs about a microsecond per row entry, so it runs on the
    # graphs with at most the 16,632 edges of H(12,5): 155 of the 849.
    for m, k in UP_TO_1584:
        if binom(m, k) * binom(m - k, k) <= 16_632:
            kept = automorphisms(build(m, k).graph.adj)
            assert all(p in kept for p in own_candidates(m, k)), (m, k)


def test_candidates_need_a_kneser_vertex_count() -> None:
    for n in (0, 1, 2, 3, 5, 7, 9):
        assert candidate_generators(n) == []
    assert automorphisms((0,) * 3) == []
    # 2 C(m, k) = 240 for (120, 1), (16, 2) and (10, 3)
    assert len(candidate_generators(240)) == 9


@pytest.mark.parametrize("proposed", [(0, 1, 0, 1), (0, 0, 2, 2), (2, 2, 0, 0)])
def test_a_map_that_is_no_permutation_is_rejected(monkeypatch, proposed) -> None:
    # On H(2,1), with edges 0--2 and 1--3, (0, 0, 2, 2) and (2, 2, 0, 0)
    # fold the two edges onto one: every row's image is a row, yet neither
    # map is a permutation.  (0, 1, 0, 1) sends the row {2} of 0 to {0}.
    monkeypatch.setattr("kneserhom.symmetry.candidate_generators",
                        lambda n: [proposed])
    assert automorphisms(build(2, 1).graph.adj) == []


@st.composite
def graphs_and_maps(draw):
    """A graph on at most 8 vertices, made invariant under a drawn
    permutation q by closing its edges under q, and a list of proposed maps:
    q, random permutations, random maps of 0..n-1 into itself, and repeats
    of these."""
    n = draw(st.integers(0, 8))
    q = tuple(draw(st.permutations(range(n))))
    edges = set()
    for e in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            edges |= edge_orbits([e], q)
    maps = [q, *draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))]
    if n:
        maps += draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), max_size=4))
    maps += draw(st.lists(st.sampled_from(maps), max_size=3))
    return Graph.from_edges(n, sorted(edges)), draw(st.permutations(maps))


@settings(max_examples=150, deadline=None)
@given(graphs_and_maps())
@example((Graph.from_edges(4, [(0, 2), (1, 3)]), [(0, 0, 2, 2), (1, 0, 3, 2)]))
def test_automorphisms_keep_exactly_the_row_preserving_permutations(gm) -> None:
    g, maps = gm
    n = g.n

    def row_image(p, mask: int) -> int:
        out = 0
        for v in range(n):
            if mask >> v & 1:
                out |= 1 << p[v]
        return out

    expected = list(dict.fromkeys(
        p for p in maps if sorted(p) == list(range(n))
        and all(g.adj[p[v]] == row_image(p, g.adj[v]) for v in range(n))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("kneserhom.symmetry.candidate_generators", lambda size: maps)
        assert automorphisms(g.adj) == expected


def test_non_automorphism_is_rejected() -> None:
    kn = build(4, 2)
    a = kn.left_id(0b0011)
    b = kn.right_id(0b0011)
    g = Graph.from_edges(kn.graph.n, [e for e in kn.graph.edges() if e != (a, b)])
    kept = automorphisms(g.adj)
    assert kept == [p for p in candidate_generators(g.n) if preserves(p, g)]
    # among the three proposed for H(4,2), the transposition (1 2) fixes the
    # rung {1,2}--{1,2}; the 4-cycle and the side swap move it
    transposition, cycle, swap = own_candidates(4, 2)
    for p in (transposition, cycle, swap):
        assert preserves(p, kn.graph)
    assert {transposition[a], transposition[b]} == {a, b}
    assert transposition in kept
    assert cycle not in kept and swap not in kept


@pytest.mark.parametrize("m,k", [(m, 1) for m in range(2, 7)] + [(4, 2), (5, 2)])
def test_strand_over_one_vertex_orbit_equals_brute_force(m: int, k: int) -> None:
    g = build(m, k).graph
    assert len(orbit_sets(g)) == 1
    for i in strand_degrees(g.n):
        assert linear_strand_oracle(g, i) == brute_strand(g, i), (m, k, i)


@pytest.mark.parametrize("m,k", [(4, 2), (5, 2)])
def test_strand_with_no_generator_equals_brute_force(m: int, k: int) -> None:
    g = relabelled(build(m, k).graph)
    assert automorphisms(g.adj) == []
    for i in strand_degrees(g.n):
        assert linear_strand_oracle(g, i) == brute_strand(g, i), (m, k, i)


def test_strand_over_orbits_of_sizes_one_and_two() -> None:
    g = without_rung_edge(5, 2)
    assert automorphisms(g.adj) == [own_candidates(5, 2)[0]]
    parts = orbit_sets(g)
    assert len(parts) == 14 and {len(o) for o in parts} == {1, 2}
    strand = [linear_strand_oracle(g, i) for i in strand_degrees(g.n)]
    assert strand == [brute_strand(g, i) for i in strand_degrees(g.n)]
    assert strand[:3] == [29, 56, 18]


def test_strand_walk_skips_the_vertices_of_earlier_orbits() -> None:
    # vertices 4 and 5 lie above the root 2 of the second orbit but belong
    # to the first; a W that holds them was counted from the first orbit
    g = two_paths()
    assert orbit_sets(g) == [(0, 1, 4, 5), (2, 3)]
    for i in range(1, g.n):
        assert linear_strand_oracle(g, i) == brute_strand(g, i), i


@st.composite
def graphs_keeping_one_generator(draw):
    """H(3,1), H(4,1), H(4,2) or H(5,1) less the orbits of one to three of
    its edges under one verified generator p, with p."""
    m, k = draw(st.sampled_from([(3, 1), (4, 1), (4, 2), (5, 1)]))
    g = build(m, k).graph
    p = draw(st.sampled_from(automorphisms(g.adj)))
    edges = g.edges()
    drop = edge_orbits(draw(st.sets(st.sampled_from(edges), min_size=1, max_size=3)), p)
    return Graph.from_edges(g.n, [e for e in edges if e not in drop]), p


# The walk reads the root stabilisers from i = 3 on, where n^2 <= C(n, i+1):
# under the cap, at i = 3 on 8 vertices, 3 to 6 on 10, and 3, 7 and 8 on
# 12.  These graphs check which parts each root gets; the weights
# |P| / |U & P| seldom move their sums (on H(m,1) the two pairs a
# transposition swaps come first and last in id order, and H(4,2) is a
# matching), so the Kneser graphs themselves, with large parts, test those.
@settings(max_examples=80, deadline=None)
@given(graphs_keeping_one_generator())
def test_strand_on_graphs_keeping_one_generator_equals_brute_force(gp) -> None:
    g, p = gp
    assert p in automorphisms(g.adj)
    for i in range(1, g.n):
        if binom(g.n, i + 1) <= 500:
            assert linear_strand_oracle(g, i) == brute_strand(g, i), (g.adj, i)


@st.composite
def dense_or_sparse_graphs(draw, max_n: int = 9) -> Graph:
    """A graph on 2 to max_n vertices: a few pairs flipped from the edgeless
    graph or from K_n, or a pair set drawn outright."""
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    start = draw(st.sampled_from(("edgeless", "complete", "any")))
    if start == "any":
        return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])
    flips = draw(st.sets(st.sampled_from(pairs), max_size=4))
    return Graph.from_edges(n, [e for e in pairs if (e in flips) != (start == "complete")])


# Every H(m, k) is bipartite, so no slice of one has more than two
# complement components; dense graphs merge many at once.  In K_5 less the
# edges 40, 41 and 42, vertex 4 joins three of the four components of
# {0, 1, 2, 3}.
@settings(max_examples=150, deadline=None)
@given(dense_or_sparse_graphs())
@example(Graph.from_edges(5, [e for e in itertools.combinations(range(5), 2)
                              if e not in {(0, 4), (1, 4), (2, 4)}]))
def test_strand_on_dense_and_sparse_graphs_equals_brute_force(g: Graph) -> None:
    for i in strand_degrees(g.n):
        assert linear_strand_oracle(g, i) == brute_strand(g, i), (g.adj, i)


# Dense graphs have many vertices to fold, and sparse ones many cones.
@settings(max_examples=100, deadline=None)
@given(dense_or_sparse_graphs(max_n=8))
def test_table_equals_plain_sum(g: Graph) -> None:
    for char in (2, 3, 0):
        assert full_betti_oracle(g, field_char=char).entries == plain_table(g, char), (g.adj, char)


@pytest.mark.parametrize("m,k", [(m, k) for k in range(1, 4) for m in range(2 * k, 36)
                                 if 2 * binom(m, k) <= 70])
def test_kneser_graph_has_one_vertex_orbit(m: int, k: int) -> None:
    g = build(m, k).graph
    assert orbit_sets(g) == [tuple(range(g.n))]


def test_orbit_roots_of_one_orbit_and_of_singletons() -> None:
    g = build(5, 2).graph
    assert orbit_roots(g.adj) == [(0, g.full_mask, 0)]
    g = relabelled(build(4, 2).graph)
    assert orbit_roots(g.adj) == [(r, 1 << r, (1 << r) - 1) for r in range(g.n)]


def test_orbit_roots_of_interleaved_orbits() -> None:
    assert orbit_roots(two_paths().adj) == [(0, 0b110011, 0), (2, 0b001100, 0b110011)]


def test_orbit_roots_partition_the_vertices() -> None:
    g = without_rung_edge(5, 2)
    roots = orbit_roots(g.adj)
    earlier = 0
    for r, orbit, before in roots:
        assert before == earlier
        assert orbit & earlier == 0
        assert r == (orbit & -orbit).bit_length() - 1
        earlier |= orbit
    assert earlier == g.full_mask
    assert [(r, orbit) for r, orbit, _ in roots] == [
        (o[0], sum(1 << v for v in o)) for o in closure_orbits(g.n, automorphisms(g.adj))]


@pytest.mark.parametrize("g", [build(m, 1).graph for m in range(2, 6)]
                         + [build(4, 2).graph, build(5, 2).graph, two_paths(),
                            without_rung_edge(5, 2)])
def test_root_stabiliser_orbits_match_the_whole_group(g: Graph) -> None:
    group = whole_group(g.n, automorphisms(g.adj))
    assert len(group) <= 240
    roots = root_stabiliser_orbits(g.adj)
    assert [root[:3] for root in roots] == orbit_roots(g.adj)
    for r, _, _, parts in roots:
        stabiliser = [h for h in group if h[r] == r]
        brute = []
        for x in range(g.n):
            if not any(part >> x & 1 for part in brute):
                brute.append(sum(1 << y for y in {h[x] for h in stabiliser}))
        assert parts == brute, r


def pair_walk_parts(n: int, gens) -> dict[int, list[int]]:
    """The parts of the stabiliser of every vertex r, read off the orbits of
    the generators on the n^2 ordered pairs (a, b), the point a n + b: (r, x)
    and (r, y) lie in one pair orbit exactly when some element of the group
    maps r to r and x to y.  No generator of a stabiliser is needed."""
    pair_maps = [[p[a] * n + p[b] for a in range(n) for b in range(n)] for p in gens]
    label = [0] * (n * n)
    for k, orbit in enumerate(_closure(n * n, pair_maps)):
        for point in orbit:
            label[point] = k
    out = {}
    for r in range(n):
        parts: dict[int, int] = {}
        for x in range(n):
            parts[label[r * n + x]] = parts.get(label[r * n + x], 0) | 1 << x
        out[r] = list(parts.values())
    return out


# S_m x Z_2 has 1,440 elements for m = 6 and 725,760 for m = 9, too many to
# list; the pair walk needs none of them.
@pytest.mark.parametrize("g", [build(6, 2).graph, build(7, 2).graph, build(7, 3).graph,
                               build(8, 3).graph, build(9, 4).graph,
                               relabelled(build(5, 2).graph), two_paths(),
                               without_rung_edge(5, 2)])
def test_root_stabiliser_orbits_match_the_pair_walk(g: Graph) -> None:
    roots = root_stabiliser_orbits(g.adj)
    assert [root[:3] for root in roots] == orbit_roots(g.adj)
    brute = pair_walk_parts(g.n, automorphisms(g.adj))
    for r, _, _, parts in roots:
        assert parts == brute[r], r


def test_root_stabiliser_of_h62() -> None:
    # S_6 x Z_2 has order 1,440, and the stabiliser S_2 x S_4 of the vertex
    # {1, 2} of H(6,2) cuts the other 29 vertices into parts of sizes 8, 6,
    # 6, 8 and 1, in order of smallest vertex
    [(r, _, _, parts)] = root_stabiliser_orbits(build(6, 2).graph.adj)
    assert r == 0 and [part.bit_count() for part in parts] == [1, 8, 6, 6, 8, 1]


def test_root_stabilisers_of_h52_and_of_no_generator() -> None:
    # S_5 x Z_2 has order 240, and the stabiliser of the vertex {1, 2} of
    # H(5,2) is S_2 x S_3: it keeps {1, 2} and moves the 2-sets that meet it
    # in one (6) or no (3) element, and the 3-sets that hold both (3), one
    # (6) or none (1) of its elements
    assert len(whole_group(20, automorphisms(build(5, 2).graph.adj))) == 240
    [(r, _, _, parts)] = root_stabiliser_orbits(build(5, 2).graph.adj)
    assert r == 0 and sorted(map(int.bit_count, parts)) == [1, 1, 3, 3, 6, 6]
    g = relabelled(build(4, 2).graph)
    singletons = [1 << v for v in range(g.n)]
    assert root_stabiliser_orbits(g.adj) == [(r, 1 << r, (1 << r) - 1, singletons)
                                             for r in range(g.n)]


def test_vertex_orbits_of_no_generator_are_singletons() -> None:
    g = relabelled(build(5, 2).graph)
    assert orbit_sets(g) == [(v,) for v in range(g.n)]
    assert list(_closure(3, [])) == [[0], [1], [2]]


@pytest.mark.parametrize("g", [build(3, 1).graph, build(6, 3).graph,
                               without_rung_edge(4, 2), without_rung_edge(5, 2),
                               without_rung_edge(6, 2)])
def test_vertex_orbits_match_their_closure(g: Graph) -> None:
    gens = automorphisms(g.adj)
    assert orbit_sets(g) == closure_orbits(g.n, gens)
    for p in gens:
        walked = list(_closure(g.n, [p]))
        assert all(orbit[0] == min(orbit) for orbit in walked)
        assert [tuple(sorted(orbit)) for orbit in walked] == closure_orbits(g.n, [p])


def brute_tau(g: Graph) -> int:
    """The largest covering number of a maximal independent set of g less
    its isolated vertices, found as a maximal clique of the complement by
    networkx."""
    nx = pytest.importorskip("networkx")
    live = [v for v in range(g.n) if g.adj[v]]
    comp = nx.complement(nx.Graph(g.edges()).subgraph(live))
    return max((brute_gamma(g, sum(1 << v for v in clique))
                for clique in nx.find_cliques(comp)), default=0)


def assert_searches_match_brute_force(g: Graph) -> None:
    assert independent_domination_number(g).value == brute_independent_domination(g)
    assert tau_of(g) == brute_tau(g)


def swapped(g: Graph, a: int, b: int) -> Graph:
    """g with vertex ids a and b exchanged."""
    p = list(range(g.n))
    p[a], p[b] = b, a
    return Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])


SEARCHED = [(m, 1) for m in range(2, 7)] + [(4, 2), (5, 2)]


@pytest.mark.parametrize("m,k", SEARCHED)
def test_searches_over_one_vertex_orbit_equal_brute_force(m: int, k: int) -> None:
    g = build(m, k).graph
    assert len(orbit_sets(g)) == 1
    assert_searches_match_brute_force(g)


@pytest.mark.parametrize("m,k", [mk for mk in SEARCHED if mk != (2, 1)])
def test_searches_with_no_generator_equal_brute_force(m: int, k: int) -> None:
    g = relabelled(build(m, k).graph)
    assert automorphisms(g.adj) == []
    assert_searches_match_brute_force(g)


def test_searches_over_orbits_of_sizes_one_and_two() -> None:
    g = without_rung_edge(5, 2)
    assert len(orbit_sets(g)) == 14
    assert_searches_match_brute_force(g)
    # Vertex 1 lies in no maximal independent set with covering number
    # tau = 5; moved to id 0 it is the first root, and not enough.
    g = swapped(g, 0, 1)
    assert automorphisms(g.adj) == []
    assert (brute_independent_domination(g), brute_tau(g)) == (6, 5)
    assert_searches_match_brute_force(g)


def test_domination_search_needs_a_later_orbit() -> None:
    # The leaves of the two paths are the first orbit and lie in no minimum
    # independent dominating set; the two middle vertices form one.
    g = two_paths()
    assert orbit_sets(g) == [(0, 1, 4, 5), (2, 3)]
    assert brute_independent_domination(g) == 2
    assert_searches_match_brute_force(g)


def walked(g: Graph) -> tuple[list[tuple[int, int]], int]:
    """The (w, weight) pairs `subset_orbits` yields on g, and the number of
    cones it returns."""
    walk, reps = subset_orbits(g.adj), []
    while True:
        try:
            reps.append(next(walk))
        except StopIteration as done:
            return reps, done.value


def has_isolated_vertex(g: Graph, w: int) -> bool:
    return any(w >> v & 1 and not g.adj[v] & w for v in range(g.n))


def side_preserving(g: Graph) -> list[tuple[int, ...]]:
    half = g.n // 2
    return [p for p in automorphisms(g.adj) if all(x < half for x in p[:half])]


def check_walk(g: Graph) -> None:
    reps, cones = walked(g)
    assert sum(weight for _, weight in reps) + cones == 1 << g.n
    assert not any(has_isolated_vertex(g, w) for w, _ in reps)
    assert len({w for w, _ in reps}) == len(reps)


KNESER_UP_TO_20 = [(m, k) for k in (1, 2) for m in range(2 * k, 11) if 2 * binom(m, k) <= 20]


@pytest.mark.parametrize("m,k", KNESER_UP_TO_20)
def test_walk_weights_and_cones_sum_to_every_subset(m: int, k: int) -> None:
    check_walk(build(m, k).graph)


@settings(max_examples=80, deadline=None)
@given(graphs_keeping_one_generator())
def test_walk_on_graphs_keeping_one_generator(gp) -> None:
    check_walk(gp[0])


@settings(max_examples=150, deadline=None)
@given(dense_or_sparse_graphs(max_n=12))
def test_walk_on_graphs_with_no_generator(g: Graph) -> None:
    check_walk(g)


def closure_of_subsets(g: Graph) -> list[set[int]]:
    """The orbits of g's side-preserving generators on its 2^n vertex
    subsets, each by closing a subset under the generators."""
    gens, seen, out = side_preserving(g), set(), []
    for w0 in range(1 << g.n):
        if w0 not in seen:
            orbit, todo = {w0}, [w0]
            while todo:
                x = todo.pop()
                for y in (image(p, x) for p in gens):
                    if y not in orbit:
                        orbit.add(y)
                        todo.append(y)
            seen |= orbit
            out.append(orbit)
    return out


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (4, 1), (4, 2), (6, 1)])
def test_orbits_match_their_closure(m: int, k: int) -> None:
    # The Schreier generators span the whole stabiliser of each L0, so an
    # orbit with no cone holds exactly one representative, weighted by the
    # orbit's size.
    g = build(m, k).graph
    weight = dict(walked(g)[0])
    kept = [o for o in closure_of_subsets(g) if not has_isolated_vertex(g, min(o))]
    for orbit in kept:
        [w] = orbit & weight.keys()
        assert weight[w] == len(orbit)
    assert len(kept) == len(weight)


@pytest.mark.parametrize("g", [build(m, 1).graph for m in range(2, 7)]
                         + [build(4, 2).graph, relabelled(build(4, 2).graph),
                            without_rung_edge(4, 2), two_paths()])
def test_orbits_leave_out_premarked_orbits(g: Graph) -> None:
    # The cones are a union of orbits, since an automorphism keeps the
    # isolated vertices of a slice: the walk counts each one and yields
    # none.
    reps, cones = walked(g)
    orbits = closure_of_subsets(g)
    marked = [o for o in orbits if any(has_isolated_vertex(g, w) for w in o)]
    assert all(has_isolated_vertex(g, w) for o in marked for w in o)
    assert cones == sum(len(o) for o in marked)
    assert not any(has_isolated_vertex(g, w) for w, _ in reps)


def test_trivial_group_gives_singleton_orbits() -> None:
    # With no verified generator the walk yields every subset with no
    # isolated vertex once, of weight 1: the plain sum.
    g = relabelled(build(3, 1).graph)
    assert automorphisms(g.adj) == []
    reps, cones = walked(g)
    assert sorted(reps) == [(w, 1) for w in range(1 << g.n) if not has_isolated_vertex(g, w)]
    assert cones == sum(has_isolated_vertex(g, w) for w in range(1 << g.n))


def test_h71_has_the_burnside_count_of_orbits() -> None:
    # S_7 on the pairs of subsets (A, B) of [7] that stand for L and R, the
    # left vertices {a} and the right ones [7] - {b}: an orbit is a multiset
    # of 7 of the 4 kinds of element, C(10, 3) = 120 in all.  {a} and
    # [7] - {b} are adjacent iff a != b, so a pair is a cone iff just one of
    # A and B is empty, or one is a single element that the other holds:
    # 27 orbits.
    reps, cones = walked(build(7, 1).graph)
    assert len(reps) == 120 - 27
    assert sum(weight for _, weight in reps) + cones == 1 << 14


@pytest.mark.parametrize("m,k", [(3, 1), (4, 1), (4, 2)])
@pytest.mark.parametrize("char", [2, 3, 0])
def test_table_without_stabiliser_generators(monkeypatch, m: int, k: int, char: int) -> None:
    # Any subgroup of Stab(L0) gives the same sum; the trivial one walks
    # every mask R' of each representative L0 on its own.
    g = build(m, k).graph
    table = full_betti_oracle(g, field_char=char)
    reps = walked(g)[0]
    real = symmetry._closure
    monkeypatch.setattr(symmetry, "_closure", lambda size, maps: real(size, []))
    assert full_betti_oracle(g, field_char=char) == table
    check_walk(g)
    # H(4,2) is a matching: each L0 walks one R', the partners of its
    # vertices, with or without generators
    assert len(walked(g)[0]) > len(reps) or (m, k) == (4, 2)
