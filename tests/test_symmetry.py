"""The symmetry module against plain edge sets, and the orbit-sum Betti
tables against the brute-force sum over every vertex subset.

A random relabelling of H(m, k) keeps none of the candidate generators, so
`full_betti_oracle` sums it over 2^n one-subset orbits: that is the brute
force, run on an isomorphic graph whose table must be the same.
"""

from __future__ import annotations

import random

import pytest

from kneserhom.graphs import Graph
from kneserhom.hochster import full_betti_oracle
from kneserhom.kneser import build
from kneserhom.symmetry import (_kneser_parameters, automorphisms,
                                candidate_generators, orbits)


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


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (5, 1), (7, 1), (4, 2), (6, 3)])
def test_candidates_of_kneser_graphs_are_verified_automorphisms(m: int, k: int) -> None:
    g = build(m, k).graph
    candidates = candidate_generators(g.n)
    assert len(candidates) % 3 == 0 and candidates
    for perm in candidates:
        assert sorted(perm) == list(range(g.n))
    kept = automorphisms(g.adj)
    assert kept == [p for p in candidates if preserves(p, g)]
    assert all(p in kept for p in own_candidates(m, k))


def test_candidates_need_a_kneser_vertex_count() -> None:
    for n in (0, 1, 2, 3, 5, 7, 9):
        assert candidate_generators(n) == []
    assert automorphisms((0,) * 3) == []
    # 2 C(m, k) = 240 for (120, 1), (16, 2) and (10, 3)
    assert len(candidate_generators(240)) == 9


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


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (4, 1), (6, 1), (4, 2)])
def test_orbits_match_their_closure(m: int, k: int) -> None:
    g = build(m, k).graph
    gens = automorphisms(g.adj)
    reps = list(orbits(g.n, gens))
    assert sum(size for _, size in reps) == 1 << g.n
    assert [w for w, _ in reps] == sorted(w for w, _ in reps)
    for w, size in reps:
        orbit, todo = {w}, [w]
        while todo:
            x = todo.pop()
            for p in gens:
                y = image(p, x)
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        assert (min(orbit), len(orbit)) == (w, size)


def test_trivial_group_gives_singleton_orbits() -> None:
    assert list(orbits(3, [])) == [(w, 1) for w in range(8)]


def test_h71_has_the_burnside_count_of_orbits() -> None:
    # S_7 x Z_2 on the subsets of the 14 vertices of H(7,1): 70 orbits
    g = build(7, 1).graph
    reps = list(orbits(g.n, automorphisms(g.adj)))
    assert len(reps) == 70
    assert sum(size for _, size in reps) == 1 << 14
