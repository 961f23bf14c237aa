from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneserhom
from kneserhom.combinatorics import binom, elements_of, kneser_sides, mask_of
from kneserhom.config import GuardExceeded, Guards
from kneserhom.graphs import Side, bit_indices, is_cochordal
from kneserhom.kneser import (
    KneserGraph,
    build,
    dominating_w,
    double_star_cover,
    e_s_family,
    gamma_demand_family,
    side_size,
    star_cover,
)


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1),
                                 (4, 2), (5, 2), (6, 2), (7, 2), (6, 3), (7, 3)])
def test_build_counts_and_regularity(m: int, k: int) -> None:
    kn = build(m, k)
    g = kn.graph
    nl = binom(m, k)
    deg = binom(m - k, k)
    assert g.n == 2 * nl
    assert g.edge_count() == nl * deg
    assert all(row.bit_count() == deg for row in g.adj)
    # bipartite: every edge goes left to right
    for u, v in g.edges():
        assert u < nl <= v


def test_build_rejects_bad_params() -> None:
    with pytest.raises(ValueError):
        build(3, 0)
    with pytest.raises(ValueError):
        build(3, 2)
    # No cap on m beyond the max_subsets guard.
    assert build(70, 1).graph.n == 140
    with pytest.raises(GuardExceeded):
        build(70, 1, Guards(max_subsets=139))


@pytest.mark.parametrize("m,k", [(m, k) for k in range(1, 5) for m in range(2 * k, 13)])
def test_side_size_passes_exactly_c_m_k_or_refuses_at_a_lower_bound(m: int, k: int) -> None:
    # Every limit near 2 C(m, j), j <= k: a pass returns C(m, k) itself; a
    # refusal names a need past the limit and no larger than 2 C(m, k),
    # "at least" unless it is 2 C(m, k) itself.
    c = binom(m, k)
    for limit in {max(0, 2 * binom(m, j) + d) for j in range(k + 1) for d in (-1, 0, 1)}:
        guards = Guards(max_subsets=limit)
        if 2 * c <= limit:
            assert side_size(m, k, guards) == c
            continue
        with pytest.raises(GuardExceeded) as exc:
            side_size(m, k, guards)
        assert limit < exc.value.needed <= 2 * c
        assert ("needs at least" in str(exc.value)) == (exc.value.needed < 2 * c)


def test_build_refuses_before_computing_c_m_k() -> None:
    # C(800000, 400000) takes seconds; 2 C(800000, 1) is already past the
    # limit.
    with pytest.raises(GuardExceeded) as exc:
        build(800_000, 400_000)
    assert exc.value.needed == 1_600_000
    assert "build H(800000,400000): max_subsets limit exceeded (needs at least 1600000," \
        in str(exc.value)


def test_edges_are_containments(kn52: KneserGraph) -> None:
    g = kn52.graph
    for u in range(g.n):
        for v in range(u + 1, g.n):
            a, b = kn52.subset_of(u), kn52.subset_of(v)
            small, large = (a, b) if a.bit_count() <= b.bit_count() else (b, a)
            expect = kn52.side_of(u) != kn52.side_of(v) and small & ~large == 0
            assert g.has_edge(u, v) == expect


def containment_adjacency(m: int, k: int) -> tuple[int, ...]:
    """H(m, k) from its definition: the k-subsets, then the (m-k)-subsets,
    each in numeric mask order, and A ~ B iff A is inside B."""
    def side(size: int) -> list[int]:
        return sorted(sum(1 << e for e in c)
                      for c in itertools.combinations(range(m), size))
    left, right = side(k), side(m - k)
    n = len(left)
    rows = [sum(1 << (n + j) for j, b in enumerate(right) if a & ~b == 0)
            for a in left]
    rows += [sum(1 << i for i, a in enumerate(left) if a & ~b == 0)
             for b in right]
    return tuple(rows)


@pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 10)
                                 for k in range(1, m // 2 + 1)]
                         + [(10, 3), (11, 5), (12, 5), (70, 1)])
def test_build_is_the_containment_graph(m: int, k: int) -> None:
    assert build(m, k).graph.adj == containment_adjacency(m, k)


@pytest.mark.parametrize("m", range(2, 13))
def test_right_side_is_the_left_complemented_in_reverse(m: int) -> None:
    # kneser_sides makes the right side as the left one complemented, in
    # reverse, so check it against the (m-k)-subsets enumerated anew
    for k in range(1, m // 2 + 1):
        right = sorted(sum(1 << e for e in c)
                       for c in itertools.combinations(range(m), m - k))
        assert kneser_sides(m, k)[1] == tuple(right)


@pytest.mark.parametrize("m,k", [(2, 1), (4, 2), (6, 3), (5, 2), (7, 3), (8, 3)])
def test_vertex_ids_round_trip(m: int, k: int) -> None:
    kn = build(m, k)
    for vid in range(kn.graph.n):
        mask = kn.subset_of(vid)
        if kn.side_of(vid) is Side.LEFT:
            assert kn.left_id(mask) == vid
        else:
            assert kn.right_id(mask) == vid
    with pytest.raises(ValueError):
        kn.subset_of(kn.graph.n)
    with pytest.raises(ValueError):
        kn.subset_of(-1)  # a bare tuple index would wrap to the last vertex
    with pytest.raises(ValueError):
        kn.left_id(mask_of(range(1, k + 2)))
    if m > 2 * k:
        with pytest.raises(ValueError):
            kn.left_id(mask_of(range(1, m - k + 1)))
    with pytest.raises(ValueError):
        kn.right_id(mask_of([*range(1, m - k), m + 1]))


def test_ladder_shape(kn21: KneserGraph, kn42: KneserGraph) -> None:
    assert kn21.is_ladder and kn42.is_ladder
    for kn in (kn21, kn42):
        g = kn.graph
        assert all(row.bit_count() == 1 for row in g.adj)
        assert g.edge_count() == binom(kn.m, kn.k)
        # each rung joins a left k-set to its right copy
        for u, v in g.edges():
            assert kn.subset_of(u) == kn.subset_of(v)


def test_crown_is_hexagon(kn31: KneserGraph) -> None:
    # H(3,1) is the 6-cycle: connected, 2-regular on 6 vertices.
    g = kn31.graph
    assert g.n == 6
    assert all(row.bit_count() == 2 for row in g.adj)
    seen = {0}
    v = 0
    for _ in range(5):
        nxt = [u for u in bit_indices(g.adj[v]) if u not in seen]
        assert nxt
        v = nxt[0]
        seen.add(v)
    assert len(seen) == 6


def test_cube_graph(kn41: KneserGraph) -> None:
    # H(4,1) is the 3-cube: bipartite, 3-regular, 8 vertices, 12 edges.
    g = kn41.graph
    assert g.n == 8
    assert g.edge_count() == 12
    assert all(row.bit_count() == 3 for row in g.adj)


def pair_three_disjoint(g, e, f) -> bool:
    # Four distinct ends, and no edge of g joins an end of e to one of f.
    (a, b), (c, d) = e, f
    return (len({a, b, c, d}) == 4
            and not any(g.has_edge(x, y) for x in (a, b) for y in (c, d)))


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1),
                                 (4, 2), (5, 2), (6, 2)])
def test_e_s_family_is_maximum_induced_matching(m: int, k: int) -> None:
    kn = build(m, k)
    g = kn.graph
    avail = range(1, m + 1)
    for elems in itertools.combinations(avail, m - 2 * k):
        s = mask_of(elems)
        fam = e_s_family(kn, s)
        assert len(fam) == binom(2 * k, k)
        for u, v in fam:
            assert g.has_edge(u, v)
        for e, f in itertools.combinations(fam, 2):
            assert pair_three_disjoint(g, e, f)
        # maximal: no further edge is 3-disjoint from all members
        for e in g.edges():
            if e in fam:
                continue
            assert not all(pair_three_disjoint(g, e, f) for f in fam)


def test_e_s_family_rejects_bad_spread(kn52: KneserGraph) -> None:
    with pytest.raises(ValueError):
        e_s_family(kn52, mask_of([1, 2]))  # needs exactly m - 2k = 1 element
    with pytest.raises(ValueError):
        e_s_family(kn52, 1 << 60)


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (4, 2), (5, 2)])
def test_star_cover_partitions_edges(m: int, k: int) -> None:
    kn = build(m, k)
    g = kn.graph
    cover = star_cover(kn)
    assert len(cover) == binom(m, k)
    all_edges = [e for member in cover for e in member]
    assert sorted(all_edges) == sorted(g.edges())
    assert len(all_edges) == len(set(all_edges))  # a partition, no overlaps
    for ra, member in enumerate(cover):
        assert all(e[0] == ra for e in member)


def subgraph_on(g, member):
    import kneserhom.graphs as graphs
    w = 0
    for u, v in member:
        w |= 1 << u | 1 << v
    return graphs.induced(g, w)


@pytest.mark.parametrize("m,k", [(3, 1), (4, 2), (5, 2)])
def test_star_cover_members_cochordal(m: int, k: int) -> None:
    kn = build(m, k)
    for member in star_cover(kn):
        assert is_cochordal(subgraph_on(kn.graph, member))


@pytest.mark.parametrize("m,k,t", [(3, 1, 1), (3, 1, 3), (5, 2, 5), (5, 2, 2)])
def test_double_star_cover_partitions_edges(m: int, k: int, t: int) -> None:
    kn = build(m, k)
    g = kn.graph
    cover = double_star_cover(kn, t)
    assert len(cover) == binom(2 * k, k)
    all_edges = [e for member in cover for e in member]
    assert sorted(all_edges) == sorted(g.edges())
    assert len(all_edges) == len(set(all_edges))


@pytest.mark.parametrize("m,k,t", [(3, 1, 1), (5, 2, 5)])
def test_double_star_cover_members_cochordal(m: int, k: int, t: int) -> None:
    kn = build(m, k)
    for member in double_star_cover(kn, t):
        assert member  # dedup never empties a member
        assert is_cochordal(subgraph_on(kn.graph, member))


def test_double_star_cover_sizes(kn31: KneserGraph, kn52: KneserGraph) -> None:
    assert len(double_star_cover(kn31, 3)) == 2
    assert len(double_star_cover(kn52, 5)) == 6


# A negative mask has no end of set bits.  Each call runs in a child process,
# so that a loop over its bits fails the test at the timeout, not hangs it.
@pytest.mark.parametrize("call", ["bit_indices(-1)", "subset_str(-1)",
                                  "kn.left_id(-1)", "kn.right_id(-1)",
                                  "e_s_family(kn, -2)"])
def test_negative_masks_are_refused(call: str) -> None:
    code = ("from kneserhom.combinatorics import bit_indices, subset_str\n"
            "from kneserhom.kneser import build, e_s_family\n"
            "kn = build(5, 2)\n"
            f"try:\n    {call}\nexcept ValueError:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    env = dict(os.environ)
    package_root = str(Path(kneserhom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_double_star_cover_rejects_wrong_shape(kn42: KneserGraph,
                                               kn31: KneserGraph) -> None:
    with pytest.raises(ValueError):
        double_star_cover(kn42, 1)  # m = 2k, not 2k + 1
    with pytest.raises(ValueError):
        double_star_cover(kn31, 4)  # t outside [m]


def is_independent(g, w: int) -> bool:
    return all(g.adj[v] & w == 0 for v in bit_indices(w))


def is_dominating(g, w: int) -> bool:
    dominated = w
    for v in bit_indices(w):
        dominated |= g.adj[v]
    return dominated == g.full_mask


@pytest.mark.parametrize("m,k", [(3, 1), (4, 1), (5, 2), (6, 2)])
def test_dominating_w_all_choices(m: int, k: int) -> None:
    kn = build(m, k)
    g = kn.graph
    for elems in itertools.combinations(range(1, m + 1), m - 2 * k):
        s = mask_of(elems)
        for j in range(1, m + 1):
            if s >> (j - 1) & 1:
                continue
            w = dominating_w(kn, s, j)
            assert w.bit_count() == binom(2 * k, k)
            assert is_independent(g, w)
            assert is_dominating(g, w)


def test_dominating_w_ladder(kn42: KneserGraph) -> None:
    w = dominating_w(kn42)
    assert w == kn42.left_mask
    assert is_independent(kn42.graph, w)
    assert is_dominating(kn42.graph, w)
    with pytest.raises(ValueError):
        dominating_w(kn42, mask_of([1]), 2)


def test_dominating_w_rejects_overlapping_j(kn52: KneserGraph) -> None:
    with pytest.raises(ValueError, match="must lie outside"):
        dominating_w(kn52, mask_of([3]), 3)
    for j in (0, 6):
        with pytest.raises(ValueError, match="j must be an element of"):
            dominating_w(kn52, mask_of([3]), j)
    # An omitted j is the lowest element outside s.
    assert dominating_w(kn52, mask_of([1]), None) == dominating_w(kn52, mask_of([1]), 2)


def test_gamma_demand_family_shape(kn52: KneserGraph) -> None:
    q = mask_of([1])
    s = mask_of([2, 3, 4])
    demand, witnesses = gamma_demand_family(kn52, q, s)
    # right 3-subsets of [5] containing {1}: C(4,2) of them
    assert demand.bit_count() == binom(4, 2)
    assert len(witnesses) == 3
    g = kn52.graph
    for b in bit_indices(demand):
        assert kn52.side_of(b) is Side.RIGHT
        assert kn52.subset_of(b) & q == q
    # the witness family dominates every demand vertex
    for b in bit_indices(demand):
        assert any(g.has_edge(w, b) for w in witnesses)


def test_gamma_demand_family_validation(kn52: KneserGraph) -> None:
    with pytest.raises(ValueError):
        gamma_demand_family(kn52, mask_of([1, 2]), mask_of([3, 4, 5]))
    with pytest.raises(ValueError):
        gamma_demand_family(kn52, mask_of([1]), mask_of([2, 3]))
    with pytest.raises(ValueError):
        gamma_demand_family(kn52, mask_of([1]), mask_of([1, 2, 3]))
    for q, s in [([6], [2, 3, 4]), ([1], [2, 3, 6])]:
        with pytest.raises(ValueError, match="subsets of"):
            gamma_demand_family(kn52, mask_of(q), mask_of(s))


def test_no_two_left_vertices_dominate_demand(kn52: KneserGraph) -> None:
    # Exhaustive: no pair of left vertices dominates all right supersets
    # of {1}, so the 3-element witness family is optimal.
    q = mask_of([1])
    demand, _ = gamma_demand_family(kn52, q, mask_of([2, 3, 4]))
    g = kn52.graph
    nl = kn52.n_left
    for pair in itertools.combinations(range(nl), 2):
        covered = 0
        for w in pair:
            covered |= g.adj[w]
        assert demand & ~covered, pair
