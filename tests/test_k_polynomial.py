"""Whole Betti tables against the K-polynomial, a route that takes no
homology.

For the Stanley-Reisner ring of Ind(G), sum_{i,j} (-1)^i beta_{i,j} t^j is
the K-polynomial K(t) = sum over the independent sets s of
t^|s| (1-t)^(n-|s|) (Miller and Sturmfels, Combinatorial Commutative
Algebra, GTM 227, Chapters 1 and 4).  When every edge joins a vertex of S
to one of T, an independent set is L in S and any subset of T less N(L),
and the sum over that subset is 1, so
K(t) = sum_{L in S} t^|L| (1-t)^(|S| - |L| + |N(L)|).  `k_polynomial`
computes that sum from the adjacency rows alone; it shares no code with
`hochster`, `morse` or `symmetry`.  It is one linear functional per degree
j, so it catches any single wrong entry of a table, but not two errors that
cancel within one degree.
"""

from __future__ import annotations

from math import comb

import pytest

from kneserhom.hochster import full_betti_oracle
from kneserhom.kneser import build


def k_polynomial(adj, side: int) -> list[int]:
    """The coefficients of K(t), for the graph with adjacency rows adj
    whose every edge joins an id below side to one at or above it."""
    n = len(adj)
    assert all(row < 1 << side for row in adj[side:])
    assert all(row >> side << side == row for row in adj[:side])
    near = [0]  # near[L]: N(L), for every L below 2^side, by doubling
    for row in adj[:side]:
        near += [x | row for x in near]
    coefficients = [0] * (n + 1)
    for left, union in enumerate(near):
        a = left.bit_count()
        e = side - a + union.bit_count()
        for d in range(e + 1):
            coefficients[a + d] += (-1) ** d * comb(e, d)
    return coefficients


def test_k_polynomial_of_one_edge() -> None:
    # I = (xy): K = 1 - t^2
    assert k_polynomial((0b10, 0b01), 1) == [1, 0, -1]


@pytest.mark.parametrize("m,k", [(m, 1) for m in range(2, 8)] + [(4, 2), (5, 2)])
@pytest.mark.parametrize("char", [2, 3, 0])
def test_table_has_the_euler_characteristic_of_the_k_polynomial(m: int, k: int,
                                                                 char: int) -> None:
    kn = build(m, k)
    table = full_betti_oracle(kn.graph, field_char=char)
    euler = [0] * (kn.graph.n + 1)
    for (i, j), value in table.entries.items():
        euler[j] += (-1) ** i * value
    assert euler == k_polynomial(kn.graph.adj, kn.n_left)
