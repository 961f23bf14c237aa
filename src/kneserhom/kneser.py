"""The bipartite Kneser graph H(m, k) and the subset-indexed families used
as certificates: induced matchings, star and double-star covers, independent
dominating sets, and neighborhood-demand families.

Vertex layout of H(m, k): the left side holds all k-subsets of [m] at ids
0 .. C(m,k)-1 in colex order, the right side all (m-k)-subsets at ids
C(m,k) .. 2C(m,k)-1 in colex order.  {A, B} is an edge iff A is contained
in B.  For m = 2k this degenerates to a ladder: C(2k,k) disjoint rungs.
`build` lists both sides once, with `combinatorics.kneser_sides`, and keeps
them on the graph; ids and subsets are read off those stored sides.  Each
row is the AND of k per-element masks: a left A is adjacent to the right
sets that hold every element of A, a right B to the left sets that miss
every element outside B.  Complementing reverses colex order, so the
elements of the k-subsets, each read once, give the masks of both sides.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .combinatorics import (binom, bit_indices, check_mk, elements_of,
                            kneser_sides, mask_of, subset_str)
from .config import DEFAULT_GUARDS, GuardExceeded, Guards
from .graphs import Graph

Edge = tuple[int, int]
EdgeSet = tuple[Edge, ...]


@dataclass(frozen=True)
class KneserGraph:
    m: int
    k: int
    graph: Graph
    sides: tuple[tuple[int, ...], tuple[int, ...]]  # left, right masks by id

    @property
    def n_left(self) -> int:
        return len(self.sides[0])

    @property
    def is_ladder(self) -> bool:
        return self.m == 2 * self.k

    def _id(self, right: int, mask: int, what: str) -> int:
        side = self.sides[right]
        i = bisect_left(side, mask)
        if i == len(side) or side[i] != mask:
            raise ValueError(f"{subset_str(mask)} is not {what} of [m]")
        return right * len(side) + i

    def left_id(self, a_mask: int) -> int:
        return self._id(0, a_mask, "a k-subset")

    def right_id(self, b_mask: int) -> int:
        return self._id(1, b_mask, "an (m-k)-subset")

    def subset_of(self, vid: int) -> int:
        if not 0 <= vid < 2 * self.n_left:
            raise ValueError(f"vertex id {vid} out of range")
        right, i = divmod(vid, self.n_left)
        return self.sides[right][i]

    def side_of(self, vid: int) -> str:
        return "L" if vid < self.n_left else "R"

    @property
    def left_mask(self) -> int:
        return (1 << self.n_left) - 1


def side_size(m: int, k: int, guards: Guards = DEFAULT_GUARDS) -> int:
    """C(m, k), the vertex count of one side of H(m, k), once the
    max_subsets guard has let its 2 C(m, k) vertices through.  C(m, j)
    grows with j up to m/2, and m >= 2k, so C(m, 1), C(m, 2), ..., C(m, k)
    are built up one factor at a time, and a refusal comes at the first j
    with 2 C(m, j) past the limit: it names that true lower bound, and
    costs no more than computing it."""
    check_mk(m, k)
    size = 1
    for j in range(1, k):
        size = size * (m - j + 1) // j
        if 2 * size > guards.max_subsets:
            raise GuardExceeded("max_subsets", 2 * size, guards.max_subsets,
                                f"build H({m},{k})", at_least=True)
    size = size * (m - k + 1) // k
    guards.check("max_subsets", 2 * size, f"build H({m},{k})")
    return size


def build(m: int, k: int, guards: Guards = DEFAULT_GUARDS) -> KneserGraph:
    """Construct H(m, k).  Requires 1 <= k, 2k <= m; the max_subsets guard
    bounds the size (see `side_size`)."""
    n_left = side_size(m, k, guards)
    sides = kneser_sides(m, k)
    # A is inside B iff B holds every element of A, iff A misses every
    # element outside B.  misses[e] marks the left ids whose subset misses
    # e, holds[e] the right ids whose subset holds e.  Right id n_left + j
    # is the complement of left[-1 - j]: it holds e iff left[-1 - j] misses
    # e, and the elements outside it are elems[-1 - j].
    elems = [bit_indices(a) for a in sides[0]]
    full, top = (1 << n_left) - 1, 2 * n_left - 1
    misses, holds = [full] * m, [full << n_left] * m
    for ra, es in enumerate(elems):
        bit, rbit = 1 << ra, 1 << (top - ra)
        for e in es:
            misses[e] ^= bit
            holds[e] ^= rbit
    adj = [reduce(and_, [holds[e] for e in es]) for es in elems]
    adj += [reduce(and_, [misses[e] for e in es]) for es in reversed(elems)]
    g = Graph(2 * n_left, tuple(adj))
    degree = binom(m - k, k)
    assert all(row.bit_count() == degree for row in g.adj), \
        f"H({m},{k}) is not {degree}-regular"
    return KneserGraph(m, k, g, sides)


def spread(kn: KneserGraph, s: int | None = None) -> int:
    """s, checked to be an (m-2k)-subset of [m]; {1, ..., m-2k} by default."""
    if s is None:
        return (1 << (kn.m - 2 * kn.k)) - 1
    if s >> kn.m:
        raise ValueError(f"s = {subset_str(s)} is not a subset of [m]")
    if s.bit_count() != kn.m - 2 * kn.k:
        raise ValueError(
            f"s must have exactly m - 2k = {kn.m - 2 * kn.k} elements, "
            f"got {subset_str(s)}")
    return s


def e_s_family(kn: KneserGraph, s: int) -> EdgeSet:
    """The induced matching {A, A u s} over all k-subsets A of [m] \\ s.

    s must be an (m-2k)-subset of [m]; the family has C(2k, k) edges.
    For m = 2k, s is empty and the family is the entire (ladder) edge set.
    """
    spread(kn, s)
    avail = (1 << kn.m) - 1 & ~s
    edges = []
    for elems in itertools.combinations(elements_of(avail), kn.k):
        a = mask_of(elems)
        edges.append((kn.left_id(a), kn.right_id(a | s)))
    return tuple(sorted(edges))


def star_cover(kn: KneserGraph) -> tuple[EdgeSet, ...]:
    """One sorted star per left vertex; the C(m,k) stars partition the edges."""
    g = kn.graph
    return tuple([tuple([(ra, rb) for rb in bit_indices(g.adj[ra])])
                  for ra in range(kn.n_left)])


def double_star_cover(kn: KneserGraph, t: int) -> tuple[EdgeSet, ...]:
    """For m = 2k+1: the C(2k,k) unions of the stars at A_i and B_i = A_i u {t},
    where A_i runs over the k-subsets avoiding t.  Their edge sets cover
    E(H); each edge is kept only in the first member that contains it.
    """
    if kn.m != 2 * kn.k + 1:
        raise ValueError(
            f"double_star_cover needs m = 2k + 1, got m={kn.m}, k={kn.k}")
    if not 1 <= t <= kn.m:
        raise ValueError(f"t must be an element of [m], got {t}")
    t_bit = 1 << (t - 1)
    g = kn.graph
    members = []
    seen = set()
    for ida, a in enumerate(kn.sides[0]):
        if a & t_bit:
            continue
        idb = kn.right_id(a | t_bit)
        union = {(ida, rb) for rb in bit_indices(g.adj[ida])}
        union |= {(ra, idb) for ra in bit_indices(g.adj[idb])}
        member = tuple(e for e in sorted(union) if e not in seen)
        seen.update(member)
        members.append(member)
    return tuple(members)


def domination_choice(kn: KneserGraph, s: int | None = None,
                      j: int | None = None) -> tuple[int, int] | None:
    """The checked (s, j) of `dominating_w`: None for m = 2k, which takes
    neither (s may be the empty set); else s as in `spread`, and j an
    element of [m] outside s, by default the lowest, read off s once s is
    checked."""
    if kn.is_ladder:
        if s not in (None, 0) or j is not None:
            raise ValueError("dominating_w: for m = 2k pass no s and no j")
        return None
    s = spread(kn, s)
    if j is None:
        j = (~s & (s + 1)).bit_length()  # the lowest element outside s
    if not 1 <= j <= kn.m:
        raise ValueError(f"j must be an element of [m], got {j}")
    if s >> (j - 1) & 1:
        raise ValueError(f"j = {j} must lie outside s = {subset_str(s)}")
    return s, j


def dominating_w(kn: KneserGraph, s: int | None = None, j: int | None = None) -> int:
    """An independent dominating set of size C(2k, k), as a vertex mask:
    for m > 2k, with T = s u {j} (see `domination_choice`), the left
    k-subsets disjoint from T and the right (m-k)-subsets containing T;
    for m = 2k, where the construction degenerates, one full side."""
    choice = domination_choice(kn, s, j)
    if choice is None:
        return kn.left_mask
    s, j = choice
    t_mask = s | 1 << (j - 1)
    left, right = kn.sides
    out = 0
    for ra, a in enumerate(left):
        if a & t_mask == 0:
            out |= 1 << ra
    for rb, b in enumerate(right, len(left)):
        if b & t_mask == t_mask:
            out |= 1 << rb
    return out


def gamma_demand_family(kn: KneserGraph, q: int, s: int) -> tuple[int, tuple[int, ...]]:
    """The demand set D = {right B : Q subset of B} together with the witness
    family E = {Q u {i} : i in S} that dominates it.

    Q must have k-1 elements, S must have k+1 elements, Q and S disjoint.
    Returns (demand vertex mask, tuple of witness vertex ids).
    """
    if q >> kn.m or s >> kn.m:
        raise ValueError("q and s must be subsets of [m]")
    if q.bit_count() != kn.k - 1:
        raise ValueError(f"q must have k - 1 = {kn.k - 1} elements, got {subset_str(q)}")
    if s.bit_count() != kn.k + 1:
        raise ValueError(f"s must have k + 1 = {kn.k + 1} elements, got {subset_str(s)}")
    if q & s:
        raise ValueError(f"q = {subset_str(q)} and s = {subset_str(s)} must be disjoint")
    demand = 0
    for rb, b in enumerate(kn.sides[1], kn.n_left):
        if b & q == q:
            demand |= 1 << rb
    witnesses = tuple(kn.left_id(q | 1 << (i - 1)) for i in elements_of(s))
    return demand, witnesses
