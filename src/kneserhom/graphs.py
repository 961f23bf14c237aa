"""Small immutable graphs on bitset adjacency, plus the graph-theoretic
predicates the homological computations lean on.

Vertices are 0-based ids; vertex sets are int bitmasks (bit v = vertex v).
Everything is deterministic: ties break toward the lowest id, emitted
sequences are sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .combinatorics import bit_indices
from .config import DEFAULT_GUARDS, Guards


@dataclass(frozen=True)
class Graph:
    """A simple graph on vertices 0 .. n-1, refused at construction unless
    every row is in range, has no self-loop and is mirrored (see
    `__post_init__`); a failure names the lowest unmirrored pair (v, u):
    the lowest v, then the lowest u."""

    n: int
    adj: tuple[int, ...]  # adj[v] = bitmask of neighbours of v

    def __post_init__(self):
        if len(self.adj) != self.n:  # a negative n too
            raise ValueError("Graph: adj length must equal n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"Graph: adjacency of {v} mentions vertices >= n")
            if row >> v & 1:
                raise ValueError(f"Graph: self-loop at {v}")
        # Symmetry, once per edge: every entry (v, u) above the diagonal
        # must have its mirror (u, v).  Distinct upper entries have distinct
        # mirrors, so once they all do, the lower triangle holds at least
        # as many entries as the upper one; equal counts (twice the upper
        # count is the sum of all row popcounts) then leave no lower entry
        # without its mirror.  Each row's higher entries are walked from the
        # top down by bit length, which makes fewer big-int allocations per
        # edge than isolating the lowest bit.  The rows are in range by now,
        # so each walk ends, and higher is left nonzero only by a failed
        # mirror; then one scan of both triangles names the pair.
        adj = self.adj
        upper = higher = 0
        for v, row in enumerate(adj):
            higher = row >> (v + 1)
            upper += higher.bit_count()
            bit = 1 << v
            while higher:
                top = higher.bit_length()
                if not adj[v + top] & bit:
                    break
                higher ^= 1 << (top - 1)
            if higher:
                break
        if higher or 2 * upper != sum(row.bit_count() for row in adj):
            v, u = next((v, u) for v, row in enumerate(adj)
                        for u in bit_indices(row) if not adj[u] >> v & 1)
            raise ValueError(f"Graph: adjacency not symmetric at ({v},{u})")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (v, u) with v < u, v ascending, then u ascending."""
        out = []
        for v, row in enumerate(self.adj):
            higher = row >> (v + 1)
            while higher:
                low = higher & -higher
                out.append((v, v + low.bit_length()))
                higher ^= low
        return tuple(out)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def complement(g: Graph) -> Graph:
    full = g.full_mask
    adj = tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj))
    return Graph(g.n, adj)


def induced(g: Graph, w: int) -> Graph:
    """Induced subgraph on the vertices of mask w, re-indexed ascending."""
    if w & ~g.full_mask:
        raise ValueError("induced: w mentions vertices outside the graph")
    verts = bit_indices(w)
    index = {v: i for i, v in enumerate(verts)}
    adj = []
    for v in verts:
        row = 0
        for u in bit_indices(g.adj[v] & w):
            row |= 1 << index[u]
        adj.append(row)
    return Graph(len(verts), tuple(adj))


def neighborhood(g: Graph, x: int) -> int:
    """Open neighbourhood N(X) of a vertex mask, as a mask."""
    out = 0
    for v in bit_indices(x):
        out |= g.adj[v]
    return out


def closed_neighborhood(g: Graph, x: int) -> int:
    return neighborhood(g, x) | x


# ---------------------------------------------------------------------------
# chordality
# ---------------------------------------------------------------------------


def _mcs_order(g: Graph) -> list[int]:
    # Maximum cardinality search; ties go to the lowest id.
    weight = [0] * g.n
    visited = 0
    order = []
    for _ in range(g.n):
        best_v = -1
        best_w = -1
        for v in range(g.n):
            if not visited >> v & 1 and weight[v] > best_w:
                best_v, best_w = v, weight[v]
        visited |= 1 << best_v
        order.append(best_v)
        for u in bit_indices(g.adj[best_v] & ~visited):
            weight[u] += 1
    return order


def is_chordal(g: Graph) -> bool:
    """Whether g is chordal, by maximum cardinality search.  The reversed
    MCS order is a perfect elimination order exactly when g is chordal
    (Tarjan and Yannakakis, SIAM J. Comput. 13, 1984), so a failed check of
    that one order is a proof of non-chordality: in it, each vertex's later
    neighbours must all be adjacent to the earliest of them."""
    peo = _mcs_order(g)[::-1]
    pos = [0] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    for i, v in enumerate(peo):
        later = [u for u in bit_indices(g.adj[v]) if pos[u] > i]
        if len(later) < 2:
            continue
        f = min(later, key=lambda u: pos[u])
        if any(w != f and not g.has_edge(f, w) for w in later):
            return False
    return True


def is_cochordal(g: Graph) -> bool:
    return is_chordal(complement(g))


# ---------------------------------------------------------------------------
# induced matchings
# ---------------------------------------------------------------------------


def matching_checks(g: Graph, fam) -> tuple[bool, bool, bool]:
    """(edges, pairwise, maximal) for a family fam of vertex pairs: is every
    member an edge of g, are the members pairwise three-disjoint, and is
    every edge of g not three-disjoint from some member?  The lemma below
    holds only for edges, so when edges is False the other two are too.

    Reach lemma: for an edge e = (a, b), reach(e) = adj[a] | adj[b] is
    N[a] | N[b], since a and b are adjacent.  An end of an edge f lies in
    it iff f shares an end with e or a cross edge joins them, so e and f
    are three-disjoint iff reach(e) holds neither end of f.  With ends the
    mask of the members' endpoints, the family is pairwise three-disjoint
    iff ends has 2|fam| bits and each member's reach misses ends outside
    its own two ends; an edge e fails against some member iff
    reach(e) & ends != 0 (a member does, by its own ends)."""
    adj = g.adj
    if not all(adj[a] >> b & 1 for a, b in fam):
        return False, False, False
    ends = 0
    for a, b in fam:
        ends |= 1 << a | 1 << b
    pairwise = ends.bit_count() == 2 * len(fam) and not any(
        (adj[a] | adj[b]) & ends & ~(1 << a | 1 << b) for a, b in fam)
    return True, pairwise, all((adj[a] | adj[b]) & ends for a, b in g.edges())


def _conflict_rows(g: Graph, edges) -> list[int]:
    """Row i has bit j != i iff edges[i] and edges[j], edges of g, are not
    three-disjoint: by the reach lemma of `matching_checks`, the OR over
    the vertices v of reach(edges[i]) of the mask of the edges incident to
    v, less bit i."""
    adj = g.adj
    incident = [0] * g.n
    for i, (a, b) in enumerate(edges):
        incident[a] |= 1 << i
        incident[b] |= 1 << i
    rows = []
    for i, (a, b) in enumerate(edges):
        row = 0
        for v in bit_indices(adj[a] | adj[b]):
            row |= incident[v]
        rows.append(row & ~(1 << i))
    return rows


class InducedMatching(NamedTuple):
    size: int
    edges: tuple[tuple[int, int], ...]


class EdgeCapExceeded(ValueError):
    """Raised past `induced_matching_number`'s max_edges cap, not a guard."""


def induced_matching_number(g: Graph, guards: Guards = DEFAULT_GUARDS,
                            max_edges: int = 64) -> InducedMatching:
    """Exact maximum induced matching by branch and bound over the edge
    conflict graph (edges conflict when not three-disjoint).  Each conflict
    row is built from reach masks (`_conflict_rows`, by the reach lemma of
    `matching_checks`), in O(|E| * degree) ORs, not by a test of every pair
    of edges."""
    edges = g.edges()
    ne = len(edges)
    if ne > max_edges:
        raise EdgeCapExceeded(f"{ne} edges, above the search cap max_edges = "
                              f"{max_edges}")
    conflict = _conflict_rows(g, edges)
    count = guards.counter("induced_matching_number")
    best = 0
    best_set = 0

    def expand(cand: int, size: int, chosen: int) -> None:
        nonlocal best, best_set
        if size > best:
            best, best_set = size, chosen
        while cand:
            if size + cand.bit_count() <= best:
                return
            count()
            low = cand & -cand
            cand ^= low
            expand(cand & ~conflict[low.bit_length() - 1], size + 1, chosen | low)

    expand((1 << ne) - 1, 0, 0)
    witness = tuple(edges[i] for i in bit_indices(best_set))
    return InducedMatching(best, witness)

