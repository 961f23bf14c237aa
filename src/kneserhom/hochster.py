"""Graded Betti numbers of an edge ideal via Hochster's formula.

For a graph G on n vertices with edge ideal I(G), the (i, j) Betti number of
R/I(G) over a field of the given characteristic is the sum, over all vertex
subsets W of size j, of dim H~_{j-i-1} of the independence complex of G
restricted to W.  This module computes that sum from the slices themselves.
Both sums use the graph's verified automorphisms (see `symmetry`): an
automorphism maps a slice onto an isomorphic one, with equal homology.  The
full table takes one W per orbit of `symmetry.subset_orbits`, weights it by
the orbit's size, and gets each slice's homology from the critical cells of
a matching tree and their Morse complex (`morse`), without listing faces.
The linear strand walks, for each vertex orbit, the (i+1)-subsets that hold
the orbit's smallest vertex r and no vertex of an earlier orbit, and weights
each by the orbit's size over the number of the orbit's vertices it holds.
From i = 3 on it applies the same rule once more under the stabiliser of
r: of the rest of W it walks, for each orbit of the stabiliser, only the
sets that hold that orbit's smallest vertex and miss the orbits before it.
It needs only H~_0, and counts the complement components by adding W's
vertices one at a time to the components of the smaller subsets it has
already walked, and the last vertex by popcounts.  It shares no code path
with the closed-form side, which is the point.

`enumerate_faces` and `reduced_homology_dims` are the plain route: every
face of a slice, and exact ranks of its boundary matrices.  The tables do
not use it; it is the reference the Morse route is tested against, and the
benchmark checks slices with it.  Both routes rank their matrices with the
one routine `_rank`, over GF(p) or Q, and sign their incidences with
`morse._facets`.

Conventions: the empty face is a face of every nonvoid complex; the complex
{ {} } has dim H~_{-1} = 1 and the void complex contributes nothing anywhere.
reduced_homology_dims returns a tuple h with h[c] = dim H~_{c-1}, i.e. the
entry at index 0 is the (-1)-dimensional homology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd, lcm

from . import morse
from .combinatorics import bit_indices
from .config import DEFAULT_GUARDS, Guards
from .graphs import Graph
from .symmetry import orbit_roots, root_stabiliser_orbits, subset_orbits


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_char(field_char: int) -> None:
    if field_char != 0 and not _is_prime(field_char):
        raise ValueError(f"field characteristic must be 0 or a prime, got {field_char}")


# ---------------------------------------------------------------------------
# linear strand fast path: only H~_0, i.e. counting components
# ---------------------------------------------------------------------------


def _add_vertex(reaches: list[int], v: int, row: int) -> list[int]:
    """The complement components after v joins W, given those of W as their
    reaches (the OR of the complement rows of each component's vertices) and
    v's complement row: every component whose reach holds v merges with v
    into one; if none holds v, v starts a new component."""
    bit = 1 << v
    kept = []
    for q in reaches:
        if q & bit:
            row |= q
        else:
            kept.append(q)
    kept.append(row)
    return kept


def reduced_h0(g: Graph, w: int) -> int:
    """dim H~_0 of the independence complex slice on w: one less than the
    number of connected components of the complement of the induced
    subgraph on w, found by adding w's vertices one at a time."""
    if w == 0:
        raise ValueError("reduced_h0: w must be nonempty")
    full = g.full_mask
    if w & ~full:
        raise ValueError("reduced_h0: w mentions vertices outside the graph")
    reaches: list[int] = []
    for v in bit_indices(w):
        reaches = _add_vertex(reaches, v, full & ~g.adj[v] & ~(1 << v))
    return len(reaches) - 1


def linear_strand_oracle(g: Graph, i: int, threads: int = 1,
                         guards: Guards = DEFAULT_GUARDS) -> int:
    """beta_{i, i+1}(R/I(G)): the sum of dim H~_0 over all (i+1)-subsets W
    of the vertices, taken over the vertex orbits O_1, O_2, ... of the
    verified automorphisms of g, in order of smallest vertex, and then over
    the orbits of each orbit's root stabiliser.

    Each W is counted from the first orbit O_t it meets, split evenly over
    the |W & O_t| vertices it holds there.  An automorphism preserves every
    orbit, |W & O_t| and dim H~_0, so the share of every v in O_t is that
    of the smallest vertex r: |O_t| times the sum, over the W that hold r
    and no vertex of an earlier orbit, of dim H~_0 / |W & O_t|.  So W is
    r and an i-set U of the allowed ids, those outside the earlier orbits
    other than r; every vertex below r lies in an earlier orbit.  The
    roots (r, O_t, earlier) are those of `symmetry.orbit_roots`.

    The same lemma applies again to U.  The stabiliser of r fixes r and
    preserves O_t and the allowed ids, so the summand
    dim H~_0 / |W & O_t| is invariant under it.  Take its orbits P_1,
    P_2, ... on the allowed ids, in order of smallest vertex s_j, from
    `symmetry.root_stabiliser_orbits`: each U is counted from the first
    P_j it meets, and the sum over U is sum_j |P_j| times the sum, over
    the U that hold s_j and miss P_1 ... P_{j-1}, of the summand over
    |U & P_j|.  The other ids of such a U lie above s_j, in P_j or a later
    part, so the walk starts at the prefixes {r, s_j}.  The whole sum is
    exact in units of 1/(lcm(1..i+1) lcm(1..i)), and RuntimeError is
    raised if it is not whole.

    The stabiliser orbits are used when i >= 3 and n^2 <= C(n, i+1).  For
    i <= 2 the walk below s_j is at most the popcount tail, so the
    stabiliser can save nothing.  Its orbits come from a walk over the n^2
    ordered vertex pairs, and the second bound keeps that walk within the
    C(n, i+1) subsets the max_subsets guard has let through; n^2 is larger
    only for i + 1 near n, where the sum is small.  Otherwise each allowed
    id is its own part, of weight 1, and the walk is the plain one step for
    step: at i = 1 it is the popcount tail of {r}, and at i = 2 the
    prefixes {r, s} for every allowed s.  H(m, k) has one vertex orbit, and
    on H(6,2) the stabiliser S_2 x S_4 of a vertex cuts the 29 allowed ids
    into 5 parts.  A graph with no verified generator has n singleton
    orbits and singleton parts, which is the plain sum.

    The walk grows each W one vertex at a time, in increasing id order,
    depth first on an explicit stack, and carries the components of the
    complement of G[W] as their reaches: the OR of the complement rows of a
    component's vertices.  Merge lemma: when x joins W, the components
    whose reach holds x and x itself form one component, and every other
    component stays as it is, so c(W + x) = c(W) + 1 - #{C : x in reach(C)}.
    The last vertex is then not walked: over the ids X above the last one
    of an i-vertex prefix W', the sum of c(W' + x) - 1 is
    |X| c(W') - sum_C |reach(C) & X|, a few popcounts on a precomputed
    mask of X, taken once for each of the classes of X by membership of
    O_t and of P_j.

    The max_subsets guard counts the C(n, i+1) subsets the sum stands for,
    not the subsets it walks.  threads is accepted and ignored: the sum is
    pure Python held by the GIL, and it ran slower with a thread pool than
    without one."""
    if i < 1:
        raise ValueError(f"linear_strand_oracle: i must be >= 1, got {i}")
    n = g.n
    total_subsets = comb(n, i + 1)
    if total_subsets == 0:
        return 0
    guards.check("max_subsets", total_subsets,
                 f"linear strand i={i} on a {n}-vertex graph")
    full = g.full_mask
    # Complement rows: v's row holds every other vertex not adjacent to v.
    adjc = [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    if i >= 3 and n * n <= total_subsets:
        roots = root_stabiliser_orbits(g.adj)
    else:
        singletons = [1 << v for v in range(n)]
        roots = [(r, o, earlier, singletons) for r, o, earlier in orbit_roots(g.adj)]
    # sums[c][d] adds |O_t| |P| dim H~_0 over the walked W with
    # |W & O_t| = c and |U & P| = d
    sums = [[0] * (i + 1) for _ in range(i + 2)]
    for r, in_orbit, earlier, parts in roots:
        # the ids U may hold: every vertex below r lies in an earlier orbit
        allowed = full & ~earlier & ~(1 << r)
        size = in_orbit.bit_count()
        if i == 1:
            # U = {x} for x in the tail of {r}, and {x} is its own part: with
            # allowed as the seed's part, the tail counts d = 1 and |P| = 1
            seeds = [([adjc[r]], 1, 0, 1, allowed, allowed, size)] if allowed else []
        else:
            # (reaches, |W' & O_t|, |U' & P|, |W'|, ids after s, P,
            # |O_t| |P|) for each prefix W' = {r, s} of a part P with room
            # for U
            seeds = []
            later = allowed  # the ids of the parts from P on
            for part in parts:
                if part & later:
                    s = (part & -part).bit_length() - 1
                    pool = later ^ 1 << s
                    later ^= part
                    if pool.bit_count() >= i - 1:
                        seeds.append((_add_vertex([adjc[r]], s, adjc[s]), 1 + (in_orbit >> s & 1),
                                      1, 2, pool, part, size * part.bit_count()))
        for reaches, c, d, depth, pool, part, weight in seeds:
            if depth < i:
                ids = bit_indices(pool)
                tails = [pool >> x << x for x in ids]  # tails[p]: ids[p:]
            else:
                ids, tails = (), [pool]  # the seed is its own tail
            span = len(ids)
            # the tail's ids by whether they add to |W & O_t| and |U & P|
            classes = [(xs, dc, dd) for xs, dc, dd in (
                (pool & in_orbit & part, 1, 1), (pool & in_orbit & ~part, 1, 0),
                (pool & ~in_orbit & part, 0, 1), (pool & ~in_orbit & ~part, 0, 0)) if xs]
            # (reaches, |W' & O_t|, |U' & P|, first position in ids that may
            # follow, |W'|) for each prefix W' still to grow
            stack = [(reaches, c, d, 0, depth)]
            while stack:
                reaches, c, d, start, depth = stack.pop()
                if depth < i:
                    # the prefix leaves room for the i - depth vertices after it
                    for p in range(span - i + depth - 1, start - 1, -1):
                        x = ids[p]
                        stack.append((_add_vertex(reaches, x, adjc[x]), c + (in_orbit >> x & 1),
                                      d + (part >> x & 1), p + 1, depth + 1))
                    continue
                comps = len(reaches)
                above = tails[start]
                for xs, dc, dd in classes:
                    xs &= above
                    if xs:
                        sums[c + dc][d + dd] += weight * (xs.bit_count() * comps - sum(
                            (q & xs).bit_count() for q in reaches))
    # Each summand is |O_t| |P| dim H~_0 / (c d), an exact integer in units
    # of 1/scale.
    scale = lcm(*range(1, i + 2)) * lcm(*range(1, i + 1))
    total = sum(sums[c][d] * (scale // (c * d)) for c in range(1, i + 2) for d in range(1, i + 1))
    value, remainder = divmod(total, scale)
    if remainder:
        raise RuntimeError(f"linear_strand_oracle: the orbit-weighted sum on a "
                           f"{n}-vertex graph at i={i} is not an integer")
    return value


# ---------------------------------------------------------------------------
# full simplicial homology of slices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexSlice:
    """Faces of an independence complex, stratified by cardinality:
    strata[c] lists the c-element faces as sorted vertex masks.  strata[0] is
    the empty face; a void complex has no strata."""

    strata: tuple[tuple[int, ...], ...]

    def face_count(self) -> int:
        return sum(len(s) for s in self.strata)


def enumerate_faces(g: Graph, w: int, guards: Guards = DEFAULT_GUARDS) -> ComplexSlice:
    """All independent sets of the induced subgraph on w, as masks over the
    host's vertex ids.  Guarded by total face count."""
    if w & ~g.full_mask:
        raise ValueError("enumerate_faces: w mentions vertices outside the graph")
    adj = g.adj
    budget = morse.Budget(guards, f"enumerate_faces on {w.bit_count()} vertices")
    budget.spend()  # the empty face
    strata: list[list[int]] = [[0]]

    def rec(cand: int, cur: int, size: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            f = cur | low
            budget.spend()
            if len(strata) <= size + 1:
                strata.append([])
            strata[size + 1].append(f)
            rec(cand & ~adj[low.bit_length() - 1], f, size + 1)

    rec(w, 0, 0)
    return ComplexSlice(tuple(tuple(sorted(s)) for s in strata))


def _boundary_columns(lower: tuple[int, ...], upper: tuple[int, ...]):
    """Sparse columns of the boundary map from the upper stratum to the
    lower one, with the incidence signs of `morse._facets`."""
    index = {mask: r for r, mask in enumerate(lower)}
    return [{index[facet]: s for s, facet in morse._facets(f)} for f in upper]


def _rank(cols, p: int) -> int:
    """The rank over GF(p), or over Q when p = 0, of the matrix with these
    sparse integer columns, by fraction-free column reduction.

    Entries are kept mod p when p > 0.  A column whose lowest entry a
    meets a stored pivot with lowest entry b becomes (b/g) col - (a/g) pivot,
    g = gcd(a, b), which clears that entry; a column that meets no pivot is
    stored, divided by the gcd of its entries.  Neither step changes the
    rank of the columns seen so far, so the number of pivots is the rank:
    over Q, b/g and the gcd are nonzero; over GF(p), every kept entry lies
    in 1..p-1, so the gcds and b/g do too, and all are units mod p.  A
    pivot is stored as its lowest entry and a dict of the others, and a
    step pops the column's lowest entry, which it clears."""
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for col in cols:
        if p:
            cur = {r: v % p for r, v in col.items() if v % p}
        else:
            cur = {r: v for r, v in col.items() if v}
        while cur:
            low = max(cur)
            a = cur.pop(low)
            if low not in pivots:
                g = gcd(a, *cur.values())
                pivots[low] = a // g, {r: v // g for r, v in cur.items()}
                break
            b, rest = pivots[low]
            g = gcd(a, b)
            scale, factor = b // g, a // g
            if scale != 1:
                cur = {r: scale * v % p if p else scale * v for r, v in cur.items()}
            for r, v in rest.items():
                x = cur.get(r, 0) - factor * v
                if p:
                    x %= p
                if x:
                    cur[r] = x
                else:
                    del cur[r]  # x = 0 only where cur held the entry
    return len(pivots)


def reduced_homology_dims(sl: ComplexSlice, field_char: int = 2,
                          guards: Guards = DEFAULT_GUARDS) -> tuple[int, ...]:
    """Reduced homology dimensions of the slice over the given field.
    Returns h with h[c] = dim H~_{c-1}; empty tuple for the void complex."""
    _check_char(field_char)
    strata = sl.strata
    if not strata or not strata[0]:
        return ()
    depth = len(strata)
    ranks = [0] * (depth + 1)
    for c in range(1, depth):
        cells = len(strata[c]) * len(strata[c - 1])
        guards.check("max_matrix_cells", cells,
                     f"boundary matrix between strata {c} and {c - 1}")
        cols = _boundary_columns(strata[c - 1], strata[c])
        ranks[c] = _rank(cols, field_char)
    return tuple(len(strata[c]) - ranks[c] - ranks[c + 1] for c in range(depth))


# ---------------------------------------------------------------------------
# full Betti tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{i,j} of R/I(G); absent entries are zero."""

    n: int
    field_char: int
    entries: dict = field(compare=True)

    def __post_init__(self):
        for (i, j), v in self.entries.items():
            if i < 0 or j < i:
                raise ValueError(f"BettiTable: entry ({i},{j}) out of the valid range")
            if v <= 0:
                raise ValueError(f"BettiTable: entry ({i},{j}) must be positive, got {v}")


def full_betti_oracle(g: Graph, field_char: int = 2,
                      guards: Guards = DEFAULT_GUARDS) -> BettiTable:
    """The whole Betti table by Hochster's formula, summed over the orbits
    of verified automorphisms of g on its vertex subsets.

    An automorphism s maps G[W] isomorphically onto G[s(W)], so the two
    slices have the same reduced homology and the same size; one W of each
    orbit of `symmetry.subset_orbits` stands for all of it, weighted by the
    orbit's size.  With no verified generator, every W is its own orbit.

    Each representative's reduced homology comes from `morse.homology`,
    which lists no face and builds no boundary matrix.  It takes the
    critical cells of the matching tree of Bousquet-Melou, Linusson and
    Nevo on Ind(G[W]), an acyclic matching by their theorem.  By Forman's
    discrete Morse theory, the Morse complex on those cells has the
    reduced homology of Ind(G[W]).  Where no two critical cells differ by
    one in size its maps are zero, and dim H~_{c-1} is the number of
    critical c-cells over every field; elsewhere the Morse matrices are
    ranked over the field.  The references are in `morse`.  The walk
    leaves out the cones, the W where G[W] has an isolated vertex: they add
    nothing.

    Guards: 2^n against max_subsets; the tree nodes and flow cells of all
    slices built together against max_faces, as they are built; each Morse
    matrix, critical rows times critical columns, against
    max_matrix_cells.  The W = V slice is computed first, before the orbit
    walk, so a table whose full complex is out of reach is refused fast."""
    _check_char(field_char)
    n = g.n
    guards.check("max_subsets", 1 << n, f"full Betti table on {n} vertices")
    budget = morse.Budget(guards, f"matching trees and flow cells of a full "
                                  f"Betti table on {n} vertices")
    adj, full = g.adj, g.full_mask

    def homology(w: int) -> dict[int, int]:
        return morse.homology(adj, w, lambda cols: _rank(cols, field_char), budget)

    top = homology(full)
    entries: dict = {}
    for w, size in subset_orbits(adj):
        h = top if w == full else homology(w)
        j = w.bit_count()
        for c, hd in h.items():
            key = (j - c, j)
            entries[key] = entries.get(key, 0) + hd * size
    return BettiTable(n=n, field_char=field_char, entries=entries)


def pd_of(t: BettiTable) -> int:
    """Projective dimension: the largest homological degree with a nonzero entry."""
    return max((i for i, _ in t.entries), default=0)


def reg_of(t: BettiTable) -> int:
    """Castelnuovo-Mumford regularity: the largest j - i over nonzero entries."""
    return max((j - i for i, j in t.entries), default=0)

