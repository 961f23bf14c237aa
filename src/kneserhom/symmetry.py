"""Verified automorphisms of H(m, k) and the orbits they cut the vertices
and the vertex subsets into.

H(m, k) is vertex-transitive under S_m x Z_2: a permutation of [m] maps
k-subsets to k-subsets and preserves containment, and the side swap
A -> [m] \\ A exchanges the two sides and reverses containment, which keeps
the edge relation.  A transposition and an m-cycle generate S_m.

Nothing here is assumed about the graph it is handed.  Candidates are
proposed for every (m, k) whose vertex count 2 C(m, k) matches, in the colex
layout of `kneser.build`, and a candidate is kept only if it maps the
adjacency onto itself.  A graph that is no H(m, k) in that layout keeps no
generator, and then every vertex, and every vertex subset, is its own
orbit.  H(m, k) itself has one vertex orbit.

One closure walk finds the orbits on vertices, on ordered vertex pairs and
on vertex subsets.  The linear strand oracle and the i and tau searches
start at the roots of `orbit_roots`; the strand oracle also reads, from
`root_stabiliser_orbits`, the orbits of each root's stabiliser, which the
pair orbits give; the full Betti table sums over `orbits`.

Permutations are tuples p of vertex ids, p[v] the image of v.
"""

from __future__ import annotations

import sys
from array import array

from .combinatorics import binom, bit_indices, kneser_sides


def _kneser_parameters(n: int):
    """Every (m, k) with 1 <= k, 2k <= m and 2 C(m, k) = n."""
    if n % 2:
        return
    half = n // 2
    k = 1
    while binom(2 * k, k) <= half:
        m = 2 * k
        while binom(m, k) < half:
            m += 1
        if binom(m, k) == half:
            yield m, k
        k += 1


def candidate_generators(n: int) -> list[tuple[int, ...]]:
    """For each H(m, k) on n vertices: the transposition (1 2), the cycle
    (1 2 ... m) and the side swap, as permutations of colex vertex ids.
    Each lifts a map of subset masks, sending every vertex to the same
    side, or, for the swap, to the other one."""
    out = []
    for m, k in _kneser_parameters(n):
        full = (1 << m) - 1
        sides = kneser_sides(m, k)
        # A mask's index among the masks of its size is its index on its side.
        rank = {a: i for side in sides for i, a in enumerate(side)}
        half = len(sides[0])
        for ground, swap_sides in ((lambda a: a ^ 0b11 if (a ^ a >> 1) & 1 else a, False),
                                   (lambda a: (a << 1 | a >> (m - 1)) & full, False),
                                   (lambda a: full ^ a, True)):
            # a list first, as in `kneser_sides`, so the tuple is not resized
            out.append(tuple([rank[ground(a)] + (half if right != swap_sides else 0)
                              for right, side in enumerate(sides) for a in side]))
    return out


def _mask_images(perm, n: int) -> array:
    """images[w] is the image under perm of the mask w, for every w < 2^n,
    built by doubling: the masks below 2^(b+1) are those below 2^b, then
    the same with bit b set, whose image gains bit perm[b].  The new half is
    the old one read as one integer, OR-ed with bit perm[b] repeated in
    every slot; no slot carries, so that is exact.  It goes 2^14 slots at a
    time, to keep the integers small.  Unsigned ints, not Python ints, keep
    the array at 4 bytes a mask; a mask past 32 bits, which would need 2^33
    marks in `orbits`, overflows loudly."""
    images = array("I", [0])
    for b in range(n):
        size = len(images)
        chunk = min(size, 1 << 14)
        bit = int.from_bytes(array("I", [1 << perm[b]]) * chunk, sys.byteorder)
        for start in range(0, size, chunk):
            old = int.from_bytes(images[start:start + chunk], sys.byteorder)
            images.frombytes((old | bit).to_bytes(chunk * images.itemsize, sys.byteorder))
    return images


def automorphisms(adj) -> list[tuple[int, ...]]:
    """The candidate generators p that are permutations of the vertices
    with adj[p[v]] == p(adj[v]) for every v, each once: the candidates of
    two (m, k) with the same vertex count, or of one small (m, k), may
    coincide, and `orbits` holds an image array per generator.

    A candidate is checked on the entries (v, u) of adj, both triangles,
    so that no symmetry of adj is assumed: p is kept iff it permutes
    0..n-1 and maps every entry to an entry.  That is enough.  A
    permutation is injective on pairs, so it maps the finite entry set into
    itself injectively, hence onto itself; and that is adj[p[v]] ==
    p(adj[v]) for every v."""
    n = len(adj)
    entries = [(v, u) for v, row in enumerate(adj) for u in bit_indices(row)]
    identity = list(range(n))
    return list(dict.fromkeys(
        perm for perm in candidate_generators(n)
        if sorted(perm) == identity
        and all(adj[perm[v]] >> perm[u] & 1 for v, u in entries)))


def _closure(size: int, maps, seen: bytearray | None = None):
    """Yield each orbit of the group the maps span on the points 0..size-1,
    as a list that starts at its smallest point, in increasing order of that
    point.  Each map is a sequence: maps[j][x] is the image of x.  The
    points already marked in seen, a bytearray of size marks, must be a
    union of orbits; they are left out, and seen is marked as the walk
    goes."""
    if seen is None:
        seen = bytearray(size)
    v = seen.find(0)
    while v >= 0:
        seen[v] = 1
        orbit = [v]
        for x in orbit:
            for t in maps:
                y = t[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        yield orbit
        v = seen.find(0, v + 1)


def orbit_roots(adj) -> list[tuple[int, int, int]]:
    """(r, orbit, earlier) for each vertex orbit O of the verified
    automorphisms of the graph with adjacency rows adj, in order of smallest
    vertex: r is the smallest vertex of O, orbit the mask of O, and earlier
    the mask of the vertices of the orbits before O.

    Every nonempty vertex set S meets some first orbit O, and an
    automorphism maps a vertex of S in O to r.  Since it preserves every
    orbit, it maps S onto a set that holds r and misses earlier, with the
    same size, the same |S & O'| for every orbit O', and an isomorphic
    induced subgraph: the same independence, domination and slice homology.
    So a search for such a set need only start at these roots.  A graph
    with no verified generator has n singleton orbits, and the roots split
    the sets by their smallest vertex."""
    return _roots(len(adj), automorphisms(adj))


def _roots(n: int, generators) -> list[tuple[int, int, int]]:
    """`orbit_roots` for the group the generators span on n vertices."""
    out = []
    earlier = 0
    for orbit in _closure(n, generators):
        mask = sum(1 << v for v in orbit)
        out.append((orbit[0], mask, earlier))
        earlier |= mask
    return out


def root_stabiliser_orbits(adj) -> list[tuple[int, int, int, list[int]]]:
    """(r, orbit, earlier, parts) for each root (r, orbit, earlier) of
    `orbit_roots`, where parts lists the orbits of the stabiliser of r, the
    verified automorphisms that fix r, as vertex masks in order of smallest
    vertex.  They partition the vertices; {r} is one of them, and since the
    stabiliser preserves every vertex orbit, each lies in one vertex orbit.

    They are read off the orbits of the generators on the n^2 ordered
    pairs, the point a n + b standing for (a, b): (r, x) and (r, y) lie in
    one pair orbit exactly when some automorphism maps r to r and x to y,
    that is, when x and y lie in one orbit of the stabiliser of r.  So no
    generator of the stabiliser is needed, and the walk costs n^2 steps per
    generator.  A graph with no verified generator gets n singleton parts
    per root."""
    n = len(adj)
    generators = automorphisms(adj)
    pair_maps = [[a + b for a in [p[x] * n for x in range(n)] for b in p] for p in generators]
    label = [0] * (n * n)
    for k, orbit in enumerate(_closure(n * n, pair_maps)):
        for point in orbit:
            label[point] = k
    out = []
    for r, orbit, earlier in _roots(n, generators):
        parts: dict[int, int] = {}
        for x in range(n):
            k = label[r * n + x]
            parts[k] = parts.get(k, 0) | 1 << x
        out.append((r, orbit, earlier, list(parts.values())))
    return out


def orbits(n: int, generators, marks: bytearray | None = None):
    """Yield (smallest mask, orbit size) for every orbit of the group the
    generators span on the 2^n vertex subsets, in increasing order of the
    smallest mask.  Holds a bytearray of 2^n marks and, for each generator,
    an array of the images of all 2^n masks while it runs.  The masks
    already marked in marks, if it is given, must be a union of orbits and
    are left out; marks is then the walk's own bytearray."""
    tables = [_mask_images(perm, n) for perm in generators]
    for orbit in _closure(1 << n, tables, marks):
        yield orbit[0], len(orbit)
