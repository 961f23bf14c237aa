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
on subsets of the right ids.  The linear strand oracle and the i and tau
searches start at the roots of `orbit_roots`; the strand oracle also reads,
from `root_stabiliser_orbits`, the orbits of each root's stabiliser, which
the pair orbits give.  The full Betti table sums over `subset_orbits`: the
orbits on the subsets of the left ids, then, for each, the orbits of its
Schreier generators on the subsets of the right ids.

Permutations are tuples p of vertex ids, p[v] the image of v.
"""

from __future__ import annotations

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


def automorphisms(adj) -> list[tuple[int, ...]]:
    """The candidate generators p that are permutations of the vertices
    with adj[p[v]] == p(adj[v]) for every v, each once: the candidates of
    two (m, k) with the same vertex count, or of one small (m, k), may
    coincide, and every walk pays for each generator it is handed.

    The criterion is checked as it reads, row by row, with no symmetry of
    adj assumed.  As p is injective, p(adj[v]) is the sum of 1 << p[u] over
    the set bits u of adj[v], which are listed once for all candidates."""
    n = len(adj)
    rows = [bit_indices(row) for row in adj]
    identity = list(range(n))
    kept = []
    for perm in candidate_generators(n):
        if sorted(perm) == identity:
            image = [1 << x for x in perm].__getitem__
            if all(adj[pv] == sum(map(image, row)) for pv, row in zip(perm, rows)):
                kept.append(perm)
    return list(dict.fromkeys(kept))


def _closure(size: int, maps):
    """Yield each orbit of the group the maps span on the points 0..size-1,
    as a list that starts at its smallest point, in increasing order of that
    point.  Each map is a sequence: maps[j][x] is the image of x."""
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


def _unions(rows) -> list[int]:
    """u[x] is the OR of rows[j] over the set bits j of x, for every
    x < 2^len(rows), built by doubling."""
    u = [0]
    for row in rows:
        u += [x | row for x in u]
    return u


def subset_orbits(adj):
    """Yield (w, weight) for one vertex subset w of each orbit of the
    verified automorphisms that keep the ids below h = n // 2 there, with no
    isolated vertex in G[w], weight the orbit's size; return the number of
    subsets left out as cones.  Weights and cones sum to 2^n.

    W is L + R, L its ids below h.  The orbits on the 2^h masks L are walked
    with u_L mapping the smallest mask L0 of its orbit onto L; (L, R) maps
    by u_L^-1 onto (L0, R'), and the u_{sL}^-1 s u_L for every L and
    generator s span Stab(L0) (Schreier's lemma).  So the sum over L0's
    orbit is its size times the sum over the orbits of Stab(L0) on the R',
    which is exact for any subgroup: a smaller one cuts finer orbits.  An R'
    with no cone holds each right id that is the only neighbour of a vertex
    of L0, and no right id with no neighbour in L0 or on the right; the walk
    is over the subsets of the others, sets that Stab(L0) keeps."""
    n = len(adj)
    h = n // 2
    gens = [p for p in automorphisms(adj) if all(x < h for x in p[:h])]
    moves = [(_unions([1 << x for x in p[:h]]), p) for p in gens]
    right = (1 << n) - (1 << h)
    seen = bytearray(1 << h)
    cones = 0
    for l0 in range(1 << h):
        if seen[l0]:
            continue
        seen[l0] = 1
        forced = sum({adj[v] for v in bit_indices(l0) if adj[v].bit_count() == 1}) & right
        near = 0
        for v in bit_indices(l0 | forced):
            near |= adj[v]
        ids = [v for v in range(h, n) if adj[v] & (l0 | right) and not forced >> v & 1]
        # coset[x]: u(ids) for a u with u(l0) = x, and where in it each id is
        orbit, coset, stab = [l0], {l0: (ids, {v: j for j, v in enumerate(ids)})}, set()
        for x in orbit:
            for images, s in moves:
                y, su = images[x], [s[v] for v in coset[x][0]]
                if y in coset:
                    stab.add(tuple(map(coset[y][1].__getitem__, su)))
                else:
                    seen[y] = 1
                    orbit.append(y)
                    coset[y] = su, dict(zip(su, range(len(su))))
        stab.discard(tuple(range(len(ids))))
        maps = [_unions([1 << j for j in g]) for g in stab]
        spread, cover = _unions([1 << v for v in ids]), _unions([adj[v] for v in ids])
        cones += len(orbit) * ((1 << n - h) - len(spread))
        for part in _closure(len(spread), maps):
            w = l0 | forced | spread[part[0]]
            if w & ~(near | cover[part[0]]):
                cones += len(orbit) * len(part)
            else:
                yield w, len(orbit) * len(part)
    return cones
