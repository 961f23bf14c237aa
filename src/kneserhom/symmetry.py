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


def _lift(m: int, k: int, ground, swap_sides: bool) -> tuple[int, ...]:
    """The vertex permutation of H(m, k) induced by a map of subset masks,
    sending each vertex to the same side, or to the other one."""
    # A mask's index among the masks of its size is its index on its side.
    sides = kneser_sides(m, k)
    rank = {a: i for side in sides for i, a in enumerate(side)}
    half = len(sides[0])
    return tuple(rank[ground(a)] + (half if right != swap_sides else 0)
                 for right, side in enumerate(sides) for a in side)


def candidate_generators(n: int) -> list[tuple[int, ...]]:
    """For each H(m, k) on n vertices: the transposition (1 2), the cycle
    (1 2 ... m) and the side swap, as permutations of colex vertex ids."""
    out = []
    for m, k in _kneser_parameters(n):
        full = (1 << m) - 1
        out.append(_lift(m, k, lambda a: a ^ 0b11 if (a ^ a >> 1) & 1 else a, False))
        out.append(_lift(m, k, lambda a: (a << 1 | a >> (m - 1)) & full, False))
        out.append(_lift(m, k, lambda a: full ^ a, True))
    return out


def _byte_tables(perm) -> list[list[int]]:
    """tables[c][b] is the image under perm of the mask b << 8c."""
    tables = []
    for base in range(0, len(perm), 8):
        part = perm[base:base + 8]
        table = [0] * (1 << len(part))
        for b in range(1, len(table)):
            low = b & -b
            table[b] = table[b ^ low] | 1 << part[low.bit_length() - 1]
        tables.append(table)
    return tables


def _image(tables, mask: int) -> int:
    out = 0
    for table in tables:
        out |= table[mask & 0xFF]
        mask >>= 8
    return out


def automorphisms(adj) -> list[tuple[int, ...]]:
    """The candidate generators p with adj[p[v]] == p(adj[v]) for every v."""
    # Image rows are built from their set bits: on the sparse H(m, k) that
    # costs less than the byte tables `orbits` needs for whole masks.
    return [perm for perm in candidate_generators(len(adj))
            if all(adj[perm[v]] == sum(1 << perm[u] for u in bit_indices(row))
                   for v, row in enumerate(adj))]


def vertex_orbits(n: int, generators) -> list[tuple[int, ...]]:
    """The orbits of the group the generators span on the vertices 0..n-1,
    each as a sorted tuple, in increasing order of smallest vertex."""
    seen = bytearray(n)
    out = []
    for v in range(n):
        if seen[v]:
            continue
        seen[v] = 1
        orbit = [v]
        for x in orbit:
            for perm in generators:
                y = perm[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        out.append(tuple(sorted(orbit)))
    return out


def orbits(n: int, generators):
    """Yield (smallest mask, orbit size) for every orbit of the group the
    generators span on the 2^n vertex subsets, in increasing order of the
    smallest mask.  Holds a bytearray of 2^n marks while it runs."""
    tables = [_byte_tables(perm) for perm in generators]
    seen = bytearray(1 << n)
    for w in range(1 << n):
        if seen[w]:
            continue
        seen[w] = 1
        size = 1
        todo = [w]
        while todo:
            x = todo.pop()
            for t in tables:
                y = _image(t, x)
                if not seen[y]:
                    seen[y] = 1
                    size += 1
                    todo.append(y)
        yield w, size
