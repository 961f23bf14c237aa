"""Computations made apart from kneserhom, used to check its answers.

Nothing here imports kneserhom.  The graph H(m, k) is rebuilt from its
definition, following the vertex layout the package documents: left ids
0 .. C(m,k)-1 are the k-subsets of [m] in colex order, right ids
C(m,k) .. 2C(m,k)-1 the (m-k)-subsets in colex order, and a subset is a
bitmask with bit e-1 for element e.  Colex order of masks of one size is
their numeric order.

networkx is imported where it is used, so that it is loaded only after the
timed rounds and stays out of the measured peak memory.
"""

from __future__ import annotations

import itertools
from math import comb


def mask_of(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def parse_subset(text: str) -> int:
    """'{1,3}' -> mask; '{}' -> 0."""
    body = text.strip()[1:-1]
    return mask_of(int(tok) for tok in body.split(",")) if body else 0


class RefKneser:
    """H(m, k) from its definition: vertex ids, subsets and a networkx graph."""

    def __init__(self, m: int, k: int):
        import networkx as nx

        self.m, self.k = m, k
        ground = range(1, m + 1)
        left = sorted(mask_of(c) for c in itertools.combinations(ground, k))
        right = sorted(mask_of(c) for c in itertools.combinations(ground, m - k))
        self.n_left = len(left)
        self.masks = left + right
        self.id_of = {("L", a): i for i, a in enumerate(left)}
        self.id_of.update({("R", b): self.n_left + i for i, b in enumerate(right)})
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(2 * self.n_left))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                if a & ~b == 0:
                    self.graph.add_edge(i, self.n_left + j)
        self.adj = [0] * (2 * self.n_left)
        for u, v in self.graph.edges():
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u

    def vertex(self, side: str, subset: str) -> int:
        return self.id_of[(side, parse_subset(subset))]

    def vertices_of(self, mask: int) -> list[int]:
        return [v for v in range(2 * self.n_left) if mask >> v & 1]


def edge_count(m: int, k: int) -> int:
    return comb(m, k) * comb(m - k, k)


def strand_head(m: int, k: int) -> tuple[int, int, int]:
    """beta_{1,2}, beta_{2,3}, beta_{3,4} of R/I(H(m,k)) from first principles.

    For a graph without triangles, beta_{i,i+1} counts the i+1 vertex sets
    that induce a complete bipartite graph with both parts nonempty.  With
    n = C(m,k) vertices per side and regular degree d = C(m-k,k): edges,
    paths of length two (stars K_{1,2} at either side), and stars K_{1,3}
    plus 4-cycles.  Two left k-sets meeting in t elements span u = 2k - t
    elements and have C(m-u, k) common right neighbours.
    """
    n, d = comb(m, k), comb(m - k, k)
    cycles = 0
    for t in range(k):
        pairs = n * comb(k, t) * comb(m - k, k - t) // 2
        cycles += pairs * comb(comb(m - (2 * k - t), k), 2)
    return n * d, 2 * n * comb(d, 2), 2 * n * comb(d, 3) + cycles


def independence_polynomial(adj: list[int]) -> list[int]:
    """Coefficient f of t^f counts independent sets of size f, by visiting
    every vertex subset once."""
    n = len(adj)
    indep = bytearray(1 << n)
    indep[0] = 1
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        if indep[rest] and adj[low.bit_length() - 1] & rest == 0:
            indep[s] = 1
            coeffs[s.bit_count()] += 1
    return coeffs


def hilbert_numerator_from_faces(coeffs: list[int]) -> list[int]:
    """sum_f c_f t^f (1 - t)^(n - f), as coefficients in t."""
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for f, c in enumerate(coeffs):
        if not c:
            continue
        for e in range(n - f + 1):
            out[f + e] += c * comb(n - f, e) * (-1) ** e
    return out


def hilbert_numerator_from_betti(entries: dict, n: int) -> list[int]:
    """sum_{i,j} (-1)^i beta_{i,j} t^j."""
    out = [0] * (n + 1)
    for (i, j), v in entries.items():
        out[j] += (-1) ** i * v
    return out


def component_count_of_complement(ref: RefKneser, vertices) -> int:
    import networkx as nx

    sub = ref.graph.subgraph(vertices)
    return nx.number_connected_components(nx.complement(sub))


def is_induced_matching(ref: RefKneser, edges) -> bool:
    ends = [v for e in edges for v in e]
    if len(set(ends)) != len(ends):
        return False
    if not all(ref.graph.has_edge(u, v) for u, v in edges):
        return False
    return ref.graph.subgraph(ends).number_of_edges() == len(edges)


def max_induced_matching(ref: RefKneser) -> int:
    """Largest set of edges pairwise at distance >= 2: a maximum clique of the
    complement of the edge conflict graph."""
    import networkx as nx

    edges = list(ref.graph.edges())
    compat = nx.Graph()
    compat.add_nodes_from(range(len(edges)))
    for a, b in itertools.combinations(range(len(edges)), 2):
        if is_induced_matching(ref, (edges[a], edges[b])):
            compat.add_edge(a, b)
    _, weight = nx.max_weight_clique(compat, weight=None)
    return weight


def is_independent_dominating(ref: RefKneser, vertices) -> bool:
    import networkx as nx

    vs = set(vertices)
    g = ref.graph
    return (all(not g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))
            and nx.is_dominating_set(g, vs))


def maximal_independent_sets(ref: RefKneser):
    import networkx as nx

    return nx.find_cliques(nx.complement(ref.graph))


def min_cover(adj: list[int], demand: int) -> int:
    """Least number of vertices whose open neighbourhoods cover demand, by
    depth-first search with the bound 'uncovered / largest cover'."""
    if demand == 0:
        return 0
    cover = {v: adj[v] & demand for v in range(len(adj)) if adj[v] & demand}
    biggest = max(c.bit_count() for c in cover.values())
    by_target = {}
    for v, c in cover.items():
        rest = c
        while rest:
            low = rest & -rest
            by_target.setdefault(low, []).append(c)
            rest ^= low

    def fits(uncovered: int, budget: int) -> bool:
        if uncovered == 0:
            return True
        if budget * biggest < uncovered.bit_count():
            return False
        low = uncovered & -uncovered
        return any(fits(uncovered & ~c, budget - 1) for c in by_target[low])

    size = -(-demand.bit_count() // biggest)
    while not fits(demand, size):
        size += 1
    return size


def tau(ref: RefKneser) -> int:
    """max over maximal independent sets C of min_cover(C); the graph has no
    isolated vertex, so no vertex needs removing."""
    best = 0
    for clique in maximal_independent_sets(ref):
        c = 0
        for v in clique:
            c |= 1 << v
        best = max(best, min_cover(ref.adj, c))
    return best


def is_cochordal_cover(ref: RefKneser, members) -> bool:
    """Members (lists of id pairs) cover every edge and each member's graph
    has a chordal complement."""
    import networkx as nx

    covered = set()
    for member in members:
        if not member:
            continue
        sub = nx.Graph(list(member))
        if not nx.is_chordal(nx.complement(sub)):
            return False
        covered.update(tuple(sorted(e)) for e in member)
    return covered == {tuple(sorted(e)) for e in ref.graph.edges()}


def _rank(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p), or over Q when p == 0, by Gaussian elimination."""
    from fractions import Fraction

    m = [[Fraction(x) if p == 0 else x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col] if p == 0 else pow(m[rank][col], p - 2, p)
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                if p:
                    m[i] = [a % p for a in m[i]]
        rank += 1
    return rank


def reduced_homology(adj: list[int], w: int, p: int) -> tuple[int, ...]:
    """(dim H~_{-1}, dim H~_0, ...) of the independence complex of the graph
    induced on w, over GF(p) or Q: faces listed one size at a time, dense
    boundary matrices with signs (-1)^position."""
    verts = [v for v in range(len(adj)) if w >> v & 1]
    faces = [[()]]
    while True:
        layer = [f + (v,) for f in faces[-1] for v in verts
                 if (not f or v > f[-1]) and not any(adj[v] >> u & 1 for u in f)]
        if not layer:
            break
        faces.append(layer)
    ranks = [0] * (len(faces) + 1)
    for c in range(1, len(faces)):
        index = {f: r for r, f in enumerate(faces[c - 1])}
        matrix = [[0] * len(faces[c]) for _ in faces[c - 1]]
        for col, f in enumerate(faces[c]):
            for pos in range(len(f)):
                matrix[index[f[:pos] + f[pos + 1:]]][col] = (-1) ** pos
        ranks[c] = _rank(matrix, p)
    return tuple(len(faces[c]) - ranks[c] - ranks[c + 1] for c in range(len(faces)))
