"""Reduced homology of an independence complex slice by discrete Morse theory.

For a graph G and a vertex mask w, `homology` finds dim H~ of Ind(G[w])
without listing its faces:

- Matching tree (Bousquet-Melou, Linusson and Nevo, "On the independence
  complex of square grids", J. Algebraic Combin. 27, 2008).  A node
  Sigma(A, B) is the set of independent sets of G[w] that hold A and miss
  B, where B holds the neighbours of A; its free vertices are those of w in
  neither, and a free vertex's live neighbours are its free neighbours.
  Starting from Sigma({}, {}), a free vertex with no live neighbour matches
  the whole node (each face with its symmetric difference with that
  vertex); a free vertex v with one live neighbour p matches
  Sigma(A, B + p), and the tree goes on at Sigma(A + p, B | N(p));
  otherwise the node splits on a pivot p of largest live degree into
  Sigma(A, B + p) and Sigma(A + p, B | N(p)).  A node with no free vertex
  is the single cell A, left critical.  The union of these matchings is an
  acyclic matching on the face poset, the empty face included (their
  theorem; see also the cluster lemma, Jonsson, Simplicial Complexes of
  Graphs, LNM 1928, 2008).
- Morse complex (Forman, "Morse theory for cell complexes", Adv. Math. 134,
  1998; over any coefficient ring, Skoldberg, Trans. AMS 358, 2006).  The
  augmented chain complex of Ind(G[w]) is homotopy equivalent to a complex
  with one generator per critical cell, whose differential sums the
  weights of gradient paths.  So dim H~_{c-1} is the number of critical
  c-cells less the ranks of the two Morse maps at size c.
- When no two critical cells differ by one in size, every Morse map is zero
  for degree reasons, and dim H~_{c-1} is the number of critical c-cells,
  over every field.  Only otherwise are Morse matrices built and ranked.

Cells are vertex masks, and a c-cell has c vertices, so the empty face is
the 0-cell and stands for H~_{-1}.  The tree nodes and flow cells built are
counted against the max_faces guard by a `Budget`, which one caller may
share over many slices; each Morse matrix is checked against the same
guards' max_matrix_cells before it is built.
"""

from __future__ import annotations

from .config import Guards


class Budget:
    """The max_faces guard over everything counted against it: the
    matching-tree nodes and flow cells of every slice that shares it, as
    they are built, or the faces of one complex in
    `hochster.enumerate_faces`."""

    __slots__ = ("guards", "context", "limit", "used")

    def __init__(self, guards: Guards, context: str):
        self.guards, self.context = guards, context
        self.limit, self.used = guards.max_faces, 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            self.guards.check("max_faces", self.used, self.context)


def _tree_step(adj, w: int, a: int, b: int):
    """The rule at the node Sigma(a, b): None when no vertex is free (a is
    critical); (v, -1) when v matches the node; (v, p) when v matches
    Sigma(a, b + p) and the tree goes on at Sigma(a + p, b | N(p)); and
    (-1, p) when the node splits on the pivot p."""
    free = w & ~a & ~b
    if not free:
        return None
    forced = None
    top, pivot = 0, -1
    rest = free
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        live = adj[v] & free
        if not live:
            return v, -1
        if forced is None:
            if live & (live - 1) == 0:
                forced = v, live.bit_length() - 1
            elif live.bit_count() > top:
                top, pivot = live.bit_count(), v
    return forced or (-1, pivot)


def _critical_cells(adj, w: int, budget: Budget) -> list[int]:
    """The cells of Ind(G[w]) that the matching tree leaves unmatched."""
    cells = []
    stack = [(0, 0)]
    while stack:
        a, b = stack.pop()
        budget.spend()
        step = _tree_step(adj, w, a, b)
        if step is None:
            cells.append(a)
            continue
        v, p = step
        if p >= 0:
            stack.append((a | 1 << p, b | adj[p]))
            if v < 0:
                stack.append((a, b | 1 << p))
    return cells


def _facets(face: int):
    """(incidence, facet) pairs of face; the sign alternates along its
    sorted vertices.  The boundary maps of `hochster` take their signs
    from here too."""
    sign = 1
    rest = face
    while rest:
        low = rest & -rest
        rest ^= low
        yield sign, face ^ low
        sign = -sign


def _partner(adj, w: int, face: int, steps: dict):
    """The cell the matching pairs with face, or None when face is
    critical: face's branch is followed down from the root.  steps
    memoizes the rule at each node reached."""
    a = b = 0
    while True:
        key = a, b
        if key not in steps:
            steps[key] = _tree_step(adj, w, a, b)
        step = steps[key]
        if step is None:
            return None
        v, p = step
        if p < 0 or (v >= 0 and not face >> p & 1):
            return face ^ 1 << v
        if face >> p & 1:
            a, b = a | 1 << p, b | adj[p]
        else:
            b |= 1 << p


def _morse_columns(adj, w: int, upper: list[int], lower: list[int],
                   budget: Budget, steps: dict) -> list[dict[int, int]]:
    """The Morse map from the critical cells upper to the critical cells
    lower, one sparse integer column per upper cell.  The flow of a face f
    of the lower size is a chain of lower cells: f itself if f is critical;
    zero if f is matched with one of its facets; and if f is matched with
    the coface r, minus [r:f] times the sum of [r:g] flow(g) over the other
    facets g of r ([r:f] is +-1, its own inverse).  Each flow is computed
    once, after the flows it needs, on an explicit stack; the matching is
    acyclic, so the walk ends."""
    index = {cell: row for row, cell in enumerate(lower)}
    flow: dict[int, dict[int, int]] = {}
    todo: list[int] = []

    def flow_of(face: int) -> dict[int, int]:
        todo.append(face)
        while todo:
            f = todo[-1]
            if f in flow:
                todo.pop()
                continue
            r = _partner(adj, w, f, steps)
            if r is None:
                value = {index[f]: 1}
            elif r < f:
                value = {}  # f is matched with a facet
            else:
                missing = [g for _, g in _facets(r) if g != f and g not in flow]
                if missing:
                    todo.extend(missing)
                    continue
                value = {}
                eps = 0
                for s, g in _facets(r):
                    if g == f:
                        eps = s
                        continue
                    for row, x in flow[g].items():
                        value[row] = value.get(row, 0) + s * x
                value = {row: -eps * x for row, x in value.items() if x}
            flow[f] = value
            budget.spend()
            todo.pop()
        return flow[face]

    cols = []
    for cell in upper:
        col: dict[int, int] = {}
        for s, f in _facets(cell):
            for row, x in flow_of(f).items():
                col[row] = col.get(row, 0) + s * x
        cols.append({row: x for row, x in col.items() if x})
    return cols


def homology(adj, w: int, rank, budget: Budget) -> dict[int, int]:
    """The nonzero dim H~_{c-1} of Ind(G[w]), keyed by c, for the graph
    with adjacency rows adj.  rank(cols) is the rank over the field of a
    matrix given as sparse integer columns."""
    by_size: dict[int, list[int]] = {}
    for cell in _critical_cells(adj, w, budget):
        by_size.setdefault(cell.bit_count(), []).append(cell)
    dims = {c: len(cells) for c, cells in by_size.items()}
    steps: dict = {}
    for c, upper in by_size.items():
        lower = by_size.get(c - 1)
        if lower is None:
            continue  # no critical cell one size below: the Morse map is zero
        budget.guards.check("max_matrix_cells", len(upper) * len(lower),
                            f"Morse matrix between critical cells of sizes {c} and {c - 1}")
        r = rank(_morse_columns(adj, w, upper, lower, budget, steps))
        dims[c] -= r
        dims[c - 1] -= r
    return {c: d for c, d in dims.items() if d}
