"""The matching-tree engine against the plain face-and-rank route.

`morse.homology` must give the reduced homology that
`reduced_homology_dims(enumerate_faces(...))` gives, over every field; its
matching must pair every face but the critical ones exactly once, along
one vertex, and be acyclic.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneserhom import morse
from kneserhom.config import GuardExceeded, Guards
from kneserhom.graphs import Graph
from kneserhom.hochster import _rank, enumerate_faces, reduced_homology_dims
from kneserhom.kneser import build

# Critical cells {1, 6} and {0, 6, 7} in adjacent sizes, joined by a
# gradient path: the counts alone would say H~_0 = H~_1 = 1, but Ind(G)
# is acyclic.
PINNED = Graph.from_edges(8, [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 7),
                              (2, 4), (2, 6), (3, 6), (5, 7)])

# Critical cells {4} and {0, 4}, joined by two gradient paths of opposite
# weights: the Morse map is zero, and H~_0 = H~_1 = 1 over every field.
# A sign dropped anywhere in the flow makes the map 2 and the homology 0
# over Q and GF(3).
CANCELLING = Graph.from_edges(8, [
    (0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 2), (1, 5), (1, 6), (1, 7),
    (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6),
    (4, 7), (5, 7)])


@st.composite
def graph_and_mask(draw, max_n: int = 10):
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.2, 0.4, 0.6]))
    edges = [e for e in itertools.combinations(range(n), 2)
             if draw(st.floats(0, 1)) < density]
    w = draw(st.integers(0, (1 << n) - 1))
    return Graph.from_edges(n, edges), w


def morse_homology(g: Graph, w: int, char: int, guards: Guards = Guards()) -> dict[int, int]:
    budget = morse.Budget(guards, "test")
    return morse.homology(g.adj, w, lambda cols: _rank(cols, char), budget)


def plain_homology(g: Graph, w: int, char: int) -> dict[int, int]:
    h = reduced_homology_dims(enumerate_faces(g, w), char)
    return {c: d for c, d in enumerate(h) if d}


def faces_of(g: Graph, w: int) -> set[int]:
    return {f for stratum in enumerate_faces(g, w).strata for f in stratum}


def check_matching(g: Graph, w: int) -> None:
    """Every face is critical or paired, by an involution along one vertex,
    and the Hasse diagram with the paired edges turned upward has no cycle."""
    faces = faces_of(g, w)
    critical = morse._critical_cells(g.adj, w, morse.Budget(Guards(), "test"))
    assert len(set(critical)) == len(critical)
    steps: dict = {}
    up = {}
    for f in faces:
        r = morse._partner(g.adj, w, f, steps)
        if r is None:
            assert f in critical
            continue
        assert f not in critical
        assert (r ^ f).bit_count() == 1 and r in faces
        assert morse._partner(g.adj, w, r, steps) == f
        if r > f:
            up[f] = r
    assert set(critical) <= faces
    # Kahn's algorithm on the modified Hasse diagram
    out: dict[int, list[int]] = {f: [] for f in faces}
    indegree = dict.fromkeys(faces, 0)
    for r in faces:
        for _, g_ in morse._facets(r):
            head, tail = (g_, r) if up.get(g_) == r else (r, g_)
            out[head].append(tail)
            indegree[tail] += 1
    ready = [f for f, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        f = ready.pop()
        seen += 1
        for t in out[f]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    assert seen == len(faces), "the matching has a cycle"


@given(graph_and_mask())
@settings(max_examples=200, deadline=None)
def test_morse_equals_plain_ranks(gw) -> None:
    g, w = gw
    for char in (2, 3, 0):
        assert morse_homology(g, w, char) == plain_homology(g, w, char), (g.adj, w, char)


@given(graph_and_mask(max_n=8))
@settings(max_examples=150, deadline=None)
def test_matching_is_complete_and_acyclic_on_random_graphs(gw) -> None:
    check_matching(*gw)


def test_matching_is_complete_and_acyclic_on_every_small_graph() -> None:
    # every graph on five labelled vertices, whole vertex set
    pairs = list(itertools.combinations(range(5), 2))
    for bits in range(1 << len(pairs)):
        g = Graph.from_edges(5, [e for i, e in enumerate(pairs) if bits >> i & 1])
        check_matching(g, g.full_mask)


def test_matching_on_kneser_slices() -> None:
    g = build(4, 2).graph
    for w in (g.full_mask, 0x0F0F, 0x3C3, 0xFFF):
        check_matching(g, w)
        for char in (2, 3, 0):
            assert morse_homology(g, w, char) == plain_homology(g, w, char)


def test_pinned_graph_has_a_nonzero_morse_map() -> None:
    g, w = PINNED, PINNED.full_mask
    critical = sorted(morse._critical_cells(g.adj, w, morse.Budget(Guards(), "test")))
    assert critical == [0b1000010, 0b11000001]
    cols = morse._morse_columns(g.adj, w, [0b11000001], [0b1000010],
                                morse.Budget(Guards(), "test"), {})
    assert cols == [{0: 1}]
    for char in (2, 3, 0):
        assert morse_homology(g, w, char) == plain_homology(g, w, char) == {}


def test_pinned_graph_whose_gradient_paths_cancel() -> None:
    g, w = CANCELLING, CANCELLING.full_mask
    critical = sorted(morse._critical_cells(g.adj, w, morse.Budget(Guards(), "test")))
    assert critical == [0b10000, 0b10001]
    cols = morse._morse_columns(g.adj, w, [0b10001], [0b10000],
                                morse.Budget(Guards(), "test"), {})
    assert cols == [{}]
    for char in (2, 3, 0):
        assert morse_homology(g, w, char) == plain_homology(g, w, char) == {1: 1, 2: 1}


def test_empty_and_edgeless_slices() -> None:
    g = Graph.from_edges(3, [(0, 1)])
    assert morse_homology(g, 0, 2) == {0: 1}  # { {} }: H~_{-1} = 1
    assert morse_homology(g, 0b011, 2) == {1: 1}  # two points
    assert morse_homology(g, 0b101, 2) == {}  # an edge of the complex: a cone


def test_morse_matrix_guard() -> None:
    with pytest.raises(GuardExceeded) as exc:
        morse_homology(PINNED, PINNED.full_mask, 2, Guards(max_matrix_cells=0))
    assert exc.value.guard == "max_matrix_cells"
    assert "Morse matrix between critical cells of sizes 3 and 2" in str(exc.value)


def test_budget_counts_tree_nodes_and_flow_cells() -> None:
    g = build(5, 2).graph
    budget = morse.Budget(Guards(), "test")
    morse._critical_cells(g.adj, g.full_mask, budget)
    assert budget.used == 42
    budget = morse.Budget(Guards(), "test")
    assert morse.homology(g.adj, g.full_mask, lambda cols: _rank(cols, 2),
                          budget) == {6: 5, 5: 1}
    assert budget.used == 1087  # 42 nodes and 1,045 flow cells
    with pytest.raises(GuardExceeded) as exc:
        morse._critical_cells(g.adj, g.full_mask, morse.Budget(Guards(max_faces=41), "H"))
    assert (exc.value.guard, exc.value.needed) == ("max_faces", 42)


def dense_rank_mod_p(cols, p: int, n_rows: int) -> int:
    """Gauss-Jordan elimination of the dense matrix mod p, with the pivot
    inverted by Fermat's little theorem."""
    rows = [[col.get(r, 0) % p for col in cols] for r in range(n_rows)]
    rank = 0
    for c in range(len(cols)):
        pivot = next((r for r in range(rank, n_rows) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], p - 2, p)
        for r in range(n_rows):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inverse % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# Morse columns hold integers, not just +-1, so entries must be read mod p.
@example(cols=[{0: 2, 1: 4}], p=2)
@example(cols=[{0: 3}, {0: -1, 1: 2}], p=2)
@example(cols=[{0: 3}], p=3)
@example(cols=[{0: 1, 1: 2}, {0: 2, 1: 4}], p=5)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=4),
                max_size=6),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_rank_mod_p_matches_dense_elimination(cols, p) -> None:
    assert _rank(cols, p) == dense_rank_mod_p(cols, p, 6)
