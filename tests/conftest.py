from __future__ import annotations

import itertools

import pytest

from kneserhom.config import Guards
from kneserhom.graphs import Graph
from kneserhom.kneser import KneserGraph, build


@pytest.fixture(scope="session")
def kn21() -> KneserGraph:
    return build(2, 1)


@pytest.fixture(scope="session")
def kn31() -> KneserGraph:
    return build(3, 1)


@pytest.fixture(scope="session")
def kn41() -> KneserGraph:
    return build(4, 1)


@pytest.fixture(scope="session")
def kn42() -> KneserGraph:
    return build(4, 2)


@pytest.fixture(scope="session")
def kn52() -> KneserGraph:
    return build(5, 2)


# Small graphs shared by the test modules.


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


# Betti tables of R/I for small graphs, frozen from the exhaustive
# Hochster-formula oracle over GF(2) and re-checked in characteristic 0.
FROZEN_TABLES = {
    (2, 1): {(0, 0): 1, (1, 2): 2, (2, 4): 1},
    (3, 1): {(0, 0): 1, (1, 2): 6, (2, 3): 6, (2, 4): 3, (3, 5): 6, (4, 6): 2},
    (4, 1): {(0, 0): 1, (1, 2): 12, (2, 3): 24, (2, 4): 6, (3, 4): 14,
             (3, 5): 24, (4, 6): 32, (5, 7): 16, (6, 8): 3},
    (4, 2): {(0, 0): 1, (1, 2): 6, (2, 4): 15, (3, 6): 20, (4, 8): 15,
             (5, 10): 6, (6, 12): 1},
}


class CountingGuards(Guards):
    """Default guards that count their checks by context: each search
    checks once per node, so counts[context] is its node count."""

    def __init__(self) -> None:
        super().__init__()
        object.__setattr__(self, "counts", {})

    def check(self, guard: str, needed: int, context: str) -> None:
        self.counts[context] = self.counts.get(context, 0) + 1
        super().check(guard, needed, context)


# Brute forces for the searches of `bounds`, by itertools over vertex sets in
# order of size; they share no code with `bounds`.


def brute_gamma(g: Graph, c: int) -> int:
    """The least number of vertices whose neighborhoods cover c."""
    coverers = [v for v in range(g.n) if g.adj[v] & c]
    for size in range(len(coverers) + 1):
        for xs in itertools.combinations(coverers, size):
            cov = 0
            for v in xs:
                cov |= g.adj[v]
            if c & ~cov == 0:
                return size
    raise AssertionError("demand not coverable")


def brute_independent_domination(g: Graph) -> int:
    """The size of the smallest vertex set that is independent and
    dominates every vertex."""
    for size in range(g.n + 1):
        for xs in itertools.combinations(range(g.n), size):
            chosen = sum(1 << v for v in xs)
            dominated = chosen
            for v in xs:
                dominated |= g.adj[v]
            if dominated == g.full_mask and not any(g.adj[v] & chosen for v in xs):
                return size
    raise AssertionError("unreachable: the whole vertex set dominates")
