"""Closed-form linear-strand Betti numbers of H(m, k), no graph built.

beta_{i,i+1} counts the vertex subsets W inducing a complete bipartite join
(then the complement of the induced subgraph splits into exactly two
cliques, contributing one to H~_0; any missing cross edge reconnects it).
Such a W with r left and s right vertices, r + s = i + 1, is fixed by the
exact common intersection T of its right subsets: C(m, t) placements of T,
C(C(t, k), r) left families inside T, n_exact(m, s, m-k, t) right families
with intersection exactly T.  Everything reduces to binomials and n_exact;
this path shares nothing with the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import binom, check_mk, n_exact


def _strand(m: int, k: int, i_max: int) -> list[int]:
    """beta_{i, i+1} for i = 1 .. i_max, each

        sum over r + s = i + 1 (r, s >= 1) and t in [k, m-k] of
        C(C(t,k), r) * C(m, t) * n_exact(m, s, m-k, t)

    from two tables built once: left[r-1][t-k] = C(C(t,k), r) * C(m, t) and
    right[s-1][t-k] = n_exact(m, s, m-k, t), for r, s <= min(i_max, D) with
    D = C(m-k, k).  A term with r > D or s > D is zero: C(C(t,k), r) = 0 once
    r > C(t,k), and C(t,k) <= D for t <= m-k; n_exact(m, s, m-k, t) = 0 once
    s > C(m-t, k), and C(m-t, k) <= D for t >= k.  So beta_{i,i+1} = 0 for
    i >= 2D, and the work stops growing with i_max there."""
    ts = range(k, m - k + 1)
    rows = min(i_max, binom(m - k, k))
    left = [[binom(binom(t, k), r) * binom(m, t) for t in ts] for r in range(1, rows + 1)]
    right = [[n_exact(m, s, m - k, t) for t in ts] for s in range(1, rows + 1)]
    last = min(i_max, 2 * rows - 1)
    values = [sum(a * b for r in range(max(0, i - rows), min(i, rows))
                  for a, b in zip(left[r], right[i - 1 - r]))
              for i in range(1, last + 1)]
    return values + [0] * (i_max - last)


def betti_linear(m: int, k: int, i: int) -> int:
    """beta_{i, i+1}(R/I(H(m, k))) in exact integer arithmetic: the last
    value of `linear_strand` with i_max = i."""
    return linear_strand(m, k, i).values[-1]


@dataclass(frozen=True)
class LinearStrand:
    """Values beta_{i,i+1} for i = 1 .. i_max; support_end is the largest i
    with a nonzero value (0 when the strand is empty)."""

    m: int
    k: int
    values: tuple[int, ...]  # values[i - 1] = beta_{i, i+1}

    @property
    def support_end(self) -> int:
        last = 0
        for i, v in enumerate(self.values, start=1):
            if v != 0:
                last = i
        return last


def linear_strand(m: int, k: int, i_max: int) -> LinearStrand:
    check_mk(m, k)
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    values = tuple(_strand(m, k, i_max))
    return LinearStrand(m, k, values)

