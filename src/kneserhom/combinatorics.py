"""Binomial arithmetic, subset masks, the colex layout of H(m, k), and the
exact-intersection count.

Subsets of the ground set {1, ..., m} are encoded as bitmasks: bit i-1 set
means element i is present.  Colexicographic order on k-subsets coincides
with numeric order on these masks, so a sorted listing is the colex order
and streaming enumeration is cheap.  All arithmetic is exact (Python
integers).
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .config import DEFAULT_GUARDS, Guards


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n.

    Requires n >= 0; the caller never has a sensible negative n here.
    """
    if n < 0:
        raise ValueError(f"binom: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def check_mk(m: int, k: int) -> None:
    """Reject parameters that name no bipartite Kneser graph H(m, k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 2 * k:
        raise ValueError(f"need m >= 2k, got m={m}, k={k}")


def bit_indices(mask: int) -> tuple[int, ...]:
    """0-based set bit positions of a mask, ascending.  A negative mask has
    no end of set bits and is refused."""
    if mask < 0:
        raise ValueError(f"mask must be nonnegative, got {mask}")
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return tuple(out)


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a subset mask, ascending."""
    return tuple(i + 1 for i in bit_indices(mask))


def mask_of(elements) -> int:
    """Mask of a collection of 1-based elements; rejects elements below 1
    and duplicates."""
    mask = 0
    for e in elements:
        if e < 1:
            raise ValueError(f"element {e} is below 1")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"duplicate element {e}")
        mask |= bit
    return mask


def subset_str(mask: int) -> str:
    """Human form of a subset mask, e.g. {1,2,5}."""
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def _next_same_popcount(v: int) -> int:
    # Gosper's hack: next larger integer with the same number of set bits.
    c = v & -v
    r = v + c
    return r | ((v ^ r) >> (c.bit_length() + 1))


def k_subsets(m: int, k: int):
    """Yield all k-subsets of [m] as masks, in colex (= numeric) order."""
    if m < 0:
        raise ValueError(f"k_subsets: need m >= 0, got m={m}")
    if k < 0 or k > m:
        raise ValueError(f"k_subsets: need 0 <= k <= m, got k={k}, m={m}")
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    top = 1 << m
    while v < top:
        yield v
        v = _next_same_popcount(v)


def kneser_sides(m: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vertex layout of H(m, k): its k-subsets, then its (m-k)-subsets,
    each side in colex (= numeric) order, so a side is sorted and a vertex id
    is its index on the left, or C(m, k) plus its index on the right.
    Complementing reverses colex order, so the right side is the left one
    complemented, in reverse."""
    # Lists first: tuple() of a generator starts from a guessed size and
    # resizes, so the tuple never comes from CPython's free list for its
    # final size, yet joins that list when freed.  Made anew on each call,
    # such tuples raised the peak RSS call after call until the lists were
    # full.
    left = [*k_subsets(m, k)]
    full = (1 << m) - 1
    return tuple(left), tuple([full ^ a for a in reversed(left)])


@functools.cache
def n_exact(m: int, q: int, r: int, t: int) -> int:
    """Number of q-element families of r-subsets of [m] whose common
    intersection has size exactly t (the intersection fixed to a given
    t-set; the count does not depend on which one).

    Computed by inclusion-exclusion over forced extra common elements:
        sum_{j=0}^{r-t} (-1)^j C(m-t, j) C( C(m-t-j, r-t-j), q )
    """
    if q < 1:
        raise ValueError(f"n_exact: q must be >= 1, got {q}")
    if not 0 <= t <= r <= m:
        raise ValueError(f"n_exact: need 0 <= t <= r <= m, got t={t}, r={r}, m={m}")
    total = 0
    for j in range(r - t + 1):
        term = binom(m - t, j) * binom(binom(m - t - j, r - t - j), q)
        total += -term if j & 1 else term
    assert total >= 0, f"n_exact({m},{q},{r},{t}) came out negative: {total}"
    return total


def n_exact_oracle(m: int, q: int, r: int, t: int, guards: Guards = DEFAULT_GUARDS) -> int:
    """Brute-force check of n_exact: fix T = {1, ..., t} and enumerate every
    q-element family of r-subsets of [m], counting those whose intersection
    is exactly T.  Exponential; guarded by the total family count.
    """
    if q < 1:
        raise ValueError(f"n_exact_oracle: q must be >= 1, got {q}")
    if not 0 <= t <= r <= m:
        raise ValueError(f"n_exact_oracle: need 0 <= t <= r <= m, got t={t}, r={r}, m={m}")
    families = binom(binom(m, r), q)
    guards.check("max_search_nodes", families, f"n_exact_oracle({m},{q},{r},{t})")
    target = (1 << t) - 1
    count = 0
    universe = list(k_subsets(m, r))
    for family in itertools.combinations(universe, q):
        inter = family[0]
        for s in family[1:]:
            inter &= s
        if inter == target:
            count += 1
    return count
