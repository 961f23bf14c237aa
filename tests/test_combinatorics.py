from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserhom.combinatorics import (
    binom,
    bit_indices,
    check_mk,
    elements_of,
    k_subsets,
    mask_of,
    n_exact,
    n_exact_oracle,
    subset_str,
)


def test_binom_conventions() -> None:
    assert binom(5, 2) == 10
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1
    assert binom(5, 6) == 0
    assert binom(5, -1) == 0
    assert binom(0, 0) == 1
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_pascal_identity() -> None:
    for n in range(1, 65):
        for k in range(-2, n + 3):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_check_mk_accepts_exactly_the_kneser_parameters() -> None:
    for m, k in [(2, 1), (3, 1), (5, 2), (62, 31)]:
        check_mk(m, k)
    for m, k in [(3, 2), (1, 1), (4, 0), (0, 0), (5, -1)]:
        with pytest.raises(ValueError):
            check_mk(m, k)


@given(st.integers(min_value=0, max_value=(1 << 70) - 1))
def test_bit_indices_and_elements_of_agree(mask: int) -> None:
    idx = bit_indices(mask)
    assert sum(1 << i for i in idx) == mask
    assert list(idx) == sorted(set(idx))
    assert elements_of(mask) == tuple(i + 1 for i in idx)


def test_mask_round_trip() -> None:
    assert elements_of(0) == ()
    assert mask_of([]) == 0
    assert elements_of(mask_of([2, 5, 1])) == (1, 2, 5)
    assert subset_str(mask_of([1, 3])) == "{1,3}"
    assert subset_str(0) == "{}"
    with pytest.raises(ValueError):
        mask_of([0])
    with pytest.raises(ValueError, match="nonnegative"):
        bit_indices(-1)
    with pytest.raises(ValueError):
        mask_of([-1])
    assert mask_of([70]) == 1 << 69  # no word-size cap on the ground set
    with pytest.raises(ValueError):
        mask_of([3, 3])


def test_k_subsets_order_and_count() -> None:
    for m in range(7):
        for k in range(m + 1):
            masks = list(k_subsets(m, k))
            assert len(masks) == binom(m, k)
            assert masks == sorted(masks)  # colex order is numeric order
            assert all(v.bit_count() == k for v in masks)
            assert all(v < (1 << m) for v in masks)


def test_k_subsets_rejects_bad_params() -> None:
    with pytest.raises(ValueError):
        list(k_subsets(-1, 0))
    with pytest.raises(ValueError):
        list(k_subsets(3, 4))
    assert len(list(k_subsets(70, 1))) == 70


def test_n_exact_pinned_values() -> None:
    assert n_exact(5, 1, 3, 3) == 1
    assert n_exact(5, 1, 3, 2) == 0
    assert n_exact(5, 2, 3, 2) == 3
    assert n_exact(5, 3, 3, 2) == 1
    assert n_exact(5, 2, 3, 3) == 0


def test_n_exact_single_family_is_indicator() -> None:
    # A one-member family intersects to the member itself, so t must equal r.
    for m in range(1, 11):
        for r in range(m + 1):
            for t in range(r + 1):
                assert n_exact(m, 1, r, t) == (1 if t == r else 0)


def test_n_exact_distinct_members_cannot_share_full_intersection() -> None:
    for m in range(2, 8):
        for r in range(1, m):
            for q in range(2, 4):
                assert n_exact(m, q, r, r) == 0


def test_n_exact_domain_errors() -> None:
    with pytest.raises(ValueError):
        n_exact(5, 0, 3, 2)
    with pytest.raises(ValueError):
        n_exact(5, 2, 3, 4)
    with pytest.raises(ValueError):
        n_exact(5, 2, 6, 2)
    with pytest.raises(ValueError, match="q must be >= 1"):
        n_exact_oracle(5, 0, 3, 2)
    with pytest.raises(ValueError, match="need 0 <= t <= r <= m"):
        n_exact_oracle(5, 2, 3, 4)


def test_n_exact_matches_brute_force() -> None:
    for m in range(1, 7):
        for r in range(1, min(m, 4) + 1):
            for q in range(1, 4):
                for t in range(r + 1):
                    assert n_exact(m, q, r, t) == n_exact_oracle(m, q, r, t), (
                        m, q, r, t)


def test_n_exact_sums_to_all_families() -> None:
    # Every q-family of r-subsets has an intersection of some size t, with
    # C(m, t) choices for the intersection set.
    for m in range(1, 10):
        for r in range(1, m + 1):
            for q in range(1, 5):
                total = sum(binom(m, t) * n_exact(m, q, r, t)
                            for t in range(r + 1))
                assert total == binom(binom(m, r), q), (m, q, r)


@settings(max_examples=30)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(1, 5))
def test_n_exact_nonnegative(m: int, q: int, r: int) -> None:
    if r > m:
        r = m
    for t in range(r + 1):
        assert n_exact(m, q, r, t) >= 0
