from __future__ import annotations

import json

import pytest

from kneserhom import closed_form
from kneserhom.cli import _linear_strand_csv, _linear_strand_json
from kneserhom.closed_form import LinearStrand, betti_linear, linear_strand
from kneserhom.combinatorics import binom
from kneserhom.hochster import linear_strand_oracle
from kneserhom.kneser import build


def test_worked_values() -> None:
    assert betti_linear(5, 2, 1) == 30
    assert betti_linear(5, 2, 2) == 60
    assert betti_linear(5, 2, 3) == 20
    assert betti_linear(5, 2, 4) == 0
    assert betti_linear(5, 2, 5) == 0


def test_single_rung_strand() -> None:
    # H(2,1) is one rung doubled: two disjoint edges
    assert betti_linear(2, 1, 1) == 2
    assert all(betti_linear(2, 1, i) == 0 for i in range(2, 8))


def test_first_entry_is_edge_count() -> None:
    for m in range(2, 9):
        for k in range(1, m // 2 + 1):
            assert betti_linear(m, k, 1) == binom(m, k) * binom(m - k, k), (m, k)


def test_ladder_strand_is_edges_only() -> None:
    # disjoint rungs have no joins beyond single edges
    for k in [1, 2, 3]:
        m = 2 * k
        assert betti_linear(m, k, 1) == binom(m, k)
        assert all(betti_linear(m, k, i) == 0 for i in range(2, 6))


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (4, 1), (5, 1),
                                 (4, 2), (5, 2), (6, 2), (6, 3)])
def test_formula_matches_oracle(m: int, k: int) -> None:
    g = build(m, k).graph
    for i in range(1, min(g.n - 1, 8) + 1):
        if binom(g.n, i + 1) > 700_000:
            break
        assert betti_linear(m, k, i) == linear_strand_oracle(g, i), (m, k, i)


@pytest.mark.parametrize("m,k", [(5, 2), (6, 2), (7, 3)])
def test_strand_work_stops_growing_with_i_max(monkeypatch, m: int, k: int) -> None:
    # Every n_exact(m, s, m-k, t) with s > C(m-k, k) is zero, so the right
    # table has at most C(m-k, k) rows of m-2k+1 entries, whatever i_max is.
    calls = []
    real = closed_form.n_exact

    def counting(*args) -> int:
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(closed_form, "n_exact", counting)
    d = binom(m - k, k)
    for i_max in (1, d, 2 * d, 500):
        closed_form._n_exact_cached.cache_clear()
        calls.clear()
        values = linear_strand(m, k, i_max).values
        assert len(values) == i_max
        assert all(v == 0 for v in values[2 * d - 1:]), (m, k, i_max)
        assert len(calls) <= d * (m - 2 * k + 1), (m, k, i_max)


def test_param_validation() -> None:
    with pytest.raises(ValueError):
        betti_linear(3, 0, 1)
    with pytest.raises(ValueError):
        betti_linear(3, 2, 1)
    with pytest.raises(ValueError):
        betti_linear(5, 2, 0)
    with pytest.raises(ValueError):
        linear_strand(5, 2, 0)


def test_linear_strand_container() -> None:
    ls = linear_strand(5, 2, 6)
    assert ls.values == (30, 60, 20, 0, 0, 0)
    assert ls.support_end == 3
    assert LinearStrand(2, 1, (2, 0)).support_end == 1


def test_json_emission() -> None:
    ls = linear_strand(5, 2, 4)
    data = json.loads(_linear_strand_json(ls))
    assert data["m"] == 5 and data["k"] == 2
    assert data["support_end"] == 3
    assert data["values"] == [
        {"i": 1, "value": "30"},
        {"i": 2, "value": "60"},
        {"i": 3, "value": "20"},
        {"i": 4, "value": "0"},
    ]


def test_csv_emission() -> None:
    out = _linear_strand_csv(linear_strand(5, 2, 3))
    assert out == "i,betti\n1,30\n2,60\n3,20\n"


def test_large_params_stay_exact() -> None:
    # far beyond floating point: every value is an exact integer
    v = betti_linear(40, 10, 3)
    assert isinstance(v, int)
    assert v > 10 ** 15
