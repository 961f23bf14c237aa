from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserhom.bounds import (
    BoundReport,
    Certificate,
    CertificateError,
    _maximal_independent_sets,
    certify_cochordal_cover,
    certify_domination,
    certify_gamma_demand,
    certify_induced_matching,
    gamma_of,
    independent_domination_number,
    pd_bounds,
    reg_bounds,
    reg_power_bounds,
    tau_of,
)
from kneserhom.cli import _render_report
from kneserhom.combinatorics import binom, mask_of
from kneserhom.config import GuardExceeded, Guards
from kneserhom.graphs import Graph, bit_indices
from kneserhom.hochster import full_betti_oracle, pd_of, reg_of
from kneserhom.kneser import build, gamma_demand_family
from kneserhom.symmetry import orbit_roots

from conftest import (FROZEN_TABLES, CountingGuards, brute_gamma,
                      brute_independent_domination, cycle_graph)


@st.composite
def random_graphs(draw, max_n: int = 7):
    n = draw(st.integers(1, max_n))
    edges = [e for e in itertools.combinations(range(n), 2)
             if draw(st.booleans())]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# formula-level bounds
# ---------------------------------------------------------------------------


def test_reg_power_worked_cases() -> None:
    r = reg_power_bounds(5, 2, 1)
    assert (r.lower, r.upper, r.exact) == (6, 10, 6)
    r = reg_power_bounds(4, 2, 3)
    assert (r.lower, r.upper, r.exact) == (10, 10, 10)
    r = reg_power_bounds(6, 2, 1)
    assert (r.lower, r.upper, r.exact) == (6, 15, None)


def test_reg_power_shifts_by_two_per_power() -> None:
    for p in range(1, 6):
        a = reg_power_bounds(6, 2, p)
        b = reg_power_bounds(6, 2, p + 1)
        assert b.lower == a.lower + 2 and b.upper == a.upper + 2


def test_reg_power_validation() -> None:
    with pytest.raises(ValueError):
        reg_power_bounds(5, 2, 0)
    with pytest.raises(ValueError):
        reg_power_bounds(3, 2, 1)


def test_reg_bounds_worked_cases() -> None:
    r = reg_bounds(5, 2)
    assert (r.lower, r.upper, r.exact) == (6, 7, 6)
    r = reg_bounds(2, 1)
    assert (r.lower, r.upper, r.exact) == (2, 2, 2)
    r = reg_bounds(3, 1)
    assert (r.lower, r.upper, r.exact) == (2, 2, 2)
    r = reg_bounds(4, 2)
    assert (r.lower, r.upper, r.exact) == (6, 6, 6)
    r = reg_bounds(6, 2)
    assert (r.lower, r.upper, r.exact) == (6, 10, None)


def test_reg_bounds_contain_oracle_values() -> None:
    for (m, k), entries in FROZEN_TABLES.items():
        t = full_betti_oracle(build(m, k).graph)
        assert t.entries == entries
        r = reg_bounds(m, k)
        assert r.lower <= reg_of(t) <= r.upper, (m, k)
        if r.exact is not None:
            assert reg_of(t) == r.exact, (m, k)


def test_pd_bounds_worked_cases() -> None:
    r = pd_bounds(5, 2)
    assert (r.lower, r.upper, r.exact) == (14, 16, None)
    r = pd_bounds(4, 2)
    assert (r.lower, r.upper, r.exact) == (6, 6, 6)


def test_pd_bounds_exact_for_single_element_side() -> None:
    for m in range(2, 9):
        r = pd_bounds(m, 1)
        assert (r.lower, r.upper, r.exact) == (2 * m - 2, 2 * m - 2, 2 * m - 2)


def test_pd_bounds_contain_oracle_values() -> None:
    for m, k in FROZEN_TABLES:
        t = full_betti_oracle(build(m, k).graph)
        r = pd_bounds(m, k)
        assert r.lower <= pd_of(t) <= r.upper, (m, k)
        if r.exact is not None:
            assert pd_of(t) == r.exact, (m, k)


def test_pd_dominating_set_chain() -> None:
    # n - i(G) never exceeds the projective dimension
    for m, k in FROZEN_TABLES:
        g = build(m, k).graph
        t = full_betti_oracle(g)
        assert g.n - independent_domination_number(g).value <= pd_of(t), (m, k)


# ---------------------------------------------------------------------------
# search primitives
# ---------------------------------------------------------------------------


def test_gamma_of_examples() -> None:
    g = cycle_graph(6)
    assert gamma_of(g, 0).value == 0
    assert gamma_of(g, 1 << 2).value == 1
    # no single vertex neighbors both ends of a diameter
    assert gamma_of(g, 0b001001).value == 2


def test_gamma_of_witness_covers() -> None:
    g = build(4, 1).graph
    res = gamma_of(g, g.full_mask)
    cov = 0
    for v in bit_indices(res.witness):
        cov |= g.adj[v]
    assert cov == g.full_mask
    assert res.witness.bit_count() == res.value


def test_gamma_of_rejects_uncoverable() -> None:
    g = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
    with pytest.raises(ValueError):
        gamma_of(g, 0b100)
    with pytest.raises(ValueError):
        gamma_of(g, 1 << 3)


def test_gamma_of_names_the_lowest_isolated_vertex_before_any_search() -> None:
    # live parts {0, 1} and {3, 4}; vertices 2 and 5 are isolated, one below
    # the part {3, 4} and one above it.  With no search node allowed, the
    # demand check still names vertex 2, so it runs before any search.
    g = Graph.from_edges(6, [(0, 1), (3, 4)])
    for c in (0b111111, 0b111100):
        for guards in (Guards(), Guards(max_search_nodes=0)):
            with pytest.raises(ValueError, match="vertex 2 has no neighbor"):
                gamma_of(g, c, guards)
    with pytest.raises(GuardExceeded):
        gamma_of(g, 0b011011, Guards(max_search_nodes=0))


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_gamma_of_matches_brute_force(g: Graph) -> None:
    live = 0
    for v in range(g.n):
        if g.adj[v]:
            live |= 1 << v
    if live == 0:
        return
    # demand everything coverable, and one smaller demand
    for c in [live, live & (live - 1)]:
        if c == 0:
            continue
        assert gamma_of(g, c).value == brute_gamma(g, c)


@st.composite
def split_demands(draw):
    """(g, c): a disjoint union of up to three random graphs on at most 9
    vertices in all (one piece may take all 9), one isolated vertex
    appended, and a demand c on the vertices that have a neighbor.  The
    pieces may hold odd cycles, and a demand that meets two of them splits
    into several parts."""
    edges, base = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if base == 9:
            break
        size = draw(st.integers(1, 9 - base))
        edges += [(base + a, base + b) for a, b in itertools.combinations(range(size), 2)
                  if draw(st.booleans())]
        base += size
    g = Graph.from_edges(base + 1, edges)
    live = sum(1 << v for v in range(g.n) if g.adj[v])
    return g, draw(st.integers(0, live)) & live


@given(split_demands())
@settings(max_examples=150, deadline=None)
def test_gamma_of_split_demands_match_brute_force(case) -> None:
    g, c = case
    res = gamma_of(g, c)
    covered = 0
    for v in bit_indices(res.witness):
        covered |= g.adj[v]
    assert c & ~covered == 0
    assert res.value == res.witness.bit_count() == brute_gamma(g, c)
    with pytest.raises(ValueError, match=f"vertex {g.n - 1} has no neighbor"):
        gamma_of(g, c | 1 << g.n - 1)


def test_gamma_of_full_right_side_cube() -> None:
    # For k = 1 the demand of supersets of Q = {} is the whole right side;
    # two left singletons suffice and one covers only three of the four.
    kn = build(4, 1)
    demand, witnesses = gamma_demand_family(kn, 0, mask_of([1, 2]))
    assert demand == kn.graph.full_mask & ~kn.left_mask
    res = gamma_of(kn.graph, demand)
    assert res.value == 2
    assert len(witnesses) == 2
    # the demand lives on one side, hence is an independent set: its
    # covering number is a floor for the domination spread of the graph
    for u in bit_indices(demand):
        assert kn.graph.adj[u] & demand == 0


def test_gamma_of_work_is_pinned() -> None:
    # Degrees 2, 3 and 4, so the demanded vertices fall in three coverer
    # tiers.  Witnesses and node counts were pinned from the branch choice
    # by a min over the uncovered vertices, which the tiers replaced.
    g = Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5),
                              (3, 6), (4, 7), (5, 8), (6, 9), (7, 9), (8, 9),
                              (1, 9), (5, 6)])
    for c, value, witness, nodes in ((g.full_mask, 4, 0b1000000111, 13),
                                     (0b1111100000, 2, 0b1001000000, 2),
                                     (0b1010101010, 2, 0b0001010000, 3)):
        guards = CountingGuards()
        assert gamma_of(g, c, guards) == (value, witness)
        assert guards.counts == {"gamma_of": nodes}


def test_certify_induced_matching_refuses_a_non_edge(monkeypatch) -> None:
    # A family member that is no edge of the graph is a failed check, named
    # in the refusal: vertices 0 and 1 both sit on the left side.
    import kneserhom.bounds as bounds_module
    real = bounds_module.e_s_family
    monkeypatch.setattr(bounds_module, "e_s_family",
                        lambda kn, s: (*real(kn, s)[:2], (0, 1), *real(kn, s)[2:]))
    with pytest.raises(CertificateError, match=r"failed checks: .*\ball_edges_present\b"):
        certify_induced_matching(5, 2)


def test_gamma_monotone_in_demand() -> None:
    g = build(3, 1).graph
    full = gamma_of(g, g.full_mask).value
    for v in range(g.n):
        assert gamma_of(g, g.full_mask & ~(1 << v)).value <= full


def test_independent_domination_examples() -> None:
    assert independent_domination_number(cycle_graph(6)).value == 2
    assert independent_domination_number(build(4, 1).graph).value == 2
    assert independent_domination_number(build(2, 1).graph).value == 2
    assert independent_domination_number(Graph(0, ())).value == 0
    assert independent_domination_number(Graph(3, (0, 0, 0))).value == 3


def test_independent_domination_h52_counting_argument() -> None:
    # Any independent dominating set splits a left vertices and b right ones;
    # left vertices dominate a + 3b >= 10 left ids and right ones 3a + b >= 10
    # right ids, forcing a + b >= 5; a 5-element set would need a = b = 2.5,
    # so 6 is optimal and the certified set attains it.
    res = independent_domination_number(build(5, 2).graph)
    assert res.value == 6


@given(random_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_independent_domination_matches_brute_force(g: Graph) -> None:
    assert independent_domination_number(g).value == brute_independent_domination(g)


def test_independent_domination_witness_is_valid() -> None:
    g = build(5, 2).graph
    res = independent_domination_number(g)
    w = res.witness
    assert w.bit_count() == res.value
    assert all(g.adj[v] & w == 0 for v in bit_indices(w))
    dominated = w
    for v in bit_indices(w):
        dominated |= g.adj[v]
    assert dominated == g.full_mask


@given(random_graphs())
@settings(max_examples=100, deadline=None)
def test_maximal_independent_sets_match_networkx(g: Graph) -> None:
    nx = pytest.importorskip("networkx")
    # maximal independent sets of g are the maximal cliques of its complement
    ref = nx.complete_graph(g.n)
    ref.remove_edges_from(g.edges())
    want = sorted(mask_of(v + 1 for v in clique)
                  for clique in nx.find_cliques(ref))
    # singleton roots: each set is found from its smallest vertex
    roots = [(v, 1 << v, (1 << v) - 1) for v in range(g.n)]
    assert _maximal_independent_sets(g, Guards(), roots) == want


@pytest.mark.parametrize("m", [5, 6, 7])
def test_maximal_independent_sets_from_orbit_roots_match_networkx(m: int) -> None:
    # The real roots, in place of one root per vertex: a set is reported
    # when it holds the r and misses the earlier of some root.  H(m, 2) is
    # vertex-transitive, so that is every set that holds vertex 0.
    nx = pytest.importorskip("networkx")
    g = build(m, 2).graph
    roots = orbit_roots(g.adj)
    ref = nx.complete_graph(g.n)
    ref.remove_edges_from(g.edges())
    want = sorted(s for s in (mask_of(v + 1 for v in clique) for clique in nx.find_cliques(ref))
                  if any(s >> r & 1 and not s & earlier for r, _, earlier in roots))
    assert want
    assert _maximal_independent_sets(g, Guards(), roots) == want


def test_tau_examples() -> None:
    assert tau_of(build(2, 1).graph) == 2
    assert tau_of(cycle_graph(6)) == 2
    assert tau_of(Graph.from_edges(2, [(0, 1)])) == 1
    assert tau_of(Graph(3, (0, 0, 0))) == 0  # isolated vertices stripped


def test_searches_fit_a_thousand_nodes() -> None:
    # An exact bound on the work of the orbit-root searches, each pinned
    # where it passes and refused one below.  i(H(10,2)) takes 580 nodes,
    # started from every vertex 48,105.  tau(H(8,2)) walks 218 maximal
    # independent sets (1,718 from every vertex) and its covering searches
    # 550 nodes, all counted against one total; tau(H(7,2)) walks 155 sets
    # and 388 nodes.  Each set holds vertices of both sides, so its demand
    # splits into two parts searched apart: with one search over the whole
    # set the totals were 2,468 and 1,455.
    g = build(10, 2).graph
    assert independent_domination_number(g, Guards(max_search_nodes=580)).value == 6
    with pytest.raises(GuardExceeded) as exc:
        independent_domination_number(g, Guards(max_search_nodes=579))
    assert (exc.value.guard, exc.value.needed) == ("max_search_nodes", 580)
    for m, nodes in ((8, 768), (7, 543)):
        g = build(m, 2).graph
        assert tau_of(g, Guards(max_search_nodes=nodes)) == 4
        with pytest.raises(GuardExceeded) as exc:
            tau_of(g, Guards(max_search_nodes=nodes - 1))
        assert (exc.value.guard, exc.value.needed) == ("max_search_nodes", nodes)


def test_tau_below_regularity() -> None:
    for (m, k), entries in FROZEN_TABLES.items():
        t = full_betti_oracle(build(m, k).graph)
        assert tau_of(build(m, k).graph) <= reg_of(t), (m, k)


# ---------------------------------------------------------------------------
# certified reports
# ---------------------------------------------------------------------------


def report_checks(r: BoundReport) -> dict:
    out = {}
    for cert in r.certificates:
        for name, ok in cert.checks:
            out[name] = ok
    return out


def test_certify_induced_matching_h52() -> None:
    r = certify_induced_matching(5, 2)
    assert (r.lower, r.upper, r.exact) == (6, 7, 6)
    checks = report_checks(r)
    assert checks == {"size_is_central_binomial": True,
                      "all_edges_present": True,
                      "pairwise_three_disjoint": True,
                      "maximal": True}
    assert r.certificates[0].payload["size"] == 6


def test_certify_induced_matching_custom_spread() -> None:
    for e in range(1, 6):
        r = certify_induced_matching(5, 2, s=mask_of([e]))
        assert r.exact == 6


def test_certify_induced_matching_single_rung_pair() -> None:
    r = certify_induced_matching(2, 1)
    assert (r.lower, r.exact) == (2, 2)
    assert all(ok for _, ok in r.certificates[0].checks)


def test_certify_induced_matching_search_skipped_when_large() -> None:
    # 90 edges exceed the search's fixed edge cap, which no guard raises;
    # the certificate still stands
    r = certify_induced_matching(6, 2, guards=Guards(max_search_nodes=10 ** 9))
    assert r.lower == 6
    assert r.exact is None
    assert r.anchors[-1] == ("exhaustive search skipped: 90 edges, above the "
                             "search cap max_edges = 64")
    r = certify_induced_matching(5, 2, guards=Guards(max_search_nodes=1))
    assert r.exact is None
    assert r.anchors[-1] == "exhaustive search skipped: outside the configured guards"


def test_certify_induced_matching_passes_on_other_value_errors(monkeypatch) -> None:
    import kneserhom.bounds as bounds_module

    def broken(g, guards):
        raise ValueError("not a cap")

    monkeypatch.setattr(bounds_module, "induced_matching_number", broken)
    with pytest.raises(ValueError, match="not a cap"):
        certify_induced_matching(5, 2)


def test_certify_cochordal_cover_variants() -> None:
    r = certify_cochordal_cover(5, 2, "double_stars", t=5)
    assert (r.lower, r.upper, r.exact) == (6, 6, 6)
    assert report_checks(r) == {"covers_all_edges": True,
                                "members_cochordal": True}
    r = certify_cochordal_cover(5, 2, "stars")
    assert (r.lower, r.upper, r.exact) == (6, 10, None)
    r = certify_cochordal_cover(4, 2, "stars")
    assert (r.lower, r.upper, r.exact) == (6, 6, 6)
    r = certify_cochordal_cover(3, 1, "double_stars")
    assert (r.lower, r.upper, r.exact) == (2, 2, 2)
    with pytest.raises(ValueError):
        certify_cochordal_cover(5, 2, "nonsense")


@pytest.mark.parametrize("variant,t,calls", [("stars", None, 1),
                                               ("double_stars", 5, 5),
                                               ("double_stars", 1, 1)])
def test_cochordal_cover_checks_each_distinct_member_once(monkeypatch, variant,
                                                          t, calls) -> None:
    # H(9,4) has 126 stars and 70 double stars; after relabelling, the
    # stars are all one graph, and the double stars are one to five by t.
    import kneserhom.bounds as bounds_module
    checked = []
    real = bounds_module.is_cochordal
    monkeypatch.setattr(bounds_module, "is_cochordal",
                        lambda g: checked.append(g) or real(g))
    r = certify_cochordal_cover(9, 4, variant, t=t)
    assert len(checked) == len(set(checked)) == calls
    assert r.upper == (126 if variant == "stars" else 70)
    assert report_checks(r) == {"covers_all_edges": True,
                                "members_cochordal": True}


def test_cochordal_cover_refuses_a_2k2_member(monkeypatch) -> None:
    # Two disjoint edges from two stars form a 2K2 member, whose complement
    # is a 4-cycle: the cover still covers, but one member is no co-chordal
    # graph, and it relabels to no star.
    import kneserhom.bounds as bounds_module
    real = bounds_module.star_cover

    def with_2k2(kn):
        stars = real(kn)
        e = stars[0][0]
        f = next(f for f in stars[1] if not set(e) & set(f))
        return (*stars, (e, f))

    monkeypatch.setattr(bounds_module, "star_cover", with_2k2)
    with pytest.raises(CertificateError, match=r"failed checks: members_cochordal$"):
        certify_cochordal_cover(5, 2)


def test_certify_domination_h52() -> None:
    r = certify_domination(5, 2, s=mask_of([1]), j=2)
    assert r.upper == 6
    assert r.exact == 6
    assert report_checks(r) == {"independent": True, "dominating": True,
                                "size_is_central_binomial": True}


def test_certify_domination_ladder() -> None:
    r = certify_domination(4, 2)
    assert (r.lower, r.upper, r.exact) == (6, 6, 6)


def test_certify_domination_cube() -> None:
    r = certify_domination(4, 1, s=mask_of([1, 2]), j=3)
    assert r.upper == 2
    assert r.exact == 2
    assert report_checks(r) == {"independent": True, "dominating": True,
                                "size_is_central_binomial": True}


def test_certify_domination_defaults() -> None:
    r = certify_domination(5, 2)
    assert r.params["s"] == "{1}" and r.params["j"] == 2
    r = certify_domination(6, 2, s=mask_of([1, 3]))
    assert r.params["s"] == "{1,3}" and r.params["j"] == 2


@pytest.mark.parametrize("m,k,s,j,message", [
    (4, 2, [1, 2], 3, "for m = 2k pass no s and no j"),
    (4, 2, None, 3, "for m = 2k pass no s and no j"),
    (4, 1, [1, 2, 3, 4], None, "s must have exactly m - 2k = 2 elements"),
    (5, 2, [1], 1, "j = 1 must lie outside s"),
])
def test_certify_domination_refuses_bad_s_or_j(m, k, s, j, message) -> None:
    with pytest.raises(ValueError, match=message):
        certify_domination(m, k, s=None if s is None else mask_of(s), j=j)


def test_certify_domination_search_skipped() -> None:
    r = certify_domination(7, 2, guards=Guards(max_search_nodes=1))
    assert r.exact is None
    assert report_checks(r) == {"independent": True, "dominating": True,
                                "size_is_central_binomial": True}
    assert r.anchors[-1] == "exhaustive search skipped: outside the configured guards"


def test_certify_gamma_demand_h52() -> None:
    r = certify_gamma_demand(5, 2)
    assert (r.lower, r.upper, r.exact) == (3, 3, 3)
    checks = report_checks(r)
    assert all(checks.values())
    assert checks["demand_size_expected"]
    assert r.certificates[0].payload["gamma"] == 3


def test_certify_gamma_demand_default_q_misses_s() -> None:
    # With s given, q is the lowest k - 1 elements outside it; with neither
    # given, q = {1, ..., k-1} and s the next k + 1 elements.  An s too large
    # to leave room for q is named by its own check.
    r = certify_gamma_demand(5, 2, s=mask_of([1, 2, 3]))
    assert (r.params["q"], r.params["s"], r.exact) == ("{4}", "{1,2,3}", 3)
    r = certify_gamma_demand(7, 3, s=mask_of([1, 3, 5, 7]))
    assert r.params["q"] == "{2,4}"
    assert (certify_gamma_demand(7, 3).params["q"],
            certify_gamma_demand(7, 3).params["s"]) == ("{1,2}", "{3,4,5,6}")
    with pytest.raises(ValueError, match="s must have k \\+ 1 = 3 elements"):
        certify_gamma_demand(5, 2, s=mask_of([1, 2, 3, 4, 5]))


def test_certify_gamma_demand_h31() -> None:
    r = certify_gamma_demand(3, 1)
    # demand: all right 2-subsets; witnesses: both elements of S
    assert r.exact == 2
    assert report_checks(r)["gamma_not_above_witness_size"]


def test_certificate_refuses_failed_checks() -> None:
    with pytest.raises(CertificateError):
        Certificate(kind="forged", payload={}, checks=(("holds", False),))


def test_bound_report_invariants() -> None:
    with pytest.raises(ValueError):
        BoundReport("x", {}, lower=3, upper=2)
    with pytest.raises(ValueError):
        BoundReport("x", {}, lower=1, upper=2, exact=5)


def test_bound_report_json_schema() -> None:
    r = certify_cochordal_cover(4, 2, "stars")
    data = json.loads(_render_report(r, "json"))
    assert sorted(data) == ["anchors", "certificates", "exact", "invariant",
                            "lower", "params", "upper"]
    assert data["lower"] == "6" and data["upper"] == "6" and data["exact"] == "6"
    assert data["certificates"][0]["checks"]["covers_all_edges"] is True
    r = pd_bounds(5, 2)
    data = json.loads(_render_report(r, "json"))
    assert data["exact"] is None
    assert data["lower"] == "14" and data["upper"] == "16"
