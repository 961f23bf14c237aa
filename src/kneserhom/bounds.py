"""Regularity and projective-dimension bounds with checkable certificates.

Bound values come from closed formulas; every structural claim feeding them
(induced matching, co-chordal cover, independent dominating set, demand
domination) is re-verified on the concrete graph before a certificate is
issued.  A Certificate cannot exist with a failed check: construction
raises instead.  Reports keep lower <= upper as a hard invariant and mark
exactness only with a stated justification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .combinatorics import binom, bit_indices, check_mk, mask_of, subset_str
from .config import DEFAULT_GUARDS, GuardExceeded, Guards
from .graphs import (EdgeCapExceeded, Graph, closed_neighborhood, complement,
                     induced, induced_matching_number, is_cochordal,
                     matching_checks, neighborhood)
from .kneser import (KneserGraph, build, domination_choice, dominating_w,
                     double_star_cover, e_s_family, gamma_demand_family,
                     spread, star_cover)
from .symmetry import orbit_roots


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class CertificateError(ValueError):
    """A structural check failed while assembling a certificate."""


@dataclass(frozen=True)
class Certificate:
    """A verified structural witness.  checks maps check names to True;
    construction refuses anything unverified."""

    kind: str
    payload: dict
    checks: tuple[tuple[str, bool], ...]

    def __post_init__(self):
        failed = [name for name, ok in self.checks if not ok]
        if failed:
            raise CertificateError(
                f"certificate {self.kind} failed checks: {', '.join(failed)}")


@dataclass(frozen=True)
class BoundReport:
    invariant: str
    params: dict
    lower: int
    upper: int
    exact: int | None = None
    certificates: tuple[Certificate, ...] = ()
    anchors: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(
                f"BoundReport {self.invariant}: lower {self.lower} exceeds "
                f"upper {self.upper}")
        if self.exact is not None and not self.lower <= self.exact <= self.upper:
            raise ValueError(
                f"BoundReport {self.invariant}: exact {self.exact} outside "
                f"[{self.lower}, {self.upper}]")


# ---------------------------------------------------------------------------
# formula-level bounds
# ---------------------------------------------------------------------------


def reg_power_bounds(m: int, k: int, p: int) -> BoundReport:
    """Bounds on reg(R / I(H(m,k))^p): the induced-matching lower bound and
    the star-cover upper bound both shift by 2(p - 1)."""
    check_mk(m, k)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    lower = 2 * (p - 1) + binom(2 * k, k)
    upper = 2 * (p - 1) + binom(m, k)
    exact = None
    anchors = [
        "regularity lower bound via induced matching, shifted by 2(p-1)",
        "regularity upper bound via co-chordal star cover, shifted by 2(p-1)",
    ]
    if m in (2 * k, 2 * k + 1):
        exact = lower
        anchors.append(f"exact: the lower bound is attained for m = 2k{'' if m == 2 * k else ' + 1'}")
    return BoundReport("regularity_of_power", {"m": m, "k": k, "p": p},
                       lower, upper, exact, (), tuple(anchors))


def reg_bounds(m: int, k: int) -> BoundReport:
    """Bounds on reg(R / I(H(m,k)))."""
    check_mk(m, k)
    lower = binom(2 * k, k)
    anchors = ["regularity lower bound via induced matching"]
    if m == 2 * k:
        upper = lower
        anchors.append("ladder graph: lower and upper bounds coincide")
    else:
        upper = min(binom(m, k), (2 * binom(m, k) + 1) // 3)
        anchors.append("regularity upper bound via co-chordal star cover")
        anchors.append("regularity upper bound via spanning-path edge count")
    exact = None
    if m in (2 * k, 2 * k + 1):
        exact = lower
        anchors.append(f"exact: the lower bound is attained for m = 2k{'' if m == 2 * k else ' + 1'}")
    return BoundReport("regularity", {"m": m, "k": k}, lower, upper, exact,
                       (), tuple(anchors))


def pd_bounds(m: int, k: int) -> BoundReport:
    """Bounds on pd(R / I(H(m,k))) over 2C(m,k) variables."""
    check_mk(m, k)
    n = 2 * binom(m, k)
    lower = n - binom(2 * k, k)
    ratio = _ceil_div(binom(m, k), binom(m - k, k))
    upper = n - max(k + 1, ratio)
    anchors = [
        "projective-dimension lower bound via independent dominating set",
        "projective-dimension upper bound via neighborhood-demand covering",
        "projective-dimension upper bound via edge density (ceiling applied)",
    ]
    exact = None
    if lower == upper:
        exact = lower
        anchors.append("exact: lower and upper bounds coincide")
    return BoundReport("projective_dimension", {"m": m, "k": k}, lower, upper,
                       exact, (), tuple(anchors))


# ---------------------------------------------------------------------------
# exact search primitives
# ---------------------------------------------------------------------------


class SearchResult(NamedTuple):
    value: int
    witness: int  # vertex mask


def gamma_of(g: Graph, c: int, guards: Guards = DEFAULT_GUARDS) -> SearchResult:
    """Minimum size of a vertex set X with c contained in N(X), by iterative
    deepening on each part of c (`_gamma`); the witness mask attains it.
    Raises if some demanded vertex has no neighbor at all."""
    return _gamma(g, c, guards, 0)[0]


def _gamma(g: Graph, c: int, guards: Guards, nodes: int) -> tuple[SearchResult, int]:
    """`gamma_of`, counting its search nodes against max_search_nodes on top
    of the nodes already spent; returns the result and the new count.

    Split lemma: put two demanded vertices in one part when their
    neighborhoods meet, and close that relation transitively.  A vertex
    covers demanded vertices of one part only, so the parts have disjoint
    coverer sets, a cover of c is a disjoint union of covers of its parts,
    and gamma(c) is the sum of gamma(part).  Each part is searched on its
    own, lowest vertex first, and the witness is the union of theirs.  On
    a bipartite graph the two sides fall in separate parts."""
    if c & ~g.full_mask:
        raise ValueError("gamma_of: c mentions vertices outside the graph")
    adj = g.adj
    # Adjacency is symmetric, so the vertices that cover u are its neighbors.
    # tiers groups the demanded vertices by coverer count, fewest first: the
    # lowest uncovered bit of the first tier that has one is the lowest-id
    # uncovered vertex with the fewest coverers, the one branched on.
    by_count: dict[int, int] = {}
    for u in bit_indices(c):
        if not adj[u]:
            raise ValueError(f"gamma_of: vertex {u} has no neighbor; demand not coverable")
        count = adj[u].bit_count()
        by_count[count] = by_count.get(count, 0) | 1 << u
    tiers = [by_count[count] for count in sorted(by_count)]
    # A part is the closure of its lowest vertex: add the demanded vertices
    # that its coverers cover until none is new.
    parts = []
    left = c
    while left:
        part = frontier = left & -left
        coverers = 0
        while frontier:
            fresh = neighborhood(g, frontier) & ~coverers
            coverers |= fresh
            frontier = neighborhood(g, fresh) & left & ~part
            part |= frontier
        left &= ~part
        parts.append((part, max((adj[v] & part).bit_count() for v in bit_indices(coverers))))

    def dfs(uncovered: int, depth: int, chosen: int) -> int | None:
        # A node is entered only when it is no leaf, has depth left and
        # passes the bound, so every call counts.
        nonlocal nodes
        nodes += 1
        guards.check("max_search_nodes", nodes, "gamma_of")
        tier = next(t for t in tiers if t & uncovered) & uncovered
        depth -= 1
        todo = adj[(tier & -tier).bit_length() - 1]
        while todo:
            bit = todo & -todo
            todo ^= bit
            rest = uncovered & ~adj[bit.bit_length() - 1]
            if rest == 0:
                return chosen | bit
            # ceil(|rest| / max_cover) <= depth, never at depth 0.
            if depth and rest.bit_count() <= depth * max_cover:
                got = dfs(rest, depth, chosen | bit)
                if got is not None:
                    return got
        return None

    witness = 0
    for part, max_cover in parts:
        # The first depth is the bound itself, so the root always passes it.
        depth = _ceil_div(part.bit_count(), max_cover)
        while (got := dfs(part, depth, 0)) is None:
            depth += 1
        witness |= got
    return SearchResult(witness.bit_count(), witness), nodes


def independent_domination_number(g: Graph, guards: Guards = DEFAULT_GUARDS) -> SearchResult:
    """i(G): minimum size of an independent dominating set (equivalently, the
    smallest maximal independent set), by iterative deepening.

    Each depth starts once from each root (r, orbit, earlier) of
    `symmetry.orbit_roots`, which states why that suffices: r is chosen,
    and the vertices of earlier may not be chosen but must still be
    dominated.  An automorphism maps a minimum independent dominating set
    onto one that holds some r and misses its earlier, so no depth below
    i(G) succeeds and depth i(G) does."""
    if g.n == 0:
        return SearchResult(0, 0)
    adj = g.adj
    full = g.full_mask
    closed = [adj[v] | 1 << v for v in range(g.n)]
    max_closed = max(row.bit_count() for row in closed)
    nodes = 0

    def dfs(chosen: int, dominated: int, allowed: int, depth: int) -> int | None:
        # The caller enters a child only when it dominates not all, has
        # depth left and passes the bound, so every call counts.
        nonlocal nodes
        nodes += 1
        guards.check("max_search_nodes", nodes, "independent_domination_number")
        undom = full & ~dominated
        depth -= 1
        todo = closed[(undom & -undom).bit_length() - 1] & allowed
        while todo:
            bit = todo & -todo
            todo ^= bit
            row = closed[bit.bit_length() - 1]
            dom = dominated | row
            if dom == full:
                return chosen | bit
            # ceil(|undominated| / max_closed) <= depth, never at depth 0.
            if depth and (full & ~dom).bit_count() <= depth * max_closed:
                got = dfs(chosen | bit, dom, allowed & ~row, depth)
                if got is not None:
                    return got
        return None

    roots = orbit_roots(adj)
    depth = _ceil_div(g.n, max_closed)
    while True:
        for r, _, earlier in roots:
            if closed[r] == full:
                return SearchResult(1, 1 << r)
            if (full & ~closed[r]).bit_count() <= (depth - 1) * max_closed:
                got = dfs(1 << r, closed[r], full & ~closed[r] & ~earlier, depth - 1)
                if got is not None:
                    return SearchResult(got.bit_count(), got)
        depth += 1


def _maximal_independent_sets(g: Graph, guards: Guards,
                              roots: list[tuple[int, int, int]]) -> list[int]:
    """The maximal independent sets of g that hold the r and miss the
    earlier of some root (r, orbit, earlier) in roots, sorted."""
    # Bron-Kerbosch with pivoting on the complement adjacency.  A root starts
    # with r in R and earlier in X, so a set that some vertex of earlier
    # would extend is never reported.
    nadj = complement(g).adj
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            guards.check("max_search_nodes", len(out), "maximal independent set enumeration")
            return
        pux = p | x
        pivot = max(bit_indices(pux), key=lambda v: (nadj[v] & p).bit_count())
        for v in bit_indices(p & ~nadj[pivot]):
            bk(r | 1 << v, p & nadj[v], x & nadj[v])
            p &= ~(1 << v)
            x |= 1 << v

    for r, _, earlier in roots:
        bk(1 << r, nadj[r] & ~earlier, nadj[r] & earlier)
    return sorted(out)


def tau_of(g: Graph, guards: Guards = DEFAULT_GUARDS) -> int:
    """tau(G): the maximum over maximal independent sets C (of the graph with
    isolated vertices removed) of the covering number gamma_of(C).

    An automorphism maps maximal independent sets onto maximal independent
    sets and N(X) onto N(image of X), so it keeps gamma_of(C).  The maximum
    is therefore taken over the C that hold the r and miss the earlier of
    some root of `symmetry.orbit_roots`.  Each covering search runs once per
    part of C (`_gamma`), so once per side of a bipartite graph.  One
    max_search_nodes count covers the sets listed and the nodes of every
    covering search."""
    live = 0
    for v in range(g.n):
        if g.adj[v]:
            live |= 1 << v
    if live == 0:
        return 0
    g0 = induced(g, live)
    sets = _maximal_independent_sets(g0, guards, orbit_roots(g0.adj))
    best, nodes = 0, len(sets)
    for c in sets:
        got, nodes = _gamma(g0, c, guards, nodes)
        best = max(best, got.value)
    return best


# ---------------------------------------------------------------------------
# certified reports
# ---------------------------------------------------------------------------


def _edge_payload(kn: KneserGraph, edges) -> list:
    out = []
    for u, v in sorted(edges):
        out.append({
            "ids": [u, v],
            "subsets": [subset_str(kn.subset_of(u)), subset_str(kn.subset_of(v))],
        })
    return out


def certify_induced_matching(m: int, k: int, s: int | None = None,
                             guards: Guards = DEFAULT_GUARDS) -> BoundReport:
    """Certified induced matching of size C(2k,k), plus the exact induced
    matching number when the exhaustive search fits the guards.  The
    family is checked by `graphs.matching_checks`, with one mask test per
    edge of the graph in place of a test per pair of edges, by the reach
    lemma stated there."""
    kn = build(m, k, guards)
    g = kn.graph
    s = spread(kn, s)
    fam = e_s_family(kn, s)
    expected = binom(2 * k, k)
    present, pairwise, maximal = matching_checks(g, fam)
    cert = Certificate(
        kind="induced_matching",
        payload={
            "s": subset_str(s),
            "size": len(fam),
            "edges": _edge_payload(kn, fam),
        },
        checks=(
            ("size_is_central_binomial", len(fam) == expected),
            ("all_edges_present", present),
            ("pairwise_three_disjoint", pairwise),
            ("maximal", maximal),
        ),
    )
    exact = None
    anchors = ["induced matching certified edge by edge",
               "upper bound: induced matchings never exceed the regularity"]
    try:
        found = induced_matching_number(g, guards)
        exact = found.size
        anchors.append("exact value by exhaustive branch-and-bound search")
    except GuardExceeded:
        anchors.append("exhaustive search skipped: outside the configured guards")
    except EdgeCapExceeded as exc:
        anchors.append(f"exhaustive search skipped: {exc}")
    reg_upper = reg_bounds(m, k).upper
    return BoundReport("induced_matching", {"m": m, "k": k},
                       lower=expected, upper=reg_upper, exact=exact,
                       certificates=(cert,), anchors=tuple(anchors))


STAR_VARIANT = "stars"
DOUBLE_STAR_VARIANT = "double_stars"


def _relabelled(edges) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(s, edges) for the subgraph an edge list spans: its s vertices
    renumbered 0..s-1 in increasing order, the order of the edges kept."""
    support = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(support)}
    return len(support), tuple((index[u], index[v]) for u, v in edges)


def certify_cochordal_cover(m: int, k: int, variant: str = STAR_VARIANT,
                            t: int | None = None,
                            guards: Guards = DEFAULT_GUARDS) -> BoundReport:
    """Certified cover of the edge set by co-chordal subgraphs; the member
    count upper-bounds the regularity.

    Each distinct relabelled member (`_relabelled`) is checked once, with
    the validation of `Graph.from_edges` and the MCS and PEO check of
    `is_cochordal`.  That is exact: equal (s, edges) tuples build the same
    `Graph`, which has one answer.  All the stars of H(m, k) relabel to one
    graph, K_1,d with d = C(m-k, k); the double stars of H(9,4) to one to
    five, by t."""
    kn = build(m, k, guards)
    g = kn.graph
    if variant == STAR_VARIANT:
        members = star_cover(kn)
        kind = "star_cover"
    elif variant == DOUBLE_STAR_VARIANT:
        if t is None:
            t = m
        members = double_star_cover(kn, t)
        kind = "double_star_cover"
    else:
        raise ValueError(f"unknown cover variant {variant!r}")
    all_edges = set(g.edges())
    covered = set()
    for member in members:
        covered.update(member)
    distinct = {_relabelled(member) for member in members if member}
    cochordal = all(is_cochordal(Graph.from_edges(n, edges))
                    for n, edges in distinct)
    cert = Certificate(
        kind=kind,
        payload={
            "members": len(members),
            "member_sizes": [len(member) for member in members],
            **({"t": t} if variant == DOUBLE_STAR_VARIANT else {}),
        },
        checks=(
            ("covers_all_edges", covered == all_edges),
            ("members_cochordal", cochordal),
        ),
    )
    lower = binom(2 * k, k)
    upper = len(members)
    exact = lower if lower == upper else None
    anchors = [
        "regularity lower bound via induced matching",
        "regularity upper bound via certified co-chordal edge cover",
    ]
    if exact is not None:
        anchors.append("exact: certified lower and upper bounds coincide")
    return BoundReport("regularity", {"m": m, "k": k, "cover": variant},
                       lower, upper, exact, (cert,), tuple(anchors))


def certify_domination(m: int, k: int, s: int | None = None,
                       j: int | None = None,
                       guards: Guards = DEFAULT_GUARDS) -> BoundReport:
    """Certified independent dominating set of size C(2k,k), for the s and
    j of `kneser.domination_choice`; the exact independent domination
    number is attached when the search completes."""
    kn = build(m, k, guards)
    g = kn.graph
    choice = domination_choice(kn, s, j)
    w = dominating_w(kn, *(choice or ()))
    params_extra = {} if choice is None else {"s": subset_str(choice[0]),
                                              "j": choice[1]}
    independent = all(g.adj[v] & w == 0 for v in bit_indices(w))
    dominating = closed_neighborhood(g, w) == g.full_mask
    cert = Certificate(
        kind="independent_dominating_set",
        payload={
            "size": w.bit_count(),
            "vertices": [
                {"id": v, "subset": subset_str(kn.subset_of(v)),
                 "side": kn.side_of(v).value}
                for v in bit_indices(w)
            ],
            **params_extra,
        },
        checks=(
            ("independent", independent),
            ("dominating", dominating),
            ("size_is_central_binomial", w.bit_count() == binom(2 * k, k)),
        ),
    )
    n = g.n
    max_closed = max(row.bit_count() + 1 for row in g.adj)
    lower = _ceil_div(n, max_closed)
    upper = w.bit_count()
    exact = None
    anchors = [
        "domination lower bound via closed neighborhood size",
        "independent domination upper bound via certified set",
    ]
    try:
        found = independent_domination_number(g, guards)
        exact = found.value
        anchors.append("exact value by exhaustive iterative-deepening search")
    except GuardExceeded:
        anchors.append("exhaustive search skipped: outside the configured guards")
    return BoundReport("independent_domination", {"m": m, "k": k, **params_extra},
                       lower, upper, exact, (cert,), tuple(anchors))


def certify_gamma_demand(m: int, k: int, q: int | None = None,
                         s: int | None = None,
                         guards: Guards = DEFAULT_GUARDS) -> BoundReport:
    """Certified demand family: gamma_of(D) for the right-side demand D of
    supersets of a (k-1)-set Q, with the (k+1)-element witness family.  By
    default q holds the lowest k-1 elements outside s, and s the lowest
    k+1 outside q."""
    kn = build(m, k, guards)
    g = kn.graph
    ground = range(1, m + 1)
    if q is None:
        # Elements of s come last, so that an s too large for q to fit
        # beside it is named by its own check, not by a short q.
        q = mask_of(sorted(ground, key=lambda e: (s or 0) >> (e - 1) & 1)[:k - 1])
    if s is None:
        s = mask_of([e for e in ground if not q >> (e - 1) & 1][:k + 1])
    demand, witnesses = gamma_demand_family(kn, q, s)
    witness_mask = 0
    for v in witnesses:
        witness_mask |= 1 << v
    witness_covers = demand & ~neighborhood(g, witness_mask) == 0
    expected_demand = binom(m - k + 1, m - 2 * k + 1)
    result = gamma_of(g, demand, guards)
    cert = Certificate(
        kind="gamma_demand_family",
        payload={
            "q": subset_str(q),
            "s": subset_str(s),
            "demand_size": demand.bit_count(),
            "witness": [subset_str(kn.subset_of(v)) for v in witnesses],
            "gamma": result.value,
            "gamma_witness": [subset_str(kn.subset_of(v))
                              for v in bit_indices(result.witness)],
        },
        checks=(
            ("demand_size_expected", demand.bit_count() == expected_demand),
            ("witness_family_covers_demand", witness_covers),
            ("witness_size_k_plus_1", len(witnesses) == k + 1),
            ("gamma_not_above_witness_size", result.value <= k + 1),
        ),
    )
    anchors = [
        "covering number of the demand family by exhaustive search",
        "upper witness: the (k+1)-element family covers the demand",
    ]
    return BoundReport("gamma_of_demand", {"m": m, "k": k,
                                           "q": subset_str(q), "s": subset_str(s)},
                       lower=result.value, upper=result.value, exact=result.value,
                       certificates=(cert,), anchors=tuple(anchors))
