"""The four workloads: strand, table, search and cli.

Each workload draws its inputs from the seed once, builds the graphs it uses
at set-up, and then runs rounds of the same operations.  An operation is one
call into kneserhom's public API (or one `cli.main` request); its wall time
counts towards the round, bookkeeping between operations does not.  The
checks run once, on the first round's answers, against computations in
`reference.py` or properties the answers must have; later rounds must give
the same answers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import shutil
from math import comb
from pathlib import Path

import reference as ref


class Op:
    """One timed call.  `ok(result, outputs)` decides whether it failed;
    `before(outputs)` runs untimed just ahead of it."""

    def __init__(self, name, call, ok=None, before=None):
        self.name, self.call, self.ok, self.before = name, call, ok, before


def random_subset(rng, elements, size: int) -> list[int]:
    return sorted(rng.sample(list(elements), size))


def large_strands(rng, count: int) -> list[tuple[int, int, int]]:
    """Closed-form instances far too big to build as graphs."""
    return [(rng.randint(36, 40), rng.randint(8, 10), rng.randint(25, 29))
            for _ in range(count)]


class Workload:
    name = ""
    modules: tuple[str, ...] = ()

    def __init__(self, rng, workdir: Path):
        """Draw the inputs from rng; workdir is for files the run writes."""
        self.workdir = workdir

    def setup(self, K, guards) -> dict:
        raise NotImplementedError

    def ops(self, K, state: dict, guards, round_no: int) -> list[Op]:
        raise NotImplementedError

    def end_round(self, round_no: int) -> None:
        pass

    def check(self, K, state: dict, out: dict) -> list[str]:
        raise NotImplementedError


def expect(errors: list[str], cond: bool, what: str) -> None:
    if not cond:
        errors.append(what)


# ---------------------------------------------------------------------------
# strand: the linear strand of H(6,2), formula against oracle
# ---------------------------------------------------------------------------


class Strand(Workload):
    name = "strand"
    modules = ("closed_form", "hochster", "kneser", "config")

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.large = large_strands(rng, 3)
        # subsets of H(6,2)'s 30 vertices for the reduced_h0 spot check
        self.sample = [random_subset(rng, range(30), rng.randint(2, 6))
                       for _ in range(200)]

    def setup(self, K, guards):
        return {"H62": K.kneser.build(6, 2, guards).graph,
                "H52": K.kneser.build(5, 2, guards).graph}

    def ops(self, K, state, guards, round_no):
        ops = [Op("formula 6 2", lambda: K.closed_form.linear_strand(6, 2, 5))]
        for i in range(1, 6):
            ops.append(Op(f"oracle 6 2 {i}", lambda i=i: K.hochster.linear_strand_oracle(
                state["H62"], i, threads=2, guards=guards)))
        ops.append(Op("formula 5 2", lambda: K.closed_form.linear_strand(5, 2, 3)))
        for i in range(1, 4):
            ops.append(Op(f"oracle 5 2 {i}", lambda i=i: K.hochster.linear_strand_oracle(
                state["H52"], i, threads=2, guards=guards)))
        for m, k, i_max in self.large:
            ops.append(Op(f"formula {m} {k} {i_max}",
                          lambda m=m, k=k, i_max=i_max: K.closed_form.linear_strand(m, k, i_max)))
        return ops

    def check(self, K, state, out):
        errors = []
        formula = out["formula 6 2"].values
        oracle = tuple(out[f"oracle 6 2 {i}"] for i in range(1, 6))
        expect(errors, formula == oracle, f"H(6,2): formula {formula} != oracle {oracle}")
        expect(errors, formula[:3] == ref.strand_head(6, 2),
               f"H(6,2): head {formula[:3]} != first principles {ref.strand_head(6, 2)}")
        expect(errors, formula[0] == ref.edge_count(6, 2), "H(6,2): beta_{1,2} != edge count")
        worked = (30, 60, 20)
        expect(errors, out["formula 5 2"].values == worked,
               f"H(5,2): formula {out['formula 5 2'].values} != paper {worked}")
        oracle52 = tuple(out[f"oracle 5 2 {i}"] for i in range(1, 4))
        expect(errors, oracle52 == worked, f"H(5,2): oracle {oracle52} != paper {worked}")
        for m, k, i_max in self.large:
            values = out[f"formula {m} {k} {i_max}"].values
            expect(errors, len(values) == i_max, f"H({m},{k}): {len(values)} values")
            expect(errors, values[:3] == ref.strand_head(m, k),
                   f"H({m},{k}): head != first principles")
        graph = ref.RefKneser(6, 2)
        for vertices in self.sample:
            got = K.hochster.reduced_h0(state["H62"], ref.mask_of(v + 1 for v in vertices))
            want = ref.component_count_of_complement(graph, vertices) - 1
            expect(errors, got == want, f"reduced_h0 on {vertices}: {got} != {want}")
        return errors


# ---------------------------------------------------------------------------
# table: full Betti tables over GF(2), GF(3) and Q
# ---------------------------------------------------------------------------


class Table(Workload):
    name = "table"
    modules = ("hochster", "kneser", "closed_form", "bounds", "config")
    INSTANCES = tuple((m, 1) for m in range(2, 8)) + ((4, 2),)
    FIELDS = (2, 3, 0)

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.order = [(m, k, c) for m, k in self.INSTANCES for c in self.FIELDS]
        rng.shuffle(self.order)
        # vertex subsets whose slice homology is recomputed apart
        self.slices = [((m, k), rng.getrandbits(2 * comb(m, k)))
                       for m, k in ((7, 1), (6, 1), (4, 2)) for _ in range(10)]

    def setup(self, K, guards):
        return {(m, k): K.kneser.build(m, k, guards).graph for m, k in self.INSTANCES}

    def ops(self, K, state, guards, round_no):
        return [Op(f"table {m} {k} {c}",
                   lambda m=m, k=k, c=c: K.hochster.full_betti_oracle(
                       state[(m, k)], field_char=c, guards=guards))
                for m, k, c in self.order]

    def check(self, K, state, out):
        errors = []
        for m, k in self.INSTANCES:
            graph = ref.RefKneser(m, k)
            n = 2 * comb(m, k)
            want = ref.hilbert_numerator_from_faces(ref.independence_polynomial(graph.adj))
            for c in self.FIELDS:
                t = out[f"table {m} {k} {c}"]
                tag = f"H({m},{k}) char {c}"
                expect(errors, (t.n, t.field_char) == (n, c), f"{tag}: header {(t.n, t.field_char)}")
                got = ref.hilbert_numerator_from_betti(t.entries, n)
                expect(errors, got == want, f"{tag}: Hilbert series {got} != {want}")
                pd = max(i for i, _ in t.entries)
                reg = max(j - i for i, j in t.entries)
                row = [t.entries.get((i, i + 1), 0) for i in range(1, pd + 1)]
                formula = [K.closed_form.betti_linear(m, k, i) for i in range(1, pd + 1)]
                expect(errors, row == formula, f"{tag}: linear row {row} != formula {formula}")
                head = ref.strand_head(m, k)
                expect(errors, tuple(row[:3]) == head[:len(row[:3])],
                       f"{tag}: linear row head != first principles {head}")
                pdb, regb = K.bounds.pd_bounds(m, k), K.bounds.reg_bounds(m, k)
                expect(errors, pdb.lower <= pd <= pdb.upper,
                       f"{tag}: pd {pd} outside [{pdb.lower}, {pdb.upper}]")
                expect(errors, regb.lower <= reg <= regb.upper,
                       f"{tag}: reg {reg} outside [{regb.lower}, {regb.upper}]")
        # The Hilbert series only sees Euler characteristics, so the rank
        # kernels are checked slice by slice.
        for (m, k), w in self.slices:
            g, sl = state[(m, k)], K.hochster.enumerate_faces(state[(m, k)], w)
            for c in self.FIELDS:
                got = K.hochster.reduced_homology_dims(sl, c)
                want = ref.reduced_homology(g.adj, w, c)
                expect(errors, got == want,
                       f"H({m},{k}) slice {w:#x} char {c}: homology {got} != {want}")
        return errors


# ---------------------------------------------------------------------------
# search: certified bound reports and the exact searches behind them
# ---------------------------------------------------------------------------


class Search(Workload):
    name = "search"
    modules = ("bounds", "graphs", "kneser", "config")
    MATCHING = ((5, 2), (6, 2), (7, 2), (7, 3), (8, 3), (9, 4))
    STARS = ((5, 2), (6, 2), (7, 3), (8, 3), (9, 4))
    DOUBLE_STARS = ((5, 2), (7, 3), (9, 4))
    # certify_domination(8, 3) and (9, 4) spend 30 s or more before the
    # search-node guard refuses, so they are left out.
    DOMINATION = ((5, 2), (6, 2), (7, 2), (7, 3), (8, 2))
    GAMMA = ((5, 2), (6, 2), (7, 3), (8, 3), (9, 4))
    DOMINATION_NUMBER = (8, 9, 10)  # H(m, 2)
    TAU = (7, 8)  # H(m, 2)
    MATCHING_NUMBER = (6, 2)

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        ground = lambda m: range(1, m + 1)
        self.spread = {mk: random_subset(rng, ground(mk[0]), mk[0] - 2 * mk[1])
                       for mk in self.MATCHING}
        self.t = {mk: rng.randint(1, mk[0]) for mk in self.DOUBLE_STARS}
        self.dom = {}
        for m, k in self.DOMINATION:
            s = random_subset(rng, ground(m), m - 2 * k)
            self.dom[(m, k)] = (s, rng.choice([e for e in ground(m) if e not in s]))
        self.gamma = {}
        for m, k in self.GAMMA:
            q = random_subset(rng, ground(m), k - 1)
            s = random_subset(rng, [e for e in ground(m) if e not in q], k + 1)
            self.gamma[(m, k)] = (q, s)

    def setup(self, K, guards):
        graphs = {m: K.kneser.build(m, 2, guards).graph
                  for m in sorted(set(self.DOMINATION_NUMBER + self.TAU))}
        graphs[6] = K.kneser.build(*self.MATCHING_NUMBER, guards).graph
        return graphs

    def ops(self, K, state, guards, round_no):
        b = K.bounds
        ops = []
        for m, k in self.MATCHING:
            s = ref.mask_of(self.spread[(m, k)])
            ops.append(Op(f"matching {m} {k}", lambda m=m, k=k, s=s:
                          b.certify_induced_matching(m, k, s, guards=guards)))
        for m, k in self.STARS:
            ops.append(Op(f"stars {m} {k}", lambda m=m, k=k:
                          b.certify_cochordal_cover(m, k, b.STAR_VARIANT, guards=guards)))
        for m, k in self.DOUBLE_STARS:
            t = self.t[(m, k)]
            ops.append(Op(f"double_stars {m} {k}", lambda m=m, k=k, t=t:
                          b.certify_cochordal_cover(m, k, b.DOUBLE_STAR_VARIANT, t=t,
                                                    guards=guards)))
        for m, k in self.DOMINATION:
            s, j = self.dom[(m, k)]
            ops.append(Op(f"domination {m} {k}", lambda m=m, k=k, s=ref.mask_of(s), j=j:
                          b.certify_domination(m, k, s, j, guards=guards)))
        for m, k in self.GAMMA:
            q, s = self.gamma[(m, k)]
            ops.append(Op(f"gamma {m} {k}", lambda m=m, k=k, q=ref.mask_of(q), s=ref.mask_of(s):
                          b.certify_gamma_demand(m, k, q, s, guards=guards)))
        for m in self.DOMINATION_NUMBER:
            ops.append(Op(f"domination_number {m} 2", lambda m=m:
                          b.independent_domination_number(state[m], guards)))
        for m in self.TAU:
            ops.append(Op(f"tau {m} 2", lambda m=m: b.tau_of(state[m], guards)))
        edges = ref.edge_count(*self.MATCHING_NUMBER)
        ops.append(Op("matching_number 6 2", lambda: K.graphs.induced_matching_number(
            state[6], guards, max_edges=edges)))
        return ops

    def check(self, K, state, out):
        errors = []
        graph = functools.cache(ref.RefKneser)

        def bounded(tag, r, exact_needed=False):
            expect(errors, r.lower <= r.upper, f"{tag}: lower {r.lower} > upper {r.upper}")
            if r.exact is not None:
                expect(errors, r.lower <= r.exact <= r.upper, f"{tag}: exact outside bounds")
            elif exact_needed:
                errors.append(f"{tag}: no exact value")

        for m, k in self.MATCHING:
            tag, r, g = f"matching H({m},{k})", out[f"matching {m} {k}"], graph(m, k)
            payload = r.certificates[0].payload
            pairs = [tuple(e["ids"]) for e in payload["edges"]]
            ids_ok = all(g.vertex("L", e["subsets"][0]) == e["ids"][0]
                         and g.vertex("R", e["subsets"][1]) == e["ids"][1]
                         for e in payload["edges"])
            expect(errors, ids_ok, f"{tag}: edge ids do not match their subsets")
            expect(errors, ref.is_induced_matching(g, pairs), f"{tag}: not an induced matching")
            expect(errors, len(pairs) == comb(2 * k, k) == r.lower, f"{tag}: size {len(pairs)}")
            expect(errors, ref.parse_subset(payload["s"]) == ref.mask_of(self.spread[(m, k)]),
                   f"{tag}: spread {payload['s']} is not the one asked for")
            bounded(tag, r)
            if r.exact is not None:
                expect(errors, r.exact == ref.max_induced_matching(g),
                       f"{tag}: exact {r.exact} is not the maximum")
        for variant, instances in (("stars", self.STARS), ("double_stars", self.DOUBLE_STARS)):
            for m, k in instances:
                tag, r = f"{variant} H({m},{k})", out[f"{variant} {m} {k}"]
                kn = K.kneser.build(m, k)
                members = (K.kneser.star_cover(kn) if variant == "stars"
                           else K.kneser.double_star_cover(kn, self.t[(m, k)]))
                expect(errors, len(members) == r.upper, f"{tag}: {len(members)} members")
                expect(errors, ref.is_cochordal_cover(graph(m, k), members),
                       f"{tag}: members are not a co-chordal cover")
                expect(errors, r.lower == comb(2 * k, k), f"{tag}: lower {r.lower}")
                bounded(tag, r)
        for m, k in self.DOMINATION:
            tag, r, g = f"domination H({m},{k})", out[f"domination {m} {k}"], graph(m, k)
            verts = r.certificates[0].payload["vertices"]
            ids = [v["id"] for v in verts]
            expect(errors, all(g.vertex(v["side"], v["subset"]) == v["id"] for v in verts),
                   f"{tag}: vertex ids do not match their subsets")
            expect(errors, ref.is_independent_dominating(g, ids),
                   f"{tag}: witness is not independent and dominating")
            expect(errors, len(ids) == r.upper == comb(2 * k, k), f"{tag}: witness size")
            bounded(tag, r, exact_needed=True)
            if k == 2:
                smallest = min(len(c) for c in ref.maximal_independent_sets(g))
                expect(errors, r.exact == smallest,
                       f"{tag}: exact {r.exact} != smallest maximal independent set {smallest}")
        for m, k in self.GAMMA:
            tag, r, g = f"gamma H({m},{k})", out[f"gamma {m} {k}"], graph(m, k)
            q, s = self.gamma[(m, k)]
            payload = r.certificates[0].payload
            demand = 0
            for (side, b), v in g.id_of.items():
                if side == "R" and b & ref.mask_of(q) == ref.mask_of(q):
                    demand |= 1 << v
            covered = 0
            for sub in payload["gamma_witness"]:
                covered |= g.adj[g.vertex("L", sub)]
            expect(errors, demand & ~covered == 0, f"{tag}: witness does not cover the demand")
            expect(errors, len(payload["gamma_witness"]) == payload["gamma"] == r.exact,
                   f"{tag}: witness size")
            expect(errors, payload["demand_size"] == demand.bit_count(), f"{tag}: demand size")
            expect(errors, r.exact == ref.min_cover(g.adj, demand),
                   f"{tag}: gamma {r.exact} is not the minimum")
            expect(errors, (ref.parse_subset(payload["q"]), ref.parse_subset(payload["s"]))
                   == (ref.mask_of(q), ref.mask_of(s)), f"{tag}: q, s are not the ones asked for")
        for m in self.DOMINATION_NUMBER:
            tag, r, g = f"domination number H({m},2)", out[f"domination_number {m} 2"], graph(m, 2)
            ids = g.vertices_of(r.witness)
            expect(errors, ref.is_independent_dominating(g, ids) and len(ids) == r.value,
                   f"{tag}: witness is not an independent dominating set of size {r.value}")
            smallest = min(len(c) for c in ref.maximal_independent_sets(g))
            expect(errors, r.value == smallest, f"{tag}: {r.value} != {smallest}")
        for m in self.TAU:
            want = ref.tau(graph(m, 2))
            expect(errors, out[f"tau {m} 2"] == want, f"tau H({m},2): {out[f'tau {m} 2']} != {want}")
        r, g = out["matching_number 6 2"], graph(*self.MATCHING_NUMBER)
        expect(errors, ref.is_induced_matching(g, r.edges) and len(r.edges) == r.size,
               "matching number H(6,2): witness is not an induced matching of its size")
        expect(errors, r.size == ref.max_induced_matching(g),
               "matching number H(6,2): not the maximum")
        return errors


# ---------------------------------------------------------------------------
# cli: every subcommand through cli.main, with a result cache
# ---------------------------------------------------------------------------


def cli_call(K, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = K.cli.main(argv)
    return rc, out.getvalue()


def exit_zero(result, outputs) -> bool:
    return result[0] == 0


class Cli(Workload):
    name = "cli"
    modules = ("cli", "config")
    CERTIFY = ((5, 2), (6, 2), (7, 3))
    BOUNDS = ((5, 2), (6, 2), (7, 3), (8, 3), (9, 4))
    EXPORT = (12, 5)
    INFO = (14, 6)

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.strand = large_strands(rng, 1)[0]
        self.bounds = rng.choice(self.BOUNDS)
        self.power = rng.randint(2, 4)
        self.chars = rng.sample([2, 3, 0], 3)
        m, k = self.certify = rng.choice(self.CERTIFY)
        ground = range(1, m + 1)
        spread = random_subset(rng, ground, m - 2 * k)
        j = rng.choice([e for e in ground if e not in spread])
        q = random_subset(rng, ground, k - 1)
        s_gamma = random_subset(rng, [e for e in ground if e not in q], k + 1)
        join = lambda xs: ",".join(map(str, xs))
        cochord = (["--variant", "double-stars", "--t", str(rng.randint(1, m))]
                   if m == 2 * k + 1 else ["--variant", "stars"])
        self.certify_args = {
            "matching": ["--s", join(spread)],
            "cochord": cochord,
            "domination": ["--s", join(spread), "--j", str(j)],
            "gamma": ["--q", join(q), "--s", join(s_gamma)],
        }
        self.q = q

    def setup(self, K, guards):
        return {}

    def _dir(self, round_no: int, name: str) -> str:
        return str(self.workdir / f"round{round_no}" / name)

    def end_round(self, round_no):
        shutil.rmtree(self.workdir / f"round{round_no}", ignore_errors=True)

    def ops(self, K, state, guards, round_no):
        ops = []

        def request(name, argv, ok=exit_zero, before=None):
            ops.append(Op(name, lambda: cli_call(K, argv), ok, before))

        m, k = self.INFO
        request("info text", ["info", str(m), str(k)])
        request("info json", ["info", str(m), str(k), "--output", "json"])
        m, k = self.EXPORT
        for fmt in ("m2", "singular", "dot", "json"):
            request(f"export {fmt}", ["export", str(m), str(k), "--format", fmt])
        m, k, i_max = self.strand
        request("betti-linear json", ["betti-linear", str(m), str(k), "--i-max", str(i_max),
                                      "--output", "json"])
        request("betti-linear verify", ["betti-linear", "5", "2", "--i-max", "4", "--verify",
                                        "--threads", "2", "--output", "json"])
        request("betti-linear csv", ["betti-linear", "6", "2", "--i-max", "5", "--output", "csv"])
        m, k = self.bounds
        for inv in ("reg", "pd", "reg-power"):
            request(f"bounds {inv}", ["bounds", str(m), str(k), "--invariant", inv,
                                      "--p", str(self.power), "--output", "json"])
        cache = self._dir(round_no, "cache")
        for c in self.chars:
            argv = ["betti-table", "4", "2", "--char", str(c), "--cache-dir", cache,
                    "--output", "json"]
            request(f"betti-table {c} write", argv)
            request(f"betti-table {c} read", argv)
        m, k = self.certify
        for kind, extra in self.certify_args.items():
            argv = ["certify", str(m), str(k), "--kind", kind, *extra, "--cache-dir", cache,
                    "--output", "json"]
            request(f"certify {kind} write", argv)
            request(f"certify {kind} read", argv)
        # A corrupt cache entry must give the same bytes as a fresh run.
        for name, argv in (
                ("corrupt betti-table", ["betti-table", "3", "1"]),
                ("corrupt certify", ["certify", "5", "2", "--kind", "gamma",
                                     "--output", "json"])):
            where = self._dir(round_no, name.replace(" ", "-"))
            argv = argv + ["--cache-dir", where]
            request(f"{name} write", argv)

            def overwrite(outputs, where=where):
                for entry in Path(where).iterdir():
                    entry.write_text("garbage{")

            def same_as_fresh(result, outputs, name=name):
                return result[0] == 0 and result == outputs[f"{name} write"]

            request(f"{name} read", argv, same_as_fresh, overwrite)
        return ops

    def check(self, K, state, out):
        errors = []
        def text(name):
            return out[name][1]

        # info
        m, k = self.INFO
        info = json.loads(text("info json"))
        want = {"m": m, "k": k, "vertices": 2 * comb(m, k), "edges": ref.edge_count(m, k),
                "degree": comb(m - k, k), "ladder": m == 2 * k}
        expect(errors, info == want, f"info json {info} != {want}")
        found = re.search(r"edges\s*:\s*(\d+)", text("info text"))
        expect(errors, found and int(found.group(1)) == want["edges"], "info text: edge count")
        # export: every format lists exactly the edges of H(12,5)
        m, k = self.EXPORT
        g = ref.RefKneser(m, k)
        edges = {tuple(e) for e in g.graph.edges()}
        nl = g.n_left

        def gens_to_edges(body):
            pairs = set()
            for gen in body.split(","):
                a, b = re.fullmatch(r"xL(\d+)\*xR(\d+)", gen).groups()
                pairs.add((int(a), nl + int(b)))
            return pairs, len(body.split(","))

        for fmt, pattern in (("m2", r"monomialIdeal\((.*)\);"), ("singular", r"ideal I = (.*);")):
            body = re.search(pattern, text(f"export {fmt}"))
            pairs, count = gens_to_edges(body.group(1)) if body else (set(), 0)
            expect(errors, pairs == edges and count == len(edges),
                   f"export {fmt}: generators are not the {len(edges)} edges")
        dot_edges = {(int(a), int(b)) for a, b in re.findall(r"v(\d+) -- v(\d+);", text("export dot"))}
        expect(errors, dot_edges == edges, "export dot: edges differ")
        dumped = json.loads(text("export json"))
        expect(errors, {tuple(e) for e in dumped["edges"]} == edges
               and len(dumped["edges"]) == len(edges), "export json: edges differ")
        expect(errors, [ref.mask_of(v["subset"]) for v in dumped["vertices"]] == g.masks,
               "export json: vertex subsets differ")
        # betti-linear
        m, k, i_max = self.strand
        strand = json.loads(text("betti-linear json"))
        values = tuple(int(v["value"]) for v in strand["values"])
        expect(errors, len(values) == i_max and values[:3] == ref.strand_head(m, k),
               f"betti-linear {m} {k}: head != first principles")
        verify = json.loads(text("betti-linear verify"))
        rows = verify["rows"]
        expect(errors, verify["verified"] and all(r["formula"] == r["oracle"] for r in rows)
               and [r["formula"] for r in rows[:3]] == ["30", "60", "20"],
               "betti-linear 5 2 --verify: not verified against the paper's 30, 60, 20")
        csv_rows = text("betti-linear csv").splitlines()
        expect(errors, csv_rows[0] == "i,betti" and len(csv_rows) == 6 and
               tuple(int(r.split(",")[1]) for r in csv_rows[1:4]) == ref.strand_head(6, 2),
               "betti-linear csv: head != first principles")
        # bounds
        for inv in ("reg", "pd", "reg-power"):
            r = json.loads(text(f"bounds {inv}"))
            lo, hi = int(r["lower"]), int(r["upper"])
            expect(errors, lo <= hi and (r["exact"] is None or lo <= int(r["exact"]) <= hi),
                   f"bounds {inv}: inconsistent")
        bm, bk = self.bounds
        expect(errors, int(json.loads(text("bounds reg"))["lower"]) == comb(2 * bk, bk),
               "bounds reg: lower is not the induced matching size C(2k,k)")
        # betti-table through the cache
        g42 = ref.RefKneser(4, 2)
        want = ref.hilbert_numerator_from_faces(ref.independence_polynomial(g42.adj))
        for c in self.chars:
            fresh, cached = out[f"betti-table {c} write"], out[f"betti-table {c} read"]
            expect(errors, fresh == cached, f"betti-table char {c}: cached output differs")
            table = json.loads(fresh[1])
            entries = {(e["i"], e["j"]): int(e["value"]) for e in table["entries"]}
            expect(errors, table["char"] == c and
                   ref.hilbert_numerator_from_betti(entries, 12) == want,
                   f"betti-table char {c}: Hilbert series differs")
        # certify through the cache
        m, k = self.certify
        g = ref.RefKneser(m, k)
        for kind in self.certify_args:
            fresh, cached = out[f"certify {kind} write"], out[f"certify {kind} read"]
            expect(errors, fresh == cached, f"certify {kind}: cached output differs")
            r = json.loads(fresh[1])
            lo, hi = int(r["lower"]), int(r["upper"])
            expect(errors, lo <= hi and (r["exact"] is None or lo <= int(r["exact"]) <= hi),
                   f"certify {kind}: inconsistent bounds")
            expect(errors, all(all(c["checks"].values()) for c in r["certificates"]),
                   f"certify {kind}: a certificate check is false")
            payload = r["certificates"][0]["payload"]
            if kind == "matching":
                pairs = [(g.vertex("L", e["subsets"][0]), g.vertex("R", e["subsets"][1]))
                         for e in payload["edges"]]
                expect(errors, ref.is_induced_matching(g, pairs) and len(pairs) == lo,
                       "certify matching: not an induced matching of size lower")
            elif kind == "domination":
                ids = [g.vertex(v["side"], v["subset"]) for v in payload["vertices"]]
                expect(errors, ref.is_independent_dominating(g, ids) and len(ids) == hi,
                       "certify domination: witness is not independent and dominating")
            elif kind == "gamma":
                covered = 0
                for sub in payload["gamma_witness"]:
                    covered |= g.adj[g.vertex("L", sub)]
                demand = sum(1 << v for (side, b), v in g.id_of.items()
                             if side == "R" and b & ref.mask_of(self.q) == ref.mask_of(self.q))
                expect(errors, demand & ~covered == 0 and
                       ref.min_cover(g.adj, demand) == int(r["exact"]),
                       "certify gamma: witness does not cover, or is not the minimum")
            else:
                expect(errors, payload["members"] == hi, "certify cochord: member count")
        # fresh halves of the corrupt-cache pairs
        tri = text("corrupt betti-table write")
        expect(errors, re.search(r"^pd  = \d+$", tri, re.M) and re.search(r"^reg = \d+$", tri, re.M),
               "betti-table 3 1: text output does not parse")
        gamma = json.loads(text("corrupt certify write"))
        expect(errors, gamma["exact"] == gamma["lower"] == gamma["upper"],
               "certify 5 2 gamma: not exact")
        return errors


WORKLOADS = {w.name: w for w in (Strand, Table, Search, Cli)}
