"""Spans and exact counts around the calls the benchmark makes into kneserhom.

Tracing lives here, not in the package: `Tracer.install` replaces each
traced public function, wherever a kneserhom module holds a reference to it,
by a wrapper that records one span (id, name, start, end, parent).  Calls a
traced function makes to another traced function therefore nest under it.
Guard checks are counted by a `Guards` subclass that the benchmark passes
through the public `guards=` parameters; the CLI builds its own guards from
`cli.Guards`, which the tracer points at the same subclass.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span named "<module>.<function>".
TRACED = (
    ("kneser", "build"),
    ("hochster", "linear_strand_oracle"),
    ("hochster", "full_betti_oracle"),
    ("hochster", "enumerate_faces"),
    ("hochster", "reduced_homology_dims"),
    ("closed_form", "linear_strand"),
    ("bounds", "certify_induced_matching"),
    ("bounds", "certify_cochordal_cover"),
    ("bounds", "certify_domination"),
    ("bounds", "certify_gamma_demand"),
    ("bounds", "independent_domination_number"),
    ("bounds", "tau_of"),
    ("graphs", "induced_matching_number"),
    ("graphs", "is_cochordal"),
    ("export", "to_macaulay2"),
    ("export", "to_singular"),
    ("export", "to_dot_graph"),
    ("export", "to_json_graph"),
    ("cli", "main"),
    ("cli", "_cache_fetch"),
)

# Per-layer metrics: name -> unit.  Times are inclusive span durations.
METRICS = {
    "hochster.strand_s": "s",
    "hochster.strand_subsets": "count",
    "hochster.strand_subsets_per_s": "1/s",
    "hochster.table_s": "s",
    "hochster.faces_s": "s",
    "hochster.faces": "count",
    "hochster.homology_s.char2": "s",
    "hochster.homology_s.char3": "s",
    "hochster.homology_s.char0": "s",
    "hochster.matrix_cells": "count",
    "hochster.slices": "count",
    "hochster.noncone_ratio": "ratio",
    "closed_form.linear_strand_s": "s",
    "closed_form.values": "count",
    "bounds.certify_s.matching": "s",
    "bounds.certify_s.cochord": "s",
    "bounds.certify_s.domination": "s",
    "bounds.certify_s.gamma": "s",
    "bounds.search_s.domination_number": "s",
    "bounds.search_s.tau": "s",
    "bounds.search_nodes": "count",
    "graphs.induced_matching_s": "s",
    "graphs.is_cochordal_s": "s",
    "kneser.build_s": "s",
    "kneser.edges": "count",
    "export.emit_s": "s",
    "export.bytes": "count",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.cache_read_s": "s",
    "config.guard_checks": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

_DURATIONS = {
    "hochster.strand_s": ("hochster.linear_strand_oracle",),
    "hochster.table_s": ("hochster.full_betti_oracle",),
    "hochster.faces_s": ("hochster.enumerate_faces",),
    "hochster.homology_s.char2": ("hochster.reduced_homology_dims.char2",),
    "hochster.homology_s.char3": ("hochster.reduced_homology_dims.char3",),
    "hochster.homology_s.char0": ("hochster.reduced_homology_dims.char0",),
    "closed_form.linear_strand_s": ("closed_form.linear_strand",),
    "bounds.certify_s.matching": ("bounds.certify_induced_matching",),
    "bounds.certify_s.cochord": ("bounds.certify_cochordal_cover",),
    "bounds.certify_s.domination": ("bounds.certify_domination",),
    "bounds.certify_s.gamma": ("bounds.certify_gamma_demand",),
    "bounds.search_s.domination_number": ("bounds.independent_domination_number",),
    "bounds.search_s.tau": ("bounds.tau_of",),
    "graphs.induced_matching_s": ("graphs.induced_matching_number",),
    "graphs.is_cochordal_s": ("graphs.is_cochordal",),
    "kneser.build_s": ("kneser.build",),
    "export.emit_s": ("export.to_macaulay2", "export.to_singular",
                      "export.to_dot_graph", "export.to_json_graph"),
    "cli.main_s": ("cli.main",),
    "cli.cache_read_s": ("cli._cache_fetch",),
}


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.stack: list[tuple[int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.next_id = 0
        self.guards = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "hochster.reduced_homology_dims":
                char = args[1] if len(args) > 1 else kwargs.get("field_char", 2)
                span_name = f"{name}.char{char}"
            parent = tracer.stack[-1] if tracer.stack else (None, None)
            sid = tracer.next_id
            tracer.next_id += 1
            tracer.stack.append((sid, span_name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, span_name, start, end, parent[0]))
            tracer._count(name, parent[1], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, parent: str | None, args, result) -> None:
        c = self.counts
        if name == "kneser.build":
            c["kneser.edges"] += result.graph.edge_count()
        elif name == "hochster.full_betti_oracle":
            c["hochster.slices"] += 1 << args[0].n
        elif name == "hochster.enumerate_faces":
            c["hochster.faces"] += result.face_count()
        elif name == "hochster.reduced_homology_dims":
            if parent == "hochster.full_betti_oracle":
                c["noncone"] += 1
        elif name == "closed_form.linear_strand":
            c["closed_form.values"] += len(result.values)
        elif name.startswith("export."):
            c["export.bytes"] += len(result.encode())
        elif name == "cli._cache_fetch":
            hit = result[0] is not None
            c["cli.cache_hits" if hit else "cli.cache_misses"] += 1

    def on_check(self, guard: str, needed: int) -> None:
        c = self.counts
        c["config.guard_checks"] += 1
        if guard == "max_search_nodes":
            c["bounds.search_nodes"] += 1
        elif guard == "max_matrix_cells":
            c["hochster.matrix_cells"] += needed
        elif guard == "max_subsets" and self.stack and \
                self.stack[-1][1] == "hochster.linear_strand_oracle":
            c["hochster.strand_subsets"] += needed

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own (set-up, round)."""
        parent = self.stack[-1][0] if self.stack else None
        sid = self.next_id
        self.next_id += 1
        self.stack.append((sid, name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent))

    # -- installation ------------------------------------------------------

    def install(self, package_name: str = "kneserhom") -> None:
        """Wrap every TRACED function in every loaded module of the package,
        and make the CLI build counting guards."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and
                   (name == package_name or name.startswith(package_name + "."))}
        for mod_name, fn_name in TRACED:
            original = getattr(modules[f"{package_name}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        base = modules[f"{package_name}.config"].Guards
        tracer = self

        class CountingGuards(base):
            def check(self, guard, needed, context):
                tracer.on_check(guard, needed)
                return super().check(guard, needed, context)

        modules[f"{package_name}.cli"].Guards = CountingGuards
        self.guards = CountingGuards()

    # -- reading -----------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Start of a pass: the span index and a copy of the counters."""
        return len(self.spans), dict(self.counts)

    def metrics_since(self, mark: tuple[int, dict]) -> dict[str, float]:
        first, counts_before = mark
        spans = self.spans[first:]
        counts = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}
        names = {sid: name for sid, name, *_ in spans}
        dur: dict[str, float] = defaultdict(float)
        child_lib: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent in spans:
            dur[name] += end - start
            if names.get(parent) == "cli.main" and not name.startswith("cli."):
                child_lib[parent] += end - start
        out = {metric: sum(dur[n] for n in names_)
               for metric, names_ in _DURATIONS.items()}
        out["cli.overhead_s"] = sum(end - start - child_lib[sid]
                                    for sid, name, start, end, _ in spans
                                    if name == "cli.main")
        for key in ("hochster.strand_subsets", "hochster.faces",
                    "hochster.matrix_cells", "hochster.slices",
                    "closed_form.values", "bounds.search_nodes",
                    "kneser.edges", "export.bytes", "cli.cache_hits",
                    "cli.cache_misses", "config.guard_checks"):
            out[key] = counts.get(key, 0)
        out["trace.spans"] = len(spans)
        out["noncone"] = counts.get("noncone", 0)
        return out

    def spans_json(self, first: int, last: int) -> list[dict]:
        return [{"id": sid, "name": name, "start": start - self.t0,
                 "end": end - self.t0, "parent": parent}
                for sid, name, start, end, parent in self.spans[first:last]]


def combine(setup: dict, rounds: list[dict]) -> dict[str, float]:
    """Per-layer value of one pass: the traced set-up plus the median round."""
    out = {}
    for key in setup:
        out[key] = setup[key] + statistics.median(r[key] for r in rounds)
    slices = out["hochster.slices"]
    out["hochster.noncone_ratio"] = out.pop("noncone") / slices if slices else 0.0
    strand_s = out["hochster.strand_s"]
    out["hochster.strand_subsets_per_s"] = (
        out["hochster.strand_subsets"] / strand_s if strand_s else 0.0)
    return out
