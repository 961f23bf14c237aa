"""Benchmark for kneserhom: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload strand|table|search|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run reports the end-to-end metrics (wall_s,
setup_s, peak_rss_mb); with `--trace 1` it reports the per-layer metrics of
`tracing.METRICS` and writes its spans to `.perfbench_out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 15
PACKAGE = "kneserhom"

# A 2-core Xeon VM shared with other tenants changes speed by 25% and more
# over tens of seconds.  A fixed pure-Python loop timed next to the work
# tracks that: over 200 s of alternating rounds on such a VM, the time of
# this loop at 8 passes correlated 0.87 with the round times of `search`
# and of `strand`.  Times are reported scaled to a host on which the loop
# takes CALIBRATION_S, about its median on that VM.
CALIBRATION_S = 0.05
CALIBRATE_EVERY_S = 1.0


def calibration_s() -> float:
    """Wall time of counting the independent sets of the crown graph on 14
    vertices 24 times: bit operations and list indexing, like the package's
    kernels, but no code of the package.  It is written out here rather than
    shared with reference.py, so that it stays the same loop when the
    checks change."""
    n = 14
    adj = [0] * n
    for u in range(7):
        for v in range(7):
            if u != v:
                adj[u] |= 1 << (7 + v)
                adj[7 + v] |= 1 << u
    start = perf_counter()
    for _ in range(24):
        indep = bytearray(1 << n)
        indep[0] = 1
        for s in range(1, 1 << n):
            low = s & -s
            rest = s ^ low
            if indep[rest] and adj[low.bit_length() - 1] & rest == 0:
                indep[s] = 1
    return perf_counter() - start


def load_package(modules) -> types.SimpleNamespace:
    """Import kneserhom afresh, as a new process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return types.SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                                    for m in modules})


def run_round(ops, reported: set, calibration: float):
    """Run each operation once.  Return the busy seconds, raw and scaled, the
    outputs, the failed operations and the last calibration time.  The loop
    is timed again after the first operation that ends CALIBRATE_EVERY_S or
    more after the last timing, and after the round; each stretch of busy
    time is scaled by the mean of the two timings around it."""
    raw = scaled = stretch = 0.0
    outputs, failed = {}, []
    since = perf_counter()
    for op in ops:
        if op.before is not None:
            op.before(outputs)
        start = perf_counter()
        try:
            result, ok = op.call(), True
        except Exception as exc:  # a failing operation is counted, not fatal
            result, ok = ("raised", repr(exc)), False
            if op.name not in reported:
                reported.add(op.name)
                traceback.print_exc(file=sys.stderr)
        end = perf_counter()
        raw += end - start
        stretch += end - start
        if ok and op.ok is not None:
            ok = op.ok(result, outputs)
        outputs[op.name] = result
        if not ok:
            failed.append(op.name)
        if end - since >= CALIBRATE_EVERY_S or op is ops[-1]:
            after = calibration_s()
            scaled += stretch * CALIBRATION_S / ((calibration + after) / 2)
            calibration, stretch, since = after, 0.0, perf_counter()
    return raw, scaled, outputs, failed, calibration


class Measurement:
    """Whole rounds until the next one would overrun the budget."""

    def __init__(self):
        self.first = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reported: set = set()
        self.failed_names: set = set()

    def rounds(self, workload, K, state, guards, budget: float, round_no: int,
               tracer=None) -> tuple[list[float], list[float], int, list[dict], list[int]]:
        """Busy seconds per round, raw and scaled to the reference host speed;
        with a tracer, also each round's layer metrics and the span count at
        its end."""
        raw, scaled, layers, span_ends = [], [], [], []
        start = perf_counter()
        calibration = calibration_s()
        while True:
            began = perf_counter()
            ops = workload.ops(K, state, guards, round_no)
            if tracer is None:
                busy, busy_scaled, outputs, failed, calibration = run_round(
                    ops, self.reported, calibration)
            else:
                mark = tracer.mark()
                with tracer.span("round"):
                    busy, busy_scaled, outputs, failed, calibration = run_round(
                        ops, self.reported, calibration)
                layers.append(tracer.metrics_since(mark))
                span_ends.append(len(tracer.spans))
            workload.end_round(round_no)
            raw.append(busy)
            scaled.append(busy_scaled)
            round_no += 1
            self.attempted += len(outputs)
            self.failed += len(failed)
            self.failed_names.update(failed)
            if self.first is None:
                self.first = outputs
            else:
                changed = [k for k in outputs if outputs[k] != self.first.get(k)]
                if changed:
                    self.errors.append(f"answers changed between rounds: {changed}")
            now = perf_counter()
            if now - start + (now - began) > budget:
                return raw, scaled, round_no, layers, span_ends


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    import tracing

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{args.seed}-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](random.Random(args.seed), workdir)
    try:
        return measure(args, workload, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tracing) -> int:
    modules = workload.modules
    if args.trace:
        modules = tuple(dict.fromkeys(modules + tuple(m for m, _ in tracing.TRACED)))
    setup_times, setup_scaled = [], []
    calibration = calibration_s()
    for _ in range(SETUP_REPS):
        start = perf_counter()
        K = load_package(modules)
        state = workload.setup(K, K.config.Guards())
        setup_times.append(perf_counter() - start)
        after = calibration_s()
        setup_scaled.append(setup_times[-1] * CALIBRATION_S / ((calibration + after) / 2))
        calibration = after

    m = Measurement()
    if not args.trace:
        raw, scaled, *_ = m.rounds(workload, K, state, K.config.Guards(), args.seconds, 0)
        print(f"round busy seconds, raw: {raw}", file=sys.stderr)
        print(f"round busy seconds, scaled: {scaled}", file=sys.stderr)
        print(f"set-up seconds, raw: {setup_times}", file=sys.stderr)
        print(f"set-up seconds, scaled: {setup_scaled}", file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": (statistics.median(scaled), "s"),
                   "setup_s": (statistics.median(setup_scaled), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        began = perf_counter()
        _, plain, round_no, _, _ = m.rounds(workload, K, state, K.config.Guards(),
                                            args.seconds / 2, 0)
        tracer = tracing.Tracer()
        tracer.install(PACKAGE)
        mark = tracer.mark()
        with tracer.span("setup"):
            state = workload.setup(K, tracer.guards)
        setup_layer = tracer.metrics_since(mark)
        _, traced, _, per_round, span_ends = m.rounds(
            workload, K, state, tracer.guards, args.seconds - (perf_counter() - began),
            round_no, tracer)
        layer = tracing.combine(setup_layer, per_round)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: (layer[name], unit) for name, unit in tracing.METRICS.items()}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "untraced_wall_s": plain, "traced_wall_s": traced,
            "per_round": per_round,
            "spans": tracer.spans_json(mark[0], span_ends[0]),
        }))
        print(f"spans of set-up and the first traced round: {trace_file}", file=sys.stderr)

    try:
        errors = m.errors + workload.check(K, state, m.first)
    except Exception:  # a check that cannot run is a wrong answer
        errors = m.errors + ["check raised:\n" + traceback.format_exc()]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if m.failed_names:
        print(f"failed operations: {sorted(m.failed_names)}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": int(value) if unit == "count" and value == int(value)
                           else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
