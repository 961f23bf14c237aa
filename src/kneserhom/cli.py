"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 parameter error,
3 enumeration guard exceeded.  All output is deterministic: reruns with the
same arguments (and any --threads value) are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import bounds as bounds_mod
from . import closed_form, export, hochster, kneser
from .combinatorics import binom, check_mk, mask_of
from .config import ENV_PREFIX, GUARD_NAMES, GuardExceeded, Guards


def _guards_from(args) -> Guards:
    return Guards.from_env().with_overrides(
        **{name: getattr(args, name) for name in GUARD_NAMES})


# Arguments that do not change the text a successful command prints stay
# out of the cache key.
_NOT_IN_KEY = {"func", "cache_dir", "threads", *GUARD_NAMES}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cache_fetch(args):
    """(text, path) on a hit.  An entry that is missing, unreadable, or whose
    text does not match its SHA-256 is a miss: (None, path), and the caller
    overwrites it.  (None, None) when no cache directory is configured."""
    root = args.cache_dir or os.environ.get(ENV_PREFIX + "CACHE_DIR")
    if not root:
        return None, None
    key = {k: v for k, v in vars(args).items() if k not in _NOT_IN_KEY}
    key["version"] = __version__
    path = Path(root) / f"{_digest(json.dumps(key, sort_keys=True))}.json"
    try:
        entry = json.loads(path.read_text())
        if _digest(entry["stdout"]) == entry["sha256"]:
            return entry["stdout"], path
    except (FileNotFoundError, ValueError, LookupError, TypeError,
            AttributeError):
        pass
    return None, path


def _cache_store(path: Path | None, text: str) -> None:
    # Write a sibling file and rename it over the entry, so a reader sees
    # the old entry or the new one, never a partial write.
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"sha256": _digest(text), "stdout": text}))
        os.replace(tmp, path)


def _cached(args, produce) -> int:
    """Print the text produce() returns, served from the cache when the
    cache holds it."""
    text, path = _cache_fetch(args)
    if text is None:
        text = produce()
        _cache_store(path, text)
    print(text, end="")
    return 0


def _parse_subset(raw: str | None, m: int) -> int | None:
    """Comma-separated elements of [m] -> mask; empty string means the empty
    set.  An element above m is refused before its mask is allocated."""
    if raw is None:
        return None
    raw = raw.strip()
    if not raw:
        return 0
    try:
        elements = [int(tok) for tok in raw.split(",")]
        if max(elements) > m:
            raise ValueError(f"element {max(elements)} is above m = {m}")
        return mask_of(elements)
    except ValueError as exc:
        raise ValueError(f"bad subset {raw!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_info(args) -> int:
    # Closed forms: C(m,k) vertices per side, each of degree C(m-k,k).
    check_mk(args.m, args.k)
    n_left = binom(args.m, args.k)
    _guards_from(args).check("max_subsets", 2 * n_left,
                             f"build H({args.m},{args.k})")
    degree = binom(args.m - args.k, args.k)
    ladder = args.m == 2 * args.k
    data = {
        "m": args.m,
        "k": args.k,
        "vertices": 2 * n_left,
        "edges": n_left * degree,
        "degree": degree,
        "ladder": ladder,
    }
    if args.output == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"H({args.m},{args.k}): bipartite Kneser graph")
        print(f"  vertices : {data['vertices']} ({n_left} per side)")
        print(f"  edges    : {data['edges']}")
        print(f"  regular degree : {degree}")
        print(f"  ladder (m = 2k): {'yes' if ladder else 'no'}")
    return 0


def cmd_betti_linear(args) -> int:
    if args.verify and args.output == "csv":
        raise ValueError("--output csv is not available with --verify")
    guards = _guards_from(args)
    strand = closed_form.linear_strand(args.m, args.k, args.i_max)
    if not args.verify:
        if args.output == "json":
            print(closed_form.linear_strand_to_json(strand))
        elif args.output == "csv":
            print(closed_form.linear_strand_to_csv(strand), end="")
        else:
            print(f"linear strand of H({args.m},{args.k}), i = 1..{args.i_max}")
            for i, v in enumerate(strand.values, start=1):
                print(f"  beta_{{{i},{i + 1}}} = {v}")
            print(f"  support ends at i = {strand.support_end}")
        return 0
    g = kneser.build(args.m, args.k, guards).graph
    rows = []
    ok = True
    for i, v in enumerate(strand.values, start=1):
        oracle = hochster.linear_strand_oracle(g, i, guards=guards)
        match = oracle == v
        ok = ok and match
        rows.append((i, v, oracle, match))
    if args.output == "json":
        payload = {
            "m": args.m,
            "k": args.k,
            "rows": [{"i": i, "formula": str(v), "oracle": str(o),
                      "match": mt} for i, v, o, mt in rows],
            "verified": ok,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"linear strand of H({args.m},{args.k}) with oracle verification")
        for i, v, o, mt in rows:
            status = "ok" if mt else "MISMATCH"
            print(f"  i={i}: formula {v}  oracle {o}  {status}")
        print("verified" if ok else "VERIFICATION FAILED")
    return 0 if ok else 1


def cmd_betti_table(args) -> int:
    guards = _guards_from(args)

    def produce() -> str:
        g = kneser.build(args.m, args.k, guards).graph
        table = hochster.full_betti_oracle(g, field_char=args.char, guards=guards)
        if args.output == "json":
            return hochster.betti_table_to_json(table) + "\n"
        return (f"Betti table of R/I(H({args.m},{args.k})), characteristic {args.char}\n"
                f"{hochster.betti_table_triangle(table)}"
                f"pd  = {hochster.pd_of(table)}\n"
                f"reg = {hochster.reg_of(table)}\n")

    return _cached(args, produce)


def _render_report(report: bounds_mod.BoundReport, output: str) -> str:
    if output == "json":
        return report.to_json() + "\n"
    params = ", ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    lines = [f"invariant : {report.invariant}",
             f"params    : {params}",
             f"lower     : {report.lower}",
             f"upper     : {report.upper}",
             f"exact     : {'-' if report.exact is None else report.exact}"]
    for cert in report.certificates:
        checks = ", ".join(f"{name}={'ok' if ok else 'FAIL'}"
                           for name, ok in sorted(cert.checks))
        lines.append(f"certificate {cert.kind}: {checks}")
    lines += [f"  - {a}" for a in report.anchors]
    return "\n".join(lines) + "\n"


def cmd_bounds(args) -> int:
    if args.invariant == "reg":
        report = bounds_mod.reg_bounds(args.m, args.k)
    elif args.invariant == "pd":
        report = bounds_mod.pd_bounds(args.m, args.k)
    else:
        report = bounds_mod.reg_power_bounds(args.m, args.k, args.p)
    print(_render_report(report, args.output), end="")
    return 0


def cmd_certify(args) -> int:
    guards = _guards_from(args)

    def produce() -> str:
        s = _parse_subset(args.s, args.m)
        q = _parse_subset(args.q, args.m)
        if args.kind == "matching":
            report = bounds_mod.certify_induced_matching(args.m, args.k, s,
                                                         guards=guards)
        elif args.kind == "cochord":
            variant = (bounds_mod.DOUBLE_STAR_VARIANT
                       if args.variant == "double-stars"
                       else bounds_mod.STAR_VARIANT)
            report = bounds_mod.certify_cochordal_cover(args.m, args.k, variant,
                                                        t=args.t, guards=guards)
        elif args.kind == "domination":
            report = bounds_mod.certify_domination(args.m, args.k, s, args.j,
                                                   guards=guards)
        else:
            report = bounds_mod.certify_gamma_demand(args.m, args.k, q, s,
                                                     guards=guards)
        return _render_report(report, args.output)

    return _cached(args, produce)


def cmd_export(args) -> int:
    kn = kneser.build(args.m, args.k, _guards_from(args))
    if args.format == "m2":
        print(export.to_macaulay2(kn), end="")
    elif args.format == "singular":
        print(export.to_singular(kn), end="")
    elif args.format == "dot":
        print(export.to_dot_graph(kn), end="")
    else:
        print(export.to_json_graph(kn))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("m", type=int, help="ground set size")
    common.add_argument("k", type=int, help="subset size (left side)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    common.add_argument("--cache-dir", default=None,
                        help="directory for cached results")
    for name in GUARD_NAMES:
        common.add_argument(f"--{name.replace('_', '-')}", type=int, default=None,
                            help=f"override the {name} guard")

    p = argparse.ArgumentParser(
        prog="kneserhom",
        description="Homological invariants of edge ideals of bipartite "
                    "Kneser graphs H(m,k)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", parents=[common], help="graph parameters")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("betti-linear", parents=[common],
                        help="closed-form linear strand, optionally verified")
    sp.add_argument("--i-max", type=int, default=8)
    sp.add_argument("--verify", action="store_true",
                    help="cross-check each value against the Hochster oracle")
    sp.set_defaults(func=cmd_betti_linear)

    sp = sub.add_parser("betti-table", parents=[common],
                        help="full Betti table by the brute-force oracle")
    sp.add_argument("--char", type=int, default=2,
                    help="field characteristic, 0 or a prime (default 2)")
    sp.set_defaults(func=cmd_betti_table)

    sp = sub.add_parser("bounds", parents=[common],
                        help="regularity / projective dimension bounds")
    sp.add_argument("--invariant", choices=["reg", "pd", "reg-power"],
                    required=True)
    sp.add_argument("--p", type=int, default=1, help="power for reg-power")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("certify", parents=[common],
                        help="build and verify a combinatorial certificate")
    sp.add_argument("--kind", choices=["matching", "cochord", "domination", "gamma"],
                    required=True)
    sp.add_argument("--s", default=None,
                    help="comma-separated elements for the spread/witness set")
    sp.add_argument("--q", default=None,
                    help="comma-separated elements of the demand core (gamma)")
    sp.add_argument("--j", type=int, default=None,
                    help="extra element for domination")
    sp.add_argument("--t", type=int, default=None,
                    help="distinguished element for double-star covers")
    sp.add_argument("--variant", choices=["stars", "double-stars"],
                    default="stars", help="cover variant for --kind cochord")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("export", parents=[common],
                        help="emit the graph or its edge ideal")
    sp.add_argument("--format", choices=["m2", "singular", "dot", "json"],
                    required=True)
    sp.set_defaults(func=cmd_export)

    # csv exists only for the unverified linear strand (checked in the command)
    for name, sp in sub.choices.items():
        sp.add_argument("--output", default="text", help="output format",
                        choices=["text", "json", "csv"] if name == "betti-linear"
                        else ["text", "json"])
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
