"""Command-line interface, and the one writer of everything it prints.

Each subcommand returns its exit code and its stdout text; only `main`
prints, and `betti-table` and `certify` pass through the result cache.
The math modules return values, and their text, JSON and CSV forms are
written here, every JSON form by `_json`.  Only the graph exports are
written by `export`.

Exit codes: 0 success, 1 verification mismatch, 2 parameter error or an
unusable cache directory, 3 enumeration guard exceeded.  All output is
deterministic: reruns with the same arguments (and any --threads value)
are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import closed_form, export, hochster, kneser
from .combinatorics import binom, mask_of
from .config import ENV_PREFIX, GUARD_NAMES, GuardExceeded, Guards


# Arguments that do not change the text a successful command prints stay
# out of the cache key.
_NOT_IN_KEY = {"func", "cache_dir", "threads", *GUARD_NAMES}
# The subcommands whose text the cache holds.
_CACHED = ("betti-table", "certify")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def _source_digest() -> str:
    """SHA-256 of the package's source files, read on the first cache
    lookup of a process: part of every cache key, so that an entry written
    by other code, or under another `__version__` of `__init__.py`, is a
    miss."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.name}\0{len(source)}\0".encode() + source)
    return digest.hexdigest()


def _cache_fetch(args):
    """(text, path) on a hit.  An entry that is missing, unreadable, or whose
    text does not match its SHA-256 is a miss: (None, path), and the caller
    overwrites it.  (None, None) when no cache directory is configured."""
    root = args.cache_dir or os.environ.get(ENV_PREFIX + "CACHE_DIR")
    if not root:
        return None, None
    key = {k: v for k, v in vars(args).items() if k not in _NOT_IN_KEY}
    key["source"] = _source_digest()
    path = Path(root) / f"{_digest(json.dumps(key, sort_keys=True))}.json"
    try:
        entry = json.loads(path.read_text())
        if _digest(entry["stdout"]) == entry["sha256"]:
            return entry["stdout"], path
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        pass
    return None, path


def _cache_error(path: Path, exc: OSError) -> ValueError:
    """A cache that cannot be created or written is a parameter error."""
    return ValueError(f"cannot write to the cache directory {path.parent}: {exc}")


def _cache_store(path: Path | None, text: str) -> None:
    """Write a sibling file and rename it over the entry, so a reader sees
    the old entry or the new one, never a partial write.  The entry's
    directory was made before the computation."""
    if path is None:
        return
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps({"sha256": _digest(text), "stdout": text}))
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.is_file():
            tmp.unlink()
        raise _cache_error(path, exc) from exc


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
# writers
# ---------------------------------------------------------------------------


def _json(obj) -> str:
    """Every JSON output: two-space indents, sorted keys, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _linear_strand_json(ls: closed_form.LinearStrand) -> str:
    return _json({
        "m": ls.m,
        "k": ls.k,
        "support_end": ls.support_end,
        "values": [{"i": i, "value": str(v)}
                   for i, v in enumerate(ls.values, start=1)],
    })


def _linear_strand_csv(ls: closed_form.LinearStrand) -> str:
    lines = ["i,betti"]
    for i, v in enumerate(ls.values, start=1):
        lines.append(f"{i},{v}")
    return "\n".join(lines) + "\n"


def _betti_table_json(t: hochster.BettiTable) -> str:
    """Schema: {"char": c, "entries": [{"i": .., "j": .., "value": "<decimal>"}]}.
    Values are decimal strings; they routinely exceed 2^53."""
    return _json({
        "char": t.field_char,
        "entries": [
            {"i": i, "j": j, "value": str(v)}
            for (i, j), v in sorted(t.entries.items())
        ],
    })


def _betti_table_triangle(t: hochster.BettiTable) -> str:
    """Betti diagram in the Macaulay2 layout: column i, row j - i, "." for
    a zero entry, each column as wide as its widest cell."""
    cols = range(hochster.pd_of(t) + 1)
    totals = [sum(v for (i, _), v in t.entries.items() if i == c) for c in cols]
    rows = [("", [str(c) for c in cols]), ("total: ", [str(v) for v in totals])]
    rows += [(f"{d}: ", [str(t.entries.get((c, c + d), ".")) for c in cols])
             for d in range(hochster.reg_of(t) + 1)]
    widths = [max(len(cells[c]) for _, cells in rows) for c in cols]
    lines = [label.rjust(7) + " ".join(cell.rjust(w) for cell, w in zip(cells, widths))
             for label, cells in rows]
    return "\n".join(lines) + "\n"


def _render_report(report: bounds_mod.BoundReport, output: str) -> str:
    """A bound report as text, or as JSON with every bound a decimal string."""
    if output == "json":
        return _json({
            "invariant": report.invariant,
            "params": report.params,
            "lower": str(report.lower),
            "upper": str(report.upper),
            "exact": None if report.exact is None else str(report.exact),
            "certificates": [{"kind": c.kind, "payload": c.payload,
                              "checks": dict(sorted(c.checks))}
                             for c in report.certificates],
            "anchors": list(report.anchors),
        })
    params = ", ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    lines = [f"invariant : {report.invariant}",
             f"params    : {params}",
             f"lower     : {report.lower}",
             f"upper     : {report.upper}",
             f"exact     : {'-' if report.exact is None else report.exact}"]
    for cert in report.certificates:
        checks = ", ".join(f"{name}=ok" for name, _ in sorted(cert.checks))
        lines.append(f"certificate {cert.kind}: {checks}")
    lines += [f"  - {a}" for a in report.anchors]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands: each takes (args, guards) and returns (exit code, stdout text)
# ---------------------------------------------------------------------------


def cmd_info(args, guards: Guards) -> tuple[int, str]:
    # Closed forms: C(m,k) vertices per side, each of degree C(m-k,k).
    n_left = kneser.side_size(args.m, args.k, guards)
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
        return 0, _json(data)
    return 0, (f"H({args.m},{args.k}): bipartite Kneser graph\n"
               f"  vertices : {data['vertices']} ({n_left} per side)\n"
               f"  edges    : {data['edges']}\n"
               f"  regular degree : {degree}\n"
               f"  ladder (m = 2k): {'yes' if ladder else 'no'}\n")


def cmd_betti_linear(args, guards: Guards) -> tuple[int, str]:
    if args.verify and args.output == "csv":
        raise ValueError("--output csv is not available with --verify")
    strand = closed_form.linear_strand(args.m, args.k, args.i_max)
    if not args.verify:
        if args.output == "json":
            return 0, _linear_strand_json(strand)
        if args.output == "csv":
            return 0, _linear_strand_csv(strand)
        lines = [f"linear strand of H({args.m},{args.k}), i = 1..{args.i_max}"]
        lines += [f"  beta_{{{i},{i + 1}}} = {v}"
                  for i, v in enumerate(strand.values, start=1)]
        lines.append(f"  support ends at i = {strand.support_end}")
        return 0, "\n".join(lines) + "\n"
    g = kneser.build(args.m, args.k, guards).graph
    rows = []
    for i, v in enumerate(strand.values, start=1):
        oracle = hochster.linear_strand_oracle(g, i, guards=guards)
        rows.append((i, v, oracle, oracle == v))
    ok = all(match for *_, match in rows)
    if args.output == "json":
        text = _json({
            "m": args.m,
            "k": args.k,
            "rows": [{"i": i, "formula": str(v), "oracle": str(o),
                      "match": mt} for i, v, o, mt in rows],
            "verified": ok,
        })
    else:
        lines = [f"linear strand of H({args.m},{args.k}) with oracle verification"]
        lines += [f"  i={i}: formula {v}  oracle {o}  {'ok' if mt else 'MISMATCH'}"
                  for i, v, o, mt in rows]
        lines.append("verified" if ok else "VERIFICATION FAILED")
        text = "\n".join(lines) + "\n"
    return (0 if ok else 1), text


def cmd_betti_table(args, guards: Guards) -> tuple[int, str]:
    g = kneser.build(args.m, args.k, guards).graph
    table = hochster.full_betti_oracle(g, field_char=args.char, guards=guards)
    if args.output == "json":
        return 0, _betti_table_json(table)
    return 0, (f"Betti table of R/I(H({args.m},{args.k})), characteristic {args.char}\n"
               f"{_betti_table_triangle(table)}"
               f"pd  = {hochster.pd_of(table)}\n"
               f"reg = {hochster.reg_of(table)}\n")


def cmd_bounds(args, guards: Guards) -> tuple[int, str]:
    # The formulas enumerate nothing, so the guards go unused.
    if args.invariant == "reg":
        report = bounds_mod.reg_bounds(args.m, args.k)
    elif args.invariant == "pd":
        report = bounds_mod.pd_bounds(args.m, args.k)
    else:
        report = bounds_mod.reg_power_bounds(args.m, args.k, args.p)
    return 0, _render_report(report, args.output)


# The options each certify kind reads; any other one it is given is refused.
_CERTIFY_READS = {"matching": ("s",), "cochord": ("variant", "t"),
                  "domination": ("s", "j"), "gamma": ("q", "s")}


def cmd_certify(args, guards: Guards) -> tuple[int, str]:
    for name in ("s", "q", "j", "t", "variant"):
        if getattr(args, name) is not None and name not in _CERTIFY_READS[args.kind]:
            raise ValueError(f"--kind {args.kind} does not read --{name}")
    if args.t is not None and args.variant != "double-stars":
        raise ValueError("--t is read only with --variant double-stars")
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
    return 0, _render_report(report, args.output)


def cmd_export(args, guards: Guards) -> tuple[int, str]:
    kn = kneser.build(args.m, args.k, guards)
    if args.format == "m2":
        return 0, export.to_macaulay2(kn)
    if args.format == "singular":
        return 0, export.to_singular(kn)
    if args.format == "dot":
        return 0, export.to_dot_graph(kn)
    return 0, export.to_json_graph(kn) + "\n"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first `main` call and reused after.
    It holds no per-call state: `parse_args` returns a fresh namespace and
    leaves the parser as it was, and argparse looks up sys.stdout,
    sys.stderr and the terminal width only when it prints."""
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
    sp.add_argument("--p", type=int, default=1,
                    help="power of the ideal; only --invariant reg-power reads it")
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
                    default=None, help="cover variant for --kind cochord "
                                       "(default stars)")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("export", parents=[common],
                        help="emit the graph or its edge ideal")
    sp.add_argument("--format", choices=["m2", "singular", "dot", "json"],
                    required=True)
    sp.set_defaults(func=cmd_export)

    # csv exists only for the unverified linear strand (checked in the
    # command); export has --format alone, so --output there is refused
    for name, sp in sub.choices.items():
        if name != "export":
            sp.add_argument("--output", default="text", help="output format",
                            choices=["text", "json", "csv"] if name == "betti-linear"
                            else ["text", "json"])
    return p


def _run(args) -> tuple[int, str]:
    """(exit code, stdout text) of the chosen subcommand, given the guards,
    built first so that a bad one is refused on a cache hit too.  A cached
    subcommand's text is served from the cache when it holds it, and stored
    there on a miss; both cached subcommands exit 0 or raise.  On a miss the
    entry's directory is made first, so that an unusable cache directory is
    refused before the computation, not after it."""
    guards = Guards.from_env().with_overrides(
        **{name: getattr(args, name) for name in GUARD_NAMES})
    if args.command not in _CACHED:
        return args.func(args, guards)
    text, path = _cache_fetch(args)
    if text is None:
        if path is not None:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise _cache_error(path, exc) from exc
        _, text = args.func(args, guards)
        _cache_store(path, text)
    return 0, text


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # Exact values can run past the interpreter's int-to-str limit (4,300
    # digits where sys.set_int_max_str_digits exists; a guard's refusal
    # shows a need past 64 bits as a power of two); lift it while the
    # command runs, and give it back to the caller after.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code, text = _run(args)
    except (GuardExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardExceeded) else 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
