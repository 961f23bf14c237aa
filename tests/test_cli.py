from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import kneserhom.cli
import kneserhom.hochster
from kneserhom.cli import main
from kneserhom.combinatorics import binom
from kneserhom.kneser import build


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys) -> None:
    code, out, _ = run(capsys, "info", "5", "2")
    assert code == 0
    assert "H(5,2)" in out
    assert "20 (10 per side)" in out
    assert "edges    : 30" in out


def test_info_json(capsys) -> None:
    code, out, _ = run(capsys, "info", "4", "2", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"m": 4, "k": 2, "vertices": 12, "edges": 6,
                    "degree": 1, "ladder": True}


@pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 11)
                                 for k in range(1, m // 2 + 1)])
def test_info_matches_the_built_graph(capsys, m: int, k: int) -> None:
    # info prints closed forms; read the same numbers off the construction.
    g = build(m, k).graph
    code, out, _ = run(capsys, "info", str(m), str(k), "--output", "json")
    assert code == 0
    [degree] = {row.bit_count() for row in g.adj}
    assert json.loads(out) == {"m": m, "k": k, "vertices": g.n,
                               "edges": g.edge_count(), "degree": degree,
                               "ladder": degree == 1}


def test_info_has_no_cap_on_m(capsys) -> None:
    code, out, _ = run(capsys, "info", "63", "1", "--output", "json")
    assert code == 0
    assert json.loads(out)["vertices"] == 126


def decimal(n: int) -> str:
    """str(n) past the interpreter's int-to-str digit limit, which is lifted
    for this call only, so that main is left to lift it for itself."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_values_past_the_int_str_digit_limit(capsys) -> None:
    # C(40000, 20000) has 12,041 digits; by default Python (3.10.7 and
    # later) converts at most 4,300 to a string.  Both values print in full,
    # and main gives the caller's limit back.  The refusal comes before
    # C(40000, 20000) is computed, at the lower bound 2 C(40000, 2).
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    c = binom(40000, 20000)
    code, out, err = run(capsys, "info", "40000", "20000")
    assert (code, out) == (3, "")
    assert err.startswith("error: build H(40000,20000): max_subsets limit "
                          f"exceeded (needs at least {2 * binom(40000, 2)}, limit ")
    code, out, _ = run(capsys, "betti-linear", "40000", "20000", "--i-max", "1")
    assert code == 0 and f"  beta_{{1,2}} = {decimal(c)}\n" in out
    code, out, _ = run(capsys, "bounds", "40000", "20000", "--invariant", "pd")
    assert code == 0 and f"exact     : {decimal(c)}\n" in out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_info_refuses_before_computing_the_binomial(capsys) -> None:
    # C(800000, 400000) has 240,821 digits and takes seconds to compute;
    # the refusal names 2 C(800000, 1), a lower bound past the limit.
    start = time.perf_counter()
    code, out, err = run(capsys, "info", "800000", "400000")
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (3, "")
    assert err == ("error: build H(800000,400000): max_subsets limit exceeded "
                   "(needs at least 1600000, limit 1200000). If this size is "
                   "intentional, raise the limit via KNESERHOM_MAX_SUBSETS or "
                   "the --max-subsets flag.\n")


def test_full_table_refusal_names_the_bit_length_of_its_need(capsys) -> None:
    # H(16,8) has 25,740 vertices and builds; its table needs 2^25740
    # subsets, a 7,749-digit number that the refusal does not print
    code, out, err = run(capsys, "betti-table", "16", "8")
    assert (code, out) == (3, "")
    assert err == ("error: full Betti table on 25740 vertices: max_subsets limit "
                   "exceeded (needs 2^25740, limit 1200000). If this size is "
                   "intentional, raise the limit via KNESERHOM_MAX_SUBSETS or "
                   "the --max-subsets flag.\n")


def test_subset_element_above_m_exits_2(capsys) -> None:
    code, out, err = run(capsys, "certify", "5", "2", "--kind", "matching",
                         "--s", "100")
    assert (code, out) == (2, "")
    assert "element 100 is above m = 5" in err


@pytest.mark.parametrize("argv,message", [
    (("4", "2", "--s", "1,2", "--j", "3"),
     "dominating_w: for m = 2k pass no s and no j"),
    (("4", "1", "--s", "1,2,3,4"),
     "s must have exactly m - 2k = 2 elements"),
])
def test_certify_domination_refuses_bad_s_or_j(capsys, argv, message) -> None:
    code, out, err = run(capsys, "certify", *argv, "--kind", "domination")
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and message in err


def test_certify_matching_names_the_edge_cap(capsys) -> None:
    # The cap is no guard: raising the search-node guard does not lift it.
    code, out, _ = run(capsys, "certify", "6", "2", "--kind", "matching",
                       "--max-search-nodes", "999999999")
    assert code == 0
    assert out.endswith("  - exhaustive search skipped: 90 edges, above the "
                        "search cap max_edges = 64\n")


def test_betti_linear_text(capsys) -> None:
    code, out, _ = run(capsys, "betti-linear", "5", "2", "--i-max", "4")
    assert code == 0
    assert "beta_{1,2} = 30" in out
    assert "beta_{2,3} = 60" in out
    assert "beta_{3,4} = 20" in out
    assert "support ends at i = 3" in out


def test_betti_linear_csv(capsys) -> None:
    code, out, _ = run(capsys, "betti-linear", "5", "2", "--i-max", "3",
                       "--output", "csv")
    assert code == 0
    assert out == "i,betti\n1,30\n2,60\n3,20\n"


def test_betti_linear_json(capsys) -> None:
    code, out, _ = run(capsys, "betti-linear", "2", "1", "--i-max", "2",
                       "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == [{"i": 1, "value": "2"}, {"i": 2, "value": "0"}]


def test_betti_linear_formula_only_beyond_oracle_reach(capsys) -> None:
    # no --verify: the closed form alone, fine for sizes the oracle refuses
    code, out, _ = run(capsys, "betti-linear", "6", "3", "--i-max", "3")
    assert code == 0
    assert "beta_{1,2} = 20" in out


def test_betti_linear_verify_passes(capsys) -> None:
    code, out, _ = run(capsys, "betti-linear", "3", "1", "--i-max", "5",
                       "--verify")
    assert code == 0
    assert "verified" in out
    assert "MISMATCH" not in out


def test_betti_linear_verify_json(capsys) -> None:
    code, out, _ = run(capsys, "betti-linear", "4", "2", "--i-max", "3",
                       "--verify", "--output", "json", "--threads", "2")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert all(row["match"] for row in data["rows"])


def test_betti_linear_verify_detects_mismatch(capsys, monkeypatch) -> None:
    real = kneserhom.hochster.linear_strand_oracle

    def corrupted(g, i, threads=1, guards=None):
        value = real(g, i, threads=threads) if guards is None \
            else real(g, i, threads=threads, guards=guards)
        return value + (1 if i == 2 else 0)

    monkeypatch.setattr(kneserhom.hochster, "linear_strand_oracle", corrupted)
    code, out, _ = run(capsys, "betti-linear", "3", "1", "--i-max", "3",
                       "--verify")
    assert code == 1
    assert "MISMATCH" in out
    assert "VERIFICATION FAILED" in out


def test_betti_table_text(capsys) -> None:
    code, out, _ = run(capsys, "betti-table", "2", "1")
    assert code == 0
    assert out == (
        "Betti table of R/I(H(2,1)), characteristic 2\n"
        "       0 1 2\n"
        "total: 1 2 1\n"
        "    0: 1 . .\n"
        "    1: . 2 .\n"
        "    2: . . 1\n"
        "pd  = 2\n"
        "reg = 2\n"
    )


def test_betti_table_characteristic_zero(capsys) -> None:
    code2, out2, _ = run(capsys, "betti-table", "3", "1", "--output", "json")
    code0, out0, _ = run(capsys, "betti-table", "3", "1", "--char", "0",
                         "--output", "json")
    assert code2 == code0 == 0
    t2, t0 = json.loads(out2), json.loads(out0)
    assert t2["entries"] == t0["entries"]
    assert t2["char"] == 2 and t0["char"] == 0


@pytest.mark.parametrize("char,code", [("2305843009213693951", 0), ("561", 2),
                                       ("3317044064679887385961981", 2)])
def test_betti_table_checks_the_characteristic(capsys, char, code) -> None:
    # 2^61 - 1 is prime; 561 = 3 * 11 * 17; the last is the bound of the
    # primality test, refused with the bound named
    got, out, err = run(capsys, "betti-table", "3", "1", "--char", char)
    assert got == code
    assert (f"characteristic {char}\n" in out) if code == 0 else \
        f"prime below 3317044064679887385961981, got {char}" in err


def test_betti_table_refuses_h62(capsys) -> None:
    # 2^30 vertex subsets against max_subsets 1,200,000
    code, _, err = run(capsys, "betti-table", "6", "2")
    assert code == 3
    assert "error:" in err
    assert "KNESERHOM_MAX_" in err  # remediation names the environment knob


@pytest.mark.parametrize("char,md5", [("2", "084658e43a7b97315989473f2a0e5c86"),
                                      ("3", "83ff6fd8e59160061fec8a66a1db3282"),
                                      ("0", "bb9b1ee18bfb86b3947de977bbd92fc2")])
def test_betti_table_h52_under_the_default_guards(capsys, char, md5) -> None:
    code, out, err = run(capsys, "betti-table", "5", "2", "--char", char)
    assert (code, err) == (0, "")
    assert "pd  = 15\nreg = 6\n" in out
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_betti_table_cache_round_trip(capsys, tmp_path) -> None:
    args = ("betti-table", "4", "1", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    files = list(tmp_path.glob("*.json"))
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(files) == 1
    assert list(tmp_path.glob("*.json")) == files


def test_cache_hit_does_not_check_the_guards(capsys, tmp_path) -> None:
    # A hit enumerates nothing, so no guard can refuse it; the same request
    # without the cache computes afresh and is refused.
    argv = ("betti-table", "4", "1")
    cache = ("--cache-dir", str(tmp_path))
    code, fresh, _ = run(capsys, *argv, *cache)
    assert code == 0
    assert run(capsys, *argv, "--max-faces", "5", *cache)[:2] == (0, fresh)
    code, out, err = run(capsys, *argv, "--max-faces", "5")
    assert (code, out) == (3, "")
    assert "max_faces" in err


def test_malformed_guard_variable_exits_2_on_a_hit(capsys, tmp_path,
                                                    monkeypatch) -> None:
    # A hit checks no guard, but a guard variable that is no integer is a
    # parameter error, hit or miss.
    argv = ("certify", "5", "2", "--kind", "gamma", "--cache-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv("KNESERHOM_MAX_FACES", "many")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "KNESERHOM_MAX_FACES must be an integer" in err


def test_bounds_reg(capsys) -> None:
    code, out, _ = run(capsys, "bounds", "5", "2", "--invariant", "reg",
                       "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["lower"], data["upper"], data["exact"]) == ("6", "7", "6")


def test_bounds_pd_text(capsys) -> None:
    code, out, _ = run(capsys, "bounds", "5", "2", "--invariant", "pd")
    assert code == 0
    assert "lower     : 14" in out
    assert "upper     : 16" in out
    assert "exact     : -" in out


def test_bounds_reg_power(capsys) -> None:
    code, out, _ = run(capsys, "bounds", "4", "2", "--invariant", "reg-power",
                       "--p", "3", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["lower"], data["upper"], data["exact"]) == ("10", "10", "10")


@pytest.mark.parametrize("kind,extra", [
    ("matching", []),
    ("cochord", ["--variant", "double-stars", "--t", "5"]),
    ("domination", ["--s", "1", "--j", "2"]),
    ("gamma", []),
])
def test_certify_kinds(capsys, kind: str, extra: list) -> None:
    code, out, _ = run(capsys, "certify", "5", "2", "--kind", kind,
                       "--output", "json", *extra)
    assert code == 0
    data = json.loads(out)
    for cert in data["certificates"]:
        assert all(cert["checks"].values())


@pytest.mark.parametrize("argv,message", [
    (("--kind", "cochord", "--t", "3"), "--t is read only with --variant double-stars"),
    (("--kind", "cochord", "--variant", "stars", "--t", "3"),
     "--t is read only with --variant double-stars"),
    (("--kind", "cochord", "--s", "1"), "--kind cochord does not read --s"),
    (("--kind", "matching", "--j", "3"), "--kind matching does not read --j"),
    (("--kind", "gamma", "--j", "3"), "--kind gamma does not read --j"),
    (("--kind", "matching", "--q", "1"), "--kind matching does not read --q"),
    (("--kind", "domination", "--q", "1"), "--kind domination does not read --q"),
    (("--kind", "matching", "--t", "3"), "--kind matching does not read --t"),
    (("--kind", "gamma", "--variant", "stars"), "--kind gamma does not read --variant"),
    (("--kind", "domination", "--variant", "double-stars"),
     "--kind domination does not read --variant"),
])
def test_certify_refuses_options_its_kind_ignores(capsys, argv, message) -> None:
    code, out, err = run(capsys, "certify", "5", "2", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_bounds_p_is_accepted_and_documented(capsys) -> None:
    # The benchmark passes --p with every invariant; only reg-power reads it.
    for inv in ("reg", "pd"):
        assert run(capsys, "bounds", "5", "2", "--invariant", inv, "--p", "3") \
            == run(capsys, "bounds", "5", "2", "--invariant", inv)
    code, out, _ = run(capsys, "bounds", "--help")
    assert code == 0
    assert "only --invariant reg-power reads it" in " ".join(out.split())


def test_certify_text_render(capsys) -> None:
    code, out, _ = run(capsys, "certify", "5", "2", "--kind", "cochord",
                       "--variant", "double-stars")
    assert code == 0
    assert "invariant : regularity" in out
    assert "exact     : 6" in out
    assert "covers_all_edges=ok" in out


def test_certify_cache_round_trip(capsys, tmp_path) -> None:
    args = ("certify", "5", "2", "--kind", "matching", "--output", "json",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(list(tmp_path.glob("*.json"))) == 1


@pytest.mark.parametrize("argv", [
    ("betti-table", "3", "1"),
    ("certify", "5", "2", "--kind", "gamma", "--output", "json"),
])
@pytest.mark.parametrize("garbage", [
    "garbage{", "", "[1]", "{}",
    '{"n": 6, "table": {"char": 2, "entries": [{"i": 0}]}}',
    '{"params": [], "invariant": "x"}',
    '{"sha256": "0", "stdout": 2}',
])
def test_unreadable_cache_entry_is_recomputed(capsys, tmp_path, argv,
                                              garbage) -> None:
    code, fresh, _ = run(capsys, *argv)
    cached = (*argv, "--cache-dir", str(tmp_path))
    run(capsys, *cached)
    [entry] = tmp_path.iterdir()
    entry.write_text(garbage)
    code2, out2, _ = run(capsys, *cached)
    assert code == code2 == 0
    assert out2 == fresh
    assert list(tmp_path.iterdir()) == [entry]
    assert entry.read_text() != garbage
    assert run(capsys, *cached)[:2] == (0, fresh)


# A field of the printed JSON, matched in the entry file whether that JSON
# is stored as an object or as an escaped string.
@pytest.mark.parametrize("argv,field,old,new", [
    (("betti-table", "3", "1", "--output", "json"), "value", "6", "7"),
    (("certify", "5", "2", "--kind", "gamma", "--output", "json"),
     "exact", "3", "99"),
])
def test_edited_cache_entry_is_recomputed(capsys, tmp_path, argv, field,
                                          old, new) -> None:
    _, fresh, _ = run(capsys, *argv)
    cached = (*argv, "--cache-dir", str(tmp_path))
    run(capsys, *cached)
    [entry] = tmp_path.iterdir()
    stored = entry.read_text()
    edited, count = re.subn(rf'({field}\\?": \\?"){old}(?=\\?")',
                            rf"\g<1>{new}", stored, count=1)
    assert count == 1
    json.loads(edited)  # the edit leaves a well-formed entry
    entry.write_text(edited)
    assert run(capsys, *cached)[:2] == (0, fresh)
    assert entry.read_text() == stored
    assert run(capsys, *cached)[:2] == (0, fresh)


def test_text_and_json_forms_have_their_own_entries(capsys, tmp_path) -> None:
    argv = ("certify", "5", "2", "--kind", "gamma")
    fresh = {out: run(capsys, *argv, "--output", out)[1]
             for out in ("text", "json")}
    assert fresh["text"] != fresh["json"]
    for _ in range(2):  # a miss, then a hit, for each form
        for out in ("text", "json"):
            assert run(capsys, *argv, "--output", out, "--cache-dir",
                       str(tmp_path))[:2] == (0, fresh[out])
    assert len(list(tmp_path.iterdir())) == 2


def copied_package(tmp_path):
    """(package dir, betti_table, cache dir) for a copy of the package under
    tmp_path: betti_table() prints `betti-table 3 1` from the copy, through
    the cache.  The source digest is taken once per process, so each run is
    a fresh interpreter."""
    src = tmp_path / "src"
    shutil.copytree(Path(kneserhom.cli.__file__).parent, src / "kneserhom",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"
    env = {k: v for k, v in os.environ.items() if not k.startswith("KNESERHOM_")}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")

    def betti_table() -> str:
        proc = subprocess.run([sys.executable, "-m", "kneserhom.cli", "betti-table", "3", "1",
                               "--cache-dir", str(cache)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    return src / "kneserhom", betti_table, cache


def test_cache_key_includes_package_version(tmp_path) -> None:
    # __version__ is set in __init__.py, which the source digest hashes: a
    # copy with it bumped misses the entry the unchanged copy wrote, and
    # prints the same text.
    package, betti_table, cache = copied_package(tmp_path)
    fresh = betti_table()
    init = package / "__init__.py"
    source = init.read_text()
    assert source.count('__version__ = "') == 1
    init.write_text(source.replace('__version__ = "', '__version__ = "9'))
    assert betti_table() == fresh
    assert len(list(cache.iterdir())) == 2


def test_cache_key_includes_the_source(tmp_path) -> None:
    # A copy of the package with one byte of cli.py changed misses the
    # entry the unchanged copy wrote, and prints its own text.
    package, betti_table, cache = copied_package(tmp_path)
    fresh = betti_table()
    assert betti_table() == fresh and len(list(cache.iterdir())) == 1
    cli = package / "cli.py"
    source = cli.read_bytes()
    assert source.count(b'"pd  = ') == 1
    cli.write_bytes(source.replace(b'"pd  = ', b'"pd  : '))
    assert betti_table() == fresh.replace("pd  = ", "pd  : ")
    assert len(list(cache.iterdir())) == 2


def test_cache_store_renames_into_place(capsys, tmp_path, monkeypatch) -> None:
    calls = []
    real_replace = os.replace

    def spy(src, dst) -> None:
        assert not Path(dst).exists()  # the entry appears only by the rename
        calls.append((Path(src), Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    run(capsys, "certify", "5", "2", "--kind", "gamma",
        "--cache-dir", str(tmp_path))
    [(src, dst)] = calls
    assert src.parent == dst.parent == tmp_path and src != dst
    assert list(tmp_path.iterdir()) == [dst]


@pytest.mark.parametrize("by_env", [False, True])
def test_a_file_as_cache_directory_exits_2(capsys, tmp_path, monkeypatch,
                                           by_env) -> None:
    # Reading an entry under a file fails with NotADirectoryError, a miss;
    # the cache cannot then be created, which is refused without a traceback
    # and before the table is computed.
    where = tmp_path / "not-a-directory"
    where.write_text("")
    monkeypatch.setattr(kneserhom.hochster, "full_betti_oracle",
                        lambda *a, **kw: pytest.fail("computed before the refusal"))
    argv = ["betti-table", "5", "2"]
    if by_env:
        monkeypatch.setenv("KNESERHOM_CACHE_DIR", str(where))
    else:
        argv += ["--cache-dir", str(where)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write to the cache directory")
    assert err.count("\n") == 1
    assert where.read_text() == ""


@pytest.mark.parametrize("argv", [
    ("betti-table", "3", "1"),
    ("certify", "5", "2", "--kind", "gamma", "--output", "json"),
])
def test_a_directory_as_cache_entry_exits_2(capsys, tmp_path, argv) -> None:
    # Reading the entry fails with IsADirectoryError, a miss; the rename
    # over it fails, which is refused, and no temporary file is left.
    cached = (*argv, "--cache-dir", str(tmp_path))
    run(capsys, *cached)
    [entry] = tmp_path.iterdir()
    entry.unlink()
    entry.mkdir()
    code, out, err = run(capsys, *cached)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write to the cache directory")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [entry] and entry.is_dir()


@pytest.mark.parametrize("argv", [
    ("betti-linear", "4", "2", "--verify"),
    ("info", "5", "2"),
    ("betti-table", "3", "1"),
    ("bounds", "5", "2", "--invariant", "reg"),
    ("certify", "5", "2", "--kind", "matching"),
    ("export", "5", "2", "--format", "m2"),
])
def test_csv_output_only_for_unverified_linear_strand(capsys, argv) -> None:
    code, out, err = run(capsys, *argv, "--output", "csv")
    assert code == 2
    assert out == ""
    assert "csv" in err


@pytest.mark.parametrize("fmt,needle", [
    ("m2", "monomialIdeal"),
    ("singular", "ring R = 0,"),
    ("dot", "graph H_4_2 {"),
    ("json", '"edges"'),
])
def test_export_formats(capsys, fmt: str, needle: str) -> None:
    code, out, _ = run(capsys, "export", "4", "2", "--format", fmt)
    assert code == 0
    assert needle in out


@pytest.mark.parametrize("argv", [
    ("export", "2", "1", "--format", "json", "--output", "json"),
    ("export", "5", "2", "--format", "m2", "--output", "json"),
    ("export", "5", "2", "--format", "dot", "--output", "text"),
])
def test_export_takes_no_output_flag(capsys, argv) -> None:
    # --format alone picks the text; an --output flag is an unknown argument
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --output" in err


# sha256 of the stdout of `export 12 5` in each format, as the exports
# printed it when they were written from the edge list of the build.  The
# golden file covers only `export 5 2`.
EXPORT_12_5 = {
    "m2": "c7b0c6834ca5ce7c478fb0258572b56bdf464017a27ba5d0f40106fa2fb132f8",
    "singular": "a8d5043d6bcbb655a53a67b87a78519edc436a3e83fb7e37223f2d174dc82b57",
    "dot": "9934dc209a1c38377e45d908773737e5136a4a1c3155bf2e6989e6a4e8cbd8ed",
    "json": "15d63ef3c350f0ab23e9ebf6c22395457d924a0fd2bd4d2190914bf6c4453b35",
}


@pytest.mark.parametrize("fmt", sorted(EXPORT_12_5))
def test_export_12_5_is_pinned(capsys, fmt: str) -> None:
    code, out, _ = run(capsys, "export", "12", "5", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_12_5[fmt]


def test_guard_flag_override(capsys) -> None:
    code, _, err = run(capsys, "info", "5", "2", "--max-subsets", "10")
    assert code == 3
    assert "max_subsets" in err


def test_guard_env_override(capsys, monkeypatch) -> None:
    monkeypatch.setenv("KNESERHOM_MAX_SUBSETS", "10")
    code, _, err = run(capsys, "info", "5", "2")
    assert code == 3
    assert "max_subsets" in err


def test_guard_flag_beats_env(capsys, monkeypatch) -> None:
    monkeypatch.setenv("KNESERHOM_MAX_SUBSETS", "10")
    code, _, _ = run(capsys, "info", "5", "2", "--max-subsets", "1000")
    assert code == 0


@pytest.mark.parametrize("argv,env", [
    (("betti-table", "3", "1", "--max-faces", "-5"), None),
    (("export", "3", "1", "--format", "dot", "--max-subsets", "-1"), None),
    (("betti-table", "3", "1"), "-5"),
    (("info", "3", "1", "--max-search-nodes", "-1"), None),
    (("betti-linear", "3", "1", "--max-matrix-cells", "-1"), None),
    (("bounds", "3", "1", "--invariant", "pd"), "-1"),
    (("certify", "3", "1", "--kind", "gamma", "--max-faces", "-2"), None),
])
def test_negative_guard_limit_exits_2(capsys, monkeypatch, argv, env) -> None:
    if env is not None:
        monkeypatch.setenv("KNESERHOM_MAX_FACES", env)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "must be nonnegative" in err


@pytest.mark.parametrize("argv,env,message", [
    (("bounds", "5", "2", "--invariant", "reg", "--max-subsets", "-1"), None,
     "must be nonnegative"),
    (("bounds", "5", "2", "--invariant", "pd"), "many",
     "KNESERHOM_MAX_FACES must be an integer"),
])
def test_bounds_refuses_a_bad_guard(capsys, monkeypatch, argv, env,
                                    message) -> None:
    # bounds enumerates nothing, but takes the guard flags and variables
    # with the meaning every other subcommand gives them.
    if env is not None:
        monkeypatch.setenv("KNESERHOM_MAX_FACES", env)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and err.startswith("error:")
    assert message in err


def test_parser_is_built_once(capsys, monkeypatch) -> None:
    built = []

    def spy(*args, **kwargs):
        built.append(kwargs.get("prog"))
        return argparse.ArgumentParser(*args, **kwargs)

    # argparse itself names ArgumentParser in its constructor, so the spy
    # stands in for it in the cli module's view only.
    monkeypatch.setattr(kneserhom.cli, "argparse",
                        SimpleNamespace(ArgumentParser=spy))
    kneserhom.cli._parser.cache_clear()
    try:
        # One call that a guard refuses, then the same request without the
        # flag: the first call's values must not leak into the second.
        argv = ("betti-table", "4", "1")
        code, out, err = run(capsys, *argv, "--max-faces", "5")
        assert (code, out) == (3, "")
        assert "max_faces" in err
        first = len(built)
        assert first > 0
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "pd  = 6" in out
        assert len(built) == first
    finally:
        kneserhom.cli._parser.cache_clear()


def test_parameter_errors_exit_2(capsys) -> None:
    code, _, err = run(capsys, "info", "3", "2")  # m < 2k
    assert code == 2
    assert "error:" in err
    code, _, _ = run(capsys, "betti-linear", "5", "2", "--i-max", "0")
    assert code == 2
    code, _, _ = run(capsys, "certify", "5", "2", "--kind", "domination",
                     "--s", "wat")
    assert code == 2


def test_usage_errors_exit_2(capsys) -> None:
    assert run(capsys, "info", "5")[0] == 2  # missing k
    assert run(capsys, "no-such-command", "5", "2")[0] == 2


def test_help_exits_0(capsys) -> None:
    assert run(capsys, "--help")[0] == 0


def test_reruns_are_byte_identical(capsys) -> None:
    for args in [("betti-linear", "5", "2", "--i-max", "6", "--output", "json"),
                 ("certify", "5", "2", "--kind", "gamma", "--output", "json"),
                 ("export", "5", "2", "--format", "m2")]:
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2, args
