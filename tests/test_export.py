"""The exports of H(m, k).  They read each left row of the built adjacency
once; the tests at the end check them against texts written here by
`json.dumps` and a plain DOT writer over `Graph.edges()`, which
`tests/test_graphs.py` checks against a brute-force pair list, as
`tests/test_kneser.py` checks the adjacency against the definition of
H(m, k).
"""

from __future__ import annotations

import json
import re

import pytest

from kneserhom.combinatorics import elements_of, subset_str
from kneserhom.export import (
    to_dot_graph,
    to_json_graph,
    to_macaulay2,
    to_singular,
)
from kneserhom.kneser import KneserGraph, build


def test_macaulay2_output(kn21, kn52) -> None:
    out = to_macaulay2(kn21)
    assert "R = QQ[xL0,xL1,xR0,xR1];" in out
    assert "I = monomialIdeal(xL0*xR0,xL1*xR1);" in out
    assert out.endswith("betti res I\n")
    big = to_macaulay2(kn52)
    assert big.count("xL") > 0 and big.count("*") == 30  # one star per edge


def test_singular_output(kn21) -> None:
    out = to_singular(kn21)
    assert "ring R = 0,(xL0,xL1,xR0,xR1),dp;" in out
    assert "ideal I = xL0*xR0,xL1*xR1;" in out
    assert "resolution rs = res(I,0);" in out
    assert out.endswith("exit;\n")


def test_variable_counts(kn52) -> None:
    out = to_macaulay2(kn52)
    decl = out.split("[", 1)[1].split("]", 1)[0]
    names = decl.split(",")
    assert len(names) == 20
    assert len(set(names)) == 20
    assert names[0] == "xL0" and names[-1] == "xR9"


def test_dot_output(kn31) -> None:
    out = to_dot_graph(kn31)
    assert out.startswith("graph H_3_1 {")
    assert out.count(" -- ") == 6


def test_json_graph(kn52) -> None:
    data = json.loads(to_json_graph(kn52))
    assert data["m"] == 5 and data["k"] == 2
    assert len(data["vertices"]) == 20
    assert len(data["edges"]) == 30
    v0 = data["vertices"][0]
    assert v0 == {"id": 0, "side": "L", "subset": [1, 2]}
    sides = [v["side"] for v in data["vertices"]]
    assert sides == ["L"] * 10 + ["R"] * 10
    for u, v in data["edges"]:
        a = set(data["vertices"][u]["subset"])
        b = set(data["vertices"][v]["subset"])
        assert a <= b


def test_exports_are_deterministic(kn42) -> None:
    assert to_macaulay2(kn42) == to_macaulay2(kn42)
    assert to_json_graph(kn42) == to_json_graph(kn42)


def test_vertex_labels_follow_the_colex_layout(kn52) -> None:
    dot = to_dot_graph(kn52)
    nodes = dict(re.findall(r"^  v(\d+) \[(.*)\];$", dot, re.M))
    vertices = json.loads(to_json_graph(kn52))["vertices"]
    assert len(nodes) == len(vertices) == kn52.graph.n == 20
    for v in range(kn52.graph.n):
        subset, side = kn52.subset_of(v), kn52.side_of(v)
        assert nodes[str(v)] == f'label="{subset_str(subset)}", side="{side}"'
        assert vertices[v] == {"id": v, "side": side,
                               "subset": list(elements_of(subset))}
        assert len(vertices[v]["subset"]) == (2 if side == "L" else 3)


# Ladders (m = 2k), one m = 2k + 1 case per k up to 4, and H(12, 5).
EMITTED = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (9, 4), (12, 5)]


@pytest.fixture(scope="module", params=EMITTED, ids=lambda mk: f"H{mk}")
def emitted(request) -> KneserGraph:
    return build(*request.param)


def reference_dot(kn: KneserGraph) -> str:
    lines = [f"graph H_{kn.m}_{kn.k} {{"]
    for v in range(kn.graph.n):
        lines.append(f'  v{v} [label="{subset_str(kn.subset_of(v))}", '
                     f'side="{kn.side_of(v)}"];')
    lines.extend(f"  v{u} -- v{v};" for u, v in kn.graph.edges())
    return "\n".join(lines + ["}"]) + "\n"


def reference_json(kn: KneserGraph) -> str:
    vertices = [{"id": v, "side": kn.side_of(v),
                 "subset": list(elements_of(kn.subset_of(v)))}
                for v in range(kn.graph.n)]
    payload = {"m": kn.m, "k": kn.k, "vertices": vertices,
               "edges": [list(e) for e in kn.graph.edges()]}
    return json.dumps(payload, indent=2, sort_keys=True)


def test_dot_equals_a_writer_over_the_adjacency(emitted) -> None:
    assert to_dot_graph(emitted) == reference_dot(emitted)


def test_json_equals_json_dumps_over_the_adjacency(emitted) -> None:
    assert to_json_graph(emitted) == reference_json(emitted)


def test_generators_are_the_adjacency_edges(emitted) -> None:
    n = emitted.n_left
    gens = re.search(r"monomialIdeal\((.*)\);", to_macaulay2(emitted)).group(1)
    pairs = [re.fullmatch(r"xL(\d+)\*xR(\d+)", g).groups() for g in gens.split(",")]
    assert tuple((int(a), n + int(b)) for a, b in pairs) == emitted.graph.edges()
    assert f"ideal I = {gens};" in to_singular(emitted)
