"""Emit H(m, k) and its edge ideal for external tools.

Variable naming: xL<r> for the left vertex of colex rank r, xR<r> for the
right one.  Generators are listed one per edge, left rank ascending then
right rank ascending, so output is byte-stable.
"""

from __future__ import annotations

import json

from .combinatorics import elements_of, subset_str
from .graphs import to_dot
from .kneser import KneserGraph


def _var(kn: KneserGraph, vid: int) -> str:
    if vid < kn.n_left:
        return f"xL{vid}"
    return f"xR{vid - kn.n_left}"


def _variables(kn: KneserGraph) -> list[str]:
    return [f"xL{r}" for r in range(kn.n_left)] + [f"xR{r}" for r in range(kn.n_left)]


def _generators(kn: KneserGraph) -> list[str]:
    return [f"{_var(kn, u)}*{_var(kn, v)}" for u, v in kn.graph.edges()]


def to_macaulay2(kn: KneserGraph) -> str:
    variables = ",".join(_variables(kn))
    gens = ",".join(_generators(kn))
    return (
        f"-- edge ideal of the bipartite Kneser graph H({kn.m},{kn.k})\n"
        f"R = QQ[{variables}];\n"
        f"I = monomialIdeal({gens});\n"
        f"betti res I\n"
    )


def to_singular(kn: KneserGraph) -> str:
    variables = ",".join(_variables(kn))
    gens = ",".join(_generators(kn))
    return (
        f"// edge ideal of the bipartite Kneser graph H({kn.m},{kn.k})\n"
        f"ring R = 0,({variables}),dp;\n"
        f"ideal I = {gens};\n"
        f"resolution rs = res(I,0);\n"
        f'print(betti(rs),"betti");\n'
        f"exit;\n"
    )


def to_dot_graph(kn: KneserGraph) -> str:
    def attrs(vid: int) -> str:
        return (f'label="{subset_str(kn.subset_of(vid))}", '
                f'side="{kn.side_of(vid).value}"')

    return to_dot(kn.graph, name=f"H_{kn.m}_{kn.k}", attrs=attrs)


def to_json_graph(kn: KneserGraph) -> str:
    vertices = []
    for vid in range(2 * kn.n_left):
        mask = kn.subset_of(vid)
        vertices.append({
            "id": vid,
            "side": kn.side_of(vid).value,
            "subset": list(elements_of(mask)),
        })
    payload = {
        "m": kn.m,
        "k": kn.k,
        "vertices": vertices,
        "edges": [[u, v] for u, v in kn.graph.edges()],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
