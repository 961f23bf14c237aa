"""Emit H(m, k) and its edge ideal for external tools.

Variable naming: xL<r> for the left vertex of colex rank r, xR<r> for the
right one.  Every format reads each left row once, as right ranks: H(m, k)
is bipartite with its left ids first and `Graph` checked the rows
symmetric, so these are the edges of `Graph.edges()`, in its byte-stable
order.  The JSON is the text `json.dumps(payload, indent=2, sort_keys=True)`
gives, written directly, without its pure-Python indenting encoder.
"""

from __future__ import annotations

from .combinatorics import bit_indices
from .kneser import KneserGraph


def _rows(kn: KneserGraph, base: int) -> list[tuple[int, list[str]]]:
    """Each left id, with base + r as strings, r over its row's right ranks."""
    n = kn.n_left
    names = [str(base + r) for r in range(n)]
    return [(v, [names[r] for r in bit_indices(row >> n)])
            for v, row in enumerate(kn.graph.adj[:n])]


def _ideal(kn: KneserGraph) -> tuple[str, str]:
    """The comma-joined variables, by vertex id, and edge generators."""
    ranks = range(kn.n_left)
    return (",".join([f"xL{r}" for r in ranks] + [f"xR{r}" for r in ranks]),
            ",".join([f"xL{v}*xR" + f",xL{v}*xR".join(row) for v, row in _rows(kn, 0)]))


def to_macaulay2(kn: KneserGraph) -> str:
    variables, gens = _ideal(kn)
    return (f"-- edge ideal of the bipartite Kneser graph H({kn.m},{kn.k})\n"
            f"R = QQ[{variables}];\nI = monomialIdeal({gens});\nbetti res I\n")


def to_singular(kn: KneserGraph) -> str:
    variables, gens = _ideal(kn)
    return (f"// edge ideal of the bipartite Kneser graph H({kn.m},{kn.k})\n"
            f"ring R = 0,({variables}),dp;\nideal I = {gens};\n"
            f'resolution rs = res(I,0);\nprint(betti(rs),"betti");\nexit;\n')


def _vertices(kn: KneserGraph) -> list[tuple[int, str, list[str]]]:
    """(id, side letter, subset elements as strings) of every vertex, by id."""
    names = [str(e) for e in range(1, kn.m + 1)]
    return [(vid, kn.side_of(vid), [names[i] for i in bit_indices(mask)])
            for vid, mask in enumerate(kn.sides[0] + kn.sides[1])]


def to_dot_graph(kn: KneserGraph) -> str:
    lines = [f"graph H_{kn.m}_{kn.k} {{"]
    lines.extend([f'  v{vid} [label="{{{",".join(subset)}}}", side="{tag}"];'
                  for vid, tag, subset in _vertices(kn)])
    lines.extend([f"  v{v} -- v" + f";\n  v{v} -- v".join(row) + ";"
                  for v, row in _rows(kn, kn.n_left)])
    return "\n".join(lines + ["}\n"])


def to_json_graph(kn: KneserGraph) -> str:
    """The object {"edges": [[u, v], ...], "k", "m", "vertices": [{"id",
    "side", "subset"}, ...]} with two-space indents and sorted keys."""
    edges = ",\n".join([f"    [\n      {v},\n      "
                        + f"\n    ],\n    [\n      {v},\n      ".join(row) + "\n    ]"
                        for v, row in _rows(kn, kn.n_left)])
    vertices = ",\n".join([
        f'    {{\n      "id": {vid},\n      "side": "{tag}",\n      "subset": [\n        '
        + ",\n        ".join(subset) + "\n      ]\n    }" for vid, tag, subset in _vertices(kn)])
    return (f'{{\n  "edges": [\n{edges}\n  ],\n  "k": {kn.k},\n  "m": {kn.m},\n'
            f'  "vertices": [\n{vertices}\n  ]\n}}')
