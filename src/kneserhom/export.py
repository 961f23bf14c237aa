"""Emit H(m, k) and its edge ideal for external tools.

Variable naming: xL<r> for the left vertex of colex rank r, xR<r> for the
right one.  Every format lists the edges of the built adjacency as
`Graph.edges()` gives them, left id ascending then right id ascending, so
output is byte-stable.  The texts are written directly: the JSON is the text
`json.dumps(payload, indent=2, sort_keys=True)` gives, without its
pure-Python indenting encoder.
"""

from __future__ import annotations

from .combinatorics import elements_of, subset_str
from .kneser import KneserGraph


def _ideal(kn: KneserGraph) -> tuple[str, str]:
    """The comma-joined variables, by vertex id, and edge generators."""
    names = [f"xL{r}" for r in range(kn.n_left)] + [f"xR{r}" for r in range(kn.n_left)]
    return ",".join(names), ",".join([f"{names[u]}*{names[v]}" for u, v in kn.graph.edges()])


def to_macaulay2(kn: KneserGraph) -> str:
    variables, gens = _ideal(kn)
    return (
        f"-- edge ideal of the bipartite Kneser graph H({kn.m},{kn.k})\n"
        f"R = QQ[{variables}];\n"
        f"I = monomialIdeal({gens});\n"
        f"betti res I\n"
    )


def to_singular(kn: KneserGraph) -> str:
    variables, gens = _ideal(kn)
    return (
        f"// edge ideal of the bipartite Kneser graph H({kn.m},{kn.k})\n"
        f"ring R = 0,({variables}),dp;\n"
        f"ideal I = {gens};\n"
        f"resolution rs = res(I,0);\n"
        f'print(betti(rs),"betti");\n'
        f"exit;\n"
    )


def _vertices(kn: KneserGraph):
    """Yield (id, side letter, subset mask) for every vertex, by id."""
    for right, side in enumerate(kn.sides):
        tag = kn.side_of(right * kn.n_left).value
        for vid, mask in enumerate(side, right * kn.n_left):
            yield vid, tag, mask


def to_dot_graph(kn: KneserGraph) -> str:
    lines = [f"graph H_{kn.m}_{kn.k} {{"]
    lines.extend([f'  v{vid} [label="{subset_str(mask)}", side="{tag}"];'
                  for vid, tag, mask in _vertices(kn)])
    lines.extend([f"  v{u} -- v{v};" for u, v in kn.graph.edges()])
    lines.append("}\n")
    return "\n".join(lines)


def to_json_graph(kn: KneserGraph) -> str:
    """The object {"edges": [[u, v], ...], "k", "m", "vertices": [{"id",
    "side", "subset"}, ...]} with two-space indents and sorted keys."""
    edges = ",\n".join([f"    [\n      {u},\n      {v}\n    ]" for u, v in kn.graph.edges()])
    vertices = ",\n".join([
        f'    {{\n      "id": {vid},\n      "side": "{tag}",\n      "subset": [\n'
        + ",\n".join([f"        {e}" for e in elements_of(mask)])
        + "\n      ]\n    }"
        for vid, tag, mask in _vertices(kn)])
    return (f'{{\n  "edges": [\n{edges}\n  ],\n  "k": {kn.k},\n  "m": {kn.m},\n'
            f'  "vertices": [\n{vertices}\n  ]\n}}')
