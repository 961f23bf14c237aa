"""Enumeration guards and shared error types.

Every potentially explosive computation checks a limit before or while
running and fails loudly when the limit is hit.  A truncated sum would be a
wrong answer, not a partial one, so there is no silent degradation path.
Limits are configuration, not constants: raise them knowingly via
environment variables or the corresponding CLI flags.  What each counts:

- max_subsets: the vertex subsets a Hochster sum stands for (2^n for a full
  Betti table, C(n, i+1) for a linear strand entry), and the 2 C(m, k)
  vertices of a graph build;
- max_faces: for a full Betti table, the matching-tree nodes and flow cells
  of all its slices together, as they are built; for `enumerate_faces`, the
  faces of one complex;
- max_matrix_cells: rows times columns of each matrix ranked: a Morse
  matrix (critical cells against critical cells) in a full Betti table, a
  boundary matrix in `reduced_homology_dims`;
- max_search_nodes: the nodes of one exact search, and the families or
  sets an exhaustive check lists; `tau_of` counts its maximal independent
  sets and the nodes of all its covering searches as one total.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

ENV_PREFIX = "KNESERHOM_"

# Defaults are sized so that full Betti tables run for graphs of up to 20
# vertices (2^20 subsets), H(5,2) among them, and a linear-strand entry for
# up to 1,200,000 subsets.
DEFAULT_MAX_SUBSETS = 1_200_000
DEFAULT_MAX_FACES = 100_000
DEFAULT_MAX_MATRIX_CELLS = 1_000_000
DEFAULT_MAX_SEARCH_NODES = 5_000_000


def _set_by(guard: str) -> str:
    """The variable and the flag that set a guard."""
    return f"{ENV_PREFIX + guard.upper()} or the --{guard.replace('_', '-')} flag"


class GuardExceeded(RuntimeError):
    """A configured enumeration limit would be (or was) exceeded."""

    def __init__(self, guard: str, needed: int, limit: int, context: str,
                 at_least: bool = False):
        self.guard = guard
        self.needed = needed
        self.limit = limit
        super().__init__(
            f"{context}: {guard} limit exceeded (needs {'at least ' if at_least else ''}"
            f"{needed}, limit {limit}). "
            f"If this size is intentional, raise the limit via {_set_by(guard)}."
        )


@dataclass(frozen=True)
class Guards:
    """Resource limits shared by all enumeration-heavy operations."""

    max_subsets: int = DEFAULT_MAX_SUBSETS
    max_faces: int = DEFAULT_MAX_FACES
    max_matrix_cells: int = DEFAULT_MAX_MATRIX_CELLS
    max_search_nodes: int = DEFAULT_MAX_SEARCH_NODES

    def __post_init__(self):
        # A negative limit would refuse every computation as if it were too
        # large; it is a bad parameter.  0 stays legal.
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ValueError(f"{field.name} must be nonnegative, got "
                                 f"{value}; set it via {_set_by(field.name)}")

    @classmethod
    def from_env(cls, environ=None) -> "Guards":
        """Build defaults overridden by KNESERHOM_MAX_* environment variables."""
        environ = os.environ if environ is None else environ
        values = {}
        for field in fields(cls):
            env = ENV_PREFIX + field.name.upper()
            raw = environ.get(env)
            if raw is not None:
                try:
                    values[field.name] = int(raw)
                except ValueError as exc:
                    raise ValueError(f"{env} must be an integer, got {raw!r}") from exc
        return cls(**values)

    def check(self, guard: str, needed: int, context: str) -> None:
        limit = getattr(self, guard)
        if needed > limit:
            raise GuardExceeded(guard, needed, limit, context)

    def with_overrides(self, **kwargs) -> "Guards":
        values = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **values) if values else self


DEFAULT_GUARDS = Guards()
# The guard names, declared once by the fields of Guards.
GUARD_NAMES = tuple(field.name for field in fields(Guards))
