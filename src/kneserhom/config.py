"""Enumeration guards and shared error types.

Every potentially explosive computation (subset sums, face enumeration,
boundary matrices, search trees) checks a limit before or while running and
fails loudly when the limit is hit.  A truncated sum would be a wrong answer,
not a partial one, so there is no silent degradation path.  Limits are
configuration, not constants: raise them knowingly via environment variables
or the corresponding CLI flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

ENV_PREFIX = "KNESERHOM_"

# Defaults are sized so that full Betti tables run for graphs up to 12
# vertices and linear-strand sums up to 20 vertices.
DEFAULT_MAX_SUBSETS = 1_200_000
DEFAULT_MAX_FACES = 100_000
DEFAULT_MAX_MATRIX_CELLS = 1_000_000
DEFAULT_MAX_SEARCH_NODES = 5_000_000


class GuardExceeded(RuntimeError):
    """A configured enumeration limit would be (or was) exceeded."""

    def __init__(self, guard: str, needed: int, limit: int, context: str):
        self.guard = guard
        self.needed = needed
        self.limit = limit
        env = ENV_PREFIX + guard.upper()
        super().__init__(
            f"{context}: {guard} limit exceeded (needs {needed}, limit {limit}). "
            f"If this size is intentional, raise the limit via {env} or the "
            f"--{guard.replace('_', '-')} flag."
        )


@dataclass(frozen=True)
class Guards:
    """Resource limits shared by all enumeration-heavy operations."""

    max_subsets: int = DEFAULT_MAX_SUBSETS
    max_faces: int = DEFAULT_MAX_FACES
    max_matrix_cells: int = DEFAULT_MAX_MATRIX_CELLS
    max_search_nodes: int = DEFAULT_MAX_SEARCH_NODES

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
