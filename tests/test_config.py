from __future__ import annotations

import pytest

from kneserhom.config import DEFAULT_GUARDS, GuardExceeded, Guards


def test_check_passes_at_limit() -> None:
    g = Guards(max_faces=100)
    g.check("max_faces", 100, "exactly at the limit")
    g.check("max_faces", 1, "small")


def test_check_raises_above_limit() -> None:
    g = Guards(max_faces=100)
    with pytest.raises(GuardExceeded) as exc:
        g.check("max_faces", 101, "one past")
    e = exc.value
    assert (e.guard, e.needed, e.limit) == ("max_faces", 101, 100)
    msg = str(e)
    assert "one past" in msg
    assert "KNESERHOM_MAX_FACES" in msg
    assert "--max-faces" in msg


def test_from_env_reads_overrides() -> None:
    env = {"KNESERHOM_MAX_SUBSETS": "42", "KNESERHOM_MAX_SEARCH_NODES": "7"}
    g = Guards.from_env(env)
    assert g.max_subsets == 42
    assert g.max_search_nodes == 7
    assert g.max_faces == DEFAULT_GUARDS.max_faces


def test_from_env_rejects_garbage() -> None:
    with pytest.raises(ValueError):
        Guards.from_env({"KNESERHOM_MAX_FACES": "lots"})


def test_with_overrides_ignores_none() -> None:
    g = Guards()
    same = g.with_overrides(max_subsets=None, max_faces=None)
    assert same == g
    bumped = g.with_overrides(max_subsets=5, max_faces=None)
    assert bumped.max_subsets == 5
    assert bumped.max_faces == g.max_faces


@pytest.mark.parametrize("name", ["max_subsets", "max_faces",
                                  "max_matrix_cells", "max_search_nodes"])
def test_negative_limit_is_refused(name: str) -> None:
    env, flag = "KNESERHOM_" + name.upper(), "--" + name.replace("_", "-")
    with pytest.raises(ValueError, match=f"{env} or the {flag} flag") as exc:
        Guards.from_env({env: "-5"})
    assert f"{name} must be nonnegative, got -5" in str(exc.value)
    with pytest.raises(ValueError, match=f"{env} or the {flag} flag"):
        Guards().with_overrides(**{name: -1})
    # 0 is a limit that refuses any work, not a bad parameter.
    assert getattr(Guards().with_overrides(**{name: 0}), name) == 0
