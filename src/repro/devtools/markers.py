"""Markers consumed by the static-analysis suite.

:func:`hot_path` tags the Stage-1/Stage-2 functions whose allocation
behaviour is pinned by lint rule **IPD005** (hot-path hygiene).  The
marker is *deliberately* the identity function — it returns the
undecorated function object unchanged, adds no wrapper frame, and costs
nothing at call time.  ``tests/devtools/test_framework.py`` pins this
identity (and that the marked engine entry points are unwrapped), so
the marker can never silently grow instrumentation that would slow
ingest or sweeps under the perf ledger.

The lint rules find the marker *syntactically* (a ``@hot_path``
decorator in the AST); nothing at runtime depends on it.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["hot_path"]

F = TypeVar("F", bound=Callable[..., object])


def hot_path(func: F) -> F:
    """Mark *func* as a hot path for lint rule IPD005.  Identity: no wrapper."""
    return func
