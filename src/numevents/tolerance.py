"""Comparison tolerance for measured probability values.

The tolerance is a context variable: each thread, and each asyncio task,
sees the value set in its own context, starting from DEFAULT_EPS.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["DEFAULT_EPS", "get_eps", "set_eps", "eps_scope"]

DEFAULT_EPS = 1e-9

_eps: ContextVar[float] = ContextVar("numevents_eps", default=DEFAULT_EPS)


def get_eps() -> float:
    """Return the tolerance used by every comparison in the package."""
    return _eps.get()


def _checked(value: float) -> float:
    v = float(value)
    # v != v filters NaN, the upper bound filters inf and absurd settings
    if not (0.0 < v <= 0.5) or v != v:
        raise ValueError(f"eps must lie in (0, 0.5], got {value!r}")
    return v


def set_eps(value: float) -> None:
    """Replace the tolerance in the current context. Must be a positive finite number."""
    _eps.set(_checked(value))


@contextmanager
def eps_scope(value: float) -> Iterator[None]:
    """Temporarily override the tolerance; restores the old value on exit."""
    token = _eps.set(_checked(value))
    try:
        yield
    finally:
        _eps.reset(token)
