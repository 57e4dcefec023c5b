"""The CHAINDYN_THREADS setting and the map that graph construction runs through.

Graph construction runs in the calling thread: on a 2-core machine a thread
pool measured slower at 2 and 8 threads than at 1.  The variable is still
read, and ``perfbench/run.py`` records :func:`thread_count`, but it changes
no work.  :func:`ordered_map` stays a named function because
``perfbench/tracer.py`` wraps it and counts its calls.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

ENV_VAR = "CHAINDYN_THREADS"

_T = TypeVar("_T")
_R = TypeVar("_R")


def thread_count() -> int:
    raw = os.environ.get(ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def ordered_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """map() as a list, in input order and in the calling thread."""
    return [fn(item) for item in items]
