"""Wall-clock timing for the *algorithm running time* experiments.

Experiments 2 and 4 of the paper measure how long HD-PSR-AP / HD-PSR-AS take
to derive ``P_a``; :func:`time_call` times one such selection with
``time.perf_counter``.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")


def time_call(func: Callable[..., T], *args: object, **kwargs: object) -> Tuple[T, float]:
    """Call ``func`` and return ``(result, elapsed_seconds)``."""
    t0 = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - t0
