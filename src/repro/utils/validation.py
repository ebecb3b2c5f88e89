"""Parameter-validation helpers raising :class:`ConfigurationError`.

Centralised so every config dataclass produces uniform, actionable error
messages (the quantity name is always included).
"""

from __future__ import annotations

from numbers import Real

from repro.errors import ConfigurationError


def check_positive(name: str, value: Real) -> Real:
    """Ensure ``value > 0``."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a positive number, got {value!r}")
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: Real) -> Real:
    """Ensure ``value >= 0``."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a non-negative number, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: Real,
    low: Real,
    high: Real,
    inclusive: bool = True,
) -> Real:
    """Ensure ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    ok = low <= value <= high if inclusive else low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ConfigurationError(f"{name} must be in {bounds}, got {value!r}")
    return value


def check_probability(name: str, value: Real) -> Real:
    """Ensure ``0 <= value <= 1``."""
    return check_in_range(name, value, 0.0, 1.0)
