"""Shared utilities: size units, seeded RNG, ASCII tables, timers, validation."""

from repro.utils.units import format_bytes, format_duration
from repro.utils.tables import AsciiTable

__all__ = [
    "format_bytes",
    "format_duration",
    "AsciiTable",
]
