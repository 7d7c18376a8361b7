"""Unit helpers for virtual time, data sizes and rates.

The simulator's clock is a float measured in **microseconds**.  All cost
parameters across the code base use these helpers so the unit is explicit
at the point of definition (``5 * MILLISECONDS`` rather than a bare
``5000.0``).
"""

from __future__ import annotations

# -- time ---------------------------------------------------------------

MICROSECONDS = 1.0
MILLISECONDS = 1_000.0
SECONDS = 1_000_000.0


def millis(us: float) -> float:
    """Convert a virtual-time duration in microseconds to milliseconds."""
    return us / MILLISECONDS


# -- data sizes ----------------------------------------------------------

BYTES = 1
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

# -- rates ---------------------------------------------------------------

BITS_PER_SECOND = 1.0
KBPS = 1_000.0
MBPS = 1_000_000.0
GBPS = 1_000_000_000.0


def throughput_mbps(nbytes: int, duration_us: float) -> float:
    """Goodput in Mbit/s for ``nbytes`` transferred over ``duration_us``."""
    if duration_us <= 0:
        return 0.0
    return (nbytes * 8.0) / (duration_us / SECONDS) / MBPS


def rate_per_second(count: int, duration_us: float) -> float:
    """Events per second for ``count`` events over ``duration_us``."""
    if duration_us <= 0:
        return 0.0
    return count / (duration_us / SECONDS)
