"""Discrete-event simulation engine and measurement helpers."""

from repro.sim.engine import Engine
from repro.sim.stats import LatencySeries, RunResult

__all__ = ["Engine", "LatencySeries", "RunResult"]
