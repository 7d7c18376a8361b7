"""Workload generators: the client population, backend servers, Hadoop mappers.

:mod:`~repro.workloads.arrivals` holds the client side of every
request/response testbed: one
:class:`~repro.workloads.arrivals.ClientPopulation` whose arrival rule
is either an arrival process's clock (poisson / bursty MMPP / ramp /
replay), which admits requests regardless of completions so that
overload and SLO misses are observable, or the paper's closed rule
(ApacheBench-style: each client sends its next request when the one
before has ended), with one admission door and one outcome table under
both; and the per-protocol request codecs it drives.
"""
