"""Workload generators: client populations, backend servers, Hadoop mappers.

:mod:`~repro.workloads.arrivals` holds the client side of every
request/response testbed: the paper's closed-loop population
(:class:`~repro.workloads.arrivals.ClosedLoopClients` — ApacheBench-style,
each client waits for its response), the open-loop
:class:`~repro.workloads.arrivals.OpenLoopClients`, which admits
requests on an arrival process's clock (poisson / bursty MMPP / ramp /
replay) regardless of completions so that overload and SLO misses are
observable, and the per-protocol request codecs both drive.
"""
