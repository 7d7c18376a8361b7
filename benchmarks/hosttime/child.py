"""One fresh interpreter, one job: a timed testbed call, a traced one,
or the probes.  Prints one JSON object as its last line of output.

``adapter`` (and so ``repro``) is imported inside each job, after the
clock has started: the import is part of ``setup_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

LAYERS = ("sim", "net", "grammar", "lang", "runtime", "core", "workloads")

#: Set-up lasts a third of a second, too short to hold many quanta of
#: its own: its speed is read from the repetition's first second.
_SETUP_READINGS = 50


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(adapter, workload: str, seed: int, scale: float) -> dict:
    """The testbed call; a workload that does not finish is a result
    (every op failed), any other exception is the harness's problem."""
    try:
        return adapter.run_workload(workload, seed, scale)
    except RuntimeError as exc:
        return {"unfinished": str(exc)}


def run(workload: str, seed: int, scale: float) -> dict:
    import calib

    rss_before = _maxrss_mb()
    calibrator = calib.Calibrator()
    yardstick_mb = _maxrss_mb() - rss_before
    calibrator.start()
    t0 = time.process_time()
    import adapter

    adapter.setup_workload(workload)
    t1 = time.process_time()
    w1 = time.perf_counter()
    in_setup = len(calibrator.samples)
    sim = _call(adapter, workload, seed, scale)
    cpu_s = time.process_time() - t1
    wall_s = time.perf_counter() - w1
    calibrator.stop()
    samples = calibrator.samples
    call_q = samples[in_setup:]
    return {
        "setup_s": calib.calibrated_seconds(
            t1 - t0, samples[:in_setup], samples[:_SETUP_READINGS]
        ),
        "call_s": calib.calibrated_seconds(cpu_s, call_q),
        "raw_cpu_s": cpu_s - sum(call_q),
        "wall_over_cpu": wall_s / cpu_s,
        "calib_s": sum(call_q) / len(call_q) if call_q else None,
        # ru_maxrss is the whole process's; the yardstick's working set
        # was resident before the program's first import.
        "peak_rss_mb": _maxrss_mb() - yardstick_mb,
        "sim": sim,
    }


def _layer_of(filename: str) -> str:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        package = filename[at + len(marker):].split("/", 1)[0]
        if package in LAYERS:
            return package
    return "other"


def trace(workload: str, seed: int, scale: float) -> dict:
    """The same call under cProfile, self time and calls by layer.

    A C built-in has no file of its own: its self time and its calls are
    charged to the layer of the Python function that called it.  No
    calibrator here (its handler would be profiled): seconds are raw.
    """
    import cProfile
    import pstats

    import adapter

    adapter.setup_workload(workload)
    profile = cProfile.Profile()
    t1 = time.process_time()
    profile.enable()
    sim = _call(adapter, workload, seed, scale)
    profile.disable()
    cpu_s = time.process_time() - t1

    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    calls = dict.fromkeys(LAYERS + ("other",), 0)
    for (filename, _, _), (_, ncalls, tottime, _, callers) in pstats.Stats(
        profile
    ).stats.items():
        if filename != "~" or not callers:
            layer = _layer_of(filename)
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        for (caller_file, _, _), (c_ncalls, _, c_tottime, _) in callers.items():
            layer = _layer_of(caller_file)
            self_s[layer] += c_tottime
            calls[layer] += c_ncalls
    return {"raw_cpu_s": cpu_s, "sim": sim, "self_s": self_s, "calls": calls}


def main(argv) -> int:
    mode, workload, seed, scale = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "run":
        out = run(workload, seed, scale)
    elif mode == "trace":
        out = trace(workload, seed, scale)
    elif mode == "probes":
        import probes

        out = probes.run_all(seed, scale, repeats=int(argv[4]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
