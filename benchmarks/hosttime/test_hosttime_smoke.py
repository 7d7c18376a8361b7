"""Smoke test of the host-time benchmark (``run.py --smoke``).

Checks shape, not speed: the names and units the harness prints are the
ones ``BENCHMARK.json`` declares, the traced shares add up, and every
simulated number and call count repeats exactly.  The two smoke runs
go side by side to stay inside ten seconds; nothing here reads a clock.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _smoke_twice(tmp_path):
    """Two concurrent smoke runs: ``[(printed lines, ledger), ...]``."""
    running = []
    for i in range(2):
        ledger = tmp_path / f"ledger{i}.json"
        argv = [sys.executable, str(HERE / "run.py"), "--smoke", "--output", str(ledger)]
        running.append((ledger, subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )))
    results = []
    for ledger, process in running:
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, out + err
        results.append((out.splitlines(), json.loads(ledger.read_text())))
    return results


def _declared():
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    return {
        (w["name"], name, unit) for w in MANIFEST["workloads"] for name, unit in units.items()
    }


def test_smoke_matches_manifest_and_repeats_exactly(tmp_path):
    (lines, ledger), (_, again) = _smoke_twice(tmp_path)

    printed = set()
    for line in lines:
        fields = line.split()
        if len(fields) >= 4 and not line.startswith(("#", "FAILED")):
            printed.add((fields[0], fields[1], fields[3]))
    assert printed == _declared()

    for workload, entry in ledger["workloads"].items():
        layers = entry["per_layer"]
        shares = [m["value"] for name, m in layers.items() if name.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) <= 0.01, workload
        assert entry["end_to_end"]["completed_share"]["value"] == 1.0, workload
        exact = {
            name: metric["value"]
            for part in ("end_to_end", "per_layer")
            for name, metric in entry[part].items()
            if name.startswith(("sim_", "completed_")) or name.endswith(".calls_per_op")
        }
        other = again["workloads"][workload]
        assert exact == {
            name: (other["end_to_end"].get(name) or other["per_layer"][name])["value"]
            for name in exact
        }, workload
