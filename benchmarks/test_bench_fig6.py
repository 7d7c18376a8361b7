"""Figure 6 — Hadoop data aggregator throughput vs CPU cores.

Paper: median ingress throughput of the 8-mapper word-count aggregation
scales with cores up to ~7,513 Mbps at 16 cores (the capacity of the
8 x 1 Gbps mapper links after TCP overhead); datasets of 8/12/16-char
words, with longer words processed more efficiently (fewer pairs/byte).

Our testbed runs on scaled links (DESIGN.md §3, HADOOP_LINK_SCALE), so
absolute Mbps are smaller; asserted shapes: monotone scaling 1->8 cores,
saturation 8->16, and the word-length ordering at low core counts.
"""


from benchmarks.conftest import print_series, run_once
from repro.bench.testbeds import run_hadoop_experiment

CORES = (1, 2, 4, 8, 16)
WORD_LENGTHS = (8, 12, 16)


def _sweep():
    return {
        wl: [
            run_hadoop_experiment(cores, word_len=wl, data_kb_per_mapper=64)
            for cores in CORES
        ]
        for wl in WORD_LENGTHS
    }


def test_fig6_hadoop_aggregator(benchmark):
    series = run_once(benchmark, _sweep)
    rows = []
    for wl, points in series.items():
        rows.append(
            f"WC {wl:2d} char: "
            + " ".join(f"{p.throughput:6.1f}" for p in points)
            + "  Mb/s"
        )
    print_series(f"Figure 6 (cores: {CORES})", rows)

    for wl, points in series.items():
        thr = [p.throughput for p in points]
        # Scales with cores (strictly up to 8)...
        assert thr[0] < thr[1] < thr[2] < thr[3]
        # ...then saturates: 8 -> 16 gains less than 25%.
        assert thr[4] <= thr[3] * 1.25
        # Meaningful multi-core speedup overall (paper: ~3.7x 1->16).
        assert thr[4] / thr[0] > 1.8

    # Longer words yield higher Mb/s at low core counts (per-pair costs
    # amortise over more bytes), Figure 6's series ordering.
    for lo, hi in ((8, 12), (12, 16)):
        assert series[hi][0].throughput > series[lo][0].throughput

    # The aggregation output is much smaller than its input (the whole
    # point of in-network reduction).
    point = series[8][3]
    job = point.entry["job"]
    assert job["egress_bytes"] < job["ingress_bytes"] / 2
