#!/usr/bin/env python3
"""Case study: PARSEC streamcluster (paper Section 4.2-4.3, Tables 8-9).

streamcluster is the paper's hardest case: its false sharing comes from a
``#define CACHE_LINE 32`` padding constant (half a real line, so pairs of
threads still share), the contention dilutes as inputs grow, the native
input adds genuine bad-memory-access behaviour, and barrier spin-waiting
makes one grid cell flip between "good" and "bad-fs" across runs.

This script reproduces all four observations.
"""

from collections import Counter

from repro.experiments.context import PipelineContext
from repro.suites import get_program
from repro.suites.base import SuiteCase
from repro.utils.tables import render_grid


def main() -> None:
    ctx = PipelineContext()
    sc = get_program("streamcluster")
    detector = ctx.detector
    classified = ctx.classify_program("streamcluster")

    inputs = ("simsmall", "simmedium", "simlarge", "native")
    opts = ("-O1", "-O2", "-O3")
    threads = (4, 8, 12)

    print("=== classification grid (paper Table 8) ===")
    rows, row_labels = [], []
    for inp in inputs:
        for opt in opts:
            row_labels.append(f"{inp} {opt}")
            rows.append([
                f"{classified.seconds[SuiteCase(inp, opt, t)] * 1e3:7.3f}ms "
                f"[{classified.labels[SuiteCase(inp, opt, t)]}]"
                for t in threads
            ])
    print(render_grid(row_labels, tuple(f"T={t}" for t in threads), rows,
                      corner="input/opt"))
    tally = Counter(classified.labels.values())
    print(f"tally: {dict(tally)}  (paper: 15 bad-fs / 11 good / 10 bad-ma)")

    print("\n=== the unstable top-right cell (spin-lock waiting) ===")
    flaky = SuiteCase("simsmall", "-O1", 12)
    for rep in range(5):
        case = flaky.with_(rep=rep)
        res = ctx.lab.simulate(sc, case)
        from repro.pmu.events import TABLE2_EVENTS
        vec = ctx.lab.measure(sc, case, TABLE2_EVENTS)
        label = detector.classify_vector(vec)
        print(f"  run {rep}: {res.instructions:>12,} instructions, "
              f"{res.seconds * 1e3:7.3f} ms -> {label}")
    print("  (instruction counts swing with spin time; normalized counts "
          "and the verdict swing with them — paper Section 4.3)")

    print("\n=== oracle rates by input (paper Table 9; native too slow) ===")
    for inp in ("simsmall", "simmedium", "simlarge"):
        for opt in opts:
            rates = [ctx.shadow_report(sc, SuiteCase(inp, opt, t)).fs_rate
                     for t in (4, 8)]
            marks = ["FS" if r > 1e-3 else "no-FS" for r in rates]
            print(f"  {inp:10s} {opt}: T4 {rates[0]:.6f} ({marks[0]}), "
                  f"T8 {rates[1]:.6f} ({marks[1]})")
    print("\nNote the simmedium -O1 T=8 cell: the oracle still sees a rate "
          "just above 1e-3\nwhile the event signature reads good — the one "
          "detection miss the paper reports.")


if __name__ == "__main__":
    main()
