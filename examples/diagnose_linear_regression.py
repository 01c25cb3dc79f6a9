#!/usr/bin/env python3
"""Case study: Phoenix linear_regression (paper Section 4.1, Tables 6-7).

Reproduces the paper's diagnosis end to end:

1. classify every (input, optimization, threads) case with the trained
   detector — the -O0/-O1 grid is solid bad-fs, -O2 is good;
2. show the execution-time symptom (parallel slower than sequential at -O0);
3. confirm with the shadow-memory oracle: bad-fs cells have false-sharing
   rates 15-25x the good cells, and even the "good" -O2 cells stay just
   above the oracle's 1e-3 threshold, exactly as the paper found.

First run takes a few minutes (training + simulations); results are cached.
"""

from repro.experiments.context import PipelineContext
from repro.suites import get_program
from repro.suites.base import SuiteCase
from repro.utils.tables import render_grid


def main() -> None:
    ctx = PipelineContext()
    lr = get_program("linear_regression")
    print("training the detector on the mini-programs (cached after "
          "the first run)...")
    detector = ctx.detector
    classified = ctx.classify_program("linear_regression")

    inputs = ("50MB", "100MB", "500MB")
    opts = ("-O0", "-O1", "-O2")
    threads = (3, 6, 9, 12)

    print("\n=== classification and simulated time (paper Table 6) ===")
    rows, labels = [], []
    for inp in inputs:
        for opt in opts:
            labels.append(f"{inp} {opt}")
            row = []
            seq = ctx.lab.simulate(lr, SuiteCase(inp, opt, 1))
            row.append(f"{seq.seconds * 1e3:8.3f}ms (seq)")
            for t in threads:
                case = SuiteCase(inp, opt, t)
                lab = classified.labels[case]
                row.append(f"{classified.seconds[case] * 1e3:8.3f}ms "
                           f"[{lab}]")
            rows.append(row)
    print(render_grid(labels, ("T=1",) + tuple(f"T={t}" for t in threads),
                      rows, corner="input/opt"))

    print("\nSymptom check: at -O0 the sequential run beats every parallel "
          "one —")
    seq = ctx.lab.simulate(lr, SuiteCase("500MB", "-O0", 1)).seconds
    par = ctx.lab.simulate(lr, SuiteCase("500MB", "-O0", 6)).seconds
    print(f"  500MB -O0: T=1 {seq * 1e3:.2f} ms vs T=6 {par * 1e3:.2f} ms "
          f"({par / seq:.1f}x slower with 6 threads!)")

    print("\n=== shadow-memory oracle confirmation (paper Table 7) ===")
    for inp in inputs:
        for opt in opts:
            for t in (3, 6):
                case = SuiteCase(inp, opt, t)
                rate = ctx.shadow_report(lr, case).fs_rate
                ours = classified.labels[case]
                print(f"  {inp:6s} {opt} T={t}: fs-rate={rate:.6f} "
                      f"{'(FS present)' if rate > 1e-3 else '(no FS)':13s}"
                      f" ours={ours}")
    print("\nDiagnosis: the per-thread partial-sum structs are packed 40 "
          "bytes apart;\nat -O0/-O1 every point updates them in memory -> "
          "cache-line ping-pong.\n-O2 keeps the sums in registers, which "
          "fixes the signature (and the time),\nthough the oracle still "
          "sees residual contention above its threshold.")


if __name__ == "__main__":
    main()
