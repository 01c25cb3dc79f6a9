"""Command-line tools.

* ``repro-perf stat -e EV1,EV2 -- WORKLOAD [options]`` — perf(1)-style event
  counting for any registered workload or suite program;
* ``repro-train`` — collect training data, fit the J48 tree, print Table 3/4
  style summaries and the tree;
* ``repro-detect WORKLOAD [options]`` — classify a program run (the paper's
  end-user workflow);
* ``repro-analyze WORKLOAD [options]`` — simulation-free static sharing
  analysis and lint (also ``--crosscheck`` for the three-detector
  disagreement harness);
* ``repro-experiment ID...`` — regenerate paper tables/figures;
* ``repro-bench`` — replay the pinned simulator benchmark grid and write
  a BENCH-compatible result + run manifest (optionally ingested into a
  ``repro-results`` store, which gates it);
* ``repro-serve`` — online detection service: JSON-lines TCP server with
  batched compiled-tree inference, plus its client, load generator and
  latency benchmark (``BENCH_serve.json``);
* ``repro-results`` — durable run store: ingest bench/serve/manifest/
  crosscheck payloads into an append-only SQLite history and gate the
  latest run against its trajectory (rolling median ± MAD);
* ``repro <perf|train|detect|analyze|bench|serve|results|experiment> ...``
  — umbrella command dispatching to the above.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.core.lab import Lab
from repro.core.detector import FalseSharingDetector
from repro.errors import ReproError
from repro.parallel import resolve_target
from repro.pmu.events import TABLE2_EVENTS, event_by_name
from repro.utils.tables import render_table
from repro.workloads.base import RunConfig, Workload
from repro.workloads.registry import all_workloads


def _resolve_target(name: str):
    """A mini-program or a suite program by name, with its kind
    (``"mini"`` or ``"suite"``)."""
    target = resolve_target(name)
    return target, "mini" if isinstance(target, Workload) else "suite"


def _build_config(target, kind: str, args) -> object:
    if kind == "mini":
        return RunConfig(
            threads=args.threads,
            mode=args.mode,
            size=args.size or target.train_sizes[0],
            pattern=args.pattern,
        )
    from repro.suites.base import SuiteCase

    opt = args.opt if args.opt.startswith("-") else f"-{args.opt}"
    return SuiteCase(
        input_set=args.input or target.inputs[0],
        opt=opt,
        threads=args.threads,
    )


def _add_jobs_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes for case-grid simulation "
                        "(default: all cores; 1 = serial; results are "
                        "identical either way)")


def _apply_jobs(args) -> None:
    from repro.parallel import set_default_jobs

    set_default_jobs(max(1, args.jobs))


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """The workload-run options; callers declare the ``workload`` positional."""
    p.add_argument("-t", "--threads", type=int, default=6)
    p.add_argument("-m", "--mode", default="good",
                   help="mini-programs: good | bad-fs | bad-ma")
    p.add_argument("-n", "--size", type=int, default=0,
                   help="problem size (mini-programs; 0 = default)")
    p.add_argument("--pattern", default="random",
                   help="bad-ma access pattern (random, strideN)")
    p.add_argument("--input", default="",
                   help="input set (suite programs, e.g. simsmall)")
    p.add_argument("--opt", default="-O2",
                   help="optimization level for suite programs; "
                        "use --opt=-O2 or the dashless form O2")


def perf_main(argv: Optional[Sequence[str]] = None) -> int:
    """`perf stat`-style counting on the simulated machine."""
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Count hardware events for a workload run "
                    "(simulated Westmere DP).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    stat = sub.add_parser("stat", help="run a workload and print event counts")
    stat.add_argument("workload", help="mini-program or suite program name")
    _add_run_options(stat)
    stat.add_argument("-e", "--events", default="",
                      help="comma-separated event names (default: Table 2)")
    stat.add_argument("--raw", action="store_true",
                      help="print raw counts instead of normalized")
    lst = sub.add_parser("list", help="list workloads and events")
    args = parser.parse_args(argv)

    if args.cmd == "list":
        print("mini-programs:")
        for w in all_workloads():
            print(f"  {w.name:14s} [{w.kind}] modes="
                  f"{sorted(m.value for m in w.modes)} - {w.description}")
        from repro.suites import all_programs

        print("suite programs:")
        for p in all_programs():
            print(f"  {p.name:18s} [{p.suite}] inputs={p.inputs}")
        print("events: (Table 2)")
        for e in TABLE2_EVENTS:
            print(f"  {e.selector}  {e.name:40s} {e.description}")
        return 0

    try:
        target, kind = _resolve_target(args.workload)
        cfg = _build_config(target, kind, args)
        if args.events:
            events = [event_by_name(n.strip())
                      for n in args.events.split(",") if n.strip()]
        else:
            events = list(TABLE2_EVENTS)
        lab = Lab()
        vec = lab.measure(target, cfg, events)
        lab.flush()
        rows = []
        for e in events:
            if args.raw:
                rows.append([e.selector, e.name, f"{vec.count(e):.0f}"])
            else:
                rows.append([e.selector, e.name,
                             f"{vec.normalized(e):.3e}"])
        unit = "raw count" if args.raw else "count / instruction"
        print(render_table(["selector", "event", unit], rows,
                           title=f"{args.workload}: {cfg.run_id()}"))
        print(f"instructions: {vec.instructions:.0f}   "
              f"simulated time: {vec.meta.get('seconds', 0.0) * 1e3:.3f} ms   "
              f"counting overhead: {100 * vec.overhead:.2f}%")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def train_main(argv: Optional[Sequence[str]] = None) -> int:
    """Collect training data and fit the classifier; print the summary."""
    parser = argparse.ArgumentParser(
        prog="repro-train",
        description="Collect mini-program training data and train the "
                    "J48 detector.",
    )
    parser.add_argument("--no-screen", action="store_true",
                        help="skip the instance-screening step")
    parser.add_argument("--cv", type=int, default=10,
                        help="cross-validation folds (0 disables)")
    _add_jobs_option(parser)
    args = parser.parse_args(argv)
    try:
        from repro.core.training import collect_training_data

        _apply_jobs(args)
        lab = Lab()
        td = collect_training_data(lab, screen=not args.no_screen,
                                   jobs=max(1, args.jobs))
        lab.flush()
        s = td.summary()
        rows = [[part, c["good"], c["bad-fs"], c["bad-ma"], c["total"]]
                for part, c in s.items()]
        print(render_table(["part", "good", "bad-fs", "bad-ma", "total"],
                           rows, title="Training data"))
        det = FalseSharingDetector(lab)
        det.fit(training=td)
        print("\nLearned tree:")
        print(det.render_tree())
        print(f"\nevents used (Table 2 #): {det.tree_event_numbers()}")
        if args.cv:
            cm = det.cross_validate(k=args.cv)
            print(cm.render(f"\n{args.cv}-fold CV"))
            print(f"accuracy: {cm.correct}/{cm.total} = "
                  f"{100 * cm.accuracy:.2f}%")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def detect_main(argv: Optional[Sequence[str]] = None) -> int:
    """Train (cached) and classify one program run."""
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description="Detect false sharing in a workload run.",
    )
    parser.add_argument("workload", help="mini-program or suite program name")
    _add_run_options(parser)
    parser.add_argument("--slices", type=int, default=0,
                        help="classify N time slices instead of the whole "
                             "run (Section 6 future work)")
    parser.add_argument("--advise", action="store_true",
                        help="on a bad-fs verdict, name the contended lines "
                             "and estimate the padding fix")
    _add_jobs_option(parser)
    args = parser.parse_args(argv)
    try:
        from repro.experiments.context import default_context

        _apply_jobs(args)
        ctx = default_context()
        target, kind = _resolve_target(args.workload)
        cfg = _build_config(target, kind, args)
        if args.slices:
            from repro.core.slicing import SlicedDetector

            diag = SlicedDetector(ctx.detector,
                                  n_slices=args.slices).diagnose(target, cfg)
            print(diag.render())
            ctx.lab.flush()
            return 0 if diag.overall == "good" else 1
        if args.advise:
            from repro.core.advisor import FalseSharingAdvisor

            report = FalseSharingAdvisor(ctx.detector).diagnose(target, cfg)
            print(report.render())
            ctx.lab.flush()
            return 0 if report.label == "good" else 1
        vec = ctx.lab.measure(target, cfg, TABLE2_EVENTS)
        label = ctx.detector.classify_vector(vec)
        ctx.lab.flush()
        print(f"{args.workload} [{cfg.run_id()}] -> {label}")
        if label == "bad-fs":
            print("false sharing detected: threads are writing distinct "
                  "data on shared cache lines")
        elif label == "bad-ma":
            print("no false sharing, but the memory-access pattern is "
                  "cache-hostile")
        else:
            print("no memory-system problem detected")
        return 0 if label == "good" else 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def analyze_main(argv: Optional[Sequence[str]] = None) -> int:
    """Static sharing analysis: lint one run, or cross-check the grid."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "predict":
        return predict_main(argv[1:])
    if argv and argv[0] == "symbols":
        return symbols_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Simulation-free static sharing analysis: classify "
                    "every cache line, lint the layout (FS001..FS004), "
                    "or cross-check static vs shadow-oracle vs tree "
                    "verdicts over the mini-program grid.  Subcommands: "
                    "`predict` (trace-free plan analysis + FS005..FS008 "
                    "lint, baseline gating), `symbols` (the address-range "
                    "symbol table of a workload's layout).",
    )
    parser.add_argument("workload", nargs="?", default="",
                        help="mini-program or suite program name "
                             "(omit with --crosscheck)")
    _add_run_options(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    parser.add_argument("--top", type=int, default=12,
                        help="false-shared lines to show (table output)")
    parser.add_argument("--crosscheck", action="store_true",
                        help="run the mini-program grid through static "
                             "analyzer, shadow oracle and trained tree "
                             "and report disagreements")
    parser.add_argument("--grid-threads", default="2,6",
                        help="thread counts for the --crosscheck grid")
    _add_jobs_option(parser)
    args = parser.parse_args(argv)
    try:
        import json as _json

        from repro.analysis.lint import SharingLinter, render_findings
        from repro.analysis.sharing import analyze_trace

        _apply_jobs(args)
        if args.crosscheck:
            from repro.analysis.crosscheck import CrossChecker, default_grid
            from repro.experiments.context import default_context

            threads = tuple(int(x) for x in
                            args.grid_threads.split(",") if x.strip())
            try:
                grid = default_grid(threads=threads)
            except ValueError as exc:  # the oracle's thread cap
                parser.error(str(exc))
            report = CrossChecker(default_context()).run(grid)
            print(report.to_json(indent=2) if args.json
                  else report.render())
            return 0 if not report.disagreements() else 1
        if not args.workload:
            parser.error("a workload name is required unless --crosscheck")
        target, kind = _resolve_target(args.workload)
        cfg = _build_config(target, kind, args)
        program = target.trace(cfg)
        rep = analyze_trace(program)
        findings = SharingLinter().lint(program, rep)
        if args.json:
            print(_json.dumps(
                {"report": rep.to_dict(),
                 "findings": [f.to_dict() for f in findings]},
                indent=2,
            ))
        else:
            print(rep.render(top=args.top))
            print()
            print(render_findings(findings))
        return 0 if rep.verdict == "good" else 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _add_format_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output format (json has stable key order)")


def predict_main(argv: Optional[Sequence[str]] = None) -> int:
    """Trace-free predictive analysis (``repro-analyze predict``)."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze predict",
        description="Predict false sharing from a workload's symbolic "
                    "access plan — no trace is generated.  Runs the "
                    "layout-aware lint rules (FS005..FS008) and, with "
                    "--all, sweeps the full workload registry against a "
                    "committed finding baseline.",
    )
    parser.add_argument("workload", nargs="?", default="",
                        help="mini-program or suite program name "
                             "(omit with --all)")
    _add_run_options(parser)
    parser.add_argument("--all", action="store_true",
                        help="predict every registry workload at every "
                             "mode (the baseline sweep)")
    parser.add_argument("--grid-threads", type=int, default=4,
                        help="thread count for the --all sweep (1-8)")
    parser.add_argument("--baseline", default="",
                        help="baseline JSON to suppress known findings "
                             "(e.g. analysis-baseline.json)")
    parser.add_argument("--fail-on-new", action="store_true",
                        help="exit 1 when a finding is not in the "
                             "baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the --baseline file from the "
                             "current findings")
    parser.add_argument("--output", default="",
                        help="also write the full JSON report here")
    _add_format_option(parser)
    args = parser.parse_args(argv)
    try:
        import json as _json

        from repro.analysis.baseline import (
            diff_findings,
            load_baseline,
            save_baseline,
        )
        from repro.analysis.lint import SharingLinter, render_findings
        from repro.analysis.sharing import predict_plan

        linter = SharingLinter()
        if args.all:
            from repro.analysis.crosscheck import default_grid

            try:
                grid = default_grid(threads=(args.grid_threads,),
                                    pattern=args.pattern)
            except ValueError as exc:  # the oracle's thread cap
                parser.error(str(exc))
            plans = [w.plan(cfg) for w, cfg in grid]
        else:
            if not args.workload:
                parser.error("a workload name is required unless --all")
            target, kind = _resolve_target(args.workload)
            cfg = _build_config(target, kind, args)
            plans = [target.plan(cfg)]
        preds = [predict_plan(plan) for plan in plans]
        findings = [f for pred in preds
                    for f in linter.lint_prediction(pred)]
        payload = {
            "cases": [pred.to_dict() for pred in preds],
            "findings": [f.to_dict() for f in findings],
        }
        if args.update_baseline:
            if not args.baseline:
                parser.error("--update-baseline requires --baseline PATH")
            save_baseline(args.baseline, findings)
            print(f"baseline updated: {args.baseline} "
                  f"({len(findings)} finding(s))")
        diff = None
        if args.baseline and not args.update_baseline:
            diff = diff_findings(findings, load_baseline(args.baseline))
            payload["baseline_diff"] = diff.to_dict()
        if args.output:
            with open(args.output, "w") as fh:
                _json.dump(payload, fh, indent=2, sort_keys=True)
        if args.format == "json":
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            if args.all:
                rows = [[plan.scope(), pred.verdict,
                         f"{pred.fs_significance:.2e}",
                         sum(1 for f in findings
                             if f.scope == plan.scope())]
                        for plan, pred in zip(plans, preds)]
                print(render_table(
                    ["case", "verdict", "fs significance", "findings"],
                    rows, title="Predictive sweep"))
            else:
                print(preds[0].render())
            print()
            print(render_findings(findings))
            if diff is not None:
                print()
                print(diff.render())
        if diff is not None and args.fail_on_new and not diff.clean:
            return 1
        if not args.all and not args.baseline:
            return 0 if preds[0].verdict == "good" else 1
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def symbols_main(argv: Optional[Sequence[str]] = None) -> int:
    """Workload symbol-table queries (``repro-analyze symbols``)."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze symbols",
        description="Show the address-range symbol table a workload's "
                    "layout produces, or resolve one cache line to its "
                    "named objects.",
    )
    parser.add_argument("workload",
                        help="mini-program or suite program name")
    _add_run_options(parser)
    parser.add_argument("--line", default="",
                        help="resolve one cache-line index (decimal or "
                             "0x-hex) to its owning objects")
    _add_format_option(parser)
    args = parser.parse_args(argv)
    try:
        import json as _json

        target, kind = _resolve_target(args.workload)
        cfg = _build_config(target, kind, args)
        plan = target.plan(cfg)
        if args.line:
            line = int(args.line, 0)
            owners = plan.symbols.line_owners(line)
            if args.format == "json":
                print(_json.dumps(
                    {"line": line, "address": f"0x{line * 64:x}",
                     "objects": [s.to_dict() for s in owners]},
                    indent=2, sort_keys=True))
            elif owners:
                print(f"line {line} (0x{line * 64:x}):")
                for s in owners:
                    owner = "-" if s.tid is None else f"T{s.tid}"
                    print(f"  {s.name:20s} [{s.kind}] base=0x{s.base:x} "
                          f"size={s.size} owner={owner}")
            else:
                print(f"line {line} (0x{line * 64:x}): no named objects")
            return 0
        if args.format == "json":
            print(_json.dumps(plan.symbols.to_dict(), indent=2,
                              sort_keys=True))
        else:
            print(plan.symbols.render())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Pinned simulator benchmark replay (``repro-bench``)."""
    from repro.telemetry.bench import bench_main as _bench_main

    return _bench_main(argv)


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Online detection service CLI (``repro-serve``)."""
    from repro.serve.cli import serve_main as _serve_main

    return _serve_main(argv)


def results_main(argv: Optional[Sequence[str]] = None) -> int:
    """Durable run store CLI (``repro-results``)."""
    from repro.results.cli import results_main as _results_main

    return _results_main(argv)


_SUBCOMMANDS = {
    "perf": perf_main,
    "train": train_main,
    "detect": detect_main,
    "analyze": analyze_main,
    "bench": bench_main,
    "serve": serve_main,
    "results": results_main,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Umbrella entry point: ``repro <subcommand> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    known = sorted(list(_SUBCOMMANDS) + ["experiment"])
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: repro <%s> ..." % "|".join(known))
        print("run `repro <subcommand> --help` for subcommand options")
        return 0 if argv else 2
    cmd, rest = argv[0], argv[1:]
    if cmd == "experiment":
        return experiment_main(rest)
    fn = _SUBCOMMANDS.get(cmd)
    if fn is None:
        print(f"error: unknown subcommand {cmd!r}; "
              f"expected one of {known}", file=sys.stderr)
        return 2
    return fn(rest)


def experiment_main(argv: Optional[Sequence[str]] = None) -> int:
    """Regenerate paper tables/figures by experiment id."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Re-run the paper's experiments "
                    "(tables 1-11, figure 2, ablations).",
    )
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: list them)")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--results-store", default="",
                        help="ingest ingestable experiment summaries "
                             "(crosscheck, predict-validation) into this "
                             "repro-results store")
    _add_jobs_option(parser)
    args = parser.parse_args(argv)
    from repro.experiments import experiment_ids, run_experiment

    _apply_jobs(args)
    ids: List[str] = args.ids
    if args.all:
        ids = experiment_ids()
    if not ids:
        print("available experiments:")
        for eid in experiment_ids():
            print(f"  {eid}")
        return 0
    try:
        for eid in ids:
            result = run_experiment(eid)
            print(result)
            print()
            if args.results_store and result.data:
                from repro.errors import ResultsError
                from repro.results.schema import classify_payload
                from repro.results.store import ResultsStore

                try:
                    classify_payload(result.data)
                except ResultsError:
                    continue  # not every experiment emits a trendable doc
                with ResultsStore(args.results_store) as store:
                    outcome = store.ingest(result.data, source=eid)
                print(f"results: run #{outcome.run_id} [{outcome.kind}] "
                      f"-> {args.results_store}"
                      + ("" if outcome.fresh else " (deduped)"))
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
