"""Trajectory-aware regression gating over the durable run store.

``repro-results gate`` judges the **latest** ingested run of each payload
kind against its own history, per metric, with three escalating modes:

* ``trajectory`` — with at least :data:`~repro.results.trend.MIN_TRAJECTORY`
  prior points, the latest value must stay inside the rolling
  median ± K·MAD band (:func:`~repro.results.trend.mad_band`).  A single
  noisy CI runner neither trips the gate (the band is wide when history
  is noisy) nor masks a real regression later (one outlier barely moves
  a median, where it would wholly define a pairwise baseline);
* ``pairwise`` — with a short history (one or two prior points) the gate
  falls back to the classic one-vs-one rule: worse than the previous run
  by more than ``max_regression`` fails.  No median or MAD is computed,
  so small histories can never divide by zero.  Ingesting a committed
  baseline and a fresh payload into an empty store and gating it is the
  baseline comparison CI runs;
* ``bound`` — hard backstops are enforced **unconditionally** in every
  mode, even for a history of one: contended-trace ``speedup_floor``\\ s,
  the routing-coverage floor, the serve zero-shed/zero-error ceilings,
  the crosscheck zero-disagreement ceiling.  The strictest bound ever
  recorded for a metric is the one that gates
  (:meth:`~repro.results.store.ResultsStore.max_bound`), so a payload
  that drops or relaxes its own floor weakens nothing.

A metric that appeared anywhere in the history window but is absent from
the latest run fails the gate as ``missing`` — a silently shrunken grid
must not pass.  The exception is a metric only some run modes record
(:data:`~repro.results.schema.OPTIONAL_METRICS`, e.g. the e2e wall time
of a ``--full`` bench): it is gated when the latest run carries it and
never missing when it does not.  Improvements always pass: only the
regression side of the band is gated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ResultsError
from repro.results.schema import OPTIONAL_METRICS
from repro.results.store import ResultsStore
from repro.results.trend import (
    DEFAULT_MAD_K,
    DEFAULT_WINDOW,
    MIN_TRAJECTORY,
    mad_band,
)

__all__ = ["GateRow", "GateReport", "gate_store", "render_gate_markdown",
           "DEFAULT_MAX_REGRESSION"]

#: Tolerated fractional loss in pairwise fallback mode.
DEFAULT_MAX_REGRESSION = 0.30


@dataclass(frozen=True)
class GateRow:
    """One verdict: a metric of the latest run vs its history."""

    kind: str
    name: str
    mode: str  # 'trajectory' | 'pairwise' | 'bound' | 'new'
    current: float
    #: Band median (trajectory), previous value (pairwise), or the hard
    #: bound itself (bound rows).
    reference: float
    lo: Optional[float]
    hi: Optional[float]
    regressed: bool

    @property
    def verdict(self) -> str:
        return "REGRESSED" if self.regressed else "ok"


@dataclass
class GateReport:
    """All verdicts for one ``gate`` invocation."""

    window: int
    min_history: int
    max_regression: float
    rows: List[GateRow] = field(default_factory=list)
    #: Metrics with history but no value in the latest run, per kind.
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[GateRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def render(self) -> str:
        from repro.utils.tables import render_table

        def fmt(v: Optional[float]) -> str:
            if v is None:
                return "-"
            return f"{v:,.0f}" if abs(v) >= 100 else f"{v:.4g}"

        cells = [
            [r.kind, r.name, r.mode, fmt(r.current), fmt(r.reference),
             (f"[{fmt(r.lo)}, {fmt(r.hi)}]"
              if r.lo is not None or r.hi is not None else "-"),
             r.verdict]
            for r in self.rows
        ]
        out = render_table(
            ["kind", "metric", "mode", "current", "reference", "band",
             "verdict"],
            cells,
            title=(f"results gate (window {self.window}, trajectory from "
                   f"{self.min_history} runs, pairwise tolerance "
                   f"{self.max_regression:.0%})"),
        )
        if self.missing:
            out += "\nmissing from latest run: " + ", ".join(self.missing)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window,
            "min_history": self.min_history,
            "max_regression": self.max_regression,
            "ok": self.ok,
            "rows": [vars(r) for r in self.rows],
            "missing": list(self.missing),
        }


def _pairwise_regressed(current: float, previous: float, direction: str,
                        floor_ratio: float) -> bool:
    """The classic one-vs-one rule, zero-safe in both directions."""
    if direction == "higher":
        if current >= previous:
            return False
        # previous > current >= anything, so previous > 0 here unless the
        # series went negative — which no recorded metric does.
        return previous > 0 and current / previous < floor_ratio
    # lower is better
    if current <= previous:
        return False
    if previous <= 0:
        return True  # e.g. shed went from 0 to anything positive
    return previous / current < floor_ratio


def gate_store(
    store: ResultsStore,
    kind: Optional[str] = None,
    window: int = DEFAULT_WINDOW,
    min_history: int = MIN_TRAJECTORY,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    k: float = DEFAULT_MAD_K,
) -> GateReport:
    """Gate the latest run of each (selected) kind against its history."""
    if not 0 <= max_regression < 1:
        raise ResultsError("max_regression must be in [0, 1)")
    if window < 1:
        raise ResultsError("window must be >= 1")
    if min_history < 1:
        raise ResultsError("min_history must be >= 1")
    report = GateReport(window=window, min_history=min_history,
                        max_regression=max_regression)
    floor_ratio = 1.0 - max_regression
    kinds = [kind] if kind is not None else store.kinds()
    if kind is not None and kind not in store.kinds():
        raise ResultsError(f"no {kind!r} runs in the store "
                           f"(kinds present: {store.kinds() or 'none'})")
    for k_ in kinds:
        latest = store.latest_run(k_)
        if latest is None:
            continue
        latest_metrics = {m.name: m for m in store.metrics_for(latest.run_id)}
        optional = OPTIONAL_METRICS.get(k_, frozenset())
        # A metric any windowed predecessor carried must still be there.
        for prev in store.runs(kind=k_)[-(window + 1):]:
            if prev.run_id == latest.run_id:
                continue
            for m in store.metrics_for(prev.run_id):
                if (m.direction != "info" and m.name not in latest_metrics
                        and m.name not in optional):
                    tag = f"{k_}:{m.name}"
                    if tag not in report.missing:
                        report.missing.append(tag)
        for metric in latest_metrics.values():
            if metric.direction == "info":
                continue
            bound = store.max_bound(metric.name, metric.direction, kind=k_)
            if bound is not None:
                breached = (metric.value < bound
                            if metric.direction == "higher"
                            else metric.value > bound)
                report.rows.append(GateRow(
                    kind=k_, name=metric.name, mode="bound",
                    current=metric.value, reference=bound,
                    lo=bound if metric.direction == "higher" else None,
                    hi=bound if metric.direction == "lower" else None,
                    regressed=breached))
            history = store.series(metric.name, kind=k_,
                                   before_run=latest.run_id, limit=window)
            if len(history) >= min_history:
                band = mad_band(history, max_regression=max_regression, k=k)
                regressed = (metric.value < band.lo
                             if metric.direction == "higher"
                             else metric.value > band.hi)
                report.rows.append(GateRow(
                    kind=k_, name=metric.name, mode="trajectory",
                    current=metric.value, reference=band.median,
                    lo=band.lo, hi=band.hi, regressed=regressed))
            elif history:
                previous = history[-1]
                report.rows.append(GateRow(
                    kind=k_, name=metric.name, mode="pairwise",
                    current=metric.value, reference=previous,
                    lo=None, hi=None,
                    regressed=_pairwise_regressed(
                        metric.value, previous, metric.direction,
                        floor_ratio)))
            else:
                report.rows.append(GateRow(
                    kind=k_, name=metric.name, mode="new",
                    current=metric.value, reference=metric.value,
                    lo=None, hi=None, regressed=False))
    return report


def render_gate_markdown(report: GateReport) -> str:
    """GitHub-flavored markdown verdict table for job summaries."""
    headers = ["kind", "metric", "mode", "current", "reference", "verdict"]
    lines = [f"**results gate: {'PASS' if report.ok else 'FAIL'}** "
             f"({len(report.regressions)} regression(s), "
             f"{len(report.missing)} missing)",
             "",
             "| " + " | ".join(headers) + " |",
             "|" + "---|" * len(headers)]
    for r in report.rows:
        lines.append(f"| {r.kind} | {r.name} | {r.mode} | {r.current:g} "
                     f"| {r.reference:g} | {r.verdict} |")
    for tag in report.missing:
        lines.append(f"| {tag.split(':', 1)[0]} | {tag.split(':', 1)[1]} "
                     f"| missing | - | - | REGRESSED |")
    return "\n".join(lines)
