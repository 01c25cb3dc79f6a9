"""``repro.results.trend``: MAD bands and trajectory tables."""

from __future__ import annotations

import pytest

from repro.errors import ResultsError
from repro.results.store import ResultsStore
from repro.results.trend import (
    MAD_SCALE,
    MIN_TRAJECTORY,
    mad_band,
    render_trend_markdown,
    render_trend_table,
    trend_rows,
)

from tests.test_results_store import bench_payload


def test_mad_band_on_noisy_series():
    values = [100.0, 120.0, 80.0, 110.0, 90.0]
    band = mad_band(values, max_regression=0.30, k=3.0)
    assert band.median == 100.0
    assert band.mad == 10.0
    half = 3.0 * MAD_SCALE * 10.0  # wider than 30% of 100
    assert band.lo == pytest.approx(100.0 - half)
    assert band.hi == pytest.approx(100.0 + half)
    assert band.contains(100.0) and not band.contains(0.0)


def test_mad_band_zero_mad_falls_back_to_pairwise_width():
    # A perfectly quiet history must not produce a zero-width band.
    band = mad_band([100.0, 100.0, 100.0], max_regression=0.30)
    assert band.mad == 0.0
    assert band.lo == pytest.approx(70.0)
    assert band.hi == pytest.approx(130.0)


def test_mad_band_single_point_is_defined():
    band = mad_band([50.0], max_regression=0.10)
    assert band.median == 50.0
    assert band.lo == pytest.approx(45.0)


def test_mad_band_empty_series_raises():
    with pytest.raises(ResultsError):
        mad_band([])


def test_trend_rows_band_only_with_enough_history(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        for i in range(MIN_TRAJECTORY):
            store.ingest(bench_payload(fast=1_000_000 + i))
        rows = {r.name: r for r in trend_rows(store)}
        fast = rows["drive.psums/bad-fs/t4.fast_accesses_per_s"]
        assert fast.band is None and fast.status == "short"
        store.ingest(bench_payload(fast=1_000_000 + MIN_TRAJECTORY))
        rows = {r.name: r for r in trend_rows(store)}
        fast = rows["drive.psums/bad-fs/t4.fast_accesses_per_s"]
        assert fast.band is not None
        assert fast.n == MIN_TRAJECTORY + 1
        assert fast.status == "ok"


def test_trend_flags_drift_outside_band(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        for i in range(5):
            store.ingest(bench_payload(fast=1_000_000 + i))
        store.ingest(bench_payload(fast=100_000))  # -90%: way outside
        rows = {r.name: r for r in trend_rows(store)}
        assert rows["drive.psums/bad-fs/t4.fast_accesses_per_s"].status \
            == "drift"
        # lower-is-better drift is the other side of the band: a latency
        # metric dropping is an improvement, never drift.


def test_trend_render_table_and_markdown(tmp_path):
    with ResultsStore(tmp_path / "h.db") as store:
        store.ingest(bench_payload())
        rows = trend_rows(store)
    text = render_trend_table(rows)
    assert "drive.psums/bad-fs/t4.speedup" in text and "status" in text
    md = render_trend_markdown(rows)
    assert md.startswith("| kind |")
    assert "| bench |" in md
    assert render_trend_table([]) == "no runs in store"
    assert "no runs" in render_trend_markdown([])
