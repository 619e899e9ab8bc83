"""Vision front-end perf: naive vs vectorised kernels, tracked in JSON.

The full-scale measurement (``--perf``) times connected-component
labelling, both thinners and the 3x3 silhouette median on a 240x320
synthetic-studio silhouette, and the §2 difference image on the matching
frame/background crop.  It asserts the vectorised paths are bit-identical
to the naive references *and* meet the speedup floors (>=10x CCL, >=3x
Zhang-Suen thinning, >=20x median, >=2.5x difference), and writes
``BENCH_frontend.json`` at the repo root so the perf trajectory is
diffable PR over PR.

A smoke variant runs in tier-1 on tiny inputs: it exercises the same
measurement + artifact code paths so harness regressions are caught
without the cost of the real benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.imaging.background import BackgroundSubtractor
from repro.imaging.components import connected_components
from repro.imaging.filters import median_filter
from repro.perf import ProfileReport, Timer, best_of, write_bench_json
from repro.synth.dataset import make_clip
from repro.thinning import guo_hall_thin, zhang_suen_thin

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_frontend.json"
TARGET_WIDTH = 320


def _studio_inputs_240x320() -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """A mid-jump studio silhouette with its RGB frame and background, all
    column-cropped from 240x400 to 240x320 around the jumper."""
    clip = make_clip("perf-frontend", seed=7, variant=0, target_frames=40)
    silhouette = clip.silhouettes[12]
    columns = np.flatnonzero(silhouette.any(axis=0))
    center = int((columns[0] + columns[-1]) // 2)
    left = min(max(center - TARGET_WIDTH // 2, 0), silhouette.shape[1] - TARGET_WIDTH)
    crop = slice(left, left + TARGET_WIDTH)
    cropped = silhouette[:, crop]
    assert cropped.shape == (240, TARGET_WIDTH)
    assert cropped.sum() == silhouette.sum(), "crop clipped the jumper"
    return cropped, clip.frames[12][:, crop], clip.background[:, crop]


def _entry(fast, naive, repeats: int) -> "dict[str, float]":
    fast_s, naive_s = best_of(fast, repeats), best_of(naive, repeats)
    return {"naive_s": naive_s, "fast_s": fast_s, "speedup": naive_s / fast_s}


def _measure(
    mask: np.ndarray, frame: np.ndarray, background: np.ndarray, repeats: int
) -> "dict[str, dict[str, float]]":
    """Time naive vs fast kernels and check bit-identity along the way."""
    results: dict[str, dict[str, float]] = {}

    for connectivity in (4, 8):
        fast = lambda: connected_components(mask, connectivity, method="fast")
        naive = lambda: connected_components(mask, connectivity, method="naive")
        labels_fast, count_fast = fast()
        labels_naive, count_naive = naive()
        assert count_fast == count_naive
        assert (labels_fast == labels_naive).all()
        results[f"ccl_{connectivity}conn"] = _entry(fast, naive, repeats)

    for name, thin in (("zhangsuen", zhang_suen_thin), ("guohall", guo_hall_thin)):
        lut = lambda: thin(mask)
        naive = lambda: thin(mask, method="naive")
        assert (lut() == naive()).all()
        results[f"thin_{name}"] = _entry(lut, naive, repeats)

    fast = lambda: median_filter(mask, 3)
    naive = lambda: median_filter(mask, 3, method="naive")
    assert (fast() == naive()).all()
    results["median_3x3"] = _entry(fast, naive, repeats)

    subtractor = BackgroundSubtractor().fit_background(background)
    fast = lambda: subtractor.difference_image(frame)
    naive = lambda: subtractor.difference_image(frame, method="naive")
    assert (fast() == naive()).all()
    results["difference"] = _entry(fast, naive, repeats)
    return results


@pytest.mark.perf
def test_perf_frontend_full():
    mask, frame, background = _studio_inputs_240x320()
    results = _measure(mask, frame, background, repeats=5)

    assert results["ccl_8conn"]["speedup"] >= 10.0
    assert results["ccl_4conn"]["speedup"] >= 10.0
    assert results["thin_zhangsuen"]["speedup"] >= 3.0
    assert results["median_3x3"]["speedup"] >= 20.0
    assert results["difference"]["speedup"] >= 2.5

    path = write_bench_json(
        BENCH_PATH,
        results,
        context={
            "input": "synth studio silhouette, RGB frame and background, "
            "clip perf-frontend frame 12",
            "shape": list(mask.shape),
            "foreground_pixels": int(mask.sum()),
            "repeats": 5,
        },
    )
    payload = json.loads(path.read_text())
    assert payload["schema"] == "repro.perf/bench.v1"


def test_perf_frontend_smoke(tmp_path):
    """Tiny-input pass through the exact measurement + artifact code."""
    yy, xx = np.mgrid[:60, :80]
    mask = ((yy - 30) ** 2 / 400 + (xx - 40) ** 2 / 900) < 1
    rng = np.random.default_rng(0)
    background = rng.integers(0, 40, (60, 80, 3), dtype=np.uint8)
    frame = background.copy()
    frame[mask] = 200
    results = _measure(mask, frame, background, repeats=1)
    assert set(results) == {
        "ccl_4conn",
        "ccl_8conn",
        "thin_zhangsuen",
        "thin_guohall",
        "median_3x3",
        "difference",
    }
    for entry in results.values():
        assert entry["naive_s"] > 0 and entry["fast_s"] > 0

    path = write_bench_json(tmp_path / "BENCH_smoke.json", results, {"smoke": True})
    payload = json.loads(path.read_text())
    assert payload["context"] == {"smoke": True}
    assert set(payload["benchmarks"]) == set(results)


def test_timer_and_profile_report():
    report = ProfileReport()
    with report.stage("a"):
        sum(range(1000))
    with report.stage("a"):
        sum(range(1000))
    with report.stage("b"):
        pass
    assert report.stages["a"].calls == 2
    assert report.total >= report.stages["a"].total
    assert "TOTAL" in report.render()
    as_dict = report.as_dict()
    assert as_dict["a"]["calls"] == 2

    with Timer() as timer:
        sum(range(1000))
    assert timer.elapsed > 0
