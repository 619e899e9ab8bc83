"""Fast kernels must be bit-identical to the retained naive references.

Property tests over random silhouettes plus the synth studio fixtures:
the banded LUT thinners against the full-frame sub-iteration loops, the
run-based connected-component labeller against the per-pixel scan —
both connectivities, empty/full-frame edge cases, capped iterations —
and the §2 extractor's count-majority median and integer window sums
against the sorting median and the float ``box_filter`` stack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.imaging.background import BackgroundSubtractor
from repro.imaging.components import connected_components, largest_component
from repro.imaging.filters import box_filter, median_filter, window_sums
from repro.thinning import (
    guo_hall_thin,
    neighbor_count,
    neighbor_stack,
    packed_neighbors,
    transition_count,
    zhang_suen_thin,
)

THINNERS = [zhang_suen_thin, guo_hall_thin]

random_masks = arrays(
    dtype=bool, shape=st.tuples(st.integers(1, 24), st.integers(1, 24))
)

EDGE_MASKS = [
    np.zeros((5, 5), dtype=bool),
    np.ones((5, 5), dtype=bool),
    np.ones((1, 1), dtype=bool),
    np.zeros((1, 9), dtype=bool),
    np.ones((9, 1), dtype=bool),
    np.eye(7, dtype=bool),
]


# ----------------------------------------------------------------------
# Thinning
# ----------------------------------------------------------------------
@pytest.mark.parametrize("thin", THINNERS)
@given(random_masks)
@settings(max_examples=40, deadline=None)
def test_lut_thinning_matches_naive_on_random_masks(thin, mask):
    assert np.array_equal(thin(mask, method="naive"), thin(mask, method="lut"))


@pytest.mark.parametrize("thin", THINNERS)
@given(random_masks, st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_lut_thinning_matches_naive_with_capped_iterations(thin, mask, cap):
    assert np.array_equal(
        thin(mask, cap, method="naive"), thin(mask, cap, method="lut")
    )


@pytest.mark.parametrize("thin", THINNERS)
@pytest.mark.parametrize("mask", EDGE_MASKS, ids=lambda m: f"{m.shape}-{m.sum()}on")
def test_lut_thinning_matches_naive_on_edge_masks(thin, mask):
    assert np.array_equal(thin(mask, method="naive"), thin(mask, method="lut"))


@pytest.mark.parametrize("thin", THINNERS)
def test_lut_thinning_matches_naive_on_studio_silhouette(thin, sample_clip):
    for index in (0, 12, 25):
        silhouette = sample_clip.silhouettes[index]
        assert np.array_equal(
            thin(silhouette, method="naive"), thin(silhouette, method="lut")
        )


def test_thinning_rejects_unknown_method():
    mask = np.zeros((4, 4), dtype=bool)
    for thin in THINNERS:
        with pytest.raises(ConfigurationError):
            thin(mask, method="bogus")


# ----------------------------------------------------------------------
# Connected components
# ----------------------------------------------------------------------
@pytest.mark.parametrize("connectivity", [4, 8])
@given(random_masks)
@settings(max_examples=40, deadline=None)
def test_fast_ccl_matches_naive_on_random_masks(connectivity, mask):
    labels_fast, count_fast = connected_components(mask, connectivity, method="fast")
    labels_naive, count_naive = connected_components(
        mask, connectivity, method="naive"
    )
    assert count_fast == count_naive
    assert np.array_equal(labels_fast, labels_naive)
    assert labels_fast.dtype == labels_naive.dtype


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("mask", EDGE_MASKS, ids=lambda m: f"{m.shape}-{m.sum()}on")
def test_fast_ccl_matches_naive_on_edge_masks(connectivity, mask):
    labels_fast, count_fast = connected_components(mask, connectivity, method="fast")
    labels_naive, count_naive = connected_components(
        mask, connectivity, method="naive"
    )
    assert count_fast == count_naive
    assert np.array_equal(labels_fast, labels_naive)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_fast_ccl_matches_naive_on_studio_silhouette(connectivity, sample_clip):
    silhouette = sample_clip.silhouettes[12]
    labels_fast, count_fast = connected_components(
        silhouette, connectivity, method="fast"
    )
    labels_naive, count_naive = connected_components(
        silhouette, connectivity, method="naive"
    )
    assert count_fast == count_naive
    assert np.array_equal(labels_fast, labels_naive)
    # the skeleton raster too — thin, diagonal-heavy structure
    skeleton = zhang_suen_thin(silhouette)
    labels_fast, count_fast = connected_components(
        skeleton, connectivity, method="fast"
    )
    labels_naive, count_naive = connected_components(
        skeleton, connectivity, method="naive"
    )
    assert count_fast == count_naive
    assert np.array_equal(labels_fast, labels_naive)


def test_ccl_rejects_unknown_method():
    with pytest.raises(ConfigurationError):
        connected_components(np.zeros((2, 2), dtype=bool), method="bogus")


# ----------------------------------------------------------------------
# Packed neighbour codes
# ----------------------------------------------------------------------
@given(random_masks)
@settings(max_examples=30, deadline=None)
def test_packed_neighbors_agrees_with_neighbor_stack(mask):
    stack = neighbor_stack(mask)
    codes = packed_neighbors(mask)
    assert codes.dtype == np.uint8
    rebuilt = np.zeros_like(codes)
    for bit in range(8):
        rebuilt |= stack[bit].astype(np.uint8) << bit
    assert np.array_equal(codes, rebuilt)
    # LUT-backed counts agree with the stack formulas
    assert np.array_equal(neighbor_count(mask), stack.sum(axis=0))
    assert np.array_equal(
        transition_count(mask),
        np.logical_and(~stack, np.roll(stack, -1, axis=0)).sum(axis=0),
    )


# ----------------------------------------------------------------------
# §2 extractor: median smoothing and the moving-average difference
# ----------------------------------------------------------------------
MEDIAN_WINDOWS = [1, 3, 5, 7]


@pytest.mark.parametrize("window", [1, 3, 5])
@given(arrays(np.uint8, st.tuples(st.integers(1, 16), st.integers(1, 16))))
@settings(max_examples=30, deadline=None)
def test_integer_window_mean_matches_float_box_filter(window, image):
    mean = window_sums(image, window) / (window * window)
    assert np.array_equal(mean, box_filter(image, window))


@pytest.mark.parametrize("window", MEDIAN_WINDOWS)
@given(random_masks)
@settings(max_examples=40, deadline=None)
def test_count_median_matches_naive_on_random_masks(window, mask):
    fast = median_filter(mask, window)
    assert fast.dtype == bool
    assert np.array_equal(fast, median_filter(mask, window, method="naive"))


@pytest.mark.parametrize("window", MEDIAN_WINDOWS)
@pytest.mark.parametrize(
    "mask",
    EDGE_MASKS + [np.ones((1, 9), dtype=bool), np.zeros((9, 1), dtype=bool)],
    ids=lambda m: f"{m.shape}-{m.sum()}on",
)
def test_count_median_matches_naive_on_edge_masks(window, mask):
    assert np.array_equal(
        median_filter(mask, window), median_filter(mask, window, method="naive")
    )


def test_median_rejects_unknown_method():
    with pytest.raises(ConfigurationError):
        median_filter(np.zeros((4, 4), dtype=bool), method="bogus")


rgb_pairs = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda hw: st.tuples(
        arrays(np.uint8, hw + (3,)), arrays(np.uint8, hw + (3,))
    )
)


def _differences(frame, background, window):
    subtractor = BackgroundSubtractor(window=window).fit_background(background)
    return (
        subtractor.difference_image(frame),
        subtractor.difference_image(frame, method="naive"),
    )


@pytest.mark.parametrize("window", [1, 3, 5])
@given(rgb_pairs)
@settings(max_examples=40, deadline=None)
def test_integer_difference_matches_naive_on_random_frames(window, pair):
    fast, naive = _differences(*pair, window)
    assert fast.dtype == naive.dtype == np.float64
    assert np.array_equal(fast, naive)


@pytest.mark.parametrize("window", [1, 3, 5])
def test_integer_difference_matches_naive_on_edge_frames(window):
    rng = np.random.default_rng(window)
    background = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
    one_pixel = background.copy()
    one_pixel[4, 5, 1] ^= 0x5A
    cases = {
        "equal": background.copy(),  # peak 0: the all-zero image
        "saturated": np.full_like(background, 255),
        "black": np.zeros_like(background),
        "one-pixel": one_pixel,
    }
    for name, frame in cases.items():
        fast, naive = _differences(frame, background, window)
        assert np.array_equal(fast, naive), name
    assert not _differences(background, background, window)[0].any()


def test_difference_rejects_unknown_method(sample_clip):
    subtractor = BackgroundSubtractor().fit_background(sample_clip.background)
    with pytest.raises(ConfigurationError):
        subtractor.difference_image(sample_clip.frames[0], method="bogus")


def _naive_extract(subtractor, frame):
    """``BackgroundSubtractor.extract`` with every §2 kernel on its reference."""
    difference = subtractor.difference_image(frame, method="naive")
    raw_mask = difference > subtractor.threshold
    mask = median_filter(raw_mask, subtractor.median_window, method="naive")
    if subtractor.keep_largest_component and mask.any():
        mask = largest_component(mask)
    return mask, raw_mask, difference


def _broken_frames(clip):
    """The blank, saturated and no-jumper frames of the failure-injection suite."""
    occluded = clip.frames[5].copy()
    occluded[150:] = clip.background[150:]
    return {
        "no-jumper": clip.background.copy(),
        "saturated": np.full_like(clip.frames[0], 255),
        "blank": np.zeros_like(clip.frames[0]),
        "occluded": occluded,
    }


def test_fast_extract_matches_naive_on_studio_and_broken_frames(sample_clip):
    subtractor = BackgroundSubtractor().fit_background(sample_clip.background)
    frames = {f"frame-{i}": sample_clip.frames[i] for i in range(0, 40, 3)}
    frames.update(_broken_frames(sample_clip))
    for name, frame in frames.items():
        result = subtractor.extract(frame)
        mask, raw_mask, difference = _naive_extract(subtractor, frame)
        assert np.array_equal(result.mask, mask), name
        assert np.array_equal(result.raw_mask, raw_mask), name
        assert np.array_equal(result.difference, difference), name
