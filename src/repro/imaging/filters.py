"""Sliding-window filters: the §2 moving average and the median smoother.

Both are implemented directly on numpy.  ``box_filter`` is the paper's
``(1/n^2) * sum`` moving-window average (steps i–ii of §2) on a float
image; ``window_sums`` is its exact integer counterpart for uint8 frames
and boolean masks.  ``median_filter`` is the smoother applied to the raw
silhouette before skeletonisation (Figure 1(b) → 1(c)); on masks it is a
neighbour-count majority over ``window_sums``, with the sorting median
kept as the ``method="naive"`` reference.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError
from repro.imaging.image import ensure_gray


def _check_window(window: int) -> None:
    if not isinstance(window, (int, np.integer)):
        raise ConfigurationError(f"window must be an int, got {type(window).__name__}")
    if window < 1 or window % 2 != 1:
        raise ConfigurationError(f"window must be a positive odd int, got {window}")


def box_filter(image: np.ndarray, window: int) -> np.ndarray:
    """Moving-window mean over an ``window x window`` neighbourhood.

    Matches the paper's average matrices ``B_ave`` / ``A_ave``: each output
    pixel is the mean of the window centred on it.  Borders are handled by
    edge replication, which mimics the paper's implicit behaviour of only
    averaging available pixels near the frame edge.
    """
    _check_window(window)
    data = ensure_gray(image)
    if window == 1:
        return data.copy()
    half = window // 2
    padded = np.pad(data, half, mode="edge")
    # Summed-area table: O(1) per output pixel regardless of window size.
    integral = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1))
    np.cumsum(np.cumsum(padded, axis=0), axis=1, out=integral[1:, 1:])
    h, w = data.shape
    top = integral[:h, :w]
    bottom = integral[window:, window:]
    right = integral[:h, window:]
    down = integral[window:, :w]
    window_sum = bottom - right - down + top
    return window_sum / (window * window)


def window_sums(image: np.ndarray, window: int, dtype=np.int32) -> np.ndarray:
    """Edge-replicated ``window x window`` sums over the first two axes.

    Trailing axes (RGB channels) are summed independently.  Integer input
    summed in an integer ``dtype`` is exact, and so is :func:`box_filter`'s
    float64 summed-area table, which only ever holds integers below 2**53;
    hence ``window_sums(x, n) / (n * n)`` equals ``box_filter(x, n)`` bit for
    bit.  Separable: ``window - 1`` shifted adds down the rows, then the same
    across the columns.
    """
    _check_window(window)
    half = window // 2
    h, w = image.shape[:2]
    padding = [(half, half), (half, half)] + [(0, 0)] * (image.ndim - 2)
    padded = np.pad(image, padding, mode="edge")
    rows = padded[:h].astype(dtype)
    for k in range(1, window):
        rows += padded[k : k + h]
    sums = rows[:, :w].copy()
    for k in range(1, window):
        sums += rows[:, k : k + w]
    return sums


def median_filter(
    image: np.ndarray, window: int = 3, method: str = "fast"
) -> np.ndarray:
    """Median over an ``window x window`` neighbourhood (edge-replicated).

    Works on grayscale images and on boolean masks; boolean input produces
    boolean output (majority vote), which is how the paper's silhouette
    smoothing uses it.  ``method="fast"`` (default) votes on masks by
    counting each window's true pixels: with an odd window the median is
    true exactly when more than ``window**2 / 2`` of them are.
    ``method="naive"`` sorts every window with ``np.median``, the reference
    both methods agree with bit for bit; grayscale input always takes it.
    """
    _check_window(window)
    if method not in ("fast", "naive"):
        raise ConfigurationError(f"method must be 'fast' or 'naive', got {method!r}")
    if image.ndim != 2:
        raise ConfigurationError(f"expected a 2-D array, got shape {image.shape}")
    is_binary = image.dtype == bool
    if is_binary and method == "fast":
        area = window * window
        counts = window_sums(
            image.view(np.uint8), window, np.uint8 if area <= 255 else np.int32
        )
        return counts > area // 2
    data = image.astype(np.float64, copy=False)
    if window == 1:
        result = data.copy()
    else:
        half = window // 2
        padded = np.pad(data, half, mode="edge")
        windows = sliding_window_view(padded, (window, window))
        result = np.median(windows, axis=(2, 3))
    if is_binary:
        return result > 0.5
    return result


def subtract_images(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise ``a - b`` in float64 (step iii of §2)."""
    return ensure_gray(a) - ensure_gray(b)
