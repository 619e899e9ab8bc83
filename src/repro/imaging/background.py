"""The paper's §2 object extractor (modified from a tracking algorithm [5]).

Given a background frame ``B`` and a frame with the moving object ``A``
(both RGB), the algorithm is, step by step:

i.    ``B_ave``: per-channel ``n x n`` moving-window average of ``B``.
ii.   ``A_ave``: the same moving-window average of ``A``.
iii.  ``C = A_ave - B_ave`` per channel.
iv.   ``D(i,j) = |C(i,j,R)| + |C(i,j,G)| + |C(i,j,B)|``.
v.    ``m = max(D)``.
vi.   Subtract ``m - 255`` from every pixel so the maximum becomes 255.
vii.  Clamp negatives to zero, giving ``R``.
viii. ``Obj(i,j) = 1`` if ``R(i,j) > Th_Object`` else 0 (``Th_Object = 20``).

The paper then smooths ``Obj`` with a median filter (Figure 1(c)).  This
module adds two engineering niceties the paper applies implicitly: the
result can be restricted to the largest connected component (the jumper),
and the raw/smoothed masks are both returned for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ImageError
from repro.imaging.components import largest_component
from repro.imaging.filters import box_filter, median_filter, window_sums
from repro.imaging.image import ensure_rgb

DEFAULT_TH_OBJECT = 20.0


def _shift_peak_to_255(d: np.ndarray) -> np.ndarray:
    """Steps v–vii on ``D``, in place: shift so the max is 255, clamp at 0."""
    peak = float(d.max())  # step v
    # Step vi: shift so the max becomes 255. When the frame equals the
    # background (peak 0) the shift would promote noise to 255, so the
    # all-zero image is returned as-is.
    if peak <= 0:
        return np.zeros_like(d)
    d -= peak - 255.0
    return np.maximum(d, 0.0, out=d)  # step vii


@dataclass(frozen=True)
class ExtractionResult:
    """Everything the §2 extractor produces for one frame.

    Attributes:
        mask: final silhouette (after median smoothing and, if enabled,
            largest-component selection).
        raw_mask: thresholded mask before smoothing (Figure 1(b)).
        difference: the normalised difference image ``R`` (step vii), useful
            for threshold ablations.
    """

    mask: np.ndarray
    raw_mask: np.ndarray
    difference: np.ndarray

    @property
    def foreground_fraction(self) -> float:
        """Fraction of frame pixels marked as foreground."""
        return float(self.mask.mean())


@dataclass
class BackgroundSubtractor:
    """§2 object extraction with the paper's parameters as defaults.

    Args:
        threshold: ``Th_Object`` of step viii (paper value 20).
        window: moving-average window ``n`` of steps i–ii (odd; 3 matches
            the paper's "simple and fast" intent).
        median_window: window of the silhouette-smoothing median filter.
        keep_largest_component: restrict the final mask to the largest
            connected blob, discarding small specks the threshold lets
            through.  The paper's studio frames contain exactly one mover.
    """

    threshold: float = DEFAULT_TH_OBJECT
    window: int = 3
    median_window: int = 3
    keep_largest_component: bool = True
    _background: "np.ndarray | None" = field(default=None, repr=False)
    _background_frame: "np.ndarray | None" = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.threshold < 0 or self.threshold > 255:
            raise ConfigurationError(
                f"threshold must be in [0, 255], got {self.threshold}"
            )
        if self.window < 1 or self.window % 2 != 1:
            raise ConfigurationError(f"window must be odd and >= 1, got {self.window}")
        if self.median_window < 1 or self.median_window % 2 != 1:
            raise ConfigurationError(
                f"median_window must be odd and >= 1, got {self.median_window}"
            )

    def fit_background(self, background: np.ndarray) -> "BackgroundSubtractor":
        """Store the averaged background ``B_ave`` (steps i of §2)."""
        rgb = ensure_rgb(background)
        self._background_frame = rgb.copy()
        self._background = self._window_average(rgb)
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit_background` has been called."""
        return self._background is not None

    def difference_image(self, frame: np.ndarray, method: str = "fast") -> np.ndarray:
        """Steps ii–vii: the normalised absolute-difference image ``R``.

        ``method="fast"`` (default) averages the frame from exact integer
        window sums (:func:`~repro.imaging.filters.window_sums`) and runs
        steps iii–vii in float64 on reused buffers.  ``method="naive"``
        re-averages frame and background with a float :func:`box_filter`
        per channel, the reference both methods agree with bit for bit.
        """
        if method not in ("fast", "naive"):
            raise ConfigurationError(
                f"method must be 'fast' or 'naive', got {method!r}"
            )
        if self._background is None:
            raise ImageError(
                "background not fitted; call fit_background() with a clean frame"
            )
        rgb = ensure_rgb(frame)
        if rgb.shape != self._background.shape:
            raise ImageError(
                f"frame shape {rgb.shape} does not match background shape "
                f"{self._background.shape}"
            )
        if method == "naive":
            diff = self._box_average(rgb) - self._box_average(self._background_frame)
            return _shift_peak_to_255(np.abs(diff).sum(axis=-1))
        averaged = self._window_average(rgb)
        diff = np.subtract(averaged, self._background, out=averaged)  # step iii
        np.abs(diff, out=diff)
        # step iv, summed in the same order as the naive channel reduction
        d = diff[..., 0] + diff[..., 1]
        d += diff[..., 2]
        return _shift_peak_to_255(d)

    def _window_average(self, rgb: np.ndarray) -> np.ndarray:
        """Steps i–ii from exact integer window sums, as float64 means."""
        return window_sums(rgb, self.window) / (self.window * self.window)

    def _box_average(self, rgb: np.ndarray) -> np.ndarray:
        """Steps i–ii with a float ``box_filter`` per channel (reference path)."""
        data = rgb.astype(np.float64)
        return np.stack(
            [box_filter(data[..., k], self.window) for k in range(3)], axis=-1
        )

    def extract(self, frame: np.ndarray) -> ExtractionResult:
        """Run the full extractor on one frame (steps ii–viii + smoothing)."""
        difference = self.difference_image(frame)
        raw_mask = difference > self.threshold  # step viii
        mask = median_filter(raw_mask, self.median_window)
        if self.keep_largest_component and mask.any():
            mask = largest_component(mask)
        return ExtractionResult(mask=mask, raw_mask=raw_mask, difference=difference)

    def extract_clip(self, frames: "list[np.ndarray]") -> "list[ExtractionResult]":
        """Extract every frame of a clip against the fitted background."""
        return [self.extract(frame) for frame in frames]
