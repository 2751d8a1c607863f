"""Recursive least squares prediction for extending segments past their borders.

Cutting a signal into segments starves the border samples of analysis
windows.  Each segment is therefore continued on both sides with samples
forecast from its own interior: an RLS one-step predictor is trained over
the segment, its terminal weights frozen, and the forecast fed back on
itself.  The past side reuses the same machinery on the time-reversed
segment.

The terminal weights are computed in closed form.  RLS started from zero
weights with P(0) = I / delta and forgetting lambda ends, after k updates,
exactly at the minimiser of

    sum_i lambda^(k-i) e_i^2 + delta lambda^k ||w||^2

(Haykin, *Adaptive Filter Theory*, RLS chapter), so one regularised,
exponentially weighted least-squares solve replaces the k rank-one updates.
The recursion itself is kept as the reference in the tests
(``tests/references.py``).

``extend_frame`` extends all 2N sides of a frame, or of a stack of F
frames, at once: one stacked weight solve per frame, then one forecast
loop over a ``(taps, 2FN)`` work window.  Each step multiplies the window
by the weights and reduces over the outer axis, which numpy does by adding
whole rows one after another: tap by tap, from +0.0, in the order of the
per-side dot product ``w @ x[::-1]`` (its negative stride keeps that
product off BLAS, in numpy's sequential loop).  Columns never mix, so every
forecast sample is bit-identical to extending the sides one by one, however
many sides share the window.  ``@``, ``einsum`` or a reduce along a
contiguous axis may use BLAS or pairwise summation instead and move the
last bits.  A zero-input IIR filter response is no replacement either: it
accumulates in another order, and the +/-4 clamp acts inside the feedback
loop, which a filter run cannot reproduce.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

logger = logging.getLogger(__name__)

# Forecast samples far outside the plausible signal range indicate the
# feedback loop has gone unstable; they are pinned here instead.
_CLAMP = 4.0

# delta, the inverse of the initial covariance scale: P(0) = I / delta.
_INIT_REG = 0.01


@dataclass(frozen=True)
class RlsConfig:
    """Exponentially-weighted RLS settings.

    ``order`` is the number of filter taps minus one: the regressor holds
    the ``order + 1`` most recent past samples.  ``forgetting`` is the
    exponential weight on old errors.  The initial covariance is fixed at
    P(0) = I / 0.01 (``_INIT_REG``).
    """

    order: int = 52
    forgetting: float = 0.97

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("forgetting must lie in (0, 1]")


def _terminal_weights(x: np.ndarray, cfg: RlsConfig) -> np.ndarray:
    """The weights RLS ends at on each signal of ``x``, from one stacked solve.

    ``x`` is one signal or a ``(sides, L)`` stack of them, and the result
    holds one tap vector per signal.  Row i of each Hankel system is the
    regressor of RLS update i + 1, scaled by sqrt(lambda)^(k-1-i) so that
    the squared errors carry the forgetting weights; delta lambda^k on the
    diagonal is what is left of P(0)^-1.  The normal equations square the
    condition number of the system, so one step of iterative refinement on
    the weighted residual follows the solve; without it the weights can
    miss the minimum by 1e-10 of the objective.
    """
    taps = cfg.order + 1
    k = x.shape[-1] - taps
    scale = np.sqrt(cfg.forgetting) ** np.arange(k - 1, -1, -1)
    a = sliding_window_view(x, taps, axis=-1)[..., :k, ::-1] * scale[:, None]
    at = np.swapaxes(a, -1, -2)
    b = (x[..., taps:] * scale)[..., None]
    reg = _INIT_REG * cfg.forgetting**k
    r = at @ a
    r[..., np.arange(taps), np.arange(taps)] += reg
    w = np.linalg.solve(r, at @ b)
    return (w + np.linalg.solve(r, at @ (b - a @ w) - reg * w))[..., 0]


def extend_frame(segments, length: int, cfg: RlsConfig = RlsConfig()) -> np.ndarray:
    """Continue every segment of a frame ``length`` samples into the past and the future.

    ``segments`` is one frame's ``(N, L)`` array or an ``(F, N, L)`` stack
    of frames; each row of the ``(..., N, L + 2 length)`` result is its
    segment flanked by its past and future forecasts, with the segment
    itself in the middle bit for bit.  The future side feeds back one-step
    predictions from weights trained forward over the segment; the past
    side does the same on the reversed segment.  Weights are solved one
    frame (2N sides) at a time, which keeps the stacked least-squares
    systems at one frame's size; one forecast loop then advances every
    side of every frame.  Forecast magnitudes are clamped to +/-4, so a
    runaway predictor cannot corrupt the spectrogram scale; each clamped
    side logs one warning, frame by frame, segment by segment, future side
    first.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    x = np.asarray(segments, dtype=np.float64)
    if x.ndim not in (2, 3) or x.size == 0:
        raise ValueError(
            "segments must be a non-empty 2-d (count, samples) array or a 3-d stack of them"
        )
    if length == 0:
        return x.copy()
    taps = cfg.order + 1
    if x.shape[-1] < taps + 1:
        raise ValueError(f"segments must be longer than {taps} samples")
    frames = x.reshape(-1, *x.shape[-2:])
    # Row 2i of a frame's sides is segment i forward (its future side), row 2i + 1
    # reversed (its past); frame f's sides follow frame f - 1's.
    sides = np.stack([frames, frames[..., ::-1]], axis=2).reshape(-1, 2 * x.shape[-2], x.shape[-1])
    weights = np.concatenate([_terminal_weights(s, cfg) for s in sides]).T.copy()
    work = np.empty((taps + length, weights.shape[1]))
    work[:taps] = sides[..., -taps:].reshape(-1, taps).T
    raw = np.empty((length, weights.shape[1]))
    for i in range(length):
        # Outer-axis sum: tap by tap from +0.0, as the per-side dot product adds.
        np.add.reduce(weights * work[i : i + taps][::-1], axis=0, out=raw[i], initial=0.0)
        np.clip(raw[i], -_CLAMP, _CLAMP, out=work[taps + i])
    for clamped in np.count_nonzero(np.abs(raw) > _CLAMP, axis=0).tolist():
        if clamped:
            logger.warning("clamped %d of %d forecast samples to +/-%g", clamped, length, _CLAMP)
    forecast = work[taps:].T.reshape(*x.shape[:-1], 2, length)
    return np.concatenate([forecast[..., 1, ::-1], x, forecast[..., 0, :]], axis=-1)


def extend_segment(segment, length: int, cfg: RlsConfig = RlsConfig()) -> np.ndarray:
    """Continue one segment ``length`` samples into the past and the future.

    The one-segment case of :func:`extend_frame`, with the same forecasts
    and clamp warnings: the ``(L + 2 length,)`` result holds the segment
    bit for bit at ``[length : length + L]``.
    """
    x = np.asarray(segment, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("segment must be one-dimensional")
    return extend_frame(x[None], length, cfg)[0]
