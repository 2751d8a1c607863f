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
``rls_run`` keeps the recursion as the reference.
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


@dataclass(frozen=True)
class RlsConfig:
    """Exponentially-weighted RLS settings.

    ``order`` is the number of filter taps minus one: the regressor holds
    the ``order + 1`` most recent past samples.  ``forgetting`` is the
    exponential weight on old errors and ``init_reg`` the inverse of the
    initial covariance scale (P(0) = I / init_reg).
    """

    order: int = 52
    forgetting: float = 0.97
    init_reg: float = 0.01

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("forgetting must lie in (0, 1]")
        if self.init_reg <= 0:
            raise ValueError("init_reg must be positive")


def _check_signal(x: np.ndarray, taps: int) -> None:
    if x.ndim != 1 or x.size < taps + 1:
        raise ValueError(f"need a 1-d signal longer than {taps} samples")


def rls_run(signal, cfg: RlsConfig = RlsConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Adapt a one-step-ahead RLS predictor over a signal.

    At step n the regressor is [x(n-1), ..., x(n-order-1)] and the desired
    response is x(n) itself.  Weights start at zero, P at I / init_reg.

    Returns
    -------
    weights : terminal tap vector, length order + 1
    errors : a-priori prediction errors, one per adapted sample
    """
    x = np.asarray(signal, dtype=np.float64)
    taps = cfg.order + 1
    _check_signal(x, taps)
    lam = cfg.forgetting
    P = np.eye(taps) / cfg.init_reg
    w = np.zeros(taps)
    errors = np.empty(x.size - taps)
    for n in range(taps, x.size):
        u = x[n - taps : n][::-1]
        Pu = P @ u
        gain = Pu / (lam + u @ Pu)
        err = x[n] - w @ u
        w = w + gain * err
        P = (P - np.outer(gain, Pu)) / lam
        P = 0.5 * (P + P.T)
        errors[n - taps] = err
    return w, errors


@dataclass(frozen=True)
class ExtendedSegment:
    """A segment flanked by ``length`` forecast samples on each side.

    ``samples[length : len(samples) - length]`` is the original segment,
    bit for bit.
    """

    samples: np.ndarray
    length: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.length < 0 or 2 * self.length > samples.size:
            raise ValueError("samples must hold both length-sample flanks")


def _terminal_weights(x: np.ndarray, cfg: RlsConfig) -> np.ndarray:
    """The weights ``rls_run(x, cfg)`` ends at, from one least-squares solve.

    Row j of the Hankel system is the regressor of RLS update j + 1, scaled
    by sqrt(lambda)^(k-1-j) so that the squared errors carry the forgetting
    weights; delta lambda^k on the diagonal is what is left of P(0)^-1.
    The normal equations square the condition number of the system, so one
    step of iterative refinement on the weighted residual follows the solve;
    without it the weights can miss the minimum by 1e-10 of the objective.
    """
    taps = cfg.order + 1
    _check_signal(x, taps)
    k = x.size - taps
    scale = np.sqrt(cfg.forgetting) ** np.arange(k - 1, -1, -1)
    a = sliding_window_view(x, taps)[:k, ::-1] * scale[:, None]
    b = x[taps:] * scale
    reg = cfg.init_reg * cfg.forgetting**k
    r = a.T @ a
    r[np.diag_indices(taps)] += reg
    w = np.linalg.solve(r, a.T @ b)
    return w + np.linalg.solve(r, a.T @ (b - a @ w) - reg * w)


def _forecast(x: np.ndarray, length: int, cfg: RlsConfig) -> np.ndarray:
    """Freeze terminal RLS weights on x, then roll the predictor forward."""
    w = _terminal_weights(x, cfg)
    taps = cfg.order + 1
    work = np.empty(taps + length)
    work[:taps] = x[-taps:]
    clamped = 0
    for i in range(length):
        pred = w @ work[i : i + taps][::-1]
        if abs(pred) > _CLAMP:
            pred = _CLAMP if pred > 0 else -_CLAMP
            clamped += 1
        work[taps + i] = pred
    if clamped:
        logger.warning("clamped %d of %d forecast samples to +/-%g", clamped, length, _CLAMP)
    return work[taps:]


def extend_segment(segment, length: int, cfg: RlsConfig = RlsConfig()) -> ExtendedSegment:
    """Continue a segment ``length`` samples into the past and the future.

    The future side feeds back one-step predictions from weights trained
    forward over the segment; the past side does the same on the reversed
    segment.  Forecast magnitudes are clamped to +/-4 (with a log warning)
    so a runaway predictor cannot corrupt the spectrogram scale.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    x = np.asarray(segment, dtype=np.float64)
    if length == 0:
        return ExtendedSegment(x.copy(), 0)
    future = _forecast(x, length, cfg)
    past = _forecast(x[::-1], length, cfg)[::-1]
    return ExtendedSegment(np.concatenate([past, x, future]), length)
