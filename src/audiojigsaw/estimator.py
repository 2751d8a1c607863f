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
Its Gram matrix is built from its shift structure, one lag product per
lag and a rank-two update per step down the diagonals, and factored once
by Cholesky for the solve and its refinement steps; a side whose matrix
has no Cholesky factor falls back to LU.  The recursion itself and the
normal equations solved by LU on the product of the Hankel matrices are
kept as references in the tests (``tests/references.py``).

``extend_segment`` extends both sides of every segment it is given (one
segment, a frame of N or a stack of F frames) at once: weights for all
2FN sides in one solve, then one forecast loop over a ``(taps, 2FN)``
work window.  Each step multiplies the window by the weights and reduces
over the outer axis, which numpy does by adding whole rows one after
another: tap by tap, from +0.0, in the order of the per-side dot product
``w @ x[::-1]`` (its negative stride keeps that product off BLAS, in
numpy's sequential loop).  Columns never mix, so every forecast sample is
bit-identical to extending the sides one by one, however many sides share
the window.  ``@``, ``einsum`` or a reduce along a contiguous axis may use
BLAS or pairwise summation instead and move the last bits.  A zero-input
IIR filter response is no replacement either: it accumulates in another
order, and the +/-4 clamp acts inside the feedback loop, which a filter
run cannot reproduce.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import _whole

logger = logging.getLogger(__name__)

# Forecast samples far outside the plausible signal range indicate the
# feedback loop has gone unstable; they are pinned here instead.
_CLAMP = 4.0

# delta, the inverse of the initial covariance scale: P(0) = I / delta.
_INIT_REG = 0.01

# Iterative refinement steps after the weight solve.  One step leaves the
# weights up to 15 times further from the least-squares solution than an LU
# solve on the directly computed Gram matrix (16 kHz speech, 640 and 960
# samples); two leave them 7 to 27 times closer.
_REFINEMENTS = 2

@dataclass(frozen=True)
class RlsConfig:
    """Exponentially-weighted RLS settings.

    ``order`` is the number of filter taps minus one, a positive whole
    number stored as an ``int``: the regressor holds the ``order + 1``
    most recent past samples.  ``forgetting`` is the
    exponential weight on old errors.  The initial covariance is fixed at
    P(0) = I / 0.01 (``_INIT_REG``).
    """

    order: int = 52
    forgetting: float = 0.97

    def __post_init__(self):
        object.__setattr__(self, "order", _whole(self.order, 1, "order"))
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("forgetting must lie in (0, 1]")


def _terminal_weights(x: np.ndarray, cfg: RlsConfig) -> np.ndarray:
    """The weights RLS ends at on each signal of ``x``.

    ``x`` is one signal or a ``(sides, L)`` stack of them, and the result
    holds one tap vector per signal.  With T taps, k = L - T updates and
    c_n = lambda^(k-1-n), the augmented Gram matrix

        G[i][j] = sum_n c_n x[n+T-i] x[n+T-j],   i, j = 0..T,

    holds the normal equations: R = G[1:, 1:] + delta lambda^k I, whose
    diagonal term is what is left of P(0)^-1, and right-hand side
    G[1:, 0].  Its last column is one weighted lag product per lag, taken
    on a window view of the signal; every other entry follows from the one
    below and to the right,

        G[i][j] = lambda G[i+1][j+1] + x[L-1-i] x[L-1-j] - lambda^k x[T-1-i] x[T-1-j],

    walking i down from T-1.  Each step scales by lambda <= 1, so rounding
    does not grow, and the work is O(T L) per side with no Hankel matrix
    copied out.  Only the triangle i <= j is built, the rest left zero:
    Cholesky, handed the transpose, reads only that.  One factor per side
    serves the solve and every refinement step.  The normal equations
    square the condition number, so each refinement takes its residual
    from the data, not from G: without refinement the weights can miss the
    minimum by 1e-10 of the objective.  Every reduction runs along one side's own axis, so a
    side's weights are the same bytes whatever shares the call.
    """
    x = np.asarray(x, dtype=np.float64)
    sides = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
    taps = cfg.order + 1
    lam = cfg.forgetting
    k = sides.shape[-1] - taps
    decay = lam ** np.arange(k - 1, -1, -1)
    reg = _INIT_REG * lam**k
    gram = _gram(sides, taps, lam, decay)
    rhs = gram[:, 0, 1:].copy()
    r = gram[:, 1:, 1:]
    r[:, np.arange(taps), np.arange(taps)] += reg
    lower, fallback = _cholesky(np.swapaxes(r, -1, -2))
    # Drop the Gram matrices before the transposed copy, so that a block's
    # matrices and both copies of its factors are never held at once.
    del gram, r
    upper = np.swapaxes(lower, -1, -2).copy()
    w = _solve(lower, upper, fallback, rhs)
    # regressors[s, n, m] = x[n + m] of side s, for the k updates n: tap i
    # of update n is regressors[s, n, taps - 1 - i], so products run on reversed weights.
    regressors = sliding_window_view(sides, taps, axis=-1)[:, :k]
    for _ in range(_REFINEMENTS):
        errors = sides[:, taps:] - np.einsum("snm,sm->sn", regressors, w[:, ::-1].copy())
        rho = np.einsum("snm,sn->sm", regressors, decay * errors)[:, ::-1] - reg * w
        w += _solve(lower, upper, fallback, rho)
    return w.reshape(*x.shape[:-1], taps)


def _gram(sides: np.ndarray, taps: int, lam: float, decay: np.ndarray) -> np.ndarray:
    """The augmented Gram matrices G of ``_terminal_weights``, one per side.

    Entry ``[s, i, j]`` holds G[i][j] of side s for i <= j, with
    ``decay[n]`` = c_n; the lower triangle stays zero.
    """
    k = decay.size
    fade = lam**k
    gram = np.zeros((len(sides), taps + 1, taps + 1))
    windows = sliding_window_view(sides, taps + 1, axis=-1)
    gram[:, ::-1, taps] = np.einsum("sn,snm->sm", decay * sides[:, :k], windows)
    tail = sides[:, : -taps - 1 : -1].copy()
    head = sides[:, taps - 1 :: -1].copy()
    faded = fade * head
    for i in range(taps - 1, -1, -1):
        row = gram[:, i, i:taps]
        np.multiply(gram[:, i + 1, i + 1 :], lam, out=row)
        row += tail[:, i:] * tail[:, i, None]
        row -= head[:, i:] * faded[:, i, None]
    return gram


def _cholesky(r: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Cholesky factors of the ``(S, T, T)`` matrices whose lower triangles ``r`` holds.

    A side has no factor where delta lambda^k sinks below the rounding of
    its Gram matrix: tones, ramps and long DC segments, or speech at
    forgetting 0.6 and below.  A batched Cholesky then fails for the whole
    stack, so only on that path are the sides factored one by one.  Each
    side without a factor gets an identity in its place and its full
    symmetric matrix in the returned dict, by side index.
    """
    try:
        return np.linalg.cholesky(r), {}
    except np.linalg.LinAlgError:
        pass
    lower = np.empty(r.shape)
    fallback = {}
    for s, matrix in enumerate(r):
        try:
            lower[s] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            lower[s] = np.eye(r.shape[-1])
            tri = np.tril(matrix)
            fallback[s] = tri + np.tril(tri, -1).T
    return lower, fallback


def _solve(
    lower: np.ndarray, upper: np.ndarray, fallback: dict[int, np.ndarray], rhs: np.ndarray
) -> np.ndarray:
    """Solve every side's system for the ``(S, T)`` right-hand side ``rhs``.

    Substitution runs through each side's factor, all sides at once, the
    backward pass on ``upper``, a contiguous copy of the factor's
    transpose.  The sides in ``fallback`` are solved by LU on their full
    matrix instead or, where LU finds it singular too, by least squares,
    whose minimum-norm solution is the limit of the regularised one as
    delta lambda^k goes to zero.
    """
    w = rhs.copy()
    taps = w.shape[-1]
    for i in range(taps):
        dot = np.einsum("sj,sj->s", lower[:, i, :i], w[:, :i])
        w[:, i] = (w[:, i] - dot) / lower[:, i, i]
    for i in range(taps - 1, -1, -1):
        dot = np.einsum("sj,sj->s", upper[:, i, i + 1 :], w[:, i + 1 :])
        w[:, i] = (w[:, i] - dot) / lower[:, i, i]
    for s, matrix in fallback.items():
        try:
            w[s] = np.linalg.solve(matrix, rhs[s])
        except np.linalg.LinAlgError:
            w[s] = np.linalg.lstsq(matrix, rhs[s], rcond=None)[0]
    return w


def extend_segment(segments, length: int, cfg: RlsConfig = RlsConfig()) -> np.ndarray:
    """Continue every segment ``length`` samples into the past and the future.

    ``segments`` is one ``(L,)`` segment, one frame's ``(N, L)`` array or an
    ``(F, N, L)`` stack of frames; each row of the ``(..., L + 2 length)``
    result is its segment flanked by its past and future forecasts, with the
    segment itself in the middle bit for bit.  The future side feeds back
    one-step predictions from weights trained forward over the segment; the
    past side does the same on the reversed segment.  One
    ``_terminal_weights`` call covers every side of every segment, and one
    forecast loop then advances them all.  Forecast magnitudes are clamped
    to +/-4, so a runaway predictor cannot corrupt the spectrogram scale;
    each clamped side logs one warning, segment by segment in row order,
    future side first.  ``length`` is a non-negative whole number.
    """
    length = _whole(length, 0, "length")
    x = np.asarray(segments, dtype=np.float64)
    if x.ndim not in (1, 2, 3) or x.size == 0:
        raise ValueError(
            "segments must be a non-empty (L,) segment, (N, L) frame or (F, N, L) stack of frames"
        )
    if length == 0:
        return x.copy()
    taps = cfg.order + 1
    if x.shape[-1] < taps + 1:
        raise ValueError(f"segments must be longer than {taps} samples")
    rows = x.reshape(-1, x.shape[-1])
    # Row 2i of the sides is segment i forward (its future side), row 2i + 1
    # reversed (its past).
    sides = np.stack([rows, rows[:, ::-1]], axis=1).reshape(-1, x.shape[-1])
    weights = _terminal_weights(sides, cfg).T.copy()
    work = np.empty((taps + length, weights.shape[1]))
    work[:taps] = sides[:, -taps:].T
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
