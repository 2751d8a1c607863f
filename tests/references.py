"""Slow, direct references that the tests hold the package's fast paths to.

The attack never calls these.  Each one states a stage's definition as
plainly as possible: the RLS recursion and its closed-form end point from
the normal equations, the STFT of one signal, the
analysis-window coverage of a sample, the quantization of a frame piece by
piece, the seam distance of one pair of pieces, the exhaustive frame
solve, the best-first search the depth-first one replaced, the
table-bounded search that reading orders off the table replaced, the
completion table by enumeration and in the flat layout the package's
array replaced, and the accuracy score as a sum over every shared block.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

import numpy as np

from audiojigsaw import solver
from audiojigsaw.estimator import _INIT_REG, RlsConfig
from audiojigsaw.evaluation import _check_pair
from audiojigsaw.puzzle import DistanceConfig, arrangement_cost
from audiojigsaw.solver import SolveReport, _validated
from audiojigsaw.spectrogram import StftConfig, hamming_window


def rls_run(signal, cfg: RlsConfig = RlsConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Adapt a one-step-ahead RLS predictor over a signal.

    At step n the regressor is [x(n-1), ..., x(n-order-1)] and the desired
    response is x(n) itself.  Weights start at zero, P at I / delta (``_INIT_REG``).

    Returns
    -------
    weights : terminal tap vector, length order + 1
    errors : a-priori prediction errors, one per adapted sample
    """
    x = np.asarray(signal, dtype=np.float64)
    taps = cfg.order + 1
    if x.ndim != 1 or x.size < taps + 1:
        raise ValueError(f"need a 1-d signal longer than {taps} samples")
    lam = cfg.forgetting
    P = np.eye(taps) / _INIT_REG
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


def normal_equation_weights(signal, cfg: RlsConfig = RlsConfig()) -> np.ndarray:
    """The weights :func:`rls_run` ends at, from the normal equations by LU.

    Row i of the Hankel system is the regressor of RLS update i + 1,
    scaled by sqrt(lambda)^(k-1-i) so that the squared errors carry the
    forgetting weights; delta lambda^k on the diagonal of R = A^T A is what
    is left of P(0)^-1.  One step of iterative refinement on the weighted
    residual follows the solve, because the normal equations square the
    condition number of the system.
    """
    x = np.asarray(signal, dtype=np.float64)
    taps = cfg.order + 1
    k = x.size - taps
    scale = np.sqrt(cfg.forgetting) ** np.arange(k - 1, -1, -1)
    a = np.lib.stride_tricks.sliding_window_view(x, taps)[:k, ::-1] * scale[:, None]
    b = x[taps:] * scale
    reg = _INIT_REG * cfg.forgetting**k
    r = a.T @ a
    r[np.diag_indices(taps)] += reg
    w = np.linalg.solve(r, a.T @ b)
    return w + np.linalg.solve(r, a.T @ (b - a @ w) - reg * w)


def stft_magnitude(samples, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Magnitude spectrogram, shape (fft_size/2, n_columns).

    Column m holds |FFT| of the windowed slice starting at sample
    m * hop (0-based); n_columns = floor((len - overlap) / hop).  Row r is
    frequency bin r+1: the DC bin is dropped, bins 1..fft_size/2 kept.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if x.size < cfg.window_size:
        raise ValueError(
            f"sequence of {x.size} samples is shorter than one {cfg.window_size}-sample window"
        )
    n_cols = (x.size - cfg.overlap) // cfg.hop
    slices = np.lib.stride_tricks.sliding_window_view(x, cfg.window_size)[:: cfg.hop][:n_cols]
    spectra = np.fft.rfft(slices * hamming_window(cfg.window_size), n=cfg.fft_size, axis=1)
    return np.abs(spectra[:, 1 : cfg.fft_size // 2 + 1]).T


def window_coverage(sample_pos: int, segment_len: int, window_size: int) -> int:
    """How many maximally-overlapped analysis windows contain a sample.

    With hop 1, a sample at 1-based position j of a segment of length L is
    seen by j windows near the left border, window_size windows in the
    interior, and L - j + 1 near the right border.  Border samples
    therefore influence fewer spectrogram columns, which is exactly the
    artifact predictive extension repairs.
    """
    if not 1 <= sample_pos <= segment_len:
        raise ValueError("sample_pos must lie in 1..segment_len")
    if window_size > segment_len:
        raise ValueError("window longer than segment")
    if sample_pos < window_size:
        return sample_pos
    if sample_pos <= segment_len - window_size:
        return window_size
    return segment_len - sample_pos + 1


def quantize_pieces(matrices) -> list[np.ndarray]:
    """Quantize a frame's magnitude matrices one at a time against the frame's range.

    Each value v becomes 20*log10(v + 1e-10) dB; the lowest dB value of the
    whole frame maps to 0 and the highest to 255, rounding half up.  A flat
    frame quantizes to all zeros.
    """
    values = [20.0 * np.log10(np.asarray(m, dtype=np.float64) + 1e-10) for m in matrices]
    lo = min(float(v.min()) for v in values)
    hi = max(float(v.max()) for v in values)
    pieces = []
    for v in values:
        if hi == lo:
            pieces.append(np.zeros(v.shape, dtype=np.uint8))
        else:
            scaled = 255.0 * (v - lo) / (hi - lo)
            pieces.append(np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8))
    return pieces


def piece_distance(left, right, cfg: DistanceConfig = DistanceConfig()) -> float:
    """RMS pixel gap across the seam if piece ``right`` is placed after piece ``left``.

    Each piece is a 2-d pixel matrix.

    For each inward offset a in 0..max_penetration, column (last - a) of
    the left piece meets column a of the right piece; for each vertical
    slide b in 0..max_slide the overlapping rows (shifting either piece up)
    are compared.  The minimum RMS difference over all offsets, rounded to
    the nearest multiple of 2**-32, is the distance.  Directed:
    piece_distance(x, y) != piece_distance(y, x) in general.
    """
    li = np.asarray(left, dtype=np.float64)
    ri = np.asarray(right, dtype=np.float64)
    if li.shape != ri.shape:
        raise ValueError("pieces must share their matrix shape")
    n_rows, n_cols = li.shape
    if n_cols <= cfg.max_penetration:
        raise ValueError(
            f"pieces have {n_cols} columns, need more than max_penetration={cfg.max_penetration}"
        )
    best = math.inf
    for a in range(cfg.max_penetration + 1):
        col_l = li[:, n_cols - 1 - a]
        col_r = ri[:, a]
        for b in range(min(cfg.max_slide, n_rows - 1) + 1):
            span = n_rows - b
            diff = col_l[b:] - col_r[:span]
            best = min(best, math.sqrt(float(diff @ diff) / span))
            if b:
                diff = col_l[:span] - col_r[b:]
                best = min(best, math.sqrt(float(diff @ diff) / span))
    return round(best * 2.0**32) / 2.0**32


_ORACLE_CHUNK = 40320


def solve_bruteforce(d, max_pieces: int = 10) -> SolveReport:
    """Enumerate every arrangement; ground truth for validating the search.

    Permutations stream in lexicographic order and ties keep the earliest,
    so equal-cost optima resolve to the lexicographically smallest order
    (the identity when every arrangement costs +inf).  Costs are summed
    left to right from 0.0, seam by seam, exactly as the search and
    :func:`~audiojigsaw.puzzle.arrangement_cost` sum them.  Refuses more
    than ``max_pieces`` pieces (the stream has n! entries).
    """
    d = _validated(d)
    n = d.shape[0]
    if n > max_pieces:
        raise ValueError(f"{n} pieces exceed the exhaustive limit of {max_pieces}")
    best_order = None
    best_cost = np.inf
    examined = 0
    stream = itertools.permutations(range(n))
    while True:
        chunk = np.array(list(itertools.islice(stream, _ORACLE_CHUNK)), dtype=np.intp)
        if chunk.size == 0:
            break
        examined += chunk.shape[0]
        costs = np.zeros(chunk.shape[0])
        for k in range(n - 1):
            costs = costs + d[chunk[:, k], chunk[:, k + 1]]
        pick = int(np.argmin(costs))
        if best_order is None or costs[pick] < best_cost:
            best_cost = float(costs[pick])
            best_order = tuple(int(v) for v in chunk[pick])
    return SolveReport(best_order, arrangement_cost(d, best_order), examined)


def solve_bnb_best_first(d, frontier_cap: int = 1_000_000) -> SolveReport:
    """The best-first branch and bound that :func:`~audiojigsaw.solver.solve_bnb` replaced.

    Same grid, incumbent, tie-prune and bounds as the package's search
    (the arborescence above ``_TABLE_MAX_PIECES`` pieces) and as
    :func:`solve_bnb_table_search` (the completion table up to that), but
    the frontier is a heap that pops the smallest
    bound first (ties: deeper node, then lexicographically smaller prefix),
    and past ``frontier_cap`` entries it continues depth-first.  The heap
    can grow exponentially with the pieces: on one 16-piece speech frame
    it held 943,249 entries.  Like the search, it orders on the matrix
    rounded by ``solver._on_grid`` and sums the winner's cost on ``d``.
    """
    d = _validated(d)
    grid = solver._on_grid(d)
    n = d.shape[0]
    rows = grid.tolist()
    inc_order, inc_cost = solver._greedy_chain(rows)
    all_mask = (1 << n) - 1

    def dominated(bound: float, prefix: tuple[int, ...]) -> bool:
        return bound > inc_cost or (bound == inc_cost and prefix > inc_order[: len(prefix)])

    if n <= solver._TABLE_MAX_PIECES:
        table = solver._completion_table(grid)

        def open_bound(cost, prefix, unplaced_mask):
            bound = cost + table.item(unplaced_mask, prefix[-1])
            return None if dominated(bound, prefix) else bound

    else:
        open_bound = solver._arborescence_bound(rows, dominated)

    # Heap entries: (bound, -depth, prefix, cost_so_far, unplaced_mask).
    frontier = []
    expanded = 1  # the virtual root
    for start in range(n):
        mask = all_mask & ~(1 << start)
        bound = open_bound(0.0, (start,), mask)
        if bound is not None:
            heapq.heappush(frontier, (bound, -1, (start,), 0.0, mask))

    best_first = True
    while frontier:
        if best_first and len(frontier) > frontier_cap:
            frontier.sort(key=lambda e: (e[0], e[1], e[2]), reverse=True)
            best_first = False
        if best_first:
            bound, neg_depth, prefix, cost, mask = heapq.heappop(frontier)
            if bound > inc_cost:
                break  # heap order: nothing better remains
            if dominated(bound, prefix):
                continue
        else:
            bound, neg_depth, prefix, cost, mask = frontier.pop()
            if dominated(bound, prefix):
                continue
        expanded += 1
        here = rows[prefix[-1]]
        depth = -neg_depth
        for j in range(n):
            if not mask >> j & 1:
                continue
            child_cost = cost + here[j]
            child_prefix = prefix + (j,)
            if depth + 1 == n:
                if child_cost < inc_cost or (child_cost == inc_cost and child_prefix < inc_order):
                    inc_cost = child_cost
                    inc_order = child_prefix
                continue
            child_mask = mask & ~(1 << j)
            child_bound = open_bound(child_cost, child_prefix, child_mask)
            if child_bound is None:
                continue
            entry = (child_bound, -(depth + 1), child_prefix, child_cost, child_mask)
            if best_first:
                heapq.heappush(frontier, entry)
            else:
                frontier.append(entry)
    return SolveReport(inc_order, arrangement_cost(d, inc_order), expanded)


def solve_bnb_table_search(d, on_expand=None) -> SolveReport:
    """The depth-first search that :func:`~audiojigsaw.solver.solve_bnb` ran up to ``_TABLE_MAX_PIECES`` pieces.

    The package now reads those frames' orders off the completion table.
    This is the search it replaced: on the grid, from the greedy incumbent,
    with the tie-prune and the stack of the package's search above 12
    pieces, a node's bound being its cost plus its completion-table entry.
    ``on_expand`` sees (prefix, cost_so_far, bound) for every expanded
    internal node.
    """
    d = _validated(d)
    grid = solver._on_grid(d)
    n = d.shape[0]
    rows = grid.tolist()
    table = solver._completion_table(grid)
    inc_order, inc_cost = solver._greedy_chain(rows)

    def dominated(bound, prefix):
        return bound > inc_cost or (bound == inc_cost and prefix > inc_order[: len(prefix)])

    stack = [(-math.inf, (), 0.0, (1 << n) - 1)]
    expanded = 0
    while stack:
        bound, prefix, cost, mask = stack.pop()
        if dominated(bound, prefix):
            continue
        expanded += 1
        here = rows[prefix[-1]] if prefix else [0.0] * n
        if on_expand is not None and prefix:
            on_expand(prefix, cost, bound)
        children = []
        for j in range(n):
            if not mask >> j & 1:
                continue
            child_cost = cost + here[j]
            child_prefix = prefix + (j,)
            if len(child_prefix) == n:
                if child_cost < inc_cost or (child_cost == inc_cost and child_prefix < inc_order):
                    inc_cost, inc_order = child_cost, child_prefix
                continue
            child_mask = mask & ~(1 << j)
            child_bound = child_cost + table.item(child_mask, j)
            if not dominated(child_bound, child_prefix):
                children.append((child_bound, child_prefix, child_cost, child_mask))
        stack.extend(sorted(children, reverse=True))
    return SolveReport(inc_order, arrangement_cost(d, inc_order), expanded)


def completion_table_by_enumeration(d) -> dict[tuple[int, int], float]:
    """Cheapest completion of every search state, over every order of its pieces.

    Entry (S, j), for a bitmask S of pieces and a piece j outside it, is the
    smallest cost of a path that starts at j and visits the pieces of S in
    some order p, its arcs summed right to left from 0.0:
    d[j][p0] + (d[p0][p1] + (... + (d[p[-2]][p[-1]] + 0.0))).  The empty
    set costs 0.0.  Enumerates sum over S of |S|! orders per piece.
    """
    rows = _validated(d).tolist()
    n = len(rows)
    table = {}
    for j in range(n):
        others = [k for k in range(n) if k != j]
        for size in range(n):
            for members in itertools.combinations(others, size):
                best = math.inf
                for order in itertools.permutations(members):
                    path = (j,) + order
                    total = 0.0
                    for a, b in reversed(list(zip(path, path[1:]))):
                        total = rows[a][b] + total
                    best = min(best, total)
                table[sum(1 << k for k in members), j] = best
    return table


@functools.cache
def _flat_table_layers(n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Index arrays of the flat table's layers |S| = 1 .. n - 1 for n pieces.

    A layer's m sets S ascend, and so do the pieces j outside each set and
    the s pieces k inside it.  ``target`` holds the flat indices S*n + j of
    the layer's states, set by set; ``source`` (s, m) the flat index of
    H[S - k][k]; ``arc`` (s, m, n - s) the flat index of d[j][k].
    """
    sets = np.arange(1 << n)
    members = (sets[:, None] >> np.arange(n) & 1).astype(bool)
    sizes = members.sum(axis=1)
    layers = []
    for s in range(1, n):
        layer, member = sets[sizes == s], members[sizes == s]
        k = np.nonzero(member)[1].reshape(-1, s).T  # (s, m): each set's pieces
        j = np.nonzero(~member)[1].reshape(-1, n - s)  # (m, n - s): the pieces outside it
        target = (layer[:, None] * n + j).ravel()
        layers.append((target, (layer - (1 << k)) * n + k, k[:, :, None] + j * n))
    return layers


def completion_table_flat(d) -> list[float]:
    """The completion table in the flat layout :func:`~audiojigsaw.solver._completion_table` replaced.

    Entry S*n + j is H[S][j] = min over k in S of fl(d[j][k] + H[S - k][k]),
    built one layer |S| at a time from gathers through ``arc``, ``source``
    and ``target`` index arrays, and returned as Python floats.  Entries
    with j in S stay +inf.
    """
    d = _validated(d)
    n = d.shape[0]
    table = np.full((1 << n) * n, np.inf)
    table[:n] = 0.0
    arcs = d.ravel()
    for target, source, arc in _flat_table_layers(n):
        paths = arcs[arc] + table[source][:, :, None]
        table[target] = paths.reshape(len(source), -1).min(axis=0)
    return table.tolist()


def sub_block_matches(found, correct, block_len: int) -> int:
    """Count contiguous runs of ``block_len`` pieces appearing in both orders.

    Every start offset in ``found`` is compared against every start offset
    in ``correct``, so a correctly assembled run earns credit wherever it
    ended up.
    """
    n = _check_pair(found, correct)
    if not 1 <= block_len <= n:
        raise ValueError("block_len must lie in 1..n")
    found = tuple(found)
    correct = tuple(correct)
    count = 0
    for i in range(n - block_len + 1):
        block = found[i : i + block_len]
        for j in range(n - block_len + 1):
            if correct[j : j + block_len] == block:
                count += 1
    return count


def block_accuracy(found, correct) -> float:
    """Accuracy by definition: each block length k contributes
    sub_block_matches * k, normalized by the maximum attainable sum over
    all lengths."""
    n = _check_pair(found, correct)
    earned = 0
    possible = 0
    for block_len in range(1, n + 1):
        earned += sub_block_matches(found, correct, block_len) * block_len
        possible += (n - block_len + 1) * block_len
    return earned / possible
