"""Exact minimum-cost open-path search over puzzle pieces.

Reassembling one frame is an open-path traveling-salesman problem on the
directed seam-distance matrix: find the order of all pieces whose summed
consecutive distances is smallest.  Frames are small (usually 8 to 16
pieces), so the problem is solved exactly with best-first branch and
bound.  The upper bound comes from nearest-neighbor chains, the lower
bound from minimum spanning arborescences, which relax a Hamiltonian path
into any spanning out-tree and can therefore never overshoot.

Cost ties between arrangements are broken toward the lexicographically
smallest order, in both the exhaustive oracle and the search, so their
results are directly comparable.  The search also uses that tie-break to
prune: a partial order whose bound equals the incumbent's cost, and whose
prefix sorts after the incumbent's prefix of the same length, can only
complete into arrangements that cost at least as much and sort later, so
none of them can win.  Silent frames, whose matrices are all ties, then
take one branch instead of every one.

The search and its bound run on plain Python floats: the matrix is
converted once per solve with ``tolist()``.  At 16 pieces or fewer every
step touches a handful of numbers, so numpy's per-call overhead would cost
more than the arithmetic.  The conversion is exact, and the bound keeps the
tie rules and operand order of a numpy contraction (the reference in the
tests), so orders, costs, node counts and bound values are bit-identical
to a search that runs on numpy.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .puzzle import arrangement_cost
from .scrambler import invert_permutation


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one frame solve."""

    order: tuple[int, ...]
    cost: float
    nodes_expanded: int
    oracle_checked: bool = False


def _validated(d) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if d.shape[0] < 2:
        raise ValueError("need at least 2 pieces")
    if np.isnan(d).any():
        raise ValueError("distance matrix must not contain NaN")
    return d

_ORACLE_CHUNK = 40320


def solve_bruteforce(d, max_pieces: int = 10) -> SolveReport:
    """Enumerate every arrangement; ground truth for validating the search.

    Permutations stream in lexicographic order and ties keep the earliest,
    so equal-cost optima resolve to the lexicographically smallest order.
    Refuses more than ``max_pieces`` pieces (the stream has n! entries).
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
        costs = d[chunk[:, :-1], chunk[:, 1:]].sum(axis=1)
        pick = int(np.argmin(costs))
        if costs[pick] < best_cost:
            best_cost = float(costs[pick])
            best_order = tuple(int(v) for v in chunk[pick])
    return SolveReport(best_order, arrangement_cost(d, best_order), examined, oracle_checked=True)


def greedy_upper_bound(d) -> SolveReport:
    """Best nearest-neighbor chain over all starting pieces.

    Not optimal, but never worse than the chain from any single start;
    used to seed the branch-and-bound incumbent.
    """
    d = _validated(d)
    n = d.shape[0]
    rows = d.tolist()
    best_order = None
    best_cost = np.inf
    for start in range(n):
        order = [start]
        cost = 0.0
        remaining = set(range(n)) - {start}
        while remaining:
            here = rows[order[-1]]
            nxt = min(remaining, key=lambda j: (here[j], j))
            cost += here[nxt]
            order.append(nxt)
            remaining.remove(nxt)
        order = tuple(order)
        if cost < best_cost or (cost == best_cost and order < best_order):
            best_cost = cost
            best_order = order
    return SolveReport(best_order, best_cost, n)


def min_arborescence_weight(d, nodes: Iterable[int], root: int) -> float:
    """Weight of the lightest spanning out-tree of ``nodes`` rooted at ``root``.

    Chu-Liu/Edmonds by repeated cycle contraction, weight only (the tree
    itself is never needed).  Any path from the root visiting every node is
    itself a spanning out-tree, so this weight is an admissible bound for
    open-path completion costs.

    ``d`` is anything indexable as ``d[u][v]``: an array or nested lists of
    floats that are finite or +inf.  The contraction runs on plain Python
    lists, because at 16 nodes or fewer numpy's per-call overhead costs more
    than the arithmetic.  It is bit-identical to the numpy contraction in
    the tests: each parent is the first minimum of its column (the tie
    rule of ``np.argmin``), the cycle found is the first one in node order,
    in the same rotation, and every sum and minimum takes its operands in
    the same order.
    """
    nodes = list(nodes)
    if root not in nodes:
        raise ValueError("root must be among the nodes")
    if len(nodes) == 1:
        return 0.0
    rows = [d[u] for u in nodes]
    # cols[v][u] is the weight of arc u -> v; no node may be its own parent.
    cols = [[row[v] for row in rows] for v in nodes]
    for i, col in enumerate(cols):
        col[i] = math.inf
    return float(_contract_weight(cols, nodes.index(root)))


def _contract_weight(cols: list[list[float]], root: int) -> float:
    """Chu-Liu/Edmonds on column lists, contracting one cycle per level.

    Level k pays the cost of its cycle c_k; the total is summed
    innermost-first, c_0 + (c_1 + (... + tree)), the order of the recursive
    numpy reference.  Sums are explicit left-to-right loops, because
    ``sum`` over floats compensates its rounding from Python 3.12 on.
    """
    cycle_costs = []
    while True:
        n = len(cols)
        in_weight = [min(col) for col in cols]
        parent = [col.index(w) for col, w in zip(cols, in_weight)]
        # Walk parent pointers from each node in turn; state 1 marks the
        # current trail, 2 nodes already known to lead to the root.
        state = [0] * n
        state[root] = 2
        cycle = None
        for v in range(n):
            trail = []
            node = v
            while not state[node]:
                state[node] = 1
                trail.append(node)
                node = parent[node]
            if state[node] == 1:
                cycle = trail[trail.index(node):]
                break
            for t in trail:
                state[t] = 2
        if cycle is None:
            break
        cycle_cost = 0.0
        for v in cycle:
            cycle_cost += in_weight[v]
        cycle_costs.append(cycle_cost)
        in_cycle = set(cycle)
        rest = [v for v in range(n) if v not in in_cycle]
        # The contracted cycle becomes the last node.  Entering it at v
        # displaces the cycle's own arc into v.
        entering = [min(cols[v][x] - in_weight[v] for v in cycle) for x in rest] + [math.inf]
        cols = [[cols[x][u] for u in rest] + [min(cols[x][v] for v in cycle)] for x in rest]
        cols.append(entering)
        root = rest.index(root)
    total = 0.0
    for v in range(n):
        if v != root:
            total += in_weight[v]
    for cost in reversed(cycle_costs):
        total = cost + total
    return total


def solve_bnb(
    d,
    initial: SolveReport | None = None,
    frontier_cap: int = 1_000_000,
    on_expand: Callable[[tuple[int, ...], float, float], None] | None = None,
) -> SolveReport:
    """Exact best-first branch and bound over piece orders.

    Nodes are partial orders; a node's bound is its accumulated cost plus
    the minimum spanning arborescence over its endpoint and the unplaced
    pieces, rooted at the endpoint.  The frontier pops the smallest bound
    first (ties: deeper node, then lexicographically smaller prefix).  The
    root branches over every possible starting piece.

    A node is pruned when its bound exceeds the incumbent's cost, or
    equals it while its prefix sorts after the incumbent's prefix of the
    same length.  The bound never overshoots, so every completion of such
    a node costs at least the incumbent and is lexicographically larger:
    it can neither beat the incumbent nor win the tie-break against it.
    The incumbent only ever improves, so a node pruned against an earlier
    incumbent stays pruned against the final one.

    If the frontier outgrows ``frontier_cap`` entries the search degrades
    to depth-first under the same bound, which trades order of exploration
    for memory and cannot affect the returned optimum.

    ``on_expand`` (mainly for tests) sees (prefix, cost_so_far, bound) for
    every expanded internal node.
    """
    d = _validated(d)
    n = d.shape[0]
    rows = d.tolist()
    incumbent = initial if initial is not None else greedy_upper_bound(d)
    inc_order = tuple(incumbent.order)
    inc_cost = float(incumbent.cost)

    all_mask = (1 << n) - 1
    bound_cache: dict[tuple[int, int], float] = {}

    def lower_bound(endpoint: int, unplaced_mask: int) -> float:
        key = (endpoint, unplaced_mask)
        cached = bound_cache.get(key)
        if cached is None:
            nodes = [endpoint] + [j for j in range(n) if unplaced_mask >> j & 1]
            cached = min_arborescence_weight(rows, nodes, endpoint)
            bound_cache[key] = cached
        return cached

    def dominated(bound: float, prefix: tuple[int, ...]) -> bool:
        return bound > inc_cost or (bound == inc_cost and prefix > inc_order[: len(prefix)])

    # Heap entries: (bound, -depth, prefix, cost_so_far, unplaced_mask).
    frontier: list[tuple[float, int, tuple[int, ...], float, int]] = []
    expanded = 1  # the virtual root
    for start in range(n):
        mask = all_mask & ~(1 << start)
        bound = lower_bound(start, mask)
        if not dominated(bound, (start,)):
            heapq.heappush(frontier, (bound, -1, (start,), 0.0, mask))

    best_first = True
    while frontier:
        if best_first and len(frontier) > frontier_cap:
            # Memory guard: continue depth-first, best bounds on top.
            frontier.sort(key=lambda e: (e[0], e[1], e[2]), reverse=True)
            best_first = False
        if best_first:
            bound, neg_depth, prefix, cost, mask = heapq.heappop(frontier)
            if bound > inc_cost:
                break  # heap order: nothing better remains
            if dominated(bound, prefix):
                continue  # a tie that sorts late; later entries may still win
        else:
            bound, neg_depth, prefix, cost, mask = frontier.pop()
            if dominated(bound, prefix):
                continue
        expanded += 1
        if on_expand is not None:
            on_expand(prefix, cost, bound)
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
            child_bound = child_cost + lower_bound(j, child_mask)
            if dominated(child_bound, child_prefix):
                continue
            entry = (child_bound, -(depth + 1), child_prefix, child_cost, child_mask)
            if best_first:
                heapq.heappush(frontier, entry)
            else:
                frontier.append(entry)

    return SolveReport(inc_order, inc_cost, expanded)


def recover_key(arrangement: Sequence[int]) -> tuple[int, ...]:
    """Permutation key whose descramble reorders cipher segments into ``arrangement``.

    Descrambling sends input segment i to output slot key[i]; asking slot j
    to hold cipher segment arrangement[j] makes the key the inverse
    permutation of the arrangement.
    """
    n = len(arrangement)
    if sorted(arrangement) != list(range(n)):
        raise ValueError("arrangement must be a permutation")
    return invert_permutation(arrangement)
