"""Exact minimum-cost open-path search over puzzle pieces.

Reassembling one frame is an open-path traveling-salesman problem on the
directed seam-distance matrix: find the order of all pieces whose summed
consecutive distances is smallest.  Frames are small (usually 8 to 16
pieces), so the problem is solved exactly.  How depends on the frame's
size alone.

Up to ``_TABLE_MAX_PIECES`` = 12 pieces a Held-Karp table
(:func:`_completion_table`) holds the cheapest completion of every
(endpoint, unplaced set) state, n * 2**(n - 1) of them, built by numpy in
one pass per set size.  The order is read straight off it: the first
piece is the lowest one whose completion is least, and each next piece
the lowest one whose arc plus completion keeps that cost.  A branch and
bound with the table as its bound could only walk down that path, so this
is its order, cost and node count (n), without its search.  Solve times
in ms (total / median / worst frame) on plain ``puzzle`` speech frames
from synth seeds 7 and 11, each frame solved three times per method in
rotation, on a shared 2-core host:

    ==  ======  ==================  ==================
    n   frames  arborescence        table readout
    ==  ======  ==================  ==================
    8   62      31.6 / 0.35 / 1.9   6.2 / 0.10 / 0.15
    10  50      75.0 / 0.98 / 19    12.6 / 0.25 / 0.33
    12  40      158 / 1.8 / 36      44.3 / 1.1 / 1.3
    13  38      237 / 3.3 / 49      153 / 3.8 / 5.4
    14  34      315 / 4.8 / 71      367 / 10.8 / 12.4
    ==  ======  ==================  ==================

The table grows as 2**n, so from 13 pieces it raises the median frame
(``BENCH_23.json`` holds these runs, ``BENCH_13.json`` the runs that set
the cap).  Above 12 pieces the order is found by depth-first branch and
bound, whose stack holds at most n(n + 1)/2 nodes (Zhang & Korf,
*Artificial Intelligence* 79, 1995).  Its incumbent starts as the best
nearest-neighbor chain, and its lower bound is the minimum spanning
arborescence, which relaxes a Hamiltonian path into any spanning out-tree
and can therefore never overshoot.

The arborescence is computed only where nothing cheaper decides.  Its
first step, every unplaced piece's cheapest in-arc, is itself a lower
bound, so a child whose in-arc sum already prunes never pays for the
contraction.  When those in-arcs form a tree, their sum *is* the
arborescence weight, term for term and in the same order, so the
contraction runs only for children whose cheapest in-arcs close a cycle.
Orders, costs and node counts are those of a search that computes the
full arborescence bound for every child.

Cost ties between arrangements are broken toward the lexicographically
smallest order, in the table readout, in the search and in the
exhaustive oracle in the tests, so their results are directly
comparable.  The search also uses that tie-break to prune: a partial
order whose bound equals the incumbent's cost, and whose prefix sorts
after the incumbent's prefix of the same length, can only complete into
arrangements that cost at least as much and sort later, so none of them
can win.  Silent frames, whose matrices are all ties, then take one
branch instead of every one.

A path's cost is summed left to right and a bound or a table entry in
another order, so in floating point a bound could overshoot a path it
bounds, or split a tie.  Both ways therefore run on the matrix rounded
onto a grid where every sum they form is exact (:func:`_on_grid`);
seam-distance matrices are on it already.  The order returned is the
rounded matrix's optimum, and its cost is summed on the caller's matrix.

The readout, the search and its bounds run on plain Python floats: the
matrix is converted once per solve with ``tolist()``, and table entries
are read in place with ``ndarray.item``.  At 16 pieces or fewer every
step touches a handful of numbers, so numpy's per-call overhead would
cost more than the arithmetic.  Both are exact, and the arborescence
bound keeps the tie rules and operand order of a numpy contraction (the
reference in the tests), so orders, costs, node counts and bound values
are bit-identical to a search that runs on numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .puzzle import arrangement_cost


# Frames of at most this many pieces are read off the exact completion table.
_TABLE_MAX_PIECES = 12


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one frame solve."""

    order: tuple[int, ...]
    cost: float
    nodes_expanded: int


def _validated(d) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if d.shape[0] < 2:
        raise ValueError("need at least 2 pieces")
    if np.isnan(d).any():
        raise ValueError("distance matrix must not contain NaN")
    if np.isneginf(d).any():
        raise ValueError("distance matrix must not contain -inf")
    return d


def _greedy_chain(rows: list[list[float]]) -> tuple[tuple[int, ...], float]:
    """Best nearest-neighbor chain over all starting pieces, as (order, cost).

    Not optimal, but never worse than the chain from any single start; it
    seeds the incumbent of the searches above ``_TABLE_MAX_PIECES`` pieces.
    Each step takes the cheapest arc to an unplaced piece, ties to the lower
    index.
    """
    n = len(rows)
    chains = []
    for start in range(n):
        order, cost = [start], 0.0
        unplaced = [j for j in range(n) if j != start]
        while unplaced:
            here = rows[order[-1]]
            nxt = min(unplaced, key=here.__getitem__)
            cost += here[nxt]
            order.append(nxt)
            unplaced.remove(nxt)
        chains.append((cost, tuple(order)))
    # The cheapest chain, ties to the lexicographically smaller order.
    cost, order = min(chains)
    return order, cost


def min_arborescence_weight(d, nodes: Iterable[int], root: int) -> float:
    """Weight of the lightest spanning out-tree of ``nodes`` rooted at ``root``.

    Chu-Liu/Edmonds by repeated cycle contraction, weight only (the tree
    itself is never needed).  Any path from the root visiting every node is
    itself a spanning out-tree, so this weight is an admissible bound for
    open-path completion costs.

    ``d`` is anything indexable as ``d[u][v]``: an array or nested lists of
    floats that are finite or +inf.  The weight is +inf when some non-root
    node has no finite incoming arc.  The contraction runs on plain Python
    lists, because at 16 nodes or fewer numpy's per-call overhead costs more
    than the arithmetic.  It is bit-identical to the numpy contraction in
    the tests: each parent is the first minimum of its column (the tie
    rule of ``np.argmin``), the cycle found is the first one in node order,
    in the same rotation, and every sum and minimum takes its operands in
    the same order.  Only where that contraction computes inf - inf and
    returns NaN does this one stop early with +inf.

    :func:`solve_bnb` calls it through the module global, which perfbench's
    tracer and the reference tests rebind, so it keeps this name and signature.
    """
    nodes = list(nodes)
    if root not in nodes:
        raise ValueError("root must be among the nodes")
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
        state = [0] * n
        state[root] = 2
        cycle = _first_cycle(parent, state)
        if cycle is None:
            break
        cycle_cost = 0.0
        for v in cycle:
            cycle_cost += in_weight[v]
        if cycle_cost == math.inf:
            # A node of the cycle has no finite in-arc, so no spanning tree
            # is finite; contracting on would compute inf - inf.
            return math.inf
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


def _first_cycle(parent: list[int], state: list[int]) -> list[int] | None:
    """The first cycle met walking parent pointers from each node in turn, or None.

    ``state`` holds 2 for nodes known to lead to the root and 0 for the rest;
    the walk marks its trail 1, then 2 once the trail reaches the root.  The
    cycle starts at the node where its trail closed.
    """
    for v in range(len(parent)):
        trail = []
        node = v
        while not state[node]:
            state[node] = 1
            trail.append(node)
            node = parent[node]
        if state[node] == 1:
            return trail[trail.index(node):]
        for t in trail:
            state[t] = 2
    return None


@functools.cache
def _table_layers(n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Index arrays of the completion table's layers |S| = 1 .. n - 1 for n pieces.

    Per layer: its m sets S, ascending; ``k`` (s, m), the s pieces of each
    set, ascending; ``source`` (s, m), the flat index (S - k)*n + k of
    H[S - k][k] in the (2**n, n) table.  Built at first use and kept per n,
    never at import.
    """
    sets = np.arange(1 << n)
    members = (sets[:, None] >> np.arange(n) & 1).astype(bool)
    sizes = members.sum(axis=1)
    layers = []
    for s in range(1, n):
        layer = sets[sizes == s]
        k = np.nonzero(members[sizes == s])[1].reshape(-1, s).T
        layers.append((layer, k, (layer - (1 << k)) * n + k))
    return layers


def _completion_table(d: np.ndarray) -> np.ndarray:
    """Cheapest completion of every search state, as a (2**n, n) array (Held-Karp).

    Entry [S, j], for a set S of pieces and a piece j outside it, is
    H[S][j]: the cheapest path from j through every piece of S, its arcs
    summed right to left, so H[S][j] = min over k in S of fl(d[j][k] +
    H[S - k][k]), and H[{}][j] = 0 (Held & Karp, *J. SIAM* 1962; Bellman,
    *JACM* 1962).  Rounding is monotonic, so each entry is the minimum of
    the right-to-left sums over all orders of S.  Layer |S| = s is one
    gather of d's columns, one add and one minimum over all of its states.
    It writes every column of its rows: the entries with j in S hold sums
    that are no completion, and they and the full set's row (left at 0)
    are never read.  ``d`` must hold no NaN or -inf.
    """
    n = d.shape[0]
    table = np.zeros((1 << n, n))
    flat = table.reshape(-1)
    for layer, k, source in _table_layers(n):
        table[layer] = (d.T[k] + flat[source][..., None]).min(axis=0)
    return table


def _on_grid(d: np.ndarray) -> np.ndarray:
    """``d`` with each finite entry rounded to the nearest multiple of u = 2**(p - 53), 2**p > 4n max|d|.

    A path, a prefix with its table entry and a greedy chain each add at
    most n - 1 entries; the arborescence adds at most 2n entries or reduced
    arcs, which lie in [0, 2 max|d|].  On the grid each such sum is an
    integer number of units u below 2**53, exact in float64 in any order.
    +inf stays +inf; seam distances (multiples of 2**-32 up to 255) stay put
    up to 2,055 pieces.  A matrix whose 4n max|d| overflows is refused.
    """
    n = d.shape[0]
    headroom = 4 * n * float(np.abs(d[d < math.inf]).max(initial=0.0))
    if headroom == math.inf:
        raise ValueError("distance matrix entries are too large: their sums overflow")
    p = math.frexp(headroom)[1]
    return np.ldexp(np.round(np.ldexp(d, 53 - p)), p - 53)


def _arborescence_bound(
    rows: list[list[float]], dominated: Callable[[float, tuple[int, ...]], bool]
) -> Callable[[float, tuple[int, ...], int], float | None]:
    """The search's bound for frames above ``_TABLE_MAX_PIECES`` pieces.

    Returns ``open_bound(cost, prefix, unplaced_mask)``: the node's cost
    plus the arborescence weight over its endpoint and unplaced pieces, or
    None when ``dominated`` prunes it (see :func:`solve_bnb`).

    Each node is first tested on the cheapest in-arc of every unplaced
    piece: the first step of Chu-Liu/Edmonds, with parents picked by
    ``np.argmin``'s first-minimum rule in the bound's node order (endpoint,
    then unplaced pieces ascending) and summed from 0.0 in that order.  The
    sum never exceeds the arborescence weight, so a node it prunes the full
    bound prunes too; when the parents form no cycle it equals that weight
    bit for bit, and :func:`min_arborescence_weight` runs only for nodes
    whose cheapest in-arcs close a cycle.  Each column's sources are ranked
    once per solve, so finding a cheapest in-arc rarely scans.
    """
    n = len(rows)
    # in_ranked[v]: the other pieces, cheapest arc into v first, ties to the lower index.
    in_ranked = [[u for _, u in sorted((rows[u][v], u) for u in range(n) if u != v)] for v in range(n)]
    # (endpoint, unplaced_mask) -> (lower bound on the arborescence weight, whether it is that weight)
    bound_cache: dict[tuple[int, int], tuple[float, bool]] = {}

    def cheapest_in_arcs(endpoint: int, unplaced_mask: int) -> tuple[float, bool]:
        """Sum of the unplaced pieces' cheapest in-arcs, and whether those arcs form a tree."""
        sources = unplaced_mask | 1 << endpoint
        from_endpoint = rows[endpoint]
        total = 0.0
        parent = [endpoint] * n
        # Placed pieces and the endpoint lead to the root; only unplaced pieces are walked.
        state = [2] * n
        for v in range(n):
            if not unplaced_mask >> v & 1:
                continue
            state[v] = 0
            for u in in_ranked[v]:
                if sources >> u & 1:
                    break
            weight = rows[u][v]
            # The endpoint heads the node order, so it wins a tie.
            parent[v] = endpoint if from_endpoint[v] == weight else u
            total += weight
        return total, _first_cycle(parent, state) is None

    def open_bound(cost: float, prefix: tuple[int, ...], unplaced_mask: int) -> float | None:
        endpoint = prefix[-1]
        key = (endpoint, unplaced_mask)
        cached = bound_cache.get(key)
        if cached is None:
            cached = bound_cache[key] = cheapest_in_arcs(endpoint, unplaced_mask)
        weight, exact = cached
        if not exact and not dominated(cost + weight, prefix):
            nodes = [endpoint] + [j for j in range(n) if unplaced_mask >> j & 1]
            weight = min_arborescence_weight(rows, nodes, endpoint)
            bound_cache[key] = (weight, True)
        bound = cost + weight
        return None if dominated(bound, prefix) else bound

    return open_bound


def solve_bnb(
    d, on_expand: Callable[[tuple[int, ...], float, float], None] | None = None
) -> SolveReport:
    """Exact minimum-cost order of the pieces, and the nodes its search expands.

    Everything runs on ``d`` rounded by :func:`_on_grid`, where every sum
    is exact; the cost returned is the order's left-to-right sum on ``d``
    itself (:func:`~audiojigsaw.puzzle.arrangement_cost`).  Nodes are
    partial orders; a node's bound is its accumulated cost plus a lower
    bound on completing it from its endpoint through the unplaced pieces.

    Up to ``_TABLE_MAX_PIECES`` = 12 pieces that bound is exact: the
    table entry of :func:`_completion_table`.  A search on it would pop,
    from the virtual root and then from each node, the lowest child whose
    bound is the optimum, and prune every other node against the order
    that path completes.  So the order is read off the table instead, one
    piece at a time, and the node count is that search's n (the order's
    n - 1 prefixes and the root).  When the optimum is +inf, every bound
    is +inf and the identity, the first of the tied orders, is read.

    Larger frames are searched depth-first, bounded by the minimum
    spanning arborescence over the endpoint and the unplaced pieces,
    rooted at the endpoint (the module docstring holds the solve times
    behind the cap).  The search starts from a virtual root whose children
    are the starting pieces, and the incumbent starts as the best
    nearest-neighbor chain (:func:`_greedy_chain`).  An expanded node's
    surviving children go on a stack so that the smallest bound pops first
    (ties: the lower piece).  A node at depth k leaves at most n - k
    children there, so the stack never holds more than n(n + 1)/2 nodes.

    A node is pruned when its bound exceeds the incumbent's cost, or
    equals it while its prefix sorts after the incumbent's prefix of the
    same length.  The bound never overshoots, so every completion of such
    a node costs at least the incumbent and is lexicographically larger:
    it can neither beat the incumbent nor win the tie-break against it.
    The incumbent only ever improves, so a node pruned against an earlier
    incumbent stays pruned against the final one.  A node is tested again
    when it pops, since the incumbent may have improved after it was
    pushed.  The arborescence bound runs the contraction only where a
    cheaper test cannot decide (:func:`_arborescence_bound`).

    ``on_expand`` (mainly for tests) sees (prefix, cost_so_far, bound) for
    every expanded internal node; up to 12 pieces, for the order's
    prefixes, each with the optimum as its bound.
    """
    d = _validated(d)
    grid = _on_grid(d)
    n = d.shape[0]
    rows = grid.tolist()
    if n <= _TABLE_MAX_PIECES:
        table = _completion_table(grid)
        mask = (1 << n) - 1
        least = min(table.item(mask ^ 1 << j, j) for j in range(n))
        prefix, cost, here = (), 0.0, [0.0] * n
        while mask:
            # The child the search pops first: the lowest whose bound is the optimum.
            for j in range(n):
                if mask >> j & 1 and cost + here[j] + table.item(mask ^ 1 << j, j) == least:
                    break
            prefix += (j,)
            cost += here[j]
            mask ^= 1 << j
            here = rows[j]
            if on_expand is not None and mask:
                on_expand(prefix, cost, least)
        return SolveReport(prefix, arrangement_cost(d, prefix), n)
    inc_order, inc_cost = _greedy_chain(rows)

    def dominated(bound: float, prefix: tuple[int, ...]) -> bool:
        return bound > inc_cost or (bound == inc_cost and prefix > inc_order[: len(prefix)])

    open_bound = _arborescence_bound(rows, dominated)

    # Stack entries: (bound, prefix, cost_so_far, unplaced_mask).  The virtual
    # root, whose bound prunes nothing, has the starting pieces as children,
    # each reached at no cost.
    stack: list[tuple[float, tuple[int, ...], float, int]] = [(-math.inf, (), 0.0, (1 << n) - 1)]
    expanded = 0
    while stack:
        bound, prefix, cost, mask = stack.pop()
        if dominated(bound, prefix):
            continue  # the incumbent improved since this node was pushed
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
                    inc_cost = child_cost
                    inc_order = child_prefix
                continue
            child_mask = mask & ~(1 << j)
            child_bound = open_bound(child_cost, child_prefix, child_mask)
            if child_bound is not None:
                children.append((child_bound, child_prefix, child_cost, child_mask))
        # Cheapest bound on top, ties to the lower piece; prefixes never tie.
        children.sort(reverse=True)
        stack.extend(children)

    return SolveReport(inc_order, arrangement_cost(d, inc_order), expanded)

