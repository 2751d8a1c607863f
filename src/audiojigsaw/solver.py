"""Exact minimum-cost open-path search over puzzle pieces.

Reassembling one frame is an open-path traveling-salesman problem on the
directed seam-distance matrix: find the order of all pieces whose summed
consecutive distances is smallest.  Frames are small (usually 8 to 16
pieces), so the problem is solved exactly with best-first branch and
bound.  The upper bound comes from nearest-neighbor chains, the lower
bound from minimum spanning arborescences, which relax a Hamiltonian path
into any spanning out-tree and can therefore never overshoot.

The arborescence is computed only where nothing cheaper decides.  Its
first step, every unplaced piece's cheapest in-arc, is itself a lower
bound, so a child whose in-arc sum already prunes never pays for the
contraction.  When those in-arcs form a tree, their sum *is* the
arborescence weight, term for term and in the same order, so the
contraction runs only for children whose cheapest in-arcs close a cycle.
Orders, costs and node counts are those of a search that computes the
full bound for every child.

Cost ties between arrangements are broken toward the lexicographically
smallest order, in the search and in the exhaustive oracle in the tests,
so their results are directly comparable.  The search also uses that tie-break to
prune: a partial order whose bound equals the incumbent's cost, and whose
prefix sorts after the incumbent's prefix of the same length, can only
complete into arrangements that cost at least as much and sort later, so
none of them can win.  Silent frames, whose matrices are all ties, then
take one branch instead of every one.

A path's cost is summed left to right, the bound in contraction order, so
in floating point a bound can exceed the cost of a path it bounds by a few
units in the last place.  Every bound is therefore lowered by a relative
slack gamma before it is compared with a cost (see :func:`_rounding_slack`);
matrices whose sums are all exact, such as silent frames, need no slack.

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
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .scrambler import invert_permutation

# Frontier entries past which the best-first search continues depth-first.
_FRONTIER_CAP = 1_000_000


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
    return d


def _greedy_chain(rows: list[list[float]]) -> tuple[tuple[int, ...], float]:
    """Best nearest-neighbor chain over all starting pieces, as (order, cost).

    Not optimal, but never worse than the chain from any single start;
    used to seed the branch-and-bound incumbent.  Each step takes the
    cheapest arc to an unplaced piece, ties to the lower index; every row's
    targets are ranked that way once, so a step walks its row's ranking
    past the placed pieces only.
    """
    n = len(rows)
    ranked = [[j for _, j in sorted(zip(row, range(n)))] for row in rows]
    best_order = None
    best_cost = math.inf
    for start in range(n):
        order = [start]
        cost = 0.0
        placed = 1 << start
        for _ in range(n - 1):
            here = order[-1]
            for nxt in ranked[here]:
                if not placed >> nxt & 1:
                    break
            cost += rows[here][nxt]
            order.append(nxt)
            placed |= 1 << nxt
        order = tuple(order)
        if best_order is None or cost < best_cost or (cost == best_cost and order < best_order):
            best_cost = cost
            best_order = order
    return best_order, best_cost


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


def _rounding_slack(d: np.ndarray) -> float:
    """Relative slack gamma by which the search lowers a bound before comparing it with a cost.

    In exact arithmetic a node's bound B never exceeds the cost C of any
    completion; the rounded values can disagree.  Let u = 2**-53 be the
    unit roundoff.  Any order of summing m non-negative terms errs by at
    most (m - 1)u relative to the exact sum, to first order (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 4).
    The search sums C left to right over n - 1 arcs, so the rounded C is at
    least C(1 - (n - 2)u).  The bound sums the prefix arcs and the
    contraction's terms, at most 2n - 3 non-negative terms (an in-arc per
    node and level plus a cost per cycle), so the sum order adds at most
    (2n - 4)u.  Its terms at deeper levels are rounded differences of
    arcs, at most n - 2 of them per arc (one per level), each off by at
    most u of a non-negative result no larger than the arc, adding at most
    (n - 2)u.  So the rounded B is at most B(1 + (3n - 6)u), and with
    gamma = 4nu the lowered bound B(1 - gamma) never exceeds the rounded
    cost of a path it bounds, with 8u to spare for the second-order terms.
    The argument is for non-negative arcs, as seam distances are; a
    negative bound is scaled by 1 + gamma instead, so the slack always
    lowers it.

    No slack is needed where every sum is exact: when each finite entry is
    an integer multiple of 2**(p - 53), where n times the largest entry is
    below 2**p, every sum and difference either side forms is an integer
    number of those units below 2**53.  Silent frames (all zeros), constant
    and small-integer matrices qualify, get gamma = 0, and keep the
    tie-break prune of a bound that equals the incumbent.
    """
    n = d.shape[0]
    finite = np.abs(d[np.isfinite(d)])
    top = n * float(finite.max(initial=0.0))
    if top < 2.0**53:
        units = np.ldexp(finite, 53 - math.frexp(top)[1])
        if np.array_equal(units, np.floor(units)):
            return 0.0
    return 4 * n * 2.0**-53


def solve_bnb(
    d, on_expand: Callable[[tuple[int, ...], float, float], None] | None = None
) -> SolveReport:
    """Exact best-first branch and bound over piece orders.

    Nodes are partial orders; a node's bound is its accumulated cost plus
    the minimum spanning arborescence over its endpoint and the unplaced
    pieces, rooted at the endpoint.  The frontier pops the smallest bound
    first (ties: deeper node, then lexicographically smaller prefix).  The
    root branches over every possible starting piece, and the incumbent
    starts as the best nearest-neighbor chain (:func:`_greedy_chain`).

    A node is pruned when its bound exceeds the incumbent's cost, or
    equals it while its prefix sorts after the incumbent's prefix of the
    same length.  The bound never overshoots, so every completion of such
    a node costs at least the incumbent and is lexicographically larger:
    it can neither beat the incumbent nor win the tie-break against it.
    The incumbent only ever improves, so a node pruned against an earlier
    incumbent stays pruned against the final one.  Bounds are lowered by
    :func:`_rounding_slack` before every comparison, so rounding cannot
    make a bound overshoot either.

    Each node is first tested on the cheapest in-arc of every unplaced
    piece: the first step of Chu-Liu/Edmonds, with parents picked by
    ``np.argmin``'s first-minimum rule in the bound's node order (endpoint,
    then unplaced pieces ascending) and summed from 0.0 in that order.  The
    sum never exceeds the arborescence weight, so a node it prunes the full
    bound prunes too; when the parents form no cycle it equals that weight
    bit for bit, and :func:`min_arborescence_weight` runs only for nodes
    whose cheapest in-arcs close a cycle.  Each column's sources are ranked
    once per solve, so finding a cheapest in-arc rarely scans.

    If the frontier outgrows ``_FRONTIER_CAP`` entries the search degrades
    to depth-first under the same bound, which trades order of exploration
    for memory and cannot affect the returned optimum.

    ``on_expand`` (mainly for tests) sees (prefix, cost_so_far, bound) for
    every expanded internal node.
    """
    d = _validated(d)
    n = d.shape[0]
    rows = d.tolist()
    inc_order, inc_cost = _greedy_chain(rows)
    gamma = _rounding_slack(d)

    all_mask = (1 << n) - 1
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

    def lowered(bound: float) -> float:
        return bound * (1.0 - gamma) if bound > 0 else bound * (1.0 + gamma)

    def dominated(bound: float, prefix: tuple[int, ...]) -> bool:
        bound = lowered(bound)
        return bound > inc_cost or (bound == inc_cost and prefix > inc_order[: len(prefix)])

    def open_bound(cost: float, prefix: tuple[int, ...], unplaced_mask: int) -> float | None:
        """The node's bound, or None when it is pruned."""
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

    # Heap entries: (bound, -depth, prefix, cost_so_far, unplaced_mask).
    frontier: list[tuple[float, int, tuple[int, ...], float, int]] = []
    expanded = 1  # the virtual root
    for start in range(n):
        mask = all_mask & ~(1 << start)
        bound = open_bound(0.0, (start,), mask)
        if bound is not None:
            heapq.heappush(frontier, (bound, -1, (start,), 0.0, mask))

    best_first = True
    while frontier:
        if best_first and len(frontier) > _FRONTIER_CAP:
            # Memory guard: continue depth-first, best bounds on top.
            frontier.sort(key=lambda e: (e[0], e[1], e[2]), reverse=True)
            best_first = False
        if best_first:
            bound, neg_depth, prefix, cost, mask = heapq.heappop(frontier)
            if lowered(bound) > inc_cost:
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
            child_bound = open_bound(child_cost, child_prefix, child_mask)
            if child_bound is None:
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
