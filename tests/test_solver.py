import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audiojigsaw import solver
from audiojigsaw.audio_io import AudioBuffer, synthesize_speechlike
from audiojigsaw.pipeline import AttackConfig, attack, frame_pieces
from audiojigsaw.puzzle import arrangement_cost, build_distance_matrix
from audiojigsaw.scrambler import ScramblerConfig
from audiojigsaw.solver import SolveReport, min_arborescence_weight, recover_key, solve_bnb
from references import solve_bruteforce

D3 = np.array(
    [
        [np.inf, 1.0, 5.0],
        [9.0, np.inf, 2.0],
        [4.0, 7.0, np.inf],
    ]
)


def _solve_capped(d, frontier_cap):
    """solve_bnb with the frontier capped at ``frontier_cap`` entries; a
    context, not the monkeypatch fixture, so it also runs under @given."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_FRONTIER_CAP", frontier_cap)
        return solve_bnb(d)


def _random_matrix(rng, n):
    d = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(d, np.inf)
    return d


def test_bruteforce_hand_instance():
    # costs: 012 -> 3, 021 -> 12, 102 -> 13, 120 -> 6, 201 -> 5, 210 -> 16
    report = solve_bruteforce(D3)
    assert report.order == (0, 1, 2)
    assert report.cost == 3.0
    assert report.nodes_expanded == 6


def test_bnb_hand_instance():
    report = solve_bnb(D3)
    assert report.order == (0, 1, 2)
    assert report.cost == 3.0
    assert report.nodes_expanded >= 1


def test_greedy_hand_instance():
    # chains: from 0: 0-1-2 cost 3; from 1: 1-2-0 cost 6; from 2: 2-0-1 cost 5
    assert solver._greedy_chain(D3.tolist()) == ((0, 1, 2), 3.0)


def test_arborescence_hand_instance():
    # rooted at 0 over all nodes: best arcs into 1 (cost 1, from 0) and
    # into 2 (cost 2, from 1) form a tree already, total 3
    assert min_arborescence_weight(D3, [0, 1, 2], 0) == 3.0
    # rooted at 2: into 0 min(d[1,0], d[2,0]) = 4, into 1 min(d[0,1], d[2,1]) = 1
    assert min_arborescence_weight(D3, [0, 1, 2], 2) == 5.0


def test_arborescence_resolves_two_cycle():
    """Cheap arcs 0->1 and 1->0 form a cycle that a greedy pick would keep;
    the contraction step must pay to break it."""
    d = np.array(
        [
            [np.inf, 1.0, 50.0],
            [1.0, np.inf, 50.0],
            [3.0, 20.0, np.inf],
        ]
    )
    # root 2: greedy in-arcs pick 1->0 and 0->1 (cycle). Best tree is
    # 2->0 (3) + 0->1 (1) = 4.
    assert min_arborescence_weight(d, [0, 1, 2], 2) == 4.0


def test_arborescence_lower_bounds_every_path():
    rng = np.random.Generator(np.random.PCG64(17))
    import itertools

    for _ in range(30):
        n = int(rng.integers(3, 7))
        d = _random_matrix(rng, n)
        for root in range(n):
            w = min_arborescence_weight(d, list(range(n)), root)
            best_path = min(
                sum(d[p[i], p[i + 1]] for i in range(n - 1))
                for p in itertools.permutations(range(n))
                if p[0] == root
            )
            assert w <= best_path + 1e-9


def _reference_min_arborescence_weight(d, nodes, root):
    """The numpy contraction the list version replaced, kept as its reference."""
    d = np.asarray(d, dtype=np.float64)
    nodes = list(nodes)
    if root not in nodes:
        raise ValueError("root must be among the nodes")
    if len(nodes) == 1:
        return 0.0
    sub = d[np.ix_(nodes, nodes)].copy()
    np.fill_diagonal(sub, np.inf)
    return _reference_contract_weight(sub, nodes.index(root))


def _reference_contract_weight(w, root):
    n = w.shape[0]
    if n == 1:
        return 0.0
    parent = np.argmin(w, axis=0)
    # Locate a cycle in the parent pointers, ignoring the root.
    cycle = None
    seen_global = {root}
    for v in range(n):
        trail = []
        node = v
        while node not in seen_global and node not in trail:
            trail.append(node)
            node = int(parent[node])
        if node in trail:
            cycle = trail[trail.index(node) :]
            break
        seen_global.update(trail)
    if cycle is None:
        return float(sum(w[int(parent[v]), v] for v in range(n) if v != root))

    cycle_set = set(cycle)
    cycle_cost = float(sum(w[int(parent[v]), v] for v in cycle))
    rest = [v for v in range(n) if v not in cycle_set]
    m = len(rest) + 1  # contracted node goes last
    w2 = np.full((m, m), np.inf)
    w2[: m - 1, : m - 1] = w[np.ix_(rest, rest)]
    for xi, x in enumerate(rest):
        # Entering the cycle at v displaces the cycle's own arc into v.
        w2[xi, m - 1] = min(w[x, v] - w[int(parent[v]), v] for v in cycle)
        w2[m - 1, xi] = min(w[v, x] for v in cycle)
    return cycle_cost + _reference_contract_weight(w2, rest.index(root))


def _same_weight(got, reference):
    """Bitwise equal, except where a node that no finite arc enters makes the
    reference compute inf - inf and return NaN: there the bound is +inf."""
    return got == reference or (math.isnan(reference) and got == math.inf)


@st.composite
def _bound_instances(draw):
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["uniform", "ties", "inf"]))
    if kind == "uniform":
        value = st.floats(0.0, 1.0)
    elif kind == "ties":
        value = st.integers(0, draw(st.integers(0, 3))).map(float)
    else:
        value = st.one_of(st.just(math.inf), st.integers(0, 3).map(float), st.floats(0.0, 1.0))
    d = np.array(draw(st.lists(value, min_size=n * n, max_size=n * n))).reshape(n, n)
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    root = draw(st.sampled_from(nodes))
    return d, nodes, root


@settings(max_examples=200, deadline=None)
@given(instance=_bound_instances())
def test_bound_matches_numpy_reference(instance):
    """The list contraction returns the numpy contraction's value bit for
    bit, from an array and from nested lists alike."""
    d, nodes, root = instance
    with np.errstate(invalid="ignore"):  # inf - inf on numpy scalars
        expected = _reference_min_arborescence_weight(d, nodes, root)
        from_array = min_arborescence_weight(d, nodes, root)
    from_lists = min_arborescence_weight(d.tolist(), nodes, root)
    assert type(from_array) is float and type(from_lists) is float
    assert _same_weight(from_array, expected)
    assert _same_weight(from_lists, expected)


def test_bound_matches_numpy_reference_on_planted_cycles():
    """Cheap arcs planted around random node groups make the contraction
    sum long cycles over several levels, where any change of operand order
    shows up in the last bits (about one case in ten for a rotated cycle)."""
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(500):
        n = int(rng.integers(4, 17))
        d = rng.uniform(0.1, 1.0, size=(n, n))
        perm = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 3)), replace=False))
        for group in np.split(perm, cuts):
            for a, b in zip(group, np.roll(group, -1)):
                if a != b:
                    d[a, b] = rng.uniform(0.0, 0.1)
        nodes = [int(v) for v in rng.permutation(n)]
        root = nodes[int(rng.integers(n))]
        expected = _reference_min_arborescence_weight(d, nodes, root)
        assert min_arborescence_weight(d.tolist(), nodes, root) == expected


def _infinite_arc_matrices(seed, count):
    """Small integer matrices with 35% of their arcs at +inf; many have no
    finite arrangement at all, or nodes that no finite arc enters."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(count):
        n = int(rng.integers(3, 7))
        d = rng.integers(0, 4, size=(n, n)).astype(np.float64)
        d[rng.uniform(size=(n, n)) < 0.35] = np.inf
        np.fill_diagonal(d, np.inf)
        yield d


def test_solvers_agree_when_arcs_are_infinite():
    """Exhaustive search, best-first and depth-first search return the same
    order and cost, +inf included (then the identity, the lexicographically
    first order); greedy returns a permutation at its own chain's cost, and
    no bound is NaN."""
    greedy_infinite = all_infinite = 0
    for d in _infinite_arc_matrices(404, 400):
        n = d.shape[0]
        exact = solve_bruteforce(d)
        for found in (solve_bnb(d), _solve_capped(d, 2)):
            assert (found.order, found.cost) == (exact.order, exact.cost)
        greedy_order, greedy_cost = solver._greedy_chain(d.tolist())
        assert sorted(greedy_order) == list(range(n))
        assert greedy_cost == arrangement_cost(d, greedy_order) >= exact.cost
        greedy_infinite += greedy_cost == math.inf
        if exact.cost == math.inf:
            all_infinite += 1
            assert exact.order == tuple(range(n))
        for root in range(n):
            assert not math.isnan(min_arborescence_weight(d, range(n), root))
    # both used to raise TypeError on an infinite chain or arrangement
    assert greedy_infinite > 20 and all_infinite > 5


def test_bound_is_infinite_when_a_node_has_no_finite_in_arc():
    # nothing finite enters node 0, which becomes its own parent: a cycle of
    # infinite cost, where the reference contraction computes inf - inf
    d = np.array([[np.inf, 1.0, 1.0], [np.inf, np.inf, 1.0], [np.inf, 1.0, np.inf]])
    with np.errstate(invalid="ignore"):
        assert math.isnan(_reference_min_arborescence_weight(d, [0, 1, 2], 2))
    assert min_arborescence_weight(d, [0, 1, 2], 2) == math.inf
    assert min_arborescence_weight(d.tolist(), [0, 1, 2], 2) == math.inf
    # the root itself may lack one: the tree 0 -> 1 -> 2 costs 2
    assert min_arborescence_weight(d, [0, 1, 2], 0) == 2.0


def test_bound_rejects_root_outside_nodes():
    with pytest.raises(ValueError, match="^root must be among the nodes$"):
        min_arborescence_weight(D3, [0, 1], 2)


def _seed7_frames(extend, n=8, count=6):
    x = synthesize_speechlike(count * n * 320 / 8000, seed=7).samples
    for frame in x[: count * n * 320].reshape(count, n, 320):
        yield build_distance_matrix(frame_pieces(frame, AttackConfig(use_estimation=extend)))


@pytest.mark.parametrize("extend", [False, True])
def test_search_matches_search_with_numpy_bound(extend, monkeypatch):
    """On quantized speech frames the search returns the same order, cost
    and node count as with the numpy bound, which it must reach through
    the module global (the tracer wraps that name), on the same children."""
    frames = list(_seed7_frames(extend))
    fast_calls, slow_calls = [], []

    def counted(d, nodes, root):
        fast_calls.append((root, tuple(nodes)))
        return min_arborescence_weight(d, nodes, root)

    def reference(d, nodes, root):
        slow_calls.append((root, tuple(nodes)))
        return _reference_min_arborescence_weight(d, nodes, root)

    monkeypatch.setattr(solver, "min_arborescence_weight", counted)
    fast = [solve_bnb(d) for d in frames]
    monkeypatch.setattr(solver, "min_arborescence_weight", reference)
    slow = [solve_bnb(d) for d in frames]
    # Only children whose cheapest in-arcs close a cycle reach the bound.
    assert slow_calls and slow_calls == fast_calls
    for got, want in zip(fast, slow):
        assert got.order == want.order
        assert got.cost == want.cost
        assert got.nodes_expanded == want.nodes_expanded


def _cheapest_in_arcs_close_a_cycle(d, nodes, root):
    """Whether the first-minimum in-arcs (``np.argmin``'s rule, in node
    order) of every node but the root form a cycle."""
    sub = d[np.ix_(nodes, nodes)]
    np.fill_diagonal(sub, np.inf)
    parent = np.argmin(sub, axis=0)
    r = nodes.index(root)
    for v in range(len(nodes)):
        for _ in range(len(nodes)):
            if v == r:
                break
            v = int(parent[v])
        else:
            return True
    return False


def _reference_solve_bnb(d, frontier_cap=1_000_000):
    """The search before the in-arc pre-filter: the full arborescence bound
    for every child, with the same rounding slack."""
    d = solver._validated(d)
    n = d.shape[0]
    rows = d.tolist()
    incumbent = _reference_greedy(d)
    inc_order, inc_cost = incumbent.order, incumbent.cost
    gamma = solver._rounding_slack(d)
    all_mask = (1 << n) - 1
    bound_cache = {}

    def lower_bound(endpoint, unplaced_mask):
        key = (endpoint, unplaced_mask)
        if key not in bound_cache:
            nodes = [endpoint] + [j for j in range(n) if unplaced_mask >> j & 1]
            bound_cache[key] = min_arborescence_weight(rows, nodes, endpoint)
        return bound_cache[key]

    def lowered(bound):
        return bound * (1.0 - gamma) if bound > 0 else bound * (1.0 + gamma)

    def dominated(bound, prefix):
        bound = lowered(bound)
        return bound > inc_cost or (bound == inc_cost and prefix > inc_order[: len(prefix)])

    frontier = []
    expanded = 1
    for start in range(n):
        mask = all_mask & ~(1 << start)
        bound = lower_bound(start, mask)
        if not dominated(bound, (start,)):
            heapq.heappush(frontier, (bound, -1, (start,), 0.0, mask))
    best_first = True
    while frontier:
        if best_first and len(frontier) > frontier_cap:
            frontier.sort(key=lambda e: (e[0], e[1], e[2]), reverse=True)
            best_first = False
        if best_first:
            bound, neg_depth, prefix, cost, mask = heapq.heappop(frontier)
            if lowered(bound) > inc_cost:
                break
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
                    inc_cost, inc_order = child_cost, child_prefix
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


def _reference_greedy(d):
    """Nearest-neighbor chains by a fresh minimum over the unplaced pieces."""
    n = d.shape[0]
    rows = d.tolist()
    best_order, best_cost = None, math.inf
    for start in range(n):
        order, cost = [start], 0.0
        remaining = set(range(n)) - {start}
        while remaining:
            here = rows[order[-1]]
            nxt = min(remaining, key=lambda j: (here[j], j))
            cost += here[nxt]
            order.append(nxt)
            remaining.remove(nxt)
        order = tuple(order)
        if best_order is None or cost < best_cost or (cost == best_cost and order < best_order):
            best_order, best_cost = order, cost
    return SolveReport(best_order, best_cost, n)


def _assert_same_search(d):
    """Same greedy chain, same search, the full bound called only where the
    cheapest in-arcs close a cycle, and every expanded node's bound equal
    to the full arborescence bound bit for bit, shortcut or not."""
    want = _reference_greedy(d)
    assert solver._greedy_chain(d.tolist()) == (want.order, want.cost)
    n = d.shape[0]

    def only_on_cycles(rows, nodes, root):
        assert _cheapest_in_arcs_close_a_cycle(d, nodes, root)
        return min_arborescence_weight(rows, nodes, root)

    for frontier_cap in (1_000_000, 2):
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "min_arborescence_weight", only_on_cycles)
            patch.setattr(solver, "_FRONTIER_CAP", frontier_cap)
            got = solve_bnb(d, on_expand=lambda *node: seen.append(node))
        for prefix, cost, bound in seen:
            nodes = [prefix[-1]] + [j for j in range(n) if j not in prefix]
            assert bound == cost + _reference_min_arborescence_weight(d, nodes, prefix[-1])
        want = _reference_solve_bnb(d, frontier_cap=frontier_cap)
        assert (got.order, got.cost, got.nodes_expanded) == (want.order, want.cost, want.nodes_expanded)


@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("n, count", [(8, 6), (12, 3), (16, 2)])
def test_search_matches_full_bound_search_on_speech(n, count, extend):
    """The in-arc pre-filter and the acyclic shortcut change nothing: the
    same orders, costs and node counts as computing the full bound for
    every child, and the same greedy chains as a fresh minimum per step."""
    for d in _seed7_frames(extend, n, count):
        _assert_same_search(d)


def _integer_tie_matrices(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(count):
        n = int(rng.integers(2, 9))
        d = rng.integers(0, int(rng.integers(1, 4)) + 1, size=(n, n)).astype(np.float64)
        np.fill_diagonal(d, np.inf)
        yield d


@pytest.mark.parametrize(
    "name, matrices",
    [
        ("tie-heavy integers", lambda: _integer_tie_matrices(606, 300)),
        ("+inf arcs", lambda: _infinite_arc_matrices(404, 300)),
        ("all zero", lambda: (_all_ties(n, 0.0) for n in (2, 5, 8, 12))),
    ],
)
def test_search_matches_full_bound_search_on_degenerate_matrices(name, matrices):
    for d in matrices():
        _assert_same_search(d)


def test_bnb_matches_bruteforce_small():
    rng = np.random.Generator(np.random.PCG64(100))
    for _ in range(40):
        n = int(rng.integers(2, 8))
        d = _random_matrix(rng, n)
        exact = solve_bruteforce(d)
        found = solve_bnb(d)
        assert found.order == exact.order
        assert abs(found.cost - exact.cost) < 1e-9


def test_bnb_breaks_ties_lexicographically():
    # every arrangement of a constant matrix costs the same
    d = np.full((4, 4), 2.0)
    np.fill_diagonal(d, np.inf)
    assert solve_bnb(d).order == (0, 1, 2, 3)
    assert solve_bruteforce(d).order == (0, 1, 2, 3)


def test_bnb_depth_first_fallback_still_exact():
    rng = np.random.Generator(np.random.PCG64(55))
    for _ in range(5):
        d = _random_matrix(rng, 7)
        capped = _solve_capped(d, 2)
        assert capped.order == solve_bruteforce(d).order


def _all_ties(n, value):
    d = np.full((n, n), value)
    np.fill_diagonal(d, np.inf)
    return d


@pytest.mark.parametrize("d", [_all_ties(n, 0.0) for n in (8, 10, 12, 16)] + [_all_ties(9, 2.5)])
def test_all_tied_matrix_takes_one_branch(d):
    """A silent frame's matrix ties every arrangement; the tie-break prunes
    all but the identity's branch (69,281 nodes at N=8 without it)."""
    n = d.shape[0]
    report = solve_bnb(d)
    assert report.order == tuple(range(n))
    assert report.cost == d[0, 1] * (n - 1)
    assert report.nodes_expanded <= 2 * n


def test_attack_orders_a_silent_frame_as_identity():
    geom = ScramblerConfig(frame_size=16)
    cipher = AudioBuffer(np.zeros(geom.frame_samples), geom.sample_rate)
    _, results = attack(cipher, AttackConfig(scrambler=geom))
    assert results[0].arrangement == tuple(range(16))
    assert results[0].solve_nodes <= 32


@st.composite
def _tied_matrices(draw):
    n = draw(st.integers(2, 7))
    top = draw(st.integers(0, 3))
    values = draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n))
    d = np.array(values, dtype=np.float64).reshape(n, n)
    np.fill_diagonal(d, np.inf)
    return d


# Greedy seeds the incumbent (0, 2, 1) at cost 1; (0, 1, 2) ties it and
# sorts first, so the branch sharing the incumbent's prefix must stay open.
_GREEDY_LOSES_TIE = np.array([[np.inf, 1.0, 0.0], [3.0, np.inf, 0.0], [3.0, 1.0, np.inf]])


@settings(max_examples=300, deadline=None)
@given(d=_tied_matrices(), frontier_cap=st.sampled_from([1_000_000, 2]))
@example(d=_GREEDY_LOSES_TIE, frontier_cap=1_000_000)
@example(d=_GREEDY_LOSES_TIE, frontier_cap=2)
def test_tie_pruning_matches_bruteforce(d, frontier_cap):
    """Small-integer matrices are full of equal-cost arrangements; pruning
    tied branches must still return the oracle's lexicographic winner,
    best-first and in the depth-first fallback."""
    exact = solve_bruteforce(d)
    found = _solve_capped(d, frontier_cap)
    assert found.order == exact.order
    assert found.cost == exact.cost


_POOL = [math.sqrt(k / 7) for k in range(1, 8)] + [0.1, 0.2, 0.3, 0.7]


@st.composite
def _pooled_matrices(draw):
    n = draw(st.integers(4, 7))
    values = draw(st.lists(st.sampled_from(_POOL), min_size=n * n, max_size=n * n))
    d = np.array(values).reshape(n, n)
    np.fill_diagonal(d, np.inf)
    return d


# Without the rounding slack the search returns (2, 1, 0, 3): its bound
# rounds one ulp above the cost of (1, 0, 2, 3), which ties it.
_ROUNDING_TIE = np.array([_POOL[i] for i in (0, 2, 0, 8, 9, 0, 1, 0, 3, 0, 0, 8, 4, 6, 2, 0)])
_ROUNDING_TIE = _ROUNDING_TIE.reshape(4, 4) + np.diag([np.inf] * 4)


@settings(max_examples=300, deadline=None)
@given(d=_pooled_matrices(), frontier_cap=st.sampled_from([1_000_000, 2]))
@example(d=_ROUNDING_TIE, frontier_cap=1_000_000)
def test_search_is_exact_on_real_valued_ties(d, frontier_cap):
    """Arcs drawn from a few irrational and decimal values tie arrangements
    whose sums round differently in different orders; the search must still
    return the left-to-right oracle's order and cost."""
    exact = solve_bruteforce(d)
    found = _solve_capped(d, frontier_cap)
    assert (found.order, found.cost) == (exact.order, exact.cost)


def test_rounding_slack_is_zero_only_where_sums_are_exact():
    assert solver._rounding_slack(_all_ties(8, 0.0)) == 0.0
    assert solver._rounding_slack(_all_ties(9, 2.5)) == 0.0
    assert solver._rounding_slack(D3) == 0.0
    assert solver._rounding_slack(-D3) == 0.0
    assert solver._rounding_slack(np.full((4, 4), 2.0**50)) == 0.0
    # 4 * 2**51 is not below 2**53, so sums of such arcs may round
    assert solver._rounding_slack(np.full((4, 4), 2.0**51)) == 16 * 2.0**-53
    assert solver._rounding_slack(_ROUNDING_TIE) == 16 * 2.0**-53
    for d in _seed7_frames(False, count=1):
        assert solver._rounding_slack(d) == 32 * 2.0**-53


def test_search_is_exact_on_negative_and_mixed_real_valued_ties():
    """Lowering a negative bound means scaling it by 1 + gamma; scaling it by
    1 - gamma raises it and prunes optima (85 of 1,500 negative matrices)."""
    rng = np.random.Generator(np.random.PCG64(5))
    negative = [-x for x in _POOL]
    for pool in (negative, _POOL + negative):
        for _ in range(300):
            n = int(rng.integers(4, 8))
            d = rng.choice(pool, size=(n, n))
            np.fill_diagonal(d, np.inf)
            exact = solve_bruteforce(d)
            found = solve_bnb(d)
            assert (found.order, found.cost) == (exact.order, exact.cost)


def test_bruteforce_sums_left_to_right():
    """From 9 pieces numpy's row sums stop adding left to right; the oracle
    must add seam by seam like the search, or it picks (5, 0, 1, 6, 7, 4,
    8, 2, 3), whose left-to-right cost is one ulp above the optimum."""
    d = np.random.Generator(np.random.PCG64(0)).choice(_POOL, size=(9, 9))
    np.fill_diagonal(d, np.inf)
    exact = solve_bruteforce(d)
    assert exact.order == (7, 4, 5, 0, 1, 6, 8, 2, 3)
    assert exact.cost == arrangement_cost(d, exact.order)
    found = solve_bnb(d)
    assert (found.order, found.cost) == (exact.order, exact.cost)


def test_solver_rejects_degenerate_input():
    with pytest.raises(ValueError):
        solve_bnb(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        solve_bnb(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve_bruteforce(_random_matrix(np.random.default_rng(0), 11))


@pytest.mark.parametrize("solve", [solve_bnb, solve_bruteforce])
def test_solver_rejects_nan(solve):
    d = D3.copy()
    d[1, 2] = np.nan
    with pytest.raises(ValueError, match="^distance matrix must not contain NaN$"):
        solve(d)


def test_on_expand_reports_admissible_bounds():
    rng = np.random.Generator(np.random.PCG64(77))
    d = _random_matrix(rng, 6)
    exact = solve_bruteforce(d).cost
    seen = []
    solve_bnb(d, on_expand=lambda prefix, cost, bound: seen.append((prefix, cost, bound)))
    assert seen
    for prefix, cost, bound in seen:
        assert bound <= exact + 1e-9 or len(prefix) == 6


def test_recover_key_hand_case():
    # arrangement (1, 3, 0, 2): cipher piece 1 is the true first segment.
    # The key that scrambles clear audio into that cipher is (2, 0, 3, 1).
    assert recover_key((1, 3, 0, 2)) == (2, 0, 3, 1)
    assert recover_key((0, 1, 2)) == (0, 1, 2)


def test_recover_key_round_trip():
    """Scrambling with the recovered key reproduces the cipher order."""
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(30):
        n = int(rng.integers(2, 10))
        key = tuple(int(v) for v in rng.permutation(n))
        clear = list(range(n))
        cipher = [clear[k] for k in key]  # scrambled segment i = clear[key[i]]
        arrangement = tuple(cipher.index(s) for s in clear)  # solver's truth
        assert recover_key(arrangement) == key


def test_solve_report_is_frozen():
    report = SolveReport((0, 1), 1.0, 3)
    with pytest.raises(AttributeError):
        report.cost = 2.0
