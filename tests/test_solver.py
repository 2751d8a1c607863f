import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audiojigsaw import solver
from audiojigsaw.audio_io import AudioBuffer, add_awgn, synthesize_speechlike
from audiojigsaw.pipeline import AttackConfig, attack, frame_pieces
from audiojigsaw.puzzle import arrangement_cost, build_distance_matrix
from audiojigsaw.scrambler import ScramblerConfig, _split_frames, make_key_schedule, scramble
from audiojigsaw.solver import SolveReport, min_arborescence_weight, solve_bnb
from references import (
    completion_table_by_enumeration,
    completion_table_flat,
    solve_bnb_best_first,
    solve_bnb_table_search,
    solve_bruteforce,
)

D3 = np.array(
    [
        [np.inf, 1.0, 5.0],
        [9.0, np.inf, 2.0],
        [4.0, 7.0, np.inf],
    ]
)


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
    """Exhaustive search and the search return the same order and cost, +inf
    included (then the identity, the lexicographically first order); greedy
    returns a permutation at its own chain's cost, and no bound is NaN."""
    greedy_infinite = all_infinite = 0
    for d in _infinite_arc_matrices(404, 400):
        n = d.shape[0]
        exact = solve_bruteforce(d)
        found = solve_bnb(d)
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
    """On quantized speech frames the arborescence search (the table's cap
    patched below N=8) returns the same order, cost and node count as with
    the numpy bound, which it must reach through the module global (the
    tracer wraps that name), on the same children."""
    monkeypatch.setattr(solver, "_TABLE_MAX_PIECES", 1)
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


def _reference_solve_bnb(d):
    """The search before the in-arc pre-filter: the full arborescence bound
    for every child, on the same grid and in the same depth-first order."""
    d = solver._validated(d)
    grid = solver._on_grid(d)
    n = d.shape[0]
    rows = grid.tolist()
    incumbent = _reference_greedy(grid)
    inc_order, inc_cost = incumbent.order, incumbent.cost
    bound_cache = {}

    def lower_bound(endpoint, unplaced_mask):
        key = (endpoint, unplaced_mask)
        if key not in bound_cache:
            nodes = [endpoint] + [j for j in range(n) if unplaced_mask >> j & 1]
            bound_cache[key] = min_arborescence_weight(rows, nodes, endpoint)
        return bound_cache[key]

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
            child_bound = child_cost + lower_bound(j, child_mask)
            if not dominated(child_bound, child_prefix):
                children.append((child_bound, child_prefix, child_cost, child_mask))
        stack.extend(sorted(children, reverse=True))
    return SolveReport(inc_order, arrangement_cost(d, inc_order), expanded)


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
    """Same greedy chain as a fresh minimum per step.  On the arborescence
    path (the table's cap patched below n), the same search as the full
    bound: that bound called only where the cheapest in-arcs close a cycle,
    every expanded node's bound equal to it bit for bit, shortcut or not,
    and the same node counts.  On the table path, the same order and cost
    as the full-bound search, as the best-first search it replaced and, up
    to 8 pieces, as exhaustive search; up to 12 pieces, where the exact
    table bounds both, the same node counts as best-first."""
    want = _reference_greedy(d)
    assert solver._greedy_chain(d.tolist()) == (want.order, want.cost)
    n = d.shape[0]

    def only_on_cycles(rows, nodes, root):
        assert _cheapest_in_arcs_close_a_cycle(d, nodes, root)
        return min_arborescence_weight(rows, nodes, root)

    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "min_arborescence_weight", only_on_cycles)
        patch.setattr(solver, "_TABLE_MAX_PIECES", 1)
        got = solve_bnb(d, on_expand=lambda *node: seen.append(node))
    grid = solver._on_grid(d)
    for prefix, cost, bound in seen:
        nodes = [prefix[-1]] + [j for j in range(n) if j not in prefix]
        assert bound == cost + _reference_min_arborescence_weight(grid, nodes, prefix[-1])
    want = _reference_solve_bnb(d)
    assert (got.order, got.cost, got.nodes_expanded) == (want.order, want.cost, want.nodes_expanded)
    tabled = solve_bnb(d)
    assert (tabled.order, tabled.cost) == (want.order, want.cost)
    best_first = solve_bnb_best_first(d)
    assert (tabled.order, tabled.cost) == (best_first.order, best_first.cost)
    if n <= solver._TABLE_MAX_PIECES:
        assert tabled.nodes_expanded == best_first.nodes_expanded
        _assert_readout_is_the_search(d)
    if n <= 8:
        exact = solve_bruteforce(d)
        assert (tabled.order, tabled.cost) == (exact.order, exact.cost)


def _assert_readout_is_the_search(d):
    """Up to 12 pieces the order read off the table is the table-bounded
    search's: the same order, cost and node count (n), and ``on_expand``
    sees the same nodes in the same order, bit for bit."""
    seen, searched = [], []
    got = solve_bnb(d, on_expand=lambda *node: seen.append(node))
    want = solve_bnb_table_search(d, on_expand=lambda *node: searched.append(node))
    assert got == want
    assert got.nodes_expanded == d.shape[0]
    assert seen == searched


@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("n, count", [(8, 6), (12, 3), (13, 3), (16, 2)])
def test_search_matches_full_bound_search_on_speech(n, count, extend):
    """The in-arc pre-filter and the acyclic shortcut change nothing: the
    same orders, costs and node counts as computing the full bound for
    every child, and the same greedy chains as a fresh minimum per step.
    The completion table changes node counts only, and depth-first order
    changes them only above the table's 12 pieces: orders and costs are
    those of the best-first search it replaced."""
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
        ("all tied", lambda: (_all_ties(n, value) for n, value in ((9, 2.5), (16, 0.0), (16, 2.5)))),
    ],
)
def test_search_matches_full_bound_search_on_degenerate_matrices(name, matrices):
    for d in matrices():
        _assert_same_search(d)


@st.composite
def _table_matrices(draw):
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["uniform", "ties", "inf", "mixed sign"]))
    if kind == "uniform":
        value = st.floats(0.0, 1.0)
    elif kind == "ties":
        value = st.integers(0, draw(st.integers(0, 3))).map(float)
    elif kind == "inf":
        value = st.one_of(st.just(math.inf), st.integers(0, 3).map(float), st.floats(0.0, 1.0))
    else:
        value = st.one_of(st.just(math.inf), st.sampled_from(_POOL + [-x for x in _POOL]))
    d = np.array(draw(st.lists(value, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        np.fill_diagonal(d, np.inf)
    return d


@settings(max_examples=120, deadline=None)
@given(d=_table_matrices())
def test_completion_table_matches_enumeration(d):
    """Every entry the search can read, H[S][j] for j outside S, is the
    cheapest right-to-left sum over the orders of S, bit for bit, and the
    flat table's entry."""
    n = d.shape[0]
    table = solver._completion_table(d)
    assert table.shape == (1 << n, n) and table.dtype == np.float64
    for (members, j), want in completion_table_by_enumeration(d).items():
        assert table[members, j] == want, (members, j)
    _assert_table_matches_flat_reference(d)


def _assert_table_matches_flat_reference(d):
    """Every entry the search can read, [S, j] for j outside S, has the bits
    of the flat table's entry S*n + j."""
    n = d.shape[0]
    readable = ~(np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    got = solver._completion_table(d)[readable]
    want = np.array(completion_table_flat(d)).reshape(-1, n)[readable]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _speech_frames(n, synth, snr_db, extend):
    """Distance matrices of every frame of 10 s of speech scrambled with key
    seed synth + 1000, with channel noise at ``snr_db`` unless it is None."""
    geom = ScramblerConfig(frame_size=n)
    plain = synthesize_speechlike(10.0, seed=synth)
    cipher = scramble(plain, geom, make_key_schedule(synth + 1000, geom.frame_count(len(plain)), n))
    if snr_db is not None:
        cipher = add_awgn(cipher, snr_db, synth)
    frames, _ = _split_frames(cipher, geom)
    return build_distance_matrix(frame_pieces(frames, AttackConfig(geom, use_estimation=extend)))


@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("synth, snr_db", [(7, None), (1, 20.0)])
@pytest.mark.parametrize("n", [8, 10, 12])
def test_completion_table_matches_flat_reference_on_speech(n, synth, snr_db, extend):
    for d in _speech_frames(n, synth, snr_db, extend):
        _assert_table_matches_flat_reference(d)


def test_completion_table_hand_instance():
    # the cheapest path from j through both other pieces: 0-1-2 costs 3,
    # 1-2-0 costs 6 and 2-0-1 costs 5 (test_bruteforce_hand_instance)
    table = solver._completion_table(D3)
    assert [table[0b110, 0], table[0b101, 1], table[0b011, 2]] == [3.0, 6.0, 5.0]
    assert [table[0b010, 0], table[0b100, 1], table[0b001, 2]] == [1.0, 2.0, 4.0]
    assert table[0].tolist() == [0.0, 0.0, 0.0]


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


def test_table_bounds_frames_of_up_to_12_pieces_and_the_arborescence_larger_ones(monkeypatch):
    """The bound is chosen by the frame's size alone: no N=12 speech frame
    reaches the contraction, and N=13 frames do."""
    calls = []

    def counted(d, nodes, root):
        calls.append(len(nodes))
        return min_arborescence_weight(d, nodes, root)

    monkeypatch.setattr(solver, "min_arborescence_weight", counted)
    for d in _seed7_frames(False, 12, 3):
        solve_bnb(d)
    assert calls == []
    for d in _seed7_frames(False, 13, 3):
        solve_bnb(d)
    assert calls and max(calls) <= 13


class _NodeBudgetSpent(Exception):
    pass


@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("n", [8, 9, 12])
@pytest.mark.parametrize("hz", [250.0, 260.0, 440.0])
def test_stationary_tone_takes_one_node_per_piece(hz, n, extend):
    """A tone's pieces are (near-)identical, so its arrangements tie in
    exact arithmetic.  Snapped to 2**-32, the distances sum exactly, the
    tie-prune fires and the search expands N nodes; unsnapped, a 250 Hz
    tone took 69,281 nodes at N=8 and did not finish at N=9 or 12, so the
    search is stopped after 10 N nodes."""
    geom = ScramblerConfig(frame_size=n)
    t = np.arange(geom.frame_samples) / geom.sample_rate
    plain = AudioBuffer(0.5 * np.sin(2 * np.pi * hz * t), geom.sample_rate)
    frames, _ = _split_frames(scramble(plain, geom, make_key_schedule(5, 1, n)), geom)
    d = build_distance_matrix(frame_pieces(frames[0], AttackConfig(geom, use_estimation=extend)))
    assert np.array_equal(solver._on_grid(d), d)
    expanded = []

    def budget(*node):
        expanded.append(node)
        if len(expanded) > 10 * n:
            raise _NodeBudgetSpent

    assert solve_bnb(d, on_expand=budget).nodes_expanded == n


def test_attack_orders_a_silent_frame_as_identity():
    geom = ScramblerConfig(frame_size=16)
    cipher = AudioBuffer(np.zeros(geom.frame_samples), geom.sample_rate)
    _, results = attack(cipher, AttackConfig(scrambler=geom))
    assert results[0].arrangement == tuple(range(16))
    assert results[0].solve_nodes <= 32


def _assert_exact(d):
    """The search returns the exhaustive oracle's order on the matrix rounded
    onto the search's grid, at its left-to-right cost on ``d``, and so did
    the best-first search it replaced, with the same node count."""
    exact = solve_bruteforce(solver._on_grid(d))
    found = solve_bnb(d)
    assert found.order == exact.order
    assert found.cost == arrangement_cost(d, found.order)
    assert solve_bnb_best_first(d) == found


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
@given(d=_tied_matrices())
@example(d=_GREEDY_LOSES_TIE)
def test_tie_pruning_matches_bruteforce(d):
    """Small-integer matrices are full of equal-cost arrangements; pruning
    tied branches must still return the oracle's lexicographic winner, as
    the best-first search did."""
    _assert_exact(d)


_POOL = [math.sqrt(k / 7) for k in range(1, 8)] + [0.1, 0.2, 0.3, 0.7]


@st.composite
def _pooled_matrices(draw):
    n = draw(st.integers(4, 7))
    values = draw(st.lists(st.sampled_from(_POOL), min_size=n * n, max_size=n * n))
    d = np.array(values).reshape(n, n)
    np.fill_diagonal(d, np.inf)
    return d


# (1, 0, 2, 3) and (2, 1, 0, 3) tie left to right, and summed right to left
# the bound on (2, 1, 0, 3) rounds one ulp above that cost; on the grid
# every sum is exact and the tie-break picks (1, 0, 2, 3).
_ROUNDING_TIE = np.array([_POOL[i] for i in (0, 2, 0, 8, 9, 0, 1, 0, 3, 0, 0, 8, 4, 6, 2, 0)])
_ROUNDING_TIE = _ROUNDING_TIE.reshape(4, 4) + np.diag([np.inf] * 4)


@settings(max_examples=300, deadline=None)
@given(d=_pooled_matrices())
@example(d=_ROUNDING_TIE)
def test_search_is_exact_on_real_valued_ties(d):
    """Arcs drawn from a few irrational and decimal values tie arrangements
    whose sums round differently in different orders; on the grid they sum
    exactly, and the search must return the oracle's order there."""
    _assert_exact(d)


# Every order costs +inf, but from piece 1 the rest has a finite cheapest
# completion, 1-3-2: a walk that follows the table there returns (0, 1, 3, 2),
# while every solver returns the identity, the first of the tied orders.
_INFINITE_BUT_FINITE_FROM_ONE = np.array(
    [[np.inf] * 4, [np.inf, np.inf, 5.0, 1.0], [np.inf, 1.0, np.inf, 5.0], [np.inf, 5.0, 1.0, np.inf]]
)


@st.composite
def _readout_matrices(draw):
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["uniform", "small integers", "negated", "pool", "+inf-heavy", "all +inf"]))
    if kind == "uniform":
        value = st.floats(0.0, 1.0)
    elif kind == "small integers":
        value = st.integers(0, draw(st.integers(0, 3))).map(float)
    elif kind == "negated":
        value = st.one_of(st.floats(-1.0, 0.0), st.sampled_from([-x for x in _POOL]))
    elif kind == "pool":
        value = st.sampled_from(_POOL)
    elif kind == "+inf-heavy":
        value = st.one_of(st.just(math.inf), st.integers(0, 3).map(float))
    else:
        value = st.just(math.inf)
    d = np.array(draw(st.lists(value, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(d, np.inf)
    return d


@settings(max_examples=200, deadline=None)
@given(d=_readout_matrices())
@example(d=_INFINITE_BUT_FINITE_FROM_ONE)
@example(d=_GREEDY_LOSES_TIE)
@example(d=_ROUNDING_TIE)
def test_table_readout_is_the_search_it_replaced(d):
    _assert_readout_is_the_search(d)


def test_table_readout_runs_no_greedy_and_no_search(monkeypatch):
    """Up to 12 pieces nothing seeds an incumbent and no bound but the table
    is built; the identity wins the all-+inf matrix."""

    def refuse(*args):
        raise AssertionError("called at 12 pieces or fewer")

    monkeypatch.setattr(solver, "_greedy_chain", refuse)
    monkeypatch.setattr(solver, "_arborescence_bound", refuse)
    rng = np.random.Generator(np.random.PCG64(23))
    for n in range(2, 13):
        assert solve_bnb(_random_matrix(rng, n)).nodes_expanded == n
        infinite = solve_bnb(_all_ties(n, math.inf))
        assert (infinite.order, infinite.cost, infinite.nodes_expanded) == (tuple(range(n)), math.inf, n)


def _grid_unit(d):
    """The grid's unit u = 2**(p - 53), for the least p with 2**p > 4n max|d|."""
    top = 4 * d.shape[0] * np.abs(d[np.isfinite(d)]).max()
    return 2.0 ** (math.frexp(top)[1] - 53)


def test_grid_keeps_matrices_whose_sums_are_exact():
    negated = np.where(np.isfinite(D3), -D3, np.inf)
    for d in (_all_ties(8, 0.0), _all_ties(9, 2.5), D3, negated, np.full((4, 4), 2.0**51)):
        assert np.array_equal(solver._on_grid(d), d)
    # seam distances are snapped to multiples of 2**-32, so their sums are
    # exact; a third of them is off the grid, and so are irrational arcs
    (seam,) = _seed7_frames(False, count=1)
    assert np.array_equal(solver._on_grid(seam), seam)
    for d in (seam / 3, _ROUNDING_TIE):
        grid = solver._on_grid(d)
        u = _grid_unit(d)
        finite = np.isfinite(d)
        assert np.array_equal(np.isfinite(grid), finite)
        assert not np.array_equal(grid, d)
        assert np.abs(grid[finite] - d[finite]).max() <= u / 2
        assert np.array_equal(grid[finite] / u, np.round(grid[finite] / u))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 40),
    top=st.integers(0, 255 * 2**32),
    inf_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
@example(n=40, top=255 * 2**32, inf_share=0.0, seed=0)
def test_grid_keeps_seam_distance_matrices(n, top, inf_share, seed):
    """Multiples of 2**-32 in [0, 255], as ``build_distance_matrix`` makes
    them, with +inf entries anywhere, are on the grid of every frame size
    up to 40 pieces, so the attack's orders, costs and node counts do not
    move."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d = rng.integers(0, top, size=(n, n), endpoint=True) / 2**32
    d[rng.uniform(size=(n, n)) < inf_share] = np.inf
    d[0, -1] = top / 2**32
    assert np.array_equal(solver._on_grid(d), d)


@pytest.mark.parametrize("n", [*range(8, 13), 13, 16])
def test_constant_real_matrix_takes_one_node_per_piece(n):
    """0.1 is off every binary grid, so its sums round differently in
    different orders.  On the search's grid they are exact: up to 12 pieces
    the table's optimum is the identity's cost, and above it the tie-prune
    leaves one branch (69,281 nodes at N=8 with a rounding slack in its
    place)."""
    report = solve_bnb(_all_ties(n, 0.1))
    assert report.order == tuple(range(n))
    assert report.cost == arrangement_cost(_all_ties(n, 0.1), report.order)
    assert report.nodes_expanded == n


def test_solver_refuses_a_matrix_whose_sums_overflow():
    """Finite entries whose 4n max|d| overflows leave no exact grid; such a
    matrix used to be solved at cost +inf, with an overflow warning."""
    with pytest.raises(ValueError, match="^distance matrix entries are too large: their sums overflow$"):
        solve_bnb(_all_ties(4, 1e308))


def _wide_matrices(n, seed, count):
    """Pool, negated-pool, mixed, tie-heavy integer and +inf-heavy matrices."""
    rng = np.random.Generator(np.random.PCG64(seed))
    negative = [-x for x in _POOL]
    for _ in range(count):
        for values in (_POOL, negative, _POOL + negative, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, math.inf]):
            d = rng.choice(values, size=(n, n))
            np.fill_diagonal(d, np.inf)
            yield d


@pytest.mark.parametrize("n", [13, 14])
def test_arborescence_search_matches_table_search_on_the_grid(n):
    """Above 12 pieces the arborescence bound sums up to 2n terms on the
    grid, reduced arcs included; its orders are those of the exact table
    search of the same rounded matrix, with the table's cap raised."""
    for d in _wide_matrices(n, n, 2):
        found = solve_bnb(d)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_TABLE_MAX_PIECES", 16)
            tabled = solve_bnb(d)
        assert (found.order, found.cost) == (tabled.order, tabled.cost)
        assert found.cost == arrangement_cost(d, found.order)


def test_search_is_exact_on_negative_and_mixed_real_valued_ties():
    """The grid's headroom counts negative entries by their magnitude, so
    the search is exact on negative and mixed-sign matrices too."""
    rng = np.random.Generator(np.random.PCG64(5))
    negative = [-x for x in _POOL]
    for pool in (negative, _POOL + negative):
        for _ in range(300):
            n = int(rng.integers(4, 8))
            d = rng.choice(pool, size=(n, n))
            np.fill_diagonal(d, np.inf)
            exact = solve_bruteforce(solver._on_grid(d))
            found = solve_bnb(d)
            assert found.order == exact.order
            assert found.cost == arrangement_cost(d, found.order)


def test_bruteforce_sums_left_to_right():
    """From 9 pieces numpy's row sums stop adding left to right; the oracle
    must add seam by seam like the search, or it picks (5, 0, 1, 6, 7, 4,
    8, 2, 3), whose left-to-right cost is one ulp above the optimum.  On the
    search's grid the two orders tie exactly, and the tie-break picks that
    one."""
    d = np.random.Generator(np.random.PCG64(0)).choice(_POOL, size=(9, 9))
    np.fill_diagonal(d, np.inf)
    exact = solve_bruteforce(d)
    assert exact.order == (7, 4, 5, 0, 1, 6, 8, 2, 3)
    assert exact.cost == arrangement_cost(d, exact.order)
    grid = solver._on_grid(d)
    on_grid = solve_bruteforce(grid)
    assert on_grid.order == (5, 0, 1, 6, 7, 4, 8, 2, 3)
    assert on_grid.cost == arrangement_cost(grid, exact.order)
    found = solve_bnb(d)
    assert found.order == on_grid.order
    assert found.cost == arrangement_cost(d, found.order)


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


@pytest.mark.parametrize("solve", [solve_bnb, solve_bruteforce])
def test_solver_rejects_negative_infinity(solve):
    # seam distances are never -inf, and in the completion table a -inf arc
    # added to a +inf partial sum would give NaN
    d = D3.copy()
    d[0, 2] = d[2, 1] = np.inf
    d[1, 0] = -np.inf
    with pytest.raises(ValueError, match="^distance matrix must not contain -inf$"):
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


def test_solve_report_is_frozen():
    report = SolveReport((0, 1), 1.0, 3)
    with pytest.raises(AttributeError):
        report.cost = 2.0
