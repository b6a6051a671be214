from dataclasses import replace

import numpy as np
import pytest

from wronski import poly, tracker
from wronski.combinat import ballot_sequences, catalan
from wronski.errors import ChartDegenerate, PathStuck
from wronski.seeds import apply_F, initial_pair
from wronski.tracker import Chart, PairClass


def test_solve_all_d2_closed_form():
    classes = tracker.solve_all([-1.0, 1.0], 2)
    assert len(classes) == 1
    pc = classes[0]
    assert poly.span_equivalent((pc.q1, pc.q2),
                                ([0.0, 1.0], [1.0, 0.0, 1.0]), tol=1e-8)


def test_solve_all_counts_and_reality():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        pts = np.sort(rng.uniform(-4, 4, 2 * d - 2))
        classes = tracker.solve_all(pts, d)
        assert len(classes) == catalan(d)
        for pc in classes:
            assert pc.q1.dtype == pc.q2.dtype == np.float64
            got = np.sort(pc.wronskian_roots().real)
            assert np.abs(got - pts).max() <= 1e-8 * (1 + np.abs(pts).max())


def test_solve_all_classes_pairwise_distinct():
    pts = np.array([-3.0, -1.0, 0.5, 2.0])
    classes = tracker.solve_all(pts, 3)
    assert not poly.span_equivalent((classes[0].q1, classes[0].q2),
                                    (classes[1].q1, classes[1].q2), tol=1e-6)


def test_solve_all_validates_input():
    with pytest.raises(ValueError):
        tracker.solve_all([-1.0, 0.0, 1.0], 3)  # wrong count
    with pytest.raises(ValueError):
        tracker.solve_all([-1.0, -1.0, 0.0, 1.0], 3)  # duplicates


def test_to_chart_renormalizes_span():
    f1 = np.array([0.0, 1.0])
    f2 = np.array([1.0, 0.0, 1.0])
    g1, g2 = tracker.to_chart(f1, f2, Chart(base_point=2.0, d=2))
    assert abs(np.polyval(g2[::-1], 2.0)) < 1e-10
    assert poly.span_equivalent((g1, g2), (f1, f2), tol=1e-8)


def test_to_chart_degenerate_base():
    # No combination of {z, z^2+1} that stays monic of degree 2 kills z0=0:
    # the span forces q2(0) = 1.
    f1 = np.array([0.0, 1.0])
    f2 = np.array([1.0, 0.0, 1.0])
    with pytest.raises(ChartDegenerate):
        tracker.to_chart(f1, f2, Chart(base_point=0.0, d=2))


def test_newton_polish_restores_accuracy():
    pts = np.array([-2.0, -1.0, 1.0, 2.0])
    pc = tracker.solve_all(pts, 3)[0]
    noisy = PairClass(q1=pc.q1 + 1e-6, q2=pc.q2, chart=pc.chart,
                      ballot=pc.ballot)
    polished, = tracker.newton_polish([noisy], pts)
    got = np.sort(polished.wronskian_roots().real)
    assert np.abs(got - pts).max() < 1e-10


def _charting_fails(monkeypatch, fails):
    """Make to_chart raise ChartDegenerate where fails(word, base) holds.
    Words are numbered by their first call, at base 0 in word order.
    Returns the (word, base) of every call."""
    to_chart, words, calls = tracker.to_chart, {}, []

    def failing(f1, f2, chart):
        word = words.setdefault(f1.tobytes(), len(words))
        calls.append((word, chart.base_point))
        if fails(word, chart.base_point):
            raise ChartDegenerate("no chart here")
        return to_chart(f1, f2, chart)

    monkeypatch.setattr(tracker, "to_chart", failing)
    return calls


POLISH_POINTS = np.array([-2.7, -1.6, -0.45, 0.6, 1.4, 2.8])


def test_polish_falls_back_to_the_next_base(monkeypatch):
    _charting_fails(monkeypatch, lambda word, z0: word == 1 and z0 == 0.0)
    classes = tracker.solve_all(POLISH_POINTS, 4)
    assert [pc.chart.base_point for pc in classes] == [0.0, 0.0625, 0.0,
                                                       0.0, 0.0]
    got = np.sort(classes[1].wronskian_roots().real)
    assert np.abs(got - POLISH_POINTS).max() < 1e-8


def test_polish_stuck_names_the_first_word_and_stops(monkeypatch):
    # Words 2 to 4 fail at base 0, and word 2 at every base: the error
    # names word 2, and words 3 and 4 never reach a second base.
    words = ballot_sequences(4)
    calls = _charting_fails(
        monkeypatch, lambda word, z0: word == 2 or (word > 2 and z0 == 0.0))
    with pytest.raises(PathStuck, match=repr(words[2])):
        tracker.solve_all(POLISH_POINTS, 4)
    assert {word for word, z0 in calls if z0 != 0.0} == {2}


def test_build_branch_staged_roots():
    mapped = np.array([-0.9, -0.6, -0.3, -0.1])
    for sigma in ballot_sequences(3):
        pc = tracker.build_branch(sigma, mapped, 3)
        got = np.sort(pc.wronskian_roots().real)
        assert np.abs(got - mapped).max() < 1e-9
        assert pc.chart.base_point == 0.0


def _uniform_points(rng, n):
    return -5.0 + 10.0 * (np.arange(n) + rng.uniform(0.15, 0.85, n)) / n


@pytest.mark.parametrize("d, e", [(4, 3), (5, 4), (5, 2)])
def test_solve_branch_matches_solve_all(d, e):
    # build_branch is the one-word trie: every word gets the class that the
    # lockstep build of all words gives it.
    pts = _uniform_points(np.random.default_rng(d + 10 * e), d + e - 1)
    classes = tracker.solve_all(pts, d, e)
    assert [pc.ballot for pc in classes] == ballot_sequences(d, e)
    for pc in classes:
        alone = tracker.solve_branch(pc.ballot, pts, d)
        assert alone.chart == pc.chart
        for a, b in ((alone.q1, pc.q1), (alone.q2, pc.q2)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("d, e, nodes", [(4, 3, 21), (5, 4, 63), (5, 2, 39)])
def test_one_birth_per_trie_node(monkeypatch, d, e, nodes):
    words = ballot_sequences(d, e)
    prefixes = {w[:m] for w in words for m in range(1, len(w) + 1)}
    assert len(prefixes) == nodes
    births = []

    def counted(i, a, pair):
        births.append(a)
        return apply_F(i, a, pair)

    monkeypatch.setattr(tracker, "apply_F", counted)
    tracker.solve_all(_uniform_points(np.random.default_rng(1), d + e - 1),
                      d, e)
    assert births == [0.0] * nodes


def _first_stage_stack(n):
    """A lockstep stack of n copies of the first stage of d = 3."""
    mapped = np.array([-0.9, -0.6, -0.3, -0.1])
    born = apply_F(1, 0.0, initial_pair(3))
    chart = Chart(base_point=0.0, d=3, k1=born.k1, k2=born.k2)
    u = tracker._pack(born.q1, born.q2, chart)
    return tracker._Lockstep(np.tile(u, (n, 1)),
                             np.tile(chart.unknowns(), (n, 1)), 3, 2, 0.0,
                             np.zeros((n, 1)), mapped[:1], 0.0, np.inf,
                             tracker.RESIDUAL_TOL)


def test_lockstep_first_stage_takes_few_ticks():
    # Accepted steps double from DT_INIT with no cap: 0.1, 0.2, 0.4, 0.3.
    lock = _first_stage_stack(1)
    ticks = 0
    while lock.node.size:
        lock.tick()
        ticks += 1
    assert ticks <= 5
    assert not lock.stuck[0]


def test_lockstep_singular_node_halves_only_its_own_step(monkeypatch):
    alone, _ = _first_stage_stack(1).run()
    lock = _first_stage_stack(3)
    rows = tracker._stacked_rows

    def singular_start(*args):
        # The start correction accepts every node, and node 1 keeps a
        # singular predictor system.
        r, dr, J, floor = rows(*args)
        J[1] = 0.0
        monkeypatch.setattr(tracker, "_stacked_rows", rows)
        return r, dr, J, floor

    monkeypatch.setattr(tracker, "_stacked_rows", singular_start)
    lock.tick()
    assert list(lock.dt) == [2 * tracker.DT_INIT, tracker.DT_INIT,
                             2 * tracker.DT_INIT]
    assert list(lock.fresh) == [True, False, True]
    final, stuck = lock.run()
    assert list(stuck) == [False, True, False]
    assert np.array_equal(final[[0, 2]], np.tile(alone[0], (2, 1)))


def test_lockstep_newton_miss_halves_the_step_and_retries_from_u():
    alone, _ = _first_stage_stack(1).run()
    lock = _first_stage_stack(1)
    lock.tick()                     # the start is accepted, u at t = 0
    u, step = lock.u.copy(), lock.step[0]
    # No row converges: every fresh iterate takes a Newton step, until
    # MAX_NEWTON of them have missed.
    cap, lock.cap = lock.cap, np.full_like(lock.cap, -1.0)
    lock.tol = -1.0
    for it in range(1, tracker.MAX_NEWTON + 1):
        lock.tick()
        assert lock.it[0] == it and lock.coef[0] == -1.0
    lock.tick()
    assert lock.t[0] == 0.0 and np.array_equal(lock.u, u)
    assert lock.step[0] == lock.dt[0] == step / 2
    assert np.array_equal(lock.base, u) and lock.coef[0] == step / 2
    lock.cap, lock.tol = cap, tracker.RESIDUAL_TOL
    final, stuck = lock.run()
    assert not stuck[0]
    assert np.allclose(final, alone, rtol=1e-8, atol=0.0)


def test_lockstep_node_stuck_in_newton_leaves_the_stack():
    alone, _ = _first_stage_stack(1).run()
    lock = _first_stage_stack(3)
    lock.tick()                     # every predictor lands
    assert lock.fresh.all()
    lock.v[1] += 1.0                # node 1 misses its last Newton step
    lock.it[1] = tracker.MAX_NEWTON
    lock.ticks[1] = tracker.MAX_TICKS - 1   # in its last tick
    lock.tick()
    assert list(lock.node) == [0, 2]
    final, stuck = lock.run()
    assert list(stuck) == [False, True, False]
    assert np.array_equal(final[[0, 2]], np.tile(alone[0], (2, 1)))


def test_lockstep_node_that_never_converges_stops_at_the_tick_budget():
    lock = _first_stage_stack(1)
    lock.tick()                     # the start is accepted
    lock.tol, lock.cap = -1.0, np.full_like(lock.cap, -1.0)
    for _ in range(tracker.MAX_TICKS - 2):
        lock.tick()
    assert list(lock.node) == [0] and lock.step[0] > 0.0
    lock.tick()
    assert lock.node.size == 0 and lock.stuck[0]


def _packed_left(rng):
    """d = 5: three pairs 1e-4 to 1e-3 apart crowded 0.05 to 0.3 apart at
    the left end of [-5, 5], and one pair at the far right."""
    centres = np.append(-5.0 + np.cumsum([0.0, *rng.uniform(0.05, 0.3, 2)]),
                        rng.uniform(3.0, 5.0))
    gaps = 10.0 ** rng.uniform(-4.0, -3.0, 4)
    return np.sort(np.concatenate([centres - gaps / 2, centres + gaps / 2]))


def test_packed_left_build_spends_its_budget_and_stops(monkeypatch):
    # Nodes of the crowded first word keep halving their steps until the
    # tick budget stops them, so the solve fails quickly.
    rows, calls = tracker._stacked_rows, []

    def counted(*args):
        calls.append(1)
        return rows(*args)

    monkeypatch.setattr(tracker, "_stacked_rows", counted)
    with pytest.raises(PathStuck, match="word '11112222': step"):
        tracker.solve_all(_packed_left(np.random.default_rng(1)), 5)
    assert len(calls) <= 600


def test_stuck_build_names_the_first_failing_word_and_step(monkeypatch):
    # The node of prefix 1121 cannot start: the first word through it, the
    # second word in order, is named, and only the first word is built.
    def poisoned(i, a, pair):
        born = apply_F(i, a, pair)
        if pair.sigma + str(i) == "1121":
            born = replace(born, q1=np.full_like(born.q1, np.nan))
        return born

    monkeypatch.setattr(tracker, "apply_F", poisoned)
    words = ballot_sequences(4)
    built, error = tracker._build_trie(
        words, np.linspace(-0.9, -0.1, 6), 4, 3)
    assert [pc.ballot for pc in built] == words[:1]
    assert str(error) == (f"word {words[1]!r}: step 4 did not reach its "
                          f"target within {tracker.MAX_TICKS} ticks")


def test_stacked_solves_fall_back_one_by_one(monkeypatch):
    # A stacked LAPACK call that raises for the whole stack is redone one
    # system at a time, with the same results.
    rng = np.random.default_rng(4)
    J = rng.normal(size=(3, 4, 4))
    J[1, :, 2] = 0.0                # singular: a zero column
    r = rng.normal(size=(3, 4))
    U = rng.normal(size=(3, 4))
    alone = [tracker._equilibrated_solves(J[i:i + 1], r[i:i + 1], U[i:i + 1])
             for i in range(3)]
    svd = np.linalg.svd

    def one_at_a_time(a, **kwargs):
        if len(a) > 1:
            raise np.linalg.LinAlgError("stack")
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", one_at_a_time)
    x, ok = tracker._equilibrated_solves(J, r, U)
    assert list(ok) == [True, False, True]
    for i in (0, 2):
        assert np.array_equal(x[i], alone[i][0][0])


def test_solve_branch_order_matches_ballot_dictionary():
    # Branches are labelled by their ballot; identical labels across
    # configurations trace to each other under root homotopy.
    pts = np.array([-2.0, -1.0, 1.0, 2.0])
    classes = tracker.solve_all(pts, 3)
    assert [pc.ballot for pc in classes] == ["1122", "1212"]


def test_wronski_tensor_cached_read_only():
    T = tracker._wronski_tensor(4, 2)
    assert tracker._wronski_tensor(4, 2) is T
    assert not T.flags.writeable
    assert T.shape == (6, 3, 5)
