import numpy as np
import pytest

from wronski import poly, tracker
from wronski.combinat import ballot_sequences, catalan
from wronski.errors import ChartDegenerate, PathStuck
from wronski.seeds import initial_pair
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
    birth_ok = tracker._birth_ok

    def counted(*args):
        ok = birth_ok(*args)
        births.append(ok)
        return ok

    monkeypatch.setattr(tracker, "_birth_ok", counted)
    tracker.solve_all(_uniform_points(np.random.default_rng(1), d + e - 1),
                      d, e)
    assert sum(births) == nodes


def _first_stage_stack(n):
    """A lockstep stack of n copies of the first stage of d = 3."""
    mapped = np.array([-0.9, -0.6, -0.3, -0.1])
    cand, start = tracker._birth("1", initial_pair(3), mapped[:0], 0.9)
    chart = Chart(base_point=0.0, d=3, k1=cand.k1, k2=cand.k2)
    u = tracker._pack(cand.q1, cand.q2, chart)
    return tracker._Lockstep(np.tile(u, (n, 1)),
                             np.tile(chart.unknowns(), (n, 1)), 3, 2, 0.0,
                             np.tile(start, (n, 1)), mapped[:1], 0.0, np.inf,
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
    lock.step[1] = 1e-20            # and halving it underflows
    lock.tick()
    assert list(lock.node) == [0, 2]
    final, stuck = lock.run()
    assert list(stuck) == [False, True, False]
    assert np.array_equal(final[[0, 2]], np.tile(alone[0], (2, 1)))


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
