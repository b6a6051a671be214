import numpy as np
import pytest

from wronski import poly, tracker
from wronski.combinat import ballot_sequences, catalan
from wronski.errors import ChartDegenerate
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
    polished = tracker.newton_polish(noisy, pts)
    got = np.sort(polished.wronskian_roots().real)
    assert np.abs(got - pts).max() < 1e-10


def test_build_branch_staged_roots():
    mapped = np.array([-0.9, -0.6, -0.3, -0.1])
    for sigma in ballot_sequences(3):
        pc = tracker.build_branch(sigma, mapped, 3)
        got = np.sort(pc.wronskian_roots().real)
        assert np.abs(got - mapped).max() < 1e-9
        assert pc.chart.base_point == 0.0


def test_solve_all_parallel_jobs_match_serial():
    pts = np.array([-2.0, -1.0, 1.0, 2.0])
    serial = tracker.solve_all(pts, 3, jobs=1)
    parallel = tracker.solve_all(pts, 3, jobs=2)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.ballot == b.ballot
        assert poly.span_equivalent((a.q1, a.q2), (b.q1, b.q2), tol=1e-8)


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
