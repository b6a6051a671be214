import numpy as np
import pytest

from wronski import nets, tracker
from wronski.combinat import ballot_to_matching, catalan, is_noncrossing
from wronski.errors import InvalidInput, TraceLost


def _pc(q1, q2, d, ballot=""):
    return tracker.PairClass(q1=np.asarray(q1, dtype=complex),
                             q2=np.asarray(q2, dtype=complex),
                             chart=tracker.Chart(0.0, d), ballot=ballot)


def test_trace_simplest_net():
    net = nets.trace_net([_pc([0, 1], [1, 0, 1], 2)], [-1, 1])[0]
    assert net.matching == frozenset({(1, 2)})
    assert net.distinguished == 2
    assert len(net.vertices) == 2


def test_trace_d3_nets_distinct():
    pts = np.array([-2.0, -1.0, 1.0, 2.0])
    classes = tracker.solve_all(pts, 3)
    matched = {nets.trace_net([pc], pts)[0].matching for pc in classes}
    assert matched == {frozenset({(1, 4), (2, 3)}),
                       frozenset({(1, 2), (3, 4)})}


def test_trace_rejects_nonreal():
    with pytest.raises(InvalidInput):
        nets.trace_net([_pc([1j, 1], [1, 0, 1], 2)], [-1, 1])[0]


def test_trace_rejects_wrong_point_count():
    # d = 2 has two critical points
    with pytest.raises(InvalidInput):
        nets.trace_net([_pc([0, 1], [1, 0, 1], 2)], [-1, 0, 1])


def test_trace_lost_names_word_and_vertex(monkeypatch):
    classes = tracker.solve_all(np.array([-2.0, -1.0, 1.0, 2.0]), 3)
    monkeypatch.setattr(nets, "MAX_STEPS", 3)
    with pytest.raises(TraceLost) as info:
        nets.trace_net(classes, [-2.0, -1.0, 1.0, 2.0])
    assert str(info.value) == f"word {classes[0].ballot}, arc from vertex " \
        "1: step budget exhausted before landing"


def test_trace_lost_when_class_misses_the_points():
    # g = z / (1 + z^2) has its critical points at -1 and 1, not at 3, so
    # the arc from -1 comes down at 1, where no vertex is.
    with pytest.raises(TraceLost, match="curve reached the real axis"):
        nets.trace_net([_pc([0, 1], [1, 0, 1], 2)], [-1, 3])


def test_net_from_ballot_oracles():
    assert nets.net_from_ballot("12", (-1, 1)).matching == \
        frozenset({(1, 2)})
    assert nets.net_from_ballot("1212", (-2, -1, 1, 2)).matching == \
        frozenset({(1, 2), (3, 4)})
    assert nets.net_from_ballot("1122", (-2, -1, 1, 2)).matching == \
        frozenset({(1, 4), (2, 3)})
    with pytest.raises(InvalidInput):
        nets.net_from_ballot("1212", (-1, 1))


def test_degree_drop_edge():
    net = nets.net_from_ballot("1212", (-2, -1, 1, 2))
    assert nets.degree_drop_edge(net, 1)
    assert not nets.degree_drop_edge(net, 2)
    assert nets.degree_drop_edge(net, 3)
    nested = nets.net_from_ballot("1122", (-2, -1, 1, 2))
    assert nets.degree_drop_edge(nested, 2)
    with pytest.raises(InvalidInput):
        nets.degree_drop_edge(net, 4)


def test_orientation_calibration_regression():
    """The frozen orientation constant reproduces every traced net for
    d = 3 and d = 4; the d = 4 branches distinguish the two candidate
    orientations."""
    rng = np.random.default_rng(5)
    for d in (3, 4):
        pts = np.sort(rng.uniform(-3, 3, 2 * d - 2))
        for pc in tracker.solve_all(pts, d):
            traced = nets.trace_net([pc], pts)[0].matching
            predicted = nets.net_from_ballot(pc.ballot, pts).matching
            assert traced == predicted, pc.ballot


def test_traced_matchings_well_formed():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        for _ in range(3):
            pts = np.sort(rng.uniform(-4, 4, 2 * d - 2))
            classes = tracker.solve_all(pts, d)
            seen = set()
            for pc in classes:
                m = nets.trace_net([pc], pts)[0].matching
                assert len(m) == d - 1
                assert all(a != b for a, b in m)
                assert is_noncrossing(m)
                seen.add(m)
            assert len(seen) == catalan(d)


def test_net_invariance_along_homotopy():
    # Corollary-style invariance: deforming the critical points does not
    # change the matching of a branch.
    p0 = np.array([-2.0, -1.0, 1.0, 2.0])
    p1 = np.array([-3.0, -0.2, 0.5, 4.0])
    matchings = {}
    for t in (0.0, 0.5, 1.0):
        pts = (1 - t) * p0 + t * p1
        for pc in tracker.solve_all(pts, 3):
            matchings.setdefault(pc.ballot, set()).add(
                nets.trace_net([pc], pts)[0].matching)
    assert sorted(matchings) == ["1122", "1212"]
    assert all(len(m) == 1 for m in matchings.values())


def test_mirror_symmetry():
    pts = np.array([-2.0, -1.0, 1.0, 2.0])
    for pc in tracker.solve_all(pts, 3):
        up = nets.trace_net([pc], pts, upward=True)[0]
        down = nets.trace_net([pc], pts, upward=False)[0]
        assert up.matching == down.matching
        for key, arc in up.arcs.items():
            assert max(p.imag for p in arc) >= 0
            assert min(p.imag for p in down.arcs[key]) <= 0


def test_arcs_exported_as_polylines():
    net = nets.trace_net([_pc([0, 1], [1, 0, 1], 2)], [-1, 1])[0]
    arc = net.arcs[(1, 2)]
    assert arc.dtype == complex and arc.size > 10
    # arc on the unit circle: |z| = 1 along the whole way
    mid = arc[arc.size // 2]
    assert abs(abs(mid) - 1) < 1e-6
