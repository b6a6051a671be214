"""solve_all over seeded point sets of three kinds at d = 4 to 7, and one
uniform set at d = 8.

Every set must give catalan(d) classes (a path that jumps to another
branch raises CountMismatch), each with a backward error of at most 1e-10.
On uniform and close-pair points every Wronskian root must also lie within
1e-8 (1 + max|p|) of its point.  Clustered points, pairs 1e-4 to 1e-3
apart, are checked only backwards: their roots are ill-conditioned in the
monomial coefficients, so a class accurate to rounding can still miss the
root bound.

The `bethe` and `net` commands must also run on clustered sets at d = 4
to 6, with every sector's count of Bethe solutions and every traced net
as its word predicts, and `equilibrium --m 2` must find every one of its
C(n, 2) - C(n, 1) equilibria on one of them.  Every class's traced net,
upward and downward, must be the one its word predicts on every kind at
d = 4 to 6, and tracing a class in a stack of classes must give the same
polylines as tracing it alone.  Tracing stays cheap, in calls of the
gradient rather than in seconds, and its polylines stay smooth.  The
residues of a clustered set match exact rational arithmetic on each class's
coefficients, and a class's residues do not depend on the stack it is in.
"""

import functools
import json
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from wronski import cli, fuchs, nets, tracker
from wronski.combinat import catalan
from wronski.errors import WronskiError

LO, HI = -5.0, 5.0
BACKWARD_TOL = 1e-10
ROOT_TOL = 1e-8


def _uniform(rng, n):
    """One point per equal cell of [LO, HI], 15% of a cell off its edges."""
    cells = np.arange(n) + rng.uniform(0.15, 0.85, n)
    return LO + (HI - LO) * cells / n


def _close_pair(rng, n):
    """Uniform, with the two rightmost points 0.2% to 0.6% of the interval
    apart."""
    p = _uniform(rng, n)
    p[-1] = p[-2] + (HI - LO) * 10.0 ** rng.uniform(-2.7, -2.2)
    return p


def _clustered(rng, n):
    """n/2 pairs 1e-4 to 1e-3 apart, centred in uniform cells."""
    centres = _uniform(rng, n // 2)
    gaps = 10.0 ** rng.uniform(-4.0, -3.0, n // 2)
    return np.concatenate([centres - gaps / 2, centres + gaps / 2])


KINDS = {"uniform": _uniform, "close-pair": _close_pair,
         "clustered": _clustered}
CASES = [(kind, d, seed) for kind in KINDS for d in (4, 5, 6)
         for seed in range(1, 6)] \
    + [(kind, 7, seed) for kind in KINDS for seed in (1, 2)] \
    + [("uniform", 8, 1)]


def _errors(q1, q2, pts):
    """(backward, forward) error of one class: |W(p)| relative to the sum of
    the magnitudes of its terms, and the root error per unit of
    1 + max|p|."""
    w = P.polysub(P.polymul(q1, P.polyder(q2)), P.polymul(P.polyder(q1), q2))
    backward = (np.abs(P.polyval(pts, w))
                / P.polyval(np.abs(pts), np.abs(w))).max()
    roots = np.sort(P.polyroots(w).real)
    return backward, np.abs(roots - pts).max() / (1 + np.abs(pts).max())


def stress_points(kind, d, seed):
    rng = np.random.default_rng([seed, d, list(KINDS).index(kind)])
    return np.sort(KINDS[kind](rng, 2 * d - 2))


@functools.lru_cache(maxsize=None)
def _solved(kind, d, seed):
    return tracker.solve_all(stress_points(kind, d, seed), d)


@pytest.mark.parametrize("kind, d, seed", [
    pytest.param(*case, id="{}-d{}-s{}".format(*case)) for case in CASES])
def test_solve_all_stress(kind, d, seed):
    pts = stress_points(kind, d, seed)
    classes = _solved(kind, d, seed)
    assert len(classes) == catalan(d)
    for pc in classes:
        backward, forward = _errors(pc.q1, pc.q2, pts)
        assert backward <= BACKWARD_TOL, pc.ballot
        if kind != "clustered":
            assert forward <= ROOT_TOL, pc.ballot


@pytest.mark.parametrize("d", [4, 5, 6])
def test_clustered_bethe_and_net_commands(d):
    pts = stress_points("clustered", d, 1)
    arg = ",".join(repr(float(p)) for p in pts)
    n = pts.size
    code, text = cli.run(["bethe", "--points", arg])
    assert code == 0, text
    assert Counter(sol["s"] for sol in json.loads(text)["solutions"]) == {
        n + 1 - 2 * e: comb(n, e) - (comb(n, e - 1) if e else 0)
        for e in range(n // 2 + 1)}
    code, text = cli.run(["net", "--points", arg])
    assert code == 0, text
    traced = json.loads(text)["nets"]
    assert len(traced) == catalan(d)
    for net in traced:
        predicted = nets.net_from_ballot(net["ballot"], pts).matching
        assert net["matching"] == sorted(list(p) for p in predicted)


def _exact_residues(q1, q2, pts):
    """C(a_k)/A'(a_k) = (q1' q2'' - q1'' q2')/(q1 q2'' - q1'' q2) at each
    point, in exact rational arithmetic on the float coefficients."""
    def derivatives(q):
        out = [[Fraction(c) for c in q]]
        for _ in range(2):
            out.append([k * c for k, c in enumerate(out[-1])][1:])
        return out

    def value(p, z):
        return sum(c * z ** k for k, c in enumerate(p))

    out = []
    for a in map(Fraction, pts):
        y1, d1, s1 = (value(p, a) for p in derivatives(q1))
        y2, d2, s2 = (value(p, a) for p in derivatives(q2))
        out.append(float((d1 * s2 - s1 * d2) / (y1 * s2 - s1 * y2)))
    return np.array(out)


def test_stacked_residues_match_exact_arithmetic():
    pts, classes = stress_points("clustered", 5, 1), _solved("clustered", 5, 1)
    stacked = fuchs.residues(classes, pts)
    for pc, x in zip(classes, stacked):
        exact = _exact_residues(pc.q1, pc.q2, pts)
        assert np.abs(x - exact).max() <= 1e-8 * np.abs(exact).max(), \
            pc.ballot
        # alone or in the stack, a class's residues are the same floats
        assert np.array_equal(fuchs.residues([pc], pts)[0], x), pc.ballot


NET_CASES = [(kind, d, seed) for kind in KINDS for d in (4, 5, 6)
             for seed in (1, 2)] + [("uniform", 7, 1)]


@pytest.mark.parametrize("kind, d, seed", [
    pytest.param(*case, id="{}-d{}-s{}".format(*case))
    for case in NET_CASES])
@pytest.mark.parametrize("upward", [True, False], ids=["up", "down"])
def test_traced_nets_match_ballots(kind, d, seed, upward):
    pts = stress_points(kind, d, seed)
    classes = _solved(kind, d, seed)
    traced = nets.trace_net(classes, pts, upward=upward)
    for pc, net in zip(classes, traced):
        assert net.matching == \
            nets.net_from_ballot(pc.ballot, pts).matching, pc.ballot


@pytest.mark.parametrize("kind", ["uniform", "clustered"])
def test_stacked_trace_equals_single_trace(kind):
    pts, classes = stress_points(kind, 5, 1), _solved(kind, 5, 1)
    for pc, net in zip(classes, nets.trace_net(classes, pts)):
        alone = nets.trace_net([pc], pts)[0]
        assert net.arcs.keys() == alone.arcs.keys()
        for key, arc in net.arcs.items():
            assert np.array_equal(arc, alone.arcs[key]), (pc.ballot, key)


def test_step_control_bounds_gradient_calls(monkeypatch):
    # Each call evaluates phi and its gradient for the whole stack; the
    # step control makes about 420 calls here.
    pts, classes = stress_points("uniform", 5, 1), _solved("uniform", 5, 1)
    calls, evaluate = [0], nets._phi_and_gradient

    def counted(C, z):
        calls[0] += 1
        return evaluate(C, z)

    monkeypatch.setattr(nets, "_phi_and_gradient", counted)
    nets.trace_net(classes, pts)
    assert calls[0] <= 600


@pytest.mark.parametrize("kind", list(KINDS))
def test_polylines_stay_smooth(kind):
    """SVG and CSV arcs draw the polylines, so the step control must keep
    them smooth: the direction turns by at most 0.25 rad from one tracer
    step to the next, and no chord is longer than a tenth of the distance
    between the arc's end vertices.  The launch and landing segments,
    which join the vertices, are left out of the turns."""
    for d in (4, 5, 6):
        for seed in (1, 2):
            pts = stress_points(kind, d, seed)
            for net in nets.trace_net(_solved(kind, d, seed), pts):
                for key, arc in net.arcs.items():
                    seg = np.diff(arc)
                    turn = np.abs(np.angle(seg[2:-1] / seg[1:-2]))
                    assert turn.max() <= 0.25, (d, seed, key)
                    chord = np.abs(seg).max() / abs(arc[-1] - arc[0])
                    assert chord <= 0.1, (d, seed, key)


def test_clustered_equilibrium_command():
    # The force on a charge between two points 1e-4 apart sums terms near
    # 1e4, so it is checked relative to them.
    pts = stress_points("clustered", 4, 1)
    n = pts.size
    code, text = cli.run(["equilibrium", "--m", "2", "--points",
                          ",".join(repr(float(p)) for p in pts)])
    assert code == 0, text
    assert len(json.loads(text)["equilibria"]) == comb(n, 2) - comb(n, 1)


if __name__ == "__main__":
    # Prints the worst backward and root error of every case.
    for kind, d, seed in CASES:
        pts = stress_points(kind, d, seed)
        try:
            classes = tracker.solve_all(pts, d)
        except WronskiError as exc:
            print(f"{kind:10s} d={d} seed={seed} {type(exc).__name__}")
            continue
        errs = [_errors(pc.q1, pc.q2, pts) for pc in classes]
        print(f"{kind:10s} d={d} seed={seed} "
              f"backward={max(b for b, _ in errs):.1e} "
              f"root={max(f for _, f in errs):.1e}")
