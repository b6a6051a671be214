import json
from collections import Counter
from math import comb

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from wronski import cli, electro, fuchs, poly, tracker
from wronski.errors import InvalidInput, NotASolution, PathStuck

from test_stress import stress_points

Z = np.array([0.0, 1.0])
Z2P1 = np.array([1.0, 0.0, 1.0])
CUBIC = np.array([0.0, -3.0, 0.0, 1.0])  # z^3 - 3z


def test_ode_from_pair_legendre_like():
    A, B, C = fuchs.ode_from_pair((Z, Z2P1))
    assert np.allclose(A, [-1, 0, 1])
    assert np.allclose(B, [0, -2])
    assert np.allclose(C, [2])
    assert np.allclose(fuchs.residues([(Z, Z2P1)], [1, -1])[0], [-1, 1])


def test_ode_from_pair_constant_second():
    A, B, C = fuchs.ode_from_pair((CUBIC, np.array([1.0])))
    assert np.allclose(A, [3, 0, -3])
    assert np.allclose(B, [0, 6])
    assert not C.any()
    assert np.allclose(fuchs.residues([(CUBIC, np.array([1.0]))],
                                      [-1, 1])[0], [0, 0])


def test_ode_from_pair_rejects_dependent():
    with pytest.raises(InvalidInput):
        fuchs.ode_from_pair((Z, 2 * Z))


def test_residues_reject_points_that_are_not_roots():
    with pytest.raises(NotASolution):
        fuchs.residues([(Z, Z2P1)], [-1, 1 + 1e-6])
    with pytest.raises(InvalidInput):
        fuchs.residues([(Z, Z2P1)], [-1, 0, 1])
    with pytest.raises(InvalidInput):
        fuchs.residues([(Z, Z2P1)], [1])


def test_residues_need_pairs_of_distinct_degrees():
    # dependent pairs, and a pair of equal degrees (its span's basis of
    # distinct degrees is (Z, Z2P1)), anywhere in the stack
    for pair in ((Z, 2 * Z), (np.zeros(3), Z2P1), (Z2P1, P.polyadd(Z2P1, Z))):
        with pytest.raises(InvalidInput):
            fuchs.residues([(Z, Z2P1), pair], [-1, 1])


def test_residues_scale_invariant():
    x1 = fuchs.residues([(Z, Z2P1)], [-1, 1])[0]
    x2 = fuchs.residues([(5 * Z, Z2P1)], [-1, 1])[0]
    x3 = fuchs.residues([(Z, P.polyadd(Z2P1, 0.5 * Z))], [-1, 1])[0]
    assert np.allclose(x1, [-1, 1])
    assert np.allclose(x1, x2) and np.allclose(x1, x3)


def test_bethe_residual_oracles():
    assert np.allclose(fuchs.bethe_residual([-1, 1], [-1, 1]), 0)
    assert np.allclose(fuchs.bethe_residual([0, 0, 0], [-1, 0, 1]), 0)
    assert np.allclose(fuchs.bethe_residual([1, 1], [-1, 1]), [1, 1])
    with pytest.raises(InvalidInput):
        fuchs.bethe_residual([1, 1], [1, 1])
    with pytest.raises(InvalidInput):
        fuchs.bethe_residual([1, 1, 1], [-1, 1])


def test_prop6_oracles():
    # Proposition 6, s^2 = (n+1)^2 - 4 q*, on the two solutions at n = 2:
    # x = 0 has q* = 0 and s = 3; s = 1 forces q* = ((n+1)^2 - 1) / 4 = 2.
    sols = {s.s: s for s in fuchs.bethe_solve([-1, 1])}
    assert sols.keys() == {1, 3}
    assert np.array_equal(sols[3].x, [0.0, 0.0]) and sols[3].qstar == 0.0
    assert sols[1].x == pytest.approx([-1, 1])
    assert sols[1].qstar == pytest.approx(2)


def test_bethe_solve_n2():
    sols = fuchs.bethe_solve([-1, 1])
    assert len(sols) == 2
    xs = {tuple(np.round(s.x, 8)) for s in sols}
    assert xs == {(-1.0, 1.0), (0.0, 0.0)}
    assert sorted(s.s for s in sols) == [1, 3]


def _raising(exc):
    calls = []

    def solve_all(*args, **kwargs):
        calls.append(args)
        raise exc

    return solve_all, calls


def test_bethe_solve_propagates_solver_failure(monkeypatch):
    solve_all, calls = _raising(PathStuck("stuck"))
    monkeypatch.setattr(tracker, "solve_all", solve_all)
    with pytest.raises(PathStuck):
        fuchs.bethe_solve([-1, 1])
    assert calls
    code, text = cli.run(["bethe", "--points", "-1,1"])
    assert code == 1 and json.loads(text)["kind"] == "PathStuck"


def test_bethe_solve_propagates_bugs(monkeypatch):
    solve_all, _ = _raising(TypeError("bug"))
    monkeypatch.setattr(tracker, "solve_all", solve_all)
    with pytest.raises(TypeError):
        fuchs.bethe_solve([-1, 1])


def test_bethe_solve_n4_counts():
    rng = np.random.default_rng(3)
    a = np.sort(rng.uniform(-3, 3, 4))
    sols = fuchs.bethe_solve(a)
    assert sorted(s.s for s in sols) == [1, 1, 3, 3, 3, 5]
    for s in sols:
        assert np.abs(fuchs.bethe_residual(s.x, a)).max() <= 1e-9
        assert abs(s.x.sum()) <= 1e-9
        assert (4 + s.s) % 2 == 1
        assert s.degrees[0] + s.degrees[1] == 5
        assert np.isrealobj(s.x)


def _sector_size(n, e):
    return comb(n, e) - (comb(n, e - 1) if e else 0)


@pytest.mark.parametrize("a", [
    np.sort(np.random.default_rng(21).uniform(-5, 5, 5)),
    # two points 0.02 apart, as in the benchmark's close-pair corpus
    np.array([-4.1, -2.3, -0.4, 1.2, 3.05, 3.07]),
    np.sort(np.random.default_rng(23).uniform(-5, 5, 8)),
], ids=["n5", "n6-close-pair", "n8"])
def test_every_sector_bethe_and_equilibrium(a):
    # sector e has lower degree e and s = n + 1 - 2e, and its equilibria
    # have e mobile charges; n odd has no s = 1
    n = a.size
    sols = fuchs.bethe_solve(a)
    assert Counter(s.s for s in sols) == {
        n + 1 - 2 * e: _sector_size(n, e) for e in range(n // 2 + 1)}
    for sol in sols:
        assert sol.degrees == ((n + 1 + sol.s) // 2, (n + 1 - sol.s) // 2)
        assert np.abs(fuchs.bethe_residual(sol.x, a)).max() <= 1e-9
    for m in range(n // 2 + 1):
        eqs = electro.solve_equilibrium(a, m)
        assert len(eqs) == _sector_size(n, m)
        for c in eqs:
            assert np.abs(electro.equilibrium_residual(c)).max(initial=0.0) \
                <= 1e-9


def test_bethe_and_equilibrium_at_n12():
    # With an Euler predictor, sector e=4's word 222212111222 uses up its
    # 100 ticks at step 8 here.
    a = stress_points("uniform", 7, 2)
    arg = "--points=" + ",".join(repr(float(p)) for p in a)
    code, text = cli.run(["bethe", arg])
    assert code == 0, text
    assert Counter(sol["s"] for sol in json.loads(text)["solutions"]) == {
        13 - 2 * e: _sector_size(12, e) for e in range(7)}
    code, text = cli.run(["equilibrium", "--m", "4", arg])
    assert code == 0, text
    assert len(json.loads(text)["equilibria"]) == _sector_size(12, 4) == 275


def test_polynomial_solutions_oracles():
    lo, hi = fuchs.polynomial_solutions([-1, 1], [-1, 1])
    assert poly.span_equivalent((lo, hi), (Z, Z2P1), tol=1e-8)
    lo, hi = fuchs.polynomial_solutions([-1, 1], [0, 0])
    assert lo.size == 1 and hi.size == 4
    assert poly.span_equivalent((lo, hi), (np.array([1.0]), CUBIC), tol=1e-8)
    with pytest.raises(NotASolution):
        fuchs.polynomial_solutions([-1, 1], [1, 1])


def test_round_trip_solver_to_fuchs():
    pts = np.array([-2.0, -0.7, 0.4, 1.5])
    classes = tracker.solve_all(pts, 3)
    for pc, x in zip(classes, fuchs.residues(classes, pts)):
        assert np.abs(fuchs.bethe_residual(fuchs._refine(x, pts), pts)).max() \
            <= 1e-8
        lo, hi = fuchs.polynomial_solutions(pts, x)
        assert poly.span_equivalent((lo, hi), (pc.q1, pc.q2), tol=1e-6)


def test_degree_identities():
    rng = np.random.default_rng(5)
    a = np.sort(rng.uniform(-2, 2, 4))
    for sol in fuchs.bethe_solve(a):
        lo, hi = fuchs.polynomial_solutions(a, sol.x)
        assert hi.size - lo.size == sol.s
        assert hi.size + lo.size == a.size + 3
        assert (hi.size - 1, lo.size - 1) == sol.degrees


def test_series_linear_coefficient_is_residue():
    # With y normalized to y(a_k) = 1 the equation forces y'(a_k) = x_k.
    a = np.array([-1.0, 1.0])
    x = np.array([-1.0, 1.0])
    lo, hi = fuchs.polynomial_solutions(a, x)
    for y in (lo, hi):
        dy = P.polyder(y)
        for ak, xk in zip(a, x):
            val = P.polyval(ak, y)
            if abs(val) < 1e-8:
                continue
            assert P.polyval(ak, dy) / val == pytest.approx(xk, abs=1e-7)


def test_nullspace_dimension_iff_solution():
    rng = np.random.default_rng(7)
    a = np.sort(rng.uniform(-2, 2, 4))
    sols = fuchs.bethe_solve(a)
    hits = 0
    for sol in sols:
        fuchs.polynomial_solutions(a, sol.x)  # must not raise
        bad = sol.x + rng.normal(scale=1e-2, size=4)
        try:
            fuchs.polynomial_solutions(a, bad)
        except NotASolution:
            hits += 1
    assert hits >= 0.95 * len(sols) - 1e-9 or hits == len(sols)
