"""Acceptance criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py`: the verbose listing gives
one PASSED/FAILED line per criterion.
"""

import json
import time

import numpy as np
import pytest

from wronski import cli, electro, fuchs, nets, poly, tracker
from wronski.combinat import catalan, kostka, count_nets_multiplicity
from wronski.electro import ChargeConfig
from wronski.errors import NotASolution, WronskiError
from wronski.tracker import Chart

EXPECTED = {2: 1, 3: 2, 4: 5, 5: 14}


@pytest.fixture(scope="module")
def solve_runs():
    """Three seeded-random configurations per degree, d = 2..5."""
    runs = {}
    t0 = time.time()
    for d in (2, 3, 4, 5):
        for trial in range(3):
            rng = np.random.default_rng(100 * d + trial)
            pts = np.sort(rng.uniform(-5, 5, 2 * d - 2))
            runs[(d, trial)] = (pts, tracker.solve_all(pts, d))
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_1_catalan_counts(solve_runs):
    for d in (2, 3, 4, 5):
        for trial in range(3):
            _, classes = solve_runs[(d, trial)]
            assert len(classes) == EXPECTED[d], (d, trial)
    assert solve_runs["elapsed"] < 60.0


def test_criterion_2_reality_and_root_accuracy(solve_runs):
    for d in (2, 3, 4, 5):
        for trial in range(3):
            pts, classes = solve_runs[(d, trial)]
            scale = 1 + np.abs(pts).max()
            for pc in classes:
                assert pc.q1.dtype == pc.q2.dtype == np.float64
                got = np.sort(pc.wronskian_roots().real)
                assert np.abs(got - pts).max() <= 1e-8 * scale


def test_criterion_3_closed_form_d2():
    code, text = cli.run(["solve", "--points", "-1,1"])
    assert code == 0
    doc = json.loads(text)
    assert len(doc["classes"]) == 1
    c = doc["classes"][0]
    assert poly.span_equivalent((c["q1_coeffs"], c["q2_coeffs"]),
                                ([0.0, 1.0], [1.0, 0.0, 1.0]), tol=1e-8)


def test_criterion_4_bethe_reality_and_structure():
    t0 = time.time()
    sols = fuchs.bethe_solve([-1.0, 1.0])
    xs = {tuple(np.round(s.x, 9)) for s in sols}
    assert xs == {(0.0, 0.0), (-1.0, 1.0)}
    rng = np.random.default_rng(17)
    a = np.sort(rng.uniform(-3, 3, 4))
    sols = fuchs.bethe_solve(a)
    assert sorted(s.s for s in sols) == [1, 1, 3, 3, 3, 5]
    for s in sols:
        assert np.isrealobj(s.x)
        assert abs(s.x.sum()) <= 1e-9
        assert abs(s.s - round(s.s)) <= 1e-6
        assert (4 + s.s) % 2 == 1
        assert np.abs(fuchs.bethe_residual(s.x, a)).max() <= 1e-9
    assert time.time() - t0 < 120.0


def test_criterion_5_round_trip_dictionary(solve_runs):
    rng = np.random.default_rng(23)
    trials = failures = 0
    for d in (2, 3, 4):
        pts, classes = solve_runs[(d, 0)]
        for pc, x in zip(classes, fuchs.residues(classes, pts)):
            lo, hi = fuchs.polynomial_solutions(pts, x)
            assert poly.span_equivalent((lo, hi), (pc.q1, pc.q2), tol=1e-6)
            for _ in range(5):
                trials += 1
                bad = x + rng.normal(scale=1e-2, size=x.size)
                try:
                    fuchs.polynomial_solutions(pts, bad)
                except NotASolution:
                    failures += 1
    assert failures >= 0.95 * trials


def test_criterion_6_electrostatics():
    eqs = electro.solve_equilibrium([-1.0, 1.0], 1)
    assert len(eqs) == 1 and abs(eqs[0].mobile[0]) <= 1e-10
    rng = np.random.default_rng(17)
    a = np.sort(rng.uniform(-3, 3, 4))
    eqs = electro.solve_equilibrium(a, 2)
    bethe_roots = []
    for sol in fuchs.bethe_solve(a):
        if sol.s == 1:
            lo, _ = fuchs.polynomial_solutions(a, sol.x)
            z = poly.roots(lo)
            bethe_roots.append(z[np.lexsort((z.imag, z.real))])
    assert len(eqs) == len(bethe_roots) == 2
    for c in eqs:
        assert min(np.abs(c.mobile - zr).max() for zr in bethe_roots) < 1e-6
        zc = c.mobile.conj()
        zc = zc[np.lexsort((zc.imag, zc.real))]
        assert np.abs(c.mobile - zc).max() <= 1e-8
        # finite-difference gradient agreement at nearby real-symmetric
        # configurations, 1e-5 tolerance
        z = c.mobile + 0.05
        if np.abs(z.imag).max() < 1e-12:
            h = 1e-6
            resid = electro.equilibrium_residual(ChargeConfig(a, z))
            for k in range(2):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fd = (electro.energy(ChargeConfig(a, zp)) -
                      electro.energy(ChargeConfig(a, zm))) / (2 * h)
                assert abs(fd - resid[k].real) < 1e-5
        # not a local minimum of the energy
        H = _hessian(a, c.mobile)
        assert np.linalg.eigvalsh(H).min() < -1e-8


def _hessian(fixed, z, h=1e-5):
    m = z.size

    def E(v):
        return electro.energy(ChargeConfig(fixed, v[:m] + 1j * v[m:]))

    v0 = np.concatenate([z.real, z.imag])
    n = 2 * m
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            vpp = v0.copy(); vpp[[i, j]] += [h, h] if i != j else [2 * h, 0]
            vpm = v0.copy(); vpm[i] += h; vpm[j] -= h
            vmp = v0.copy(); vmp[i] -= h; vmp[j] += h
            vmm = v0.copy(); vmm[[i, j]] -= [h, h] if i != j else [2 * h, 0]
            H[i, j] = (E(vpp) - E(vpm) - E(vmp) + E(vmm)) / (4 * h * h)
    return (H + H.T) / 2


def test_criterion_7_net_invariance_and_distinctness(solve_runs):
    for d in (3, 4):
        p0, classes = solve_runs[(d, 0)]
        p1, _ = solve_runs[(d, 1)]
        moved = [(p0, classes)]
        for t in (0.5, 1.0):
            pts = (1 - t) * p0 + t * p1
            moved.append((pts, tracker.solve_all(pts, d)))
        matchings = set()
        for i, pc in enumerate(classes):
            per_time = set()
            for pts, at_t in moved:
                assert at_t[i].ballot == pc.ballot
                net = nets.trace_net([at_t[i]], pts)[0]
                assert len(net.matching) == d - 1
                assert all(x != y for x, y in net.matching)
                from wronski.combinat import is_noncrossing
                assert is_noncrossing(net.matching)
                per_time.add(net.matching)
            assert len(per_time) == 1, pc.ballot
            matchings.add(per_time.pop())
        assert len(matchings) == catalan(d)


def test_criterion_8_counting_identities():
    def valid_contents(d):
        def rec(left):
            if left == 0:
                yield ()
                return
            for part in range(1, min(left, d - 1) + 1):
                for rest in rec(left - part):
                    yield (part,) + rest
        return rec(2 * d - 2)

    for d in range(2, 6):
        for content in valid_contents(d):
            assert kostka(content, d) == count_nets_multiplicity(content, d)
    for d in range(2, 7):
        assert kostka(tuple([1] * (2 * d - 2)), d) == catalan(d)
    assert kostka((2, 2), 3) == 1
    assert kostka((1, 1, 1, 1, 2), 4) == 3
    rng = np.random.default_rng(0)
    for d in (3, 4, 5):
        contents = list(valid_contents(d))
        for _ in range(10):
            content = contents[rng.integers(len(contents))]
            perm = tuple(rng.permutation(content))
            assert kostka(content, d) == kostka(perm, d)


def test_criterion_9_numerical_hygiene():
    # analytic Jacobian of the Lagrange-form rows that the Newton corrector
    # solves vs central finite differences, on the polish chart b(0, 1) at
    # a random base point and on staged charts b(k1, k2) at 0, for degree
    # pairs (e, d) with any e in [0, d)
    rng = np.random.default_rng(11)
    checked = draws = 0
    while checked < 100:
        draws += 1
        assert draws <= 1000, f"only {checked} of 100 Jacobians checked"
        d = int(rng.integers(2, 5))
        e = int(rng.integers(0, d))
        if checked % 2:
            k1 = int(rng.integers(0, e + 1))
            k2 = int(rng.integers(k1 + 1, d + 1))
            if k1 + k2 > d + e - 1:
                continue
            chart = Chart(base_point=0.0, d=d, k1=k1, k2=k2, e=e)
        else:
            chart = Chart(base_point=float(rng.uniform(-2, 2)), d=d, e=e)
        n = d + e - chart.k1 - chart.k2
        rho = np.sort(rng.uniform(-1, 0, n))
        if n > 1 and np.diff(rho).min() < 1e-2:
            continue
        u = rng.normal(size=n)
        weights = tracker._lagrange_weights(rho)
        h = 1e-6

        def rows(u):
            # a stack of one chart
            return [a[0] for a in tracker._stacked_rows(
                u[None], chart.unknowns()[None], chart.d, chart.e,
                chart.base_point, rho[None], weights[None])]

        try:
            _, _, J, _ = rows(u)
            fd = np.zeros_like(J)
            for j in range(n):
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                fd[:, j] = (rows(up)[0] - rows(um)[0]) / (2 * h)
        except WronskiError:
            continue
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - fd).max() / scale < 1e-5
        checked += 1

    # energy finite differences vs equilibrium residual at real configs
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 6))
        fixed = np.sort(rng.uniform(-3, 3, n))
        m = int(rng.integers(1, 3))
        z = rng.uniform(-4, 4, m).astype(complex)
        pts = np.concatenate([fixed, z.real])
        if np.abs(pts[:, None] - pts[None, :]
                  + np.eye(pts.size)).min() < 1e-2:
            continue
        resid = electro.equilibrium_residual(ChargeConfig(fixed, z))
        h = 1e-6
        ok = True
        for k in range(m):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fd = (electro.energy(ChargeConfig(fixed, zp)) -
                  electro.energy(ChargeConfig(fixed, zm))) / (2 * h)
            ok = ok and abs(fd - resid[k].real) < 1e-5
        assert ok
        checked += 1
