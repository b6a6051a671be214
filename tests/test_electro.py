import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from wronski import electro, fuchs, poly
from wronski.electro import ChargeConfig
from wronski.errors import InvalidInput


def test_residual_oracles():
    assert np.allclose(
        electro.equilibrium_residual(ChargeConfig([-1, 1], [0])), 0)
    r = electro.equilibrium_residual(ChargeConfig([-1, 1], [1j]))
    assert np.allclose(r, [1j])
    assert electro.equilibrium_residual(ChargeConfig([-1, 1], [])).size == 0


def test_residual_collision():
    with pytest.raises(InvalidInput):
        electro.equilibrium_residual(ChargeConfig([-1, 1], [1 + 1e-14j]))


def test_energy_oracles():
    assert electro.energy(ChargeConfig([-1, 1], [0])) == pytest.approx(0)
    assert electro.energy(ChargeConfig([-1, 1], [3])) == \
        pytest.approx(-np.log(8))
    assert electro.energy(ChargeConfig([-1, 1], [])) == 0.0


def test_solve_equilibrium_m1():
    eqs = electro.solve_equilibrium([-1, 1], 1)
    assert len(eqs) == 1
    assert abs(eqs[0].mobile[0]) < 1e-10


def test_solve_equilibrium_m0_vacuous():
    eqs = electro.solve_equilibrium([-1, 1], 0)
    assert len(eqs) == 1 and eqs[0].mobile.size == 0


def test_solve_equilibrium_m_range():
    with pytest.raises(ValueError):
        electro.solve_equilibrium([-1, 1], 2)


def test_second_solution_oracles():
    y2 = electro.second_solution([-1.0, 0.0, 1.0], [0.0, 1.0])
    assert np.allclose(y2, [1, 0, 1])
    y2 = electro.second_solution([-1.0, 0.0, 1.0], [0.0, -3.0, 0.0, 1.0])
    assert y2.size == 1
    with pytest.raises(InvalidInput):
        electro.second_solution([-1.0, 0.0, 1.0], [-0.5, 1.0])
    with pytest.raises(InvalidInput):
        electro.second_solution([-1.0, 0.0, 1.0], [-1.0, 1.0])


def _num_grad_energy(fixed, z, h=1e-6):
    """Central differences of E in the real coordinates of each charge."""
    g = np.zeros(z.size, dtype=complex)
    for k in range(z.size):
        for part, unit in ((1.0, 1.0), (1.0j, 1.0j)):
            zp, zm = z.copy(), z.copy()
            zp[k] += h * unit
            zm[k] -= h * unit
            diff = (electro.energy(ChargeConfig(fixed, zp)) -
                    electro.energy(ChargeConfig(fixed, zm))) / (2 * h)
            g[k] += diff * (1 if unit == 1.0 else 1j)
    return g


def test_gradient_matches_residual():
    # For real-symmetric configurations the x-derivatives of the energy
    # equal the real parts of the residual components.
    fixed = np.array([-1.5, -0.2, 0.3, 2.0])
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.uniform(-3, 3, 2).astype(complex)
        try:
            resid = electro.equilibrium_residual(ChargeConfig(fixed, z))
        except InvalidInput:
            continue
        g = _num_grad_energy(fixed, z)
        assert np.abs(g.real - resid.real).max() < 1e-5


def test_equilibria_conjugation_closed_and_unstable():
    rng = np.random.default_rng(3)
    fixed = np.sort(rng.uniform(-3, 3, 4))
    eqs = electro.solve_equilibrium(fixed, 2)
    assert len(eqs) == 2
    for c in eqs:
        z = c.mobile
        zc = z.conj()[np.lexsort((z.conj().imag, z.conj().real))]
        assert np.abs(z - zc).max() < 1e-8
        # indefinite Hessian of E over the 2m real coordinates
        H = _hessian(fixed, z)
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
            vpp = v0.copy(); vpp[i] += h; vpp[j] += h
            vpm = v0.copy(); vpm[i] += h; vpm[j] -= h
            vmp = v0.copy(); vmp[i] -= h; vmp[j] += h
            vmm = v0.copy(); vmm[i] -= h; vmm[j] -= h
            H[i, j] = (E(vpp) - E(vpm) - E(vmp) + E(vmm)) / (4 * h * h)
    return (H + H.T) / 2


def test_dictionary_with_bethe_solutions():
    rng = np.random.default_rng(3)
    a = np.sort(rng.uniform(-3, 3, 4))
    for sol in fuchs.bethe_solve(a):
        lo, hi = fuchs.polynomial_solutions(a, sol.x)
        if lo.size == 1:
            continue
        roots = poly.roots(lo)
        resid = electro.equilibrium_residual(ChargeConfig(a, roots))
        assert np.abs(resid).max() < 1e-8
        A = P.polyfromroots(a)
        y2 = electro.second_solution(A, lo)
        assert poly.span_equivalent((lo, y2), (lo, hi), tol=1e-6)


def test_isolated_equilibria_newton_reconverges():
    rng = np.random.default_rng(3)
    a = np.sort(rng.uniform(-3, 3, 4))
    eqs = electro.solve_equilibrium(a, 2)
    for c in eqs:
        z = c.mobile + rng.normal(scale=1e-4, size=2) \
            + 1j * rng.normal(scale=1e-4, size=2)
        for _ in range(6):
            F = electro.equilibrium_residual(ChargeConfig(a, z))
            J = electro._residual_jacobian(z, a)
            z = z - np.linalg.solve(J, F)
        # came back to the same equilibrium (entries may be permuted)
        err = max(np.abs(zi - c.mobile).min() for zi in z)
        assert err < 1e-12
