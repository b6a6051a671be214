"""Electrostatic model: fixed +1 charges, mobile -2 charges.

Unit positive charges sit at fixed real points a_j; movable charges of
size -2 sit at z_k.  Interactions are logarithmic, so equilibria are the
critical points of

    E = log [ prod_{j<k} |z_k - z_j|^2 / prod_{j,k} |z_k - a_j| ],

and the equilibrium condition for charge k reads

    2 sum_{j != k} 1/(z_k - z_j) - sum_j 1/(z_k - a_j) = 0.

Equilibria coincide with root sets of the lower-degree polynomial
solutions of the associated second order equation: solve_equilibrium
takes the classes of degrees (m, n + 1 - m) with Wronskian roots at the
fixed charges (tracker.solve_all) and returns the roots of each class's
q1, the span's unique monic element of degree m.
"""

from dataclasses import dataclass

import numpy as np

from . import poly, tracker
from .errors import Collision, NonzeroResidue, NotASolution, SharedRoot


@dataclass(frozen=True)
class ChargeConfig:
    fixed: np.ndarray
    mobile: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fixed",
                           np.asarray(self.fixed, dtype=float))
        object.__setattr__(self, "mobile",
                           np.asarray(self.mobile, dtype=complex))


def _check_separation(c):
    pts = np.concatenate([c.fixed.astype(complex), c.mobile])
    m = c.mobile.size
    for i in range(pts.size):
        for j in range(i + 1, pts.size):
            if i < c.fixed.size and j < c.fixed.size:
                continue
            if abs(pts[i] - pts[j]) < 1e-12:
                raise Collision("charges closer than 1e-12")
    return m


def equilibrium_residual(c):
    """Force on each mobile charge; zero exactly at equilibria."""
    m = _check_separation(c)
    if m == 0:
        return np.zeros(0, dtype=complex)
    z = c.mobile
    inv, _ = _pair_inverses(z)
    da = z[:, None] - c.fixed[None, :]
    return 2 * inv.sum(axis=1) - (1.0 / da).sum(axis=1)


def energy(c):
    """Logarithm of the master function of the configuration."""
    m = _check_separation(c)
    if m == 0:
        return 0.0
    z = c.mobile
    num = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            num += 2 * np.log(abs(z[i] - z[j]))
    den = np.log(np.abs(z[:, None] - c.fixed[None, :])).sum()
    return float(num - den)


def _pair_inverses(z):
    """1/(z_k - z_j) and its square with zeroed diagonals."""
    dz = z[:, None] - z[None, :]
    np.fill_diagonal(dz, 1.0)
    inv = 1.0 / dz
    inv2 = inv * inv
    np.fill_diagonal(inv, 0.0)
    np.fill_diagonal(inv2, 0.0)
    return inv, inv2


def _residual_jacobian(z, fixed):
    """Holomorphic Jacobian of equilibrium_residual in the mobile charges."""
    m = z.size
    _, inv2 = _pair_inverses(z)
    da = z[:, None] - fixed[None, :]
    J = 2.0 * inv2
    J[np.arange(m), np.arange(m)] = -(2.0 * inv2).sum(axis=1) \
        + (1.0 / da ** 2).sum(axis=1)
    return J


def _canonical(z):
    """Sort a mobile set lexicographically by (real, imag)."""
    order = np.lexsort((z.imag, z.real))
    return z[order]


def _refine(z, fixed):
    """Three Newton steps on the force.  Between close fixed charges the
    roots of the lower polynomial can leave forces above 1e-9, but they
    lie well inside Newton's quadratic basin."""
    for _ in range(3):
        F = equilibrium_residual(ChargeConfig(fixed=fixed, mobile=z))
        z = z - np.linalg.solve(_residual_jacobian(z, fixed), F)
    return z


def _isolated_equilibrium(fixed, z, tol=1e-9):
    """Zero force, closed under conjugation (isolated equilibria are
    real-symmetric), and a full-rank Jacobian (non-isolated families have
    rank-deficient ones)."""
    force = equilibrium_residual(ChargeConfig(fixed=fixed, mobile=z))
    sv = np.linalg.svd(_residual_jacobian(z, fixed), compute_uv=False)
    return (np.abs(force).max(initial=0.0) <= tol
            and np.abs(z[:, None] - z.conj()).min(axis=1).max() <= 1e-8
            and sv[0] / max(sv[-1], 1e-300) < 1e10)


def solve_equilibrium(fixed, m):
    """All isolated equilibria of m mobile charges among the fixed ones.

    Raises NotASolution, naming the sector and the F-word, when a root set
    is not an isolated equilibrium.
    """
    fixed = np.sort(np.asarray(fixed, dtype=float))
    n = fixed.size
    if not 0 <= 2 * m <= n:
        raise ValueError("no degree pair exists for this charge count")
    if m == 0:
        return [ChargeConfig(fixed=fixed, mobile=np.zeros(0, complex))]
    out = []
    for cls in tracker.solve_all(fixed, n + 1 - m, m):
        z = poly.roots(cls.q1).astype(complex)
        try:
            z = _refine(z, fixed)
            # Complex Newton steps leave a real charge an imaginary part at
            # rounding level; it is stored as real.
            z = _canonical(np.where(np.abs(z.imag) <= 1e-14 * (1 + np.abs(z)),
                                    z.real, z))
            ok = z.size == m and _isolated_equilibrium(fixed, z)
        except (Collision, np.linalg.LinAlgError):
            ok = False
        if not ok:
            raise NotASolution(f"sector e={m}, word {cls.ballot}: roots are "
                               "not an isolated equilibrium")
        out.append(ChargeConfig(fixed=fixed, mobile=z))
    out.sort(key=lambda c: tuple((v.real, v.imag) for v in c.mobile))
    return out


def second_solution(A, y1):
    """Second solution y2 = y1 * integral(A / y1^2) of A y'' - A' y' = ...

    The integrand's polynomial part integrates termwise; the double-pole
    parts integrate to -beta_k/(z - r_k).  Simple-pole residues must all
    vanish for the integral to be rational, which happens exactly when
    the roots of y1 are an equilibrium.
    """
    A = poly.as_poly(A)
    y1 = poly.as_poly(y1)
    r = poly.roots(y1)
    if r.size > 1:
        dz = r[:, None] - r[None, :]
        np.fill_diagonal(dz, np.inf)
        if np.abs(dz).min() < 1e-8:
            raise SharedRoot("roots of y1 must be simple")
    y1p = poly.derivative(y1)
    y1pp = poly.derivative(y1p)
    scale = np.abs(A).max()
    if r.size and np.abs(poly.polyval(A, r)).min() < 1e-10 * scale:
        raise SharedRoot("y1 shares a root with A")
    # residues of A/y1^2 at the double poles
    Ar, Apr = poly.polyval(A, r), poly.polyval(poly.derivative(A), r)
    d1, d2 = poly.polyval(y1p, r), poly.polyval(y1pp, r)
    alpha = (Apr * d1 - Ar * d2) / d1 ** 3
    if r.size and np.abs(alpha).max() > 1e-8 * (1 + scale):
        raise NonzeroResidue("integral of A/y1^2 is not rational here")
    beta = Ar / d1 ** 2
    # polynomial part of A / y1^2 by long division
    from numpy.polynomial import polynomial as P
    denom = P.polymul(y1, y1)
    q, _ = np.polydiv(A[::-1], denom[::-1]) if A.size >= denom.size \
        else (np.zeros(1), None)
    q = np.asarray(q, dtype=complex)[::-1]
    y2 = poly.polymul(y1, P.polyint(q))
    for rk, bk in zip(r, beta):
        y2 = poly.polysub(y2, bk * poly.deflate(y1, rk))
    y2 = poly.normalize(y2, tol=1e-9)
    y2 = y2 / y2[-1]
    return y2.real if np.abs(y2.imag).max() < 1e-9 else y2
