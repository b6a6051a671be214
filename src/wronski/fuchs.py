"""Fuchsian / Bethe dictionary for pairs of polynomials.

A pair (y1, y2) spanning a class satisfies a second order equation
A y'' + B y' + C y = 0 with A = W(y1, y2), B = -A', C = W(y1', y2').
The residues x_k of Q = C/A at the roots a_k of A solve the quadratic
rational system

    x_k^2 = sum_{j != k} (x_j - x_k) / (a_j - a_k),

and conversely every real solution of that system reconstructs a class
through the two-dimensional polynomial nullspace of the operator.

The solutions split into sectors by the lower degree e <= n/2 of the
class, with s = n + 1 - 2e; sector e holds C(n, e) - C(n, e-1) of them.
bethe_solve takes each sector's classes from the homotopy solver
(tracker.solve_all with degrees (e, n + 1 - e)) and reads off their
residues, so it is deterministic and complete or raises.
"""

from dataclasses import dataclass

import numpy as np

from . import poly
from .errors import (DegeneratePair, DuplicatePoints, LengthMismatch,
                     MultipleRoot, NegativeDiscriminant, NotASolution)


@dataclass(frozen=True)
class FuchsianData:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class BetheSolution:
    a: np.ndarray
    x: np.ndarray
    s: int
    qstar: float
    degrees: tuple


def _simple_real_roots(A):
    r = poly.roots(A)
    if np.abs(r.imag).max(initial=0.0) > 1e-8 * (1 + np.abs(r).max(initial=0.0)):
        raise MultipleRoot("coefficient polynomial has non-real roots")
    a = np.sort(r.real)
    if a.size > 1:
        scale = 1 + np.abs(a).max()
        if np.diff(a).min() < 1e-8 * scale:
            raise MultipleRoot("coefficient polynomial has a root cluster")
    return a


def ode_from_pair(pair):
    """Second-order equation A y'' + B y' + C y = 0 satisfied by a pair."""
    y1, y2 = (poly.as_poly(p) for p in pair)
    if not poly.pair_independent(y1, y2):
        raise DegeneratePair("pair does not span a 2-dimensional space")
    A = poly.wronskian(y1, y2)
    B = -poly.derivative(A)
    C = poly.wronskian(poly.derivative(y1), poly.derivative(y2))
    a = _simple_real_roots(A)
    Ap = poly.derivative(A)
    x = np.real(poly.polyval(C, a) / poly.polyval(Ap, a))
    # Residues of P = B/A are -1 at every simple root of A.
    p_res = poly.polyval(B, a) / poly.polyval(Ap, a)
    if np.abs(p_res + 1.0).max(initial=0.0) > 1e-8:
        raise MultipleRoot("residues of B/A differ from -1")
    return FuchsianData(A=A, B=B, C=C, a=a, x=x)


def residues(pair, a):
    """Residues x_k of C/A at the prescribed singular points a."""
    data = ode_from_pair(pair)
    a = np.sort(np.asarray(a, dtype=float))
    if a.size != data.a.size or np.abs(a - data.a).max() > 1e-8 * (1 + np.abs(a).max()):
        raise MultipleRoot("points do not match the Wronskian roots")
    return data.x


def bethe_residual(x, a):
    """Defect of the quadratic system, one component per point."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if x.shape != a.shape:
        raise LengthMismatch("x and a must have the same length")
    if a.size > 1:
        aa = np.sort(a)
        if np.diff(aa).min() < 1e-12 * (1 + np.abs(a).max()):
            raise DuplicatePoints("singular points must be distinct")
    diff = a[None, :] - a[:, None]
    np.fill_diagonal(diff, np.inf)
    rhs = ((x[None, :] - x[:, None]) / diff).sum(axis=1)
    return x ** 2 - rhs


def prop6_check(x, a):
    """(sum of x, q* = sum x_k a_k, s = sqrt((n+1)^2 - 4 q*))."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    n = a.size
    total = float(x.sum())
    qstar = float((x * a).sum())
    disc = (n + 1) ** 2 - 4 * qstar
    if disc < -1e-9:
        raise NegativeDiscriminant("(n+1)^2 - 4 q* is negative")
    return total, qstar, float(np.sqrt(max(disc, 0.0)))


def _refine(x, a, iters=50):
    """Polish one candidate with the sum-augmented Gauss-Newton step."""
    n = a.size
    diff = a[None, :] - a[:, None]
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff
    x = np.asarray(x, dtype=float).copy()
    J = np.empty((n + 1, n))
    for _ in range(iters):
        F = np.concatenate([bethe_residual(x, a), [x.sum()]])
        J[:n, :] = -inv
        J[np.arange(n), np.arange(n)] = 2 * x + inv.sum(axis=1)
        J[n, :] = 1.0
        step, *_ = np.linalg.lstsq(J, F, rcond=None)
        x = x - step
        if np.abs(F).max() < 1e-14:
            break
    return x


def bethe_sector(a, e):
    """The solutions of one sector, whose class has lower degree e.

    Each class of degrees (e, n + 1 - e) with Wronskian roots a gives its
    residues, polished by _refine; raises NotASolution, naming the sector
    and the F-word, when one misses the residual, sum or s check.
    """
    from . import tracker
    a = np.sort(np.asarray(a, dtype=float))
    n = a.size
    d = n + 1 - e
    out = []
    for cls in tracker.solve_all(a, d, e):
        # + 0.0 turns the -0.0 of a zero residue over a negative A'(a_k)
        # into 0.0
        x = _refine(residues((cls.q1, cls.q2), a), a) + 0.0
        total, qstar, s = prop6_check(x, a)
        if np.abs(bethe_residual(x, a)).max() > 1e-9 or abs(total) > 1e-9 \
                or abs(s - (d - e)) > 1e-6:
            raise NotASolution(f"sector e={e}, word {cls.ballot}: residues "
                               "fail the Bethe check")
        out.append(BetheSolution(a=a, x=x, s=d - e, qstar=qstar,
                                 degrees=(d, e)))
    return out


def bethe_solve(a):
    """All real solutions of the quadratic system at the given points,
    sector by sector; see bethe_sector."""
    a = np.sort(np.asarray(a, dtype=float))
    n = a.size
    if n > 1 and np.diff(a).min() < 1e-12 * (1 + np.abs(a).max()):
        raise DuplicatePoints("singular points must be distinct")
    out = [sol for e in range(n // 2 + 1) for sol in bethe_sector(a, e)]
    out.sort(key=lambda sol: (sol.s, tuple(np.round(sol.x, 9))))
    return out


def _operator_matrix(A, B, C, n):
    """Matrix of y -> A y'' + B y' + C y on monomials of degree <= n + 1."""
    rows = 2 * n + 2
    M = np.zeros((rows, n + 2))
    for j in range(n + 2):
        ej = np.zeros(j + 1)
        ej[j] = 1.0
        img = poly.polyadd(poly.polymul(A, poly.derivative(poly.derivative(ej))),
                           poly.polyadd(poly.polymul(B, poly.derivative(ej)),
                                        poly.polymul(C, ej)))
        M[: img.size, j] = img
    return M


def polynomial_solutions(a, x):
    """Two-dimensional polynomial nullspace of the reconstructed operator.

    Returns the basis (y2, y1) in ascending degree, both monic, with
    deg y1 + deg y2 = n + 1.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    n = a.size
    A = poly.from_roots(a).real
    B = -poly.derivative(A)
    C = np.zeros(1)
    for ak, xk in zip(a, x):
        C = poly.polyadd(C, xk * poly.deflate(A, ak).real)
    M = _operator_matrix(A, B, C, n)
    scale = np.abs(M).max()
    _, sv, vh = np.linalg.svd(M / scale)
    if sv[-3] < 1e6 * max(sv[-2], 1e-300) or sv[-2] > 1e-8:
        raise NotASolution("operator nullspace is not 2-dimensional")
    basis = [poly.normalize(v, tol=1e-9) for v in vh[-2:]]
    basis.sort(key=poly.degree)
    lo, hi = basis
    if poly.degree(lo) == poly.degree(hi):
        lo = poly.normalize(poly.polysub(lo / lo[-1], hi / hi[-1]), tol=1e-9)
        basis = sorted([lo, hi], key=poly.degree)
        lo, hi = basis
    return (lo / lo[-1]).real, (hi / hi[-1]).real
