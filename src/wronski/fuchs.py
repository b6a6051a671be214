"""Fuchsian / Bethe dictionary for pairs of polynomials.

A pair (y1, y2) spanning a class satisfies a second order equation
A y'' + B y' + C y = 0 with A = W(y1, y2), B = -A', C = W(y1', y2').
Its singular points are the roots a_k of A, the prescribed critical
points, so residues evaluates x_k = C(a_k)/A'(a_k) at the given points, for
every class of a call in one pass over tracker.derivative_stack, with no
equation built.  The residues x_k of Q = C/A solve the quadratic system

    x_k^2 = sum_{j != k} (x_j - x_k) / (a_j - a_k),

and conversely every real solution of that system reconstructs a class
through the two-dimensional polynomial nullspace of the operator.

The solutions split into sectors by the lower degree e <= n/2 of the
class, with s = n + 1 - 2e; sector e holds C(n, e) - C(n, e-1) of them.
bethe_solve takes each sector's classes from the homotopy solver
(tracker.solve_all with degrees (e, n + 1 - e)) and reads off their
residues, so it is deterministic and complete or raises.  A solution
is accepted when its residual is small relative to the size of the terms
it sums, since residues grow like 1/gap when points cluster.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import poly, tracker
from .errors import InvalidInput, NotASolution


@dataclass(frozen=True)
class BetheSolution:
    a: np.ndarray
    x: np.ndarray
    s: int
    qstar: float
    degrees: tuple


def ode_from_pair(pair):
    """(A, B, C) of the equation A y'' + B y' + C y = 0 satisfied by a
    pair."""
    y1, y2 = (poly.as_poly(p) for p in pair)
    if not poly.pair_independent(y1, y2):
        raise InvalidInput("pair does not span a 2-dimensional space")
    A = poly.wronskian(y1, y2)
    return A, -P.polyder(A), poly.wronskian(P.polyder(y1), P.polyder(y2))


def residues(classes, a):
    """Residues x_k = C(a_k)/A'(a_k), A' = q1 q2'' - q1'' q2 and
    C = q1' q2'' - q1'' q2', at the ascending points, of every class of a
    list (or pair (q1, q2) written by hand): shape (classes, points).
    InvalidInput unless each pair has nonzero members of degrees e < d, as
    a class has and a dependent pair has not, and d + e - 1 points, the
    roots of A = W(q1, q2); NotASolution where |A(a_k)| exceeds 1e-8 times
    the terms it sums, (|q1| |q2'| + |q1'| |q2|)(|a_k|)."""
    a = np.sort(np.asarray(a, dtype=float))
    C = tracker.derivative_stack(classes, 2)
    # each pair's degrees, lower first, at its last nonzero coefficients
    e, d = np.sort((C[:2] != 0).cumsum(axis=1).argmax(axis=1), axis=0)
    if not C[:2].any(axis=1).all() or np.any((e == d) | (d + e - 1 != a.size)):
        raise InvalidInput("need two nonzero polynomials of distinct degrees "
                           "and one point per root of their Wronskian")
    y1, y2, d1, d2, s1, s2 = tracker.evaluate(C[..., None], a)
    m1, m2, n1, n2 = tracker.evaluate(np.abs(C[:4, ..., None]), np.abs(a))
    if np.any(np.abs(y1 * d2 - d1 * y2) > 1e-8 * (m1 * n2 + n1 * m2)):
        raise NotASolution("points are not roots of the Wronskian")
    return (d1 * s2 - s1 * d2) / (y1 * s2 - s1 * y2)


def bethe_residual(x, a):
    """Defect of the quadratic system, one component per point."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if x.shape != a.shape:
        raise InvalidInput("x and a must have the same length")
    tracker.distinct_points(a)
    diff = a[None, :] - a[:, None]
    np.fill_diagonal(diff, np.inf)
    rhs = ((x[None, :] - x[:, None]) / diff).sum(axis=1)
    return x ** 2 - rhs


def _term_size(x, a):
    """Size of the terms that each Bethe residual component and the sum of
    x add up: x_k^2 + sum_j (|x_j| + |x_k|) / |a_j - a_k|, then sum |x_k|.
    Rounding alone leaves about eps times that, however large x grows."""
    ax = np.abs(x)
    gaps = np.abs(a[None, :] - a[:, None])
    np.fill_diagonal(gaps, np.inf)
    return np.append(x ** 2 + ((ax[None, :] + ax[:, None]) / gaps).sum(axis=1),
                     ax.sum())


def _refine(x, a, iters=50):
    """Polish one candidate with the sum-augmented Gauss-Newton step, until
    its defect is within 1e-14 of _term_size."""
    n = a.size
    diff = a[None, :] - a[:, None]
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff
    x = np.asarray(x, dtype=float).copy()
    J = np.empty((n + 1, n))
    for _ in range(iters):
        F = np.append(bethe_residual(x, a), x.sum())
        done = np.all(np.abs(F) <= 1e-14 * _term_size(x, a))
        J[:n, :] = -inv
        J[np.arange(n), np.arange(n)] = 2 * x + inv.sum(axis=1)
        J[n, :] = 1.0
        step, *_ = np.linalg.lstsq(J, F, rcond=None)
        x = x - step
        if done:
            break
    return x


def bethe_sector(a, e):
    """The solutions of one sector, whose class has lower degree e.

    Each class of degrees (e, n + 1 - e) with Wronskian roots a gives its
    residues, polished by _refine; raises NotASolution, naming the sector
    and the F-word, when one misses the residual and sum check, which
    allows 1e-9 of _term_size, or the s check, s = d - e, which allows
    q* = sum x_k a_k to miss ((n+1)^2 - (d-e)^2) / 4 by 1e-9 of
    sum |x_k a_k|.
    """
    a = np.sort(np.asarray(a, dtype=float))
    n = a.size
    d = n + 1 - e
    out = []
    classes = tracker.solve_all(a, d, e)
    for cls, x in zip(classes, residues(classes, a)):
        # + 0.0 turns the -0.0 of a zero residue into 0.0
        x = _refine(x, a) + 0.0
        qstar = float((x * a).sum())
        F = np.append(bethe_residual(x, a), x.sum())
        if np.any(np.abs(F) > 1e-9 * _term_size(x, a)) \
                or abs((n + 1) ** 2 - 4 * qstar - (d - e) ** 2) \
                > 4e-9 * np.abs(x * a).sum():
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
        img = P.polyadd(P.polymul(A, P.polyder(ej, 2)),
                        P.polyadd(P.polymul(B, P.polyder(ej)),
                                  P.polymul(C, ej)))
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
    A = P.polyfromroots(a)
    B = -P.polyder(A)
    C = np.zeros(1)
    for ak, xk in zip(a, x):
        C = P.polyadd(C, xk * poly.deflate(A, ak))
    M = _operator_matrix(A, B, C, n)
    scale = np.abs(M).max()
    _, sv, vh = np.linalg.svd(M / scale)
    if sv[-3] < 1e6 * max(sv[-2], 1e-300) or sv[-2] > 1e-8:
        raise NotASolution("operator nullspace is not 2-dimensional")
    lo, hi = sorted((poly.trim(v, 1e-9) for v in vh[-2:]), key=len)
    if lo.size == hi.size:
        lo = poly.trim(P.polysub(lo / lo[-1], hi / hi[-1]), 1e-9)
        lo, hi = sorted([lo, hi], key=len)
    return (lo / lo[-1]).real, (hi / hi[-1]).real
