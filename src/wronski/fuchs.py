"""Fuchsian / Bethe dictionary for pairs of polynomials.

A pair (y1, y2) spanning a class satisfies a second order equation
A y'' + B y' + C y = 0 with A = W(y1, y2), B = -A', C = W(y1', y2').
The residues x_k of Q = C/A at the roots a_k of A solve the quadratic
rational system

    x_k^2 = sum_{j != k} (x_j - x_k) / (a_j - a_k),

and conversely every real solution of that system reconstructs a class
through the two-dimensional polynomial nullspace of the operator.
"""

from dataclasses import dataclass

import numpy as np

from . import poly
from .errors import (DegeneratePair, DuplicatePoints, MultipleRoot,
                     NegativeDiscriminant, NotASolution, WronskiError)


@dataclass(frozen=True)
class FuchsianData:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: np.ndarray
    x: np.ndarray
    p_loc: np.ndarray
    q_loc: np.ndarray


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


def _local_coeffs(a, x):
    n = a.size
    diff = a[None, :] - a[:, None]          # diff[k, j] = a_j - a_k
    np.fill_diagonal(diff, np.inf)
    p_loc = (1.0 / diff).sum(axis=1)
    q_loc = -(x[None, :] / diff).sum(axis=1)
    return p_loc, q_loc


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
    p_loc, q_loc = _local_coeffs(a, x)
    return FuchsianData(A=A, B=B, C=C, a=a, x=x, p_loc=p_loc, q_loc=q_loc)


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
        raise DuplicatePoints("x and a must have the same length")
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


def _admissible(x, a, tol=1e-9):
    try:
        total, _, s = prop6_check(x, a)
    except NegativeDiscriminant:
        return None
    n = a.size
    if abs(total) > tol:
        return None
    s_int = int(round(s))
    if abs(s - s_int) > 1e-6 or not 1 <= s_int <= n + 1:
        return None
    if (n + s_int) % 2 == 0:
        return None
    return s_int


def _multistart(a, budget, seed):
    """Batched Gauss-Newton sweep over random starts.

    The square quadratic system has exactly singular Jacobians at the
    degenerate solutions (the ones with s > 1), where plain Newton only
    stagnates in a flat valley.  Appending the linear constraint
    sum(x) = 0 -- satisfied by every genuine solution -- restores full
    column rank and quadratic convergence.
    """
    n = a.size
    rng = np.random.default_rng(seed)
    diff = a[None, :] - a[:, None]
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff                         # inv[k, j] = 1/(a_j - a_k)
    offdiag = -inv                           # dF_k/dx_j for j != k
    row_sum = inv.sum(axis=1)
    batch = 2000
    found = []
    done = 0
    while done < budget:
        b = min(batch, budget - done)
        done += b
        X = rng.uniform(-n, n, size=(b, n))
        for _ in range(60):
            F = np.concatenate(
                [bethe_residual_batch(X, inv), X.sum(axis=1, keepdims=True)],
                axis=1)
            J = np.empty((b, n + 1, n))
            J[:, :n, :] = offdiag
            J[:, np.arange(n), np.arange(n)] = 2 * X + row_sum
            J[:, n, :] = 1.0
            JT = J.transpose(0, 2, 1)
            lhs = JT @ J + 1e-14 * np.eye(n)
            step = np.linalg.solve(lhs, JT @ F[:, :, None])[:, :, 0]
            X = np.clip(X - step, -1e6, 1e6)
        F = bethe_residual_batch(X, inv)
        ok = np.abs(F).max(axis=1) <= 1e-9
        ok &= np.abs(X.sum(axis=1)) <= 1e-9
        ok &= np.isfinite(X).all(axis=1)
        found.append(X[ok])
    return np.concatenate(found) if found else np.empty((0, n))


def bethe_residual_batch(X, inv):
    return X ** 2 - ((X[:, None, :] - X[:, :, None]) * inv).sum(axis=2)


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


def _single_charge_candidates(a):
    """Solutions whose smaller polynomial has degree one.

    For y2 = z - z1 the equation forces A'(z1) = 0 and then
    C = A'/(z - z1) exactly, so every real critical point of
    A = prod(z - a_j) yields one candidate in closed form.
    """
    A = poly.from_roots(a).real
    Ap = poly.derivative(A)
    out = []
    for z1 in poly.real_roots(Ap):
        C = poly.deflate(Ap, z1).real
        out.append(np.real(poly.polyval(C, a) / poly.polyval(Ap, a)))
    return out


def bethe_solve(a, budget=100000, seed=0):
    """All real solutions of the quadratic system at the given points.

    Candidates come from three sources: the trivial solution x = 0, the
    homotopy solver when n = 2d - 2 allows it, and a budgeted multistart
    Newton sweep.  Everything is filtered through the residual and the
    sum / discriminant constraints, then deduplicated.
    """
    a = np.sort(np.asarray(a, dtype=float))
    n = a.size
    if n > 1 and np.diff(a).min() < 1e-12 * (1 + np.abs(a).max()):
        raise DuplicatePoints("singular points must be distinct")
    candidates = [np.zeros(n)]
    candidates.extend(_single_charge_candidates(a))
    if n >= 2 and n % 2 == 0:
        from . import tracker
        try:
            for cls in tracker.solve_all(a, (n + 2) // 2):
                candidates.append(residues((cls.q1.real, cls.q2.real), a))
        except WronskiError:
            pass
    if budget > 0:
        candidates.extend(_multistart(a, budget, seed))
    out = []
    for x in map(lambda c: _refine(c, a), candidates):
        if np.abs(bethe_residual(x, a)).max() > 1e-9:
            continue
        s = _admissible(x, a)
        if s is None:
            continue
        if any(np.abs(x - prev.x).max() < 1e-6 for prev in out):
            continue
        _, qstar, _ = prop6_check(x, a)
        out.append(BetheSolution(a=a, x=x, s=s, qstar=qstar,
                                 degrees=((n + 1 + s) // 2, (n + 1 - s) // 2)))
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
