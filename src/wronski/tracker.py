"""Inverse Wronski solver.

A class of real pairs of degrees (e, d), 0 <= e < d, is represented
concretely in a chart: a real base point z0 and a vanishing pattern
b(k1, k2) with 0 <= k1 <= e and k1 < k2 <= d.  The chart's pairs are q1
monic of degree e with q1[:k1] = 0 and q2 monic of degree d with
q2[1:k2] = 0 and q2(z0) = 0; the other coefficients are the unknowns, n-k
of them for n = d+e-1 and k = k1 + k2 - 1.  Every pattern but b(0, 1) is
used at z0 = 0, where W(q1, q2) / z^k is d-e times a monic polynomial of
degree n-k, so the unknowns are fixed by asking it to vanish at as many
prescribed real roots rho_j.  One Newton corrector solves that square
system in Lagrange form, with rows W(rho_j) / (rho_j^k w'(rho_j) |rho_j|)
for w = prod (z - rho_j), and one predictor-corrector loop moves the rho_j
linearly.  Everything is real: the chart, the coefficients and the
roots, since a class with real critical points is real.

solve_all builds one branch per F-word of the degree pair (a ballot
sequence when e = d-1, the rational functions of degree d) and carries
each to the n requested points, returning every class.  Branch
construction is staged: every F-operation's newborn Wronskian root is
continued out to its prescribed position in the chart b(k1, k2) at 0
before the next operation fires, so only one root is ever microscopic and
each branch stays resolvable in double precision.  The finished branch
is renormalized into the chart b(0, 1) at a base point away from the
critical points, chosen by a fixed rule (solve_branch), and polished
there by the same corrector.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import poly
from .combinat import ballot_sequences
from .errors import (ChartDegenerate, CountMismatch, NewtonDiverged,
                     PathStuck, ScheduleExhausted, SingularJacobian)
from .seeds import CanonicalPair, apply_F, initial_pair

RESIDUAL_TOL = 1e-10    # Newton accepts rows below this or their noise floor
MAX_NEWTON = 8          # Newton steps per point
DT_INIT = 0.05          # first and largest homotopy step in t
DT_MIN = 1e-9           # relative step size that counts as PathStuck
BIRTH_RATIO = 0.05      # first birth parameter, and its shrink factor
BIRTH_RETRIES = 40      # shrinks before ScheduleExhausted


@dataclass(frozen=True)
class Chart:
    """Base point z0 and vanishing pattern b(k1, k2) for pairs of degrees
    (e, d), by default e = d-1; see the module docstring.  b(0, 1) is the
    chart of finished classes."""
    base_point: float
    d: int
    k1: int = 0
    k2: int = 1
    e: int = None

    def __post_init__(self):
        if self.e is None:
            object.__setattr__(self, "e", self.d - 1)


@dataclass(frozen=True)
class PairClass:
    """A polynomial pair normalized in a chart, plus its branch label."""
    q1: np.ndarray
    q2: np.ndarray
    chart: Chart
    ballot: str = ""

    @property
    def d(self):
        return self.chart.d

    def wronskian(self):
        return poly.wronskian(self.q1, self.q2)

    def wronskian_roots(self):
        return np.sort_complex(poly.roots(self.wronskian()))


def _unpack(u, chart):
    """Chart coordinates -> (q1, q2) coefficient arrays."""
    d, e, k1, k2 = chart.d, chart.e, chart.k1, chart.k2
    q1 = np.zeros(e + 1)
    q1[e] = 1.0
    q1[k1:e] = u[: e - k1]
    q2 = np.zeros(d + 1)
    q2[d] = 1.0
    q2[k2:d] = u[e - k1:]
    # q2(z0) = 0 pins the constant term.
    q2[0] = -P.polyval(chart.base_point, q2)
    return q1, q2


def _pack(q1, q2, chart):
    return np.concatenate([q1[chart.k1: chart.e], q2[chart.k2: chart.d]])


_TENSORS = {}


def _wronski_tensor(d, e):
    """T[m, a, b] = coefficient of z^m in W(z^a, z^b) = (b - a) z^(a+b-1)
    for a <= e, b <= d; built once per degree pair and read-only."""
    T = _TENSORS.get((d, e))
    if T is None:
        m = np.arange(d + e)[:, None, None]
        a = np.arange(e + 1)[None, :, None]
        b = np.arange(d + 1)[None, None, :]
        T = np.where(a + b - 1 == m, b - a, 0).astype(float)
        T.flags.writeable = False
        _TENSORS[(d, e)] = T
    return T


def _lagrange_weights(rho):
    """Row scales w'(rho_j) * |rho_j| for w = prod (z - rho_k).

    Dividing W(u)(rho_j) by w'(rho_j) measures the displacement of the
    j-th Wronskian root; the extra |rho_j| factor makes it a relative
    displacement, which is what keeps the exponentially small thorn roots
    (and with them the branch identity) resolvable in double precision.
    """
    diff = rho[:, None] - rho[None, :]
    np.fill_diagonal(diff, 1.0)
    return diff.prod(axis=1) * _magnitudes(rho)


def _magnitudes(rho):
    """|rho_j|, kept 1e-12 of the target scale away from 0."""
    return np.abs(rho) + 1e-12 * (1.0 + np.abs(rho).max())


def _lagrange_rows(u, chart, rho, weights):
    """The chart's square system in Lagrange form, evaluated at rho.

    Returns (r, dr, J, floor): the rows r_j = (W / z^k)(rho_j) / weights_j,
    their derivatives in rho_j, their Jacobian in the chart coordinates,
    and their noise floor.  By bilinearity the derivative in q1[a] is
    W(z^a, q2) and in q2[b] it is W(q1, z^b) - z0^b W(q1, 1), the second
    term from the pinned constant of q2; all of them, and W itself, come
    from one coefficient tensor and one Vandermonde product.
    """
    d, e, k1, k2 = chart.d, chart.e, chart.k1, chart.k2
    k = k1 + k2 - 1
    q1, q2 = _unpack(u, chart)
    T = _wronski_tensor(d, e)
    by_q1 = T @ q2                      # columns W(z^a, q2)
    by_q2 = q1 @ T                      # columns W(q1, z^b)
    w = by_q1 @ q1
    by_q2 = by_q2 - np.power(chart.base_point, np.arange(d + 1)) \
        * by_q2[:, :1]
    # W / z^k is structurally exact: every dropped coefficient is zero.
    body = w[k:]
    n = body.size - 1
    dbody = np.append(body[1:] * np.arange(1, n + 1), 0.0)
    V = np.vander(rho, n + 1, increasing=True)
    vals = V @ np.column_stack([body, dbody, by_q1[k:, k1:e],
                                by_q2[k:, k2:d]]) / weights[:, None]
    # Evaluating W loses eps * sum |c_i rho^i| to rounding, where |c_i|
    # bounds the terms that sum to the i-th coefficient; below that level
    # the residual is pure noise and Newton cannot be asked to go further.
    # The coefficients themselves would not do: at a root rho = 0 they give
    # |W(0)|, which vanishes with the residual.
    bound = (np.abs(T) @ np.abs(q2) @ np.abs(q1))[k:]
    floor = 50 * np.finfo(float).eps * (np.abs(V) @ bound) / np.abs(weights)
    return vals[:, 0], vals[:, 1], vals[:, 2:], floor


def _newton(u, chart, rho, cap=np.inf):
    """Newton-correct chart coordinates u onto Wronskian roots rho.

    A row is accepted below RESIDUAL_TOL, or below its noise floor where
    that is at most cap.  Returns (u, dr, J): the corrected point with the
    rho-derivative and Jacobian of its rows, from the evaluation that
    accepted it.
    """
    weights = _lagrange_weights(rho)
    for it in range(MAX_NEWTON + 1):
        r, dr, J, floor = _lagrange_rows(u, chart, rho, weights)
        if np.all(np.abs(r) <= np.maximum(RESIDUAL_TOL,
                                          np.minimum(floor, cap))):
            return u, dr, J
        if it < MAX_NEWTON:
            u = u - _equilibrated_solve(J, r, u)
    raise NewtonDiverged("Newton did not converge")


def _equilibrated_solve(J, r, u):
    """Solve J x = r with columns scaled by coefficient magnitude.

    Near the thorn the unknowns span many orders of magnitude; scaling by
    |u_i| makes the solve (and its condition estimate) act on relative
    coefficient changes, which is the well-conditioned formulation there.
    """
    umax = np.abs(u).max()
    colscale = np.abs(u) + 1e-14 * (umax if umax > 0 else 1.0)
    Js = J * colscale[None, :]
    colnorm = np.abs(Js).max(axis=0)
    if np.any(colnorm == 0):
        raise SingularJacobian("Jacobian has a zero column")
    Js = Js / colnorm[None, :]
    s = np.linalg.svd(Js, compute_uv=False)
    if s[-1] == 0 or s[0] / s[-1] > 1e12:
        raise SingularJacobian("Jacobian condition estimate above 1e12")
    return np.linalg.solve(Js, r) / colnorm * colscale


def _track(u, chart, start, end):
    """Linear root homotopy rho(t) = start + t (end - start) in one chart."""
    rates = end - start
    t, dt = 0.0, DT_INIT
    _, dr, J, _ = _lagrange_rows(u, chart, start, _lagrange_weights(start))
    while t < 1.0:
        step = min(dt, 1.0 - t)
        try:
            # Euler predictor on the implicit system r(u, rho(t)) = 0, from
            # the rows that accepted u.
            du = _equilibrated_solve(J, -dr * rates, u) * step
            u_next, dr_next, J_next = _newton(u + du, chart,
                                              start + (t + step) * rates)
        except (NewtonDiverged, SingularJacobian, np.linalg.LinAlgError):
            dt = step / 2
            # Near t = 0 the newborn root is microscopic and legitimately
            # needs steps below DT_MIN; the underflow trigger is relative
            # to the distance already travelled.
            if dt < DT_MIN * max(t, DT_MIN):
                raise PathStuck("staged step size underflow")
            continue
        u, dr, J = u_next, dr_next, J_next
        t += step
        dt = min(2 * dt, DT_INIT)
    return u


def newton_polish(pc, target_roots):
    """Newton-correct a pair class onto the given target critical points.

    The noise floor excuses a row only while the rounding it stands for
    moves the root by less than half the gap to its nearest neighbour;
    beyond that the chart cannot tell the class from the next one.  (The
    staged stages need no cap: the birth after each checks its roots.)
    """
    rho = np.sort(np.asarray(target_roots))
    gaps = np.diff(rho)
    nearest = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    cap = 0.5 * nearest / _magnitudes(rho)
    u, _, _ = _newton(_pack(pc.q1, pc.q2, pc.chart), pc.chart, rho, cap)
    q1, q2 = _unpack(u, pc.chart)
    return PairClass(q1=q1, q2=q2, chart=pc.chart, ballot=pc.ballot)


def to_chart(f1, f2, chart):
    """Renormalize a spanning pair into chart form.

    Raises ChartDegenerate when the class has no representative with
    q2 monic of degree d vanishing at the base point and q1 monic of
    degree e; that happens for finitely many base points per class.
    """
    d, e = chart.d, chart.e
    z0 = chart.base_point
    width = max(len(f1), len(f2), d + 1)
    a = np.zeros(width)
    b = np.zeros(width)
    a[: len(f1)] = f1
    b[: len(f2)] = f2
    v1, v2 = P.polyval(z0, a), P.polyval(z0, b)
    # Combination vanishing at the base point.
    g2 = v2 * a - v1 * b
    if np.abs(g2).max() == 0.0 \
            or np.abs(g2[d + 1:]).max(initial=0.0) > 1e-9 * np.abs(g2).max() \
            or abs(g2[d]) < 1e-9 * np.abs(g2).max():
        raise ChartDegenerate("no monic degree-d representative vanishes here")
    g2 = g2 / g2[d]
    # Complementary element of degree exactly e.
    h = a if abs(v1) <= abs(v2) else b
    g1 = h - h[d] * g2
    if np.abs(g1[e + 1:]).max(initial=0.0) > 1e-9 * np.abs(g1).max() \
            or abs(g1[e]) < 1e-9 * np.abs(g1).max():
        raise ChartDegenerate("no monic degree-e complement here")
    g1 = g1 / g1[e]
    return g1[: e + 1], g2[: d + 1]


def _affine_into_unit(points):
    """Order-preserving affine map with image inside [-0.95, -0.05]; a
    single point goes to -0.95."""
    pmin, pmax = points.min(), points.max()
    alpha = 0.9 / ((pmax - pmin) or 1.0)
    beta = -0.95 - alpha * pmin
    return alpha, beta


def _birth_roots(pair):
    """Roots of W(pair) / z^order, the ones away from 0, by real part."""
    body = poly.wronskian(pair.q1, pair.q2)[pair.order:]
    r = np.roots(body[::-1])
    return r[np.argsort(r.real)]


def _birth_ok(roots_now, placed, span):
    """Did apply_F create exactly one new simple real root nearest zero,
    leaving the placed roots in position?"""
    m = roots_now.size
    if m != placed.size + 1:
        return False
    if np.abs(roots_now.imag).max(initial=0.0) > 1e-7 * (1.0 + span):
        return False
    r = np.sort(roots_now.real)
    if r[-1] >= 0 or (placed.size and r[-1] <= placed[-1]):
        return False
    if placed.size:
        gaps = np.diff(np.concatenate([placed, [0.0]]))
        if np.abs(r[:-1] - placed).max() > 0.3 * gaps.min():
            return False
    return True


def build_branch(sigma, mapped, d):
    """Construct the sigma-branch class with Wronskian roots at `mapped`.

    The lower degree e is the number of letters 1 in the F-word sigma.
    Staged version of the thorn construction: after every F-operation the
    newborn root is immediately continued from its small birth position
    to the next prescribed root, inside the b(k1, k2) chart whose
    vanishing pattern pins the remaining root multiplicity at 0.  Only one
    root is ever microscopic, which keeps every branch resolvable in
    double precision.
    """
    mapped = np.sort(np.asarray(mapped, dtype=float))
    if mapped[-1] >= 0 or mapped[0] <= -1:
        raise ValueError("staged targets must lie in (-1, 0)")
    span = np.abs(mapped).max()
    e = sigma.count("1")
    pair = initial_pair(d, e)
    for m, ch in enumerate(sigma, start=1):
        a = BIRTH_RATIO
        placed = mapped[: m - 1]
        for _ in range(BIRTH_RETRIES):
            cand = apply_F(int(ch), a, pair)
            born = _birth_roots(cand)
            if _birth_ok(born, placed, span):
                break
            a *= BIRTH_RATIO
        else:
            raise ScheduleExhausted(
                f"no valid birth parameter at step {m} of {sigma!r}")
        chart = Chart(base_point=0.0, d=d, k1=cand.k1, k2=cand.k2, e=e)
        u = _track(_pack(cand.q1, cand.q2, chart), chart,
                   np.sort(born.real), mapped[:m])
        q1, q2 = _unpack(u, chart)
        pair = CanonicalPair(d=d, k1=cand.k1, k2=cand.k2,
                             q1=q1, q2=q2, sigma=sigma[:m])
    return PairClass(q1=pair.q1, q2=pair.q2,
                     chart=Chart(base_point=0.0, d=d, e=e), ballot=sigma)


def solve_branch(sigma, points, d):
    """Build one F-word branch and carry it to the given points."""
    points = np.sort(np.asarray(points, dtype=float))
    alpha, beta = _affine_into_unit(points)
    mapped = alpha * points + beta
    tracked = build_branch(sigma, mapped, d)
    # Undo the affine map: substitute z -> alpha*z + beta in both
    # polynomials, which carries the Wronskian roots back onto points.
    f1 = poly.compose_affine(tracked.q1, alpha, beta)
    f2 = poly.compose_affine(tracked.q2, alpha, beta)
    e = tracked.chart.e
    # Polish chart bases, nearest 0 first: 0, then +-2^k / 16.  The pinned
    # constant q2[0] = -sum q2[b] z0^b loses eps * sum |q2[b] z0^b|, which
    # grows with |z0|.  A base within 1e-2 of a point is skipped.
    for z0 in [0.0, *(s * 2.0 ** k / 16 for k in range(20) for s in (1, -1))]:
        if np.abs(points - z0).min() < 1e-2:
            continue
        try:
            chart = Chart(base_point=z0, d=d, e=e)
            g1, g2 = to_chart(f1, f2, chart)
            pc = PairClass(q1=g1, q2=g2, chart=chart, ballot=sigma)
            return newton_polish(pc, points)
        except (ChartDegenerate, NewtonDiverged, SingularJacobian):
            continue
    raise PathStuck(f"could not renormalize branch {sigma!r}")


def solve_all(points, d, e=None, jobs=1):
    """All classes of real pairs of degrees (e, d) whose Wronskian vanishes
    exactly at the n = d+e-1 points; by default e = d-1, the classes of
    degree-d rational functions critical exactly at points.

    Returns one class per F-word, C(n, e) - C(n, e-1) of them (catalan(d)
    at the default), sorted by word; raises CountMismatch if deduplication
    does not yield exactly that many.
    """
    e = d - 1 if e is None else e
    points = np.asarray(points, dtype=float)
    if points.size != d + e - 1:
        raise ValueError(f"need {d + e - 1} points for degree {d}")
    if np.unique(points).size != points.size:
        raise ValueError("points must be distinct")
    sigmas = ballot_sequences(d, e)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            classes = list(pool.map(solve_branch, sigmas,
                                    [points] * len(sigmas),
                                    [d] * len(sigmas)))
    else:
        classes = [solve_branch(s, points, d) for s in sigmas]
    logs = []
    distinct = []
    for pc in classes:
        dup = next((q for q in distinct if poly.span_equivalent(
            (pc.q1, pc.q2), (q.q1, q.q2), tol=1e-6)), None)
        if dup is None:
            distinct.append(pc)
        else:
            logs.append(f"branch {pc.ballot} duplicates {dup.ballot}")
    if len(distinct) != len(sigmas):
        raise CountMismatch(
            f"expected {len(sigmas)} classes, got {len(distinct)}", logs)
    return sorted(distinct, key=lambda pc: pc.ballot)
