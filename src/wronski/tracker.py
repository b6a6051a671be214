"""Inverse Wronski solver.

A class of real pairs of degrees (e, d), 0 <= e < d, is represented
concretely in a chart: a real base point z0 and a vanishing pattern
b(k1, k2) with 0 <= k1 <= e and k1 < k2 <= d.  The chart's pairs are q1
monic of degree e with q1[:k1] = 0 and q2 monic of degree d with
q2[1:k2] = 0 and q2(z0) = 0; the other coefficients are the unknowns, n-k
of them for n = d+e-1 and k = k1 + k2 - 1.  Every pattern but b(0, 1) is
used at z0 = 0, where W(q1, q2) / z^k is d-e times a monic polynomial of
degree n-k, so the unknowns are fixed by asking it to vanish at as many
prescribed real roots rho_j.  That square system is solved in Lagrange
form, with rows W(rho_j) / (rho_j^k w'(rho_j) |rho_j|) for
w = prod (z - rho_j).  Everything is real: the chart, the coefficients and
the roots, since a class with real critical points is real.

solve_all builds one class per F-word of the degree pair (a ballot
sequence when e = d-1, the rational functions of degree d) and carries
each to the n requested points.  Construction is staged: every
F-operation fires with parameter a = 0, where W / z^k of the newborn pair
is z times its parent's, so its roots are exactly the placed ones and 0.
The corrector then carries the newborn root from 0 to its prescribed
position in the chart b(k1, k2) at 0 before the next operation fires, so
only one root is ever microscopic and each class stays resolvable in
double precision.  A stage's start and its targets depend only on the
word's prefix, so the stages form a trie: one node per prefix, built once
and shared by every word through it.

One stack, _Lockstep, is the only Newton corrector.  It moves the rho_j
of many charts at one base point linearly in t, each with its own t,
step size and Newton count, while every evaluation of the rows,
condition estimate and linear solve is one stacked NumPy call; a node's
arithmetic and its decisions are those it would make alone.  A node's
step doubles after every accepted point and halves when a few Newton
steps cannot correct the predicted one, so the corrector, not a fixed
cap, sets how many steps a stage takes, within a budget of MAX_TICKS
ticks.  All trie nodes of one depth share their targets and advance
together from t = 0, so build_branch, the one-word trie, gives each word
the class solve_all gives it.  The finished words are renormalized into
the chart b(0, 1) at a base point away from the critical points, chosen
by a fixed rule, and polished there down to the noise floor as one stack
that only corrects, at t = 1 (_polish).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial import polynomial as P

from . import poly
from .combinat import ballot_sequences
from .errors import ChartDegenerate, CountMismatch, PathStuck
from .seeds import CanonicalPair, apply_F, initial_pair

RESIDUAL_TOL = 1e-10    # staged rows are accepted below this or their floor
MAX_NEWTON = 3          # Newton steps per point; a miss halves the step
DT_INIT = 0.05          # first homotopy step in t
MAX_TICKS = 100         # ticks a node may use in one stack before PathStuck

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


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

    def unknowns(self):
        """Positions of the chart coordinates in the concatenated
        coefficients (q1 | q2)."""
        return np.concatenate([np.arange(self.k1, self.e),
                               self.e + 1 + np.arange(self.k2, self.d)])


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


def _coefficients(U, pos, d, e, z0):
    """Stacked chart coordinates -> (q1, q2) coefficient stacks, for
    charts at one base point z0 whose unknowns sit at positions pos
    (Chart.unknowns) of (q1 | q2)."""
    N, width = U.shape[0], d + e + 2
    c = np.zeros((N, width))
    c[:, e] = 1.0
    c[:, -1] = 1.0
    c.reshape(-1)[pos + width * np.arange(N)[:, None]] = U
    q1, q2 = c[:, :e + 1], c[:, e + 1:]
    # q2(z0) = 0 pins the constant term; Horner's rule, as polyval.
    acc = q2[:, d] + z0 * 0
    for b in range(d - 1, -1, -1):
        acc = q2[:, b] + acc * z0
    q2[:, 0] = -acc
    return q1, q2


def _pack(q1, q2, chart):
    return np.concatenate([q1[chart.k1: chart.e], q2[chart.k2: chart.d]])


@cache
def _wronski_tensor(d, e):
    """T[m, a, b] = coefficient of z^m in W(z^a, z^b) = (b - a) z^(a+b-1)
    for a <= e, b <= d; built once per degree pair and read-only."""
    m = np.arange(d + e)[:, None, None]
    a = np.arange(e + 1)[None, :, None]
    b = np.arange(d + 1)[None, None, :]
    T = np.where(a + b - 1 == m, b - a, 0).astype(float)
    T.flags.writeable = False
    return T


@cache
def _wronski_terms(d, e):
    """T has at most one nonzero entry along each of its last two axes, at
    a + b = m + 1.  Returns (B, TB, A, TA): that entry's position and value,
    so that T @ q2 = TB * q2[B] and q1 @ T = TA * q1[A] with every
    coefficient of either a single product."""
    T = _wronski_tensor(d, e)
    B = np.abs(T).argmax(axis=2)
    A = np.abs(T).argmax(axis=1)
    terms = (B, np.take_along_axis(T, B[..., None], axis=2)[..., 0],
             A, np.take_along_axis(T, A[:, None, :], axis=1)[:, 0])
    for t in terms:
        t.flags.writeable = False
    return terms


def _lagrange_weights(rho):
    """Row scales w'(rho_j) * |rho_j| for w = prod (z - rho_k), along the
    last axis of rho.

    Dividing W(u)(rho_j) by w'(rho_j) measures the displacement of the
    j-th Wronskian root; the extra |rho_j| factor makes it a relative
    displacement, which is what keeps the exponentially small thorn roots
    (and with them the branch identity) resolvable in double precision.
    """
    m = rho.shape[-1]
    diff = rho[..., :, None] - rho[..., None, :]
    diff.reshape(-1, m * m)[:, ::m + 1] = 1.0
    return diff.prod(axis=-1) * _magnitudes(rho)


def _magnitudes(rho):
    """|rho_j|, kept 1e-12 of the target scale away from 0."""
    size = np.abs(rho)
    return size + 1e-12 * (1.0 + size.max(axis=-1, keepdims=True))


def _stacked_rows(U, pos, d, e, z0, rho, weights):
    """The square systems of a stack of charts in Lagrange form.

    All charts share the degrees, the base point z0 and the number m of
    unknowns; row i of U holds the coordinates of chart i, whose unknowns
    sit at positions pos[i] of (q1 | q2).  Returns (r, dr, J, floor),
    stacked: the rows r_j = (W / z^k)(rho_j) / weights_j, their
    derivatives in rho_j, their Jacobian in the chart coordinates, and
    their noise floor.  By bilinearity the derivative in q1[a] is
    W(z^a, q2) and in q2[b] it is W(q1, z^b) - z0^b W(q1, 1), the second
    term from the pinned constant of q2; all of them, and W itself, come
    from the coefficient tensor (_wronski_terms) and one Vandermonde
    product.
    """
    N, m = U.shape
    k = d + e - 1 - m
    width = d + e + 2
    q1, q2 = _coefficients(U, pos, d, e, z0)
    B, TB, A, TA = _wronski_terms(d, e)
    by_q1 = TB * np.take(q2, B, axis=1)     # columns W(z^a, q2)
    by_q2 = TA * np.take(q1, A, axis=1)     # columns W(q1, z^b)
    w = (by_q1 @ q1[:, :, None])[..., 0]
    # W / z^k is structurally exact: every dropped coefficient is zero.
    body = w[:, k:]
    both = np.empty((N, m + 1, width))
    both[..., :e + 1] = by_q1[:, k:]
    both[..., e + 1:] = by_q2[:, k:] \
        - np.power(z0, np.arange(d + 1)) * by_q2[:, k:, :1]
    V = np.empty((N, m, m + 1))
    V[..., 0] = 1.0
    V[..., 1:] = rho[..., None]
    np.multiply.accumulate(V[..., 1:], out=V[..., 1:], axis=-1)
    cols = np.empty((N, m + 1, m + 2))
    cols[:, :, 0] = body
    cols[:, :-1, 1] = body[:, 1:] * np.arange(1, m + 1)
    cols[:, -1, 1] = 0.0
    cols[:, :, 2:] = both.reshape(N, -1)[
        np.arange(N)[:, None, None],
        pos[:, None, :] + width * np.arange(m + 1)[:, None]]
    vals = V @ cols / weights[..., None]
    # Evaluating W loses eps * sum |c_i rho^i| to rounding, where |c_i|
    # bounds the terms that sum to the i-th coefficient; below that level
    # the residual is pure noise and Newton cannot be asked to go further.
    # The coefficients themselves would not do: at a root rho = 0 they give
    # |W(0)|, which vanishes with the residual.
    bound = (np.abs(by_q1) @ np.abs(q1)[:, :, None])[:, k:]
    floor = 50 * _EPS * (np.abs(V) @ bound)[..., 0] / np.abs(weights)
    return vals[..., 0], vals[..., 1], vals[..., 2:], floor


def _equilibrated_solves(J, r, U):
    """Solve the stacked systems J x = r with columns scaled by coefficient
    magnitude; returns (x, ok).

    Near the thorn the unknowns span many orders of magnitude; scaling by
    |u_i| makes the solve (and its condition estimate) act on relative
    coefficient changes, which is the well-conditioned formulation there.
    A system with a zero or non-finite column or a condition estimate
    above 1e12 is singular: its ok is False and its x is meaningless.  It
    enters the stacked SVD and solve as the identity, since either call
    raises for the whole stack on one matrix it rejects; should LAPACK
    still reject one, the systems are solved one by one.
    """
    magnitude = np.abs(U)
    umax = magnitude.max(axis=1, keepdims=True)
    colscale = magnitude + 1e-14 * np.where(umax > 0, umax, 1.0)
    Js = J * colscale[:, None, :]
    colnorm = np.abs(Js).max(axis=1)
    ok = np.all((colnorm > 0) & (colnorm < np.inf), axis=1)
    if not ok.all():
        colnorm[~ok] = 1.0
        Js[~ok] = np.eye(U.shape[1])
    Js /= colnorm[:, None, :]
    try:
        s = np.linalg.svd(Js, compute_uv=False)
        # The smallest singular value is kept off 0, so that an exactly
        # singular matrix fails the test without a division by zero.
        conditioned = s[:, 0] / np.maximum(s[:, -1], _TINY) <= 1e12
        if not conditioned.all():
            ok &= conditioned
            Js[~ok] = np.eye(U.shape[1])
        x = np.linalg.solve(Js, r[..., None])[..., 0] / colnorm * colscale
    except np.linalg.LinAlgError:
        if U.shape[0] == 1:
            return np.full(U.shape, np.nan), np.zeros(1, dtype=bool)
        x, ok = zip(*(_equilibrated_solves(J[i:i + 1], r[i:i + 1],
                                           U[i:i + 1])
                      for i in range(U.shape[0])))
        return np.concatenate(x), np.concatenate(ok)
    return x, ok


class _Lockstep:
    """Charts at one base point z0, each tracked along its linear root
    homotopy rho_i(t) = start_i + t (end - start_i) from t = t0 to 1.  This
    is the one Newton corrector: the staged depths run it from t0 = 0, the
    final polish as the bare correction at t0 = 1 with start = end.

    A row is accepted below tol (the staged depths pass RESIDUAL_TOL, the
    polish 0), or below its noise floor where that is at most its cap.
    Every node runs the predictor-corrector of a single path: a correction
    onto rho(t0), then from the rows that accepted u an Euler predictor to
    t + step, then up to MAX_NEWTON Newton steps on rho(t + step).  The
    first step is DT_INIT, and every acceptance, the start correction's
    included, doubles it, with step = min(dt, 1 - t): the corrector alone
    bounds the step.  A point that MAX_NEWTON Newton steps do not correct,
    or a singular solve, means the step was too long: it is halved and
    retried from u.  A node is stuck when it must halve a zero step, which
    is a miss at t0, or when it has used MAX_TICKS ticks without arriving.
    The node's pending solve is x = J^-1 r from base, giving the next
    iterate v = base + coef * x: the predictor has coef = step and
    r = -dr (end - start), a Newton step coef = -1.

    A tick evaluates the rows of every node, accepts or corrects the
    fresh iterates among them, then makes every node's pending solve:
    each as one stacked call, with per-node masks choosing what each node
    keeps.  A node leaves the stack when it arrives at t = 1 or is stuck.
    """

    _STATE = ("node", "pos", "start", "rates", "cap", "u", "v", "t", "dt",
              "step", "it", "ticks", "fresh", "J_u", "r_u", "J", "r", "base",
              "coef", "rho", "weights")

    def __init__(self, U, pos, d, e, z0, starts, end, t0, cap, tol):
        N, m = U.shape
        self.d, self.e, self.z0, self.tol = d, e, z0, tol
        self.final = U.copy()
        self.stuck = np.zeros(N, dtype=bool)
        self.node = np.arange(N)
        self.pos, self.start, self.rates = pos, starts, end - starts
        self.cap = np.broadcast_to(cap, (N, m))
        self.u, self.v = U.copy(), U.copy()     # accepted point, iterate
        self.t = np.full(N, float(t0))
        self.dt = np.full(N, DT_INIT)
        self.step = np.zeros(N)
        self.it = np.zeros(N, dtype=int)        # Newton steps towards v
        self.ticks = np.zeros(N, dtype=int)     # ticks used, of MAX_TICKS
        self.fresh = np.ones(N, dtype=bool)     # v awaits its rows
        # The predictor system of the accepted point, and the pending one.
        self.J_u, self.r_u = np.zeros((N, m, m)), np.zeros((N, m))
        self.J, self.r, self.base = self.J_u, self.r_u, self.u
        self.coef = np.zeros(N)
        self.rho = starts + t0 * self.rates
        self.weights = _lagrange_weights(self.rho)

    def run(self):
        """Track every node to t = 1 or until it is stuck; returns the
        final points and the stuck mask."""
        while self.node.size:
            self.tick()
        return self.final, self.stuck

    def tick(self):
        self.ticks = self.ticks + 1
        if self.fresh.any():
            self._correct()
        if self.node.size:
            x, ok = _equilibrated_solves(self.J, self.r, self.base)
            self.v = np.where(ok[:, None],
                              self.base + x * self.coef[:, None], self.v)
            self.it = self.it + ok
            self.fresh = ok
            spent = self.ticks >= MAX_TICKS
            self.stuck[self.node[spent]] = True
            self._leave(self._halve(~ok) | spent)

    def _predict(self, mask):
        """Queue the Euler predictor from the accepted point u."""
        if not mask.any():
            return
        m1, m2 = mask[:, None], mask[:, None, None]
        self.step = np.where(mask, np.minimum(self.dt, 1.0 - self.t),
                             self.step)
        self.J = np.where(m2, self.J_u, self.J)
        self.r = np.where(m1, self.r_u, self.r)
        self.base = np.where(m1, self.u, self.base)
        self.coef = np.where(mask, self.step, self.coef)
        self.it = np.where(mask, -1, self.it)
        rho = self.start + (self.t + self.step)[:, None] * self.rates
        self.rho = np.where(m1, rho, self.rho)
        self.weights = np.where(m1, _lagrange_weights(self.rho),
                                self.weights)

    def _correct(self):
        """Rows at the fresh iterates: accept, or queue a Newton step, or
        give up on this step after MAX_NEWTON of them."""
        r, dr, J, floor = _stacked_rows(self.v, self.pos, self.d, self.e,
                                        self.z0, self.rho, self.weights)
        conv = np.all(np.abs(r) <= np.maximum(self.tol,
                                              np.minimum(floor, self.cap)),
                      axis=1)
        acc = self.fresh & conv
        newton = self.fresh & ~conv & (self.it < MAX_NEWTON)
        missed = self.fresh & ~conv & (self.it >= MAX_NEWTON)
        self.fresh = np.zeros_like(self.fresh)
        if acc.any():
            a1 = acc[:, None]
            self.u = np.where(a1, self.v, self.u)
            self.J_u = np.where(acc[:, None, None], J, self.J_u)
            self.r_u = np.where(a1, -dr * self.rates, self.r_u)
            self.t = np.where(acc, self.t + self.step, self.t)
            self.dt = np.where(acc, 2 * self.dt, self.dt)
        if newton.any():
            n1 = newton[:, None]
            self.J = np.where(newton[:, None, None], J, self.J)
            self.r = np.where(n1, r, self.r)
            self.base = np.where(n1, self.v, self.base)
            self.coef = np.where(newton, -1.0, self.coef)
        stuck = self._halve(missed)
        self._predict(acc)
        self._leave(stuck | (acc & (self.t >= 1.0)))

    def _halve(self, mask):
        """A failed step: retry from u with half of it.  Returns the
        nodes that missed at t0, where the step is zero, now stuck."""
        if not mask.any():
            return mask
        stuck = mask & (self.step == 0.0)
        self.stuck[self.node[stuck]] = True
        self.dt = np.where(mask, self.step / 2, self.dt)
        self._predict(mask)
        return stuck

    def _leave(self, mask):
        """Take the arrived or stuck nodes out of the stack."""
        if not mask.any():
            return
        self.final[self.node[mask]] = self.u[mask]
        keep = ~mask
        for name in self._STATE:
            setattr(self, name, getattr(self, name)[keep])


def newton_polish(classes, target_roots):
    """Newton-correct pair classes, all in one chart, onto the given target
    critical points: one _Lockstep stack, corrected at t0 = 1.  Returns the
    corrected classes, with None for each whose correction misses or is
    singular.

    Every row is corrected down to its noise floor, with no absolute
    tolerance: the staged depths' RESIDUAL_TOL would leave an
    ill-conditioned class coefficient errors near 1e-9.  The noise floor
    excuses a row only while the rounding it stands for moves the root by
    less than half the gap to its nearest neighbour; beyond that the chart
    cannot tell the class from the next one.  (The staged depths run
    with no cap: a word whose path slips onto another branch shows up as a
    duplicate in solve_all's count.)
    """
    chart = classes[0].chart
    rho = np.sort(np.asarray(target_roots, dtype=float))
    gaps = np.diff(rho)
    nearest = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    cap = 0.5 * nearest / _magnitudes(rho)
    d, e, z0, N = chart.d, chart.e, chart.base_point, len(classes)
    pos = np.tile(chart.unknowns(), (N, 1))
    U = np.array([_pack(pc.q1, pc.q2, chart) for pc in classes])
    U, stuck = _Lockstep(U, pos, d, e, z0, np.tile(rho, (N, 1)), rho, 1.0,
                         cap, 0.0).run()
    q1, q2 = _coefficients(U, pos, d, e, z0)
    return [None if bad else PairClass(q1[i], q2[i], chart, pc.ballot)
            for i, (pc, bad) in enumerate(zip(classes, stuck))]


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


def _build_trie(sigmas, mapped, d, e):
    """Build the classes of the F-words sigmas with Wronskian roots at
    `mapped`, one trie node per prefix, depth by depth.

    Returns the classes, in the chart b(0, 1) at 0, of the words before
    the first word whose build fails, and that word's error or None; later
    words are not built.
    """
    first = {}                  # prefix -> index of the first word with it
    for i, s in enumerate(sigmas):
        for m in range(len(s) + 1):
            first.setdefault(s[:m], i)
    level = {"": initial_pair(d, e)}    # tracked nodes of the last depth
    cutoff = len(sigmas)                # index of the first failing word
    step = None                         # and the depth where it failed
    for m in range(1, d + e):
        prefixes = sorted({s[:m] for s in sigmas[:cutoff]}, key=first.get)
        if not prefixes:
            break
        born = [apply_F(int(p[-1]), 0.0, level[p[:-1]]) for p in prefixes]
        charts = [Chart(base_point=0.0, d=d, k1=c.k1, k2=c.k2, e=e)
                  for c in born]
        pos = np.array([ch.unknowns() for ch in charts])
        U = np.array([_pack(c.q1, c.q2, ch) for c, ch in zip(born, charts)])
        # Born at a = 0, W / z^k is z times the parent's: the placed roots
        # and a newborn one at 0, exactly.
        starts = np.tile(np.append(mapped[:m - 1], 0.0), (len(born), 1))
        U, stuck = _Lockstep(U, pos, d, e, 0.0, starts, mapped[:m], 0.0,
                             np.inf, RESIDUAL_TOL).run()
        level = {}
        for p, c, q1, q2, bad in zip(prefixes, born,
                                     *_coefficients(U, pos, d, e, 0.0),
                                     stuck):
            if bad:
                if first[p] < cutoff:
                    cutoff, step = first[p], m
            else:
                level[p] = CanonicalPair(d=d, k1=c.k1, k2=c.k2, q1=q1.copy(),
                                         q2=q2.copy(), sigma=p)
    built = [PairClass(q1=level[s].q1, q2=level[s].q2,
                       chart=Chart(base_point=0.0, d=d, e=e), ballot=s)
             for s in sigmas[:cutoff]]
    if step is None:
        return built, None
    return built, PathStuck(f"word {sigmas[cutoff]!r}: step {step} did not "
                            f"reach its target within {MAX_TICKS} ticks")


def build_branch(sigma, mapped, d):
    """Construct the sigma-branch class with Wronskian roots at `mapped`.

    The lower degree e is the number of letters 1 in the F-word sigma.
    The one-word trie of _build_trie: after every F-operation the newborn
    root is immediately continued from 0 to the next prescribed root,
    inside the b(k1, k2) chart whose vanishing pattern pins the remaining
    root multiplicity at 0.
    """
    mapped = _staged_targets(mapped)
    built, error = _build_trie([sigma], mapped, d, sigma.count("1"))
    if error:
        raise error
    return built[0]


def _staged_targets(mapped):
    mapped = np.sort(np.asarray(mapped, dtype=float))
    if mapped[-1] >= 0 or mapped[0] <= -1:
        raise ValueError("staged targets must lie in (-1, 0)")
    return mapped


def _polish(built, points, alpha, beta):
    """Carry classes built at alpha*points + beta back onto the points and
    polish them in the chart b(0, 1): all together at the first admissible
    base point, then each that fails there, in word order, at the next
    ones one at a time.  Raises PathStuck for the first class that no base
    point polishes."""
    # Undo the affine map: substitute z -> alpha*z + beta in both
    # polynomials, which carries the Wronskian roots back onto points.
    spans = [(poly.compose_affine(t.q1, alpha, beta),
              poly.compose_affine(t.q2, alpha, beta), t) for t in built]
    # Polish chart bases, nearest 0 first: 0, then +-2^k / 16.  The pinned
    # constant q2[0] = -sum q2[b] z0^b loses eps * sum |q2[b] z0^b|, which
    # grows with |z0|.  A base within 1e-2 of a point is skipped.
    bases = [z0 for z0 in [0.0, *(s * 2.0 ** k / 16 for k in range(20)
                                  for s in (1, -1))]
             if np.abs(points - z0).min() >= 1e-2]

    def at(z0, group):
        """The classes of group polished at z0, None where that fails."""
        charted = []
        for f1, f2, t in group:
            chart = Chart(base_point=z0, d=t.d, e=t.chart.e)
            try:
                charted.append(PairClass(*to_chart(f1, f2, chart), chart,
                                         t.ballot))
            except ChartDegenerate:
                charted.append(None)
        found = [pc for pc in charted if pc]
        polished = iter(newton_polish(found, points) if found else ())
        return [pc and next(polished) for pc in charted]

    classes = at(bases[0], spans) if bases else [None] * len(spans)
    for i, (pc, span) in enumerate(zip(classes, spans)):
        classes[i] = pc or next(filter(None, (at(z0, [span])[0]
                                              for z0 in bases[1:])), None)
        if classes[i] is None:
            raise PathStuck(
                f"could not renormalize branch {span[2].ballot!r}")
    return classes


def solve_branch(sigma, points, d):
    """Build one F-word branch and carry it to the given points."""
    points = np.sort(np.asarray(points, dtype=float))
    alpha, beta = _affine_into_unit(points)
    tracked = build_branch(sigma, alpha * points + beta, d)
    return _polish([tracked], points, alpha, beta)[0]


def solve_all(points, d, e=None):
    """All classes of real pairs of degrees (e, d) whose Wronskian vanishes
    exactly at the n = d+e-1 points; by default e = d-1, the classes of
    degree-d rational functions critical exactly at points.

    Returns one class per F-word, C(n, e) - C(n, e-1) of them (catalan(d)
    at the default), sorted by word; raises CountMismatch if deduplication
    does not yield exactly that many.  The words are built together on
    their trie and polished together (_polish); the first word, in order,
    whose build or polish fails raises its error.
    """
    e = d - 1 if e is None else e
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    if points.size != d + e - 1:
        raise ValueError(f"need {d + e - 1} points for degree {d}")
    if np.unique(points).size != points.size:
        raise ValueError("points must be distinct")
    sigmas = ballot_sequences(d, e)
    points = np.sort(points)
    alpha, beta = _affine_into_unit(points)
    built, error = _build_trie(sigmas, _staged_targets(alpha * points + beta),
                               d, e)
    classes = _polish(built, points, alpha, beta)
    if error:
        raise error
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
