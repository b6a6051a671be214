"""Seeded operation corpora for the four benchmark workloads.

A corpus is a pure function of (workload, seed): the same seed gives the
same points in the same order.  The program under test only ever sees the
points; the CLI's own --seed stays at 0.

Point families (all inside [-5, 5]):

- uniform: one point per equal cell of the interval, at least 15% of a
  cell away from the cell edges.
- clustered: d-1 pairs of points 1e-4 to 1e-3 apart.  The pair centres are
  laid out in one of four ways: "spread" (uniform cells), "packed-left"
  (all pairs but one crowded at the left end, 0.05 to 0.3 apart, and the
  last pair at the far right), "packed-right" (the mirror image, crowded
  0.15 to 0.3 apart) or "tight-right" (the mirror image, 0.03 to 0.06
  apart).
- close-pair: uniform cells with the two rightmost points pulled to a gap
  of 0.2% to 0.6% of the interval.

Every pass of a workload runs the same strata in the same proportions, so
that what fails today fails the same way on every seed: at d=5 solve_all
raises ScheduleExhausted on every packed-left layout and PathStuck on every
tight-right one, its packed-right classes miss the 1e-8 root accuracy, and
bethe at n=6 misses 3 of the 9 s=3 solutions when two points are close.
The right-hand crowd is split in two strata because between them, 0.05 to
0.1 apart, the outcome (PathStuck, CountMismatch or inaccurate classes)
and the time (0.5 to 3 s) depend on the seed.  d=4 packed layouts are left
out because they fail on some seeds and pass on others.  One failure does
depend on the seed: equilibrium m=2 at n=6 misses 1 to 3 of its 9
equilibria on about half of all point sets, close pair or not.
"""

import zlib
from dataclasses import dataclass

import numpy as np

LO, HI = -5.0, 5.0


@dataclass(frozen=True)
class Op:
    """One operation: a library solve_all or one CLI command."""
    kind: str               # "solve" (library) or a CLI command name
    points: tuple
    label: str              # stratum, for the report
    d: int = 0              # degree, for solve
    m: int = 0              # mobile charges, for equilibrium
    starts: int = 0         # --starts; 0 keeps the CLI default

    @property
    def n(self):
        return len(self.points)

    def argv(self):
        argv = [self.kind, "--points", ",".join(repr(p) for p in self.points),
                "--seed", "0"]
        if self.kind == "equilibrium":
            argv += ["--m", str(self.m)]
        if self.starts:
            argv += ["--starts", str(self.starts)]
        return argv


def uniform_points(rng, n):
    cells = np.arange(n) + rng.uniform(0.15, 0.85, n)
    return LO + (HI - LO) * cells / n


# packed layout: (side of the crowd, range of the steps between its pairs)
PACKED = {"packed-left": (1.0, (0.05, 0.3)),
          "packed-right": (-1.0, (0.15, 0.3)),
          "tight-right": (-1.0, (0.03, 0.06))}


def clustered_points(rng, d, layout):
    k = d - 1
    if layout == "spread":
        centres = uniform_points(rng, k)
    else:
        side, steps = PACKED[layout]
        steps = rng.uniform(*steps, k - 2)
        crowd = LO + np.concatenate([[0.0], np.cumsum(steps)])
        centres = side * np.concatenate([crowd, [rng.uniform(3.0, HI)]])
    gaps = 10.0 ** rng.uniform(-4.0, -3.0, k)
    return np.concatenate([centres - gaps / 2, centres + gaps / 2])


def close_pair_points(rng, n):
    p = uniform_points(rng, n)
    p[-1] = p[-2] + (HI - LO) * 10.0 ** rng.uniform(-2.7, -2.2)
    return p


def _pts(a):
    return tuple(float(x) for x in np.sort(a))


def _solve(points, d, label):
    return Op("solve", _pts(points), label, d=d)


def _solve_uniform(rng):
    ops = [_solve(uniform_points(rng, 6), 4, "d4") for _ in range(6)]
    return ops + [_solve(uniform_points(rng, 8), 5, "d5")]


def _solve_clustered(rng):
    ops = []
    for d, layouts in ((4, ("spread",) * 5),
                       (5, ("spread", "packed-left", "packed-right",
                            "tight-right"))):
        ops += [_solve(clustered_points(rng, d, lay), d, f"d{d}-{lay}")
                for lay in layouts]
    return ops


def _verify_net(rng):
    return [Op(kind, _pts(uniform_points(rng, 2 * d - 2)), f"{kind}-d{d}",
               d=d)
            for kind, d in (("verify", 4), ("net", 4), ("verify", 4),
                            ("net", 5))]


def _bethe_equilibrium(rng):
    ops = []
    for n, ms in ((4, (1, 2)), (6, (2, 3))):
        pts = _pts(close_pair_points(rng, n))
        ops.append(Op("bethe", pts, f"bethe-n{n}"))
        ops += [Op("equilibrium", pts, f"equilibrium-n{n}-m{m}", m=m)
                for m in ms]
    return ops


_BUILDERS = {
    "solve-uniform": _solve_uniform,
    "solve-clustered": _solve_clustered,
    "verify-net": _verify_net,
    "bethe-equilibrium": _bethe_equilibrium,
}
WORKLOADS = tuple(_BUILDERS)
# Scaled seconds (hostspeed.py) one pass takes today; fixes how many passes
# a run of a given length makes, so that a faster or slower program does
# the same work.
NOMINAL_PASS_S = {"solve-uniform": 7.0, "solve-clustered": 6.7,
                  "verify-net": 8.1, "bethe-equilibrium": 15.0}


def _rng(workload, seed, stream):
    key = zlib.crc32(workload.encode())
    return np.random.default_rng([seed, key, stream])


def corpus(workload, seed):
    """The operations of one pass, in order."""
    return _BUILDERS[workload](_rng(workload, seed, 0))


def passes(workload, seconds):
    """Whole passes a run of `seconds` makes, at least one."""
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def warm_up_ops(workload, seed):
    """Small operations that touch the same code paths before timing."""
    rng = _rng(workload, seed, 1)
    if workload == "solve-uniform":
        return [_solve(uniform_points(rng, 4), 3, "warm-d3")]
    if workload == "solve-clustered":
        return [_solve(clustered_points(rng, 3, "spread"), 3, "warm-d3")]
    if workload == "verify-net":
        pts = _pts(uniform_points(rng, 4))
        return [Op("verify", pts, "warm-verify-d3", d=3),
                Op("net", pts, "warm-net-d3", d=3)]
    pts = _pts(close_pair_points(rng, 4))
    return [Op("bethe", pts, "warm-bethe-n4", starts=2000),
            Op("equilibrium", pts, "warm-equilibrium-n4-m1", m=1,
               starts=2000)]
