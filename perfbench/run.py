"""Seeded benchmark of the wronski solver, its cross-checks and its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-uniform --seed 1 \
        --seconds 20 --trace 0

The program is imported from ./src; nothing is installed.  The workload
seed makes the corpus (see corpus.py); the program sees only the points.
A run sets up (import, corpus, warm-up) in this process and in two fresh
child processes and reports the median as setup_s.  It then times a fixed
number of whole passes over the corpus, in one process on one thread: as
many as fit in --seconds at today's pass time (corpus.passes), at least
one.  Other tenants of a shared machine slow its cores down for minutes
at a time (on the 2-core sandbox the same d=4 solve takes 0.6 to 1.2 s),
so every time reported is scaled to a fixed host speed by a reference
kernel timed before and during each operation (hostspeed.py); the raw
seconds are in the report.  Each operation counts at the median of its
passes.
Every output is checked (checks.py) and digested; a repeated pass must
reproduce the first pass's digests.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `failed` counts operations that raised, exited non-zero or
delivered the wrong number of solutions; `correct` is false when a
delivered solution fails its check or a repeat changes an output.

--trace 0 reports the end-to-end metrics:
  setup_s          median time of the three set-ups
  wall_s           time of one pass over the corpus, each operation at
                   its median over the passes
  op_s.p50         median time of one operation (solve_all or CLI command)
                   over the ops_per_pass operations of a pass
  solutions_per_s  verified solutions of one pass per second of wall_s
  completeness     verified solutions / expected solutions
  peak_rss_mb      peak resident memory of this process
No tail percentile is reported: a pass has at most 9 operations, and no
percentile above the median has 10 operations beyond it.  The share of
failed operations is in `failed` / `attempted`, and is fail_ratio in the
traced run.

--trace 1 runs one untraced pass, then one pass with spans (spans.py) on
the public functions of tracker, seeds, poly, fuchs, electro, nets and cli,
and reports the per-layer metrics, fail_ratio, fail.<Kind> counts and
trace.overhead_s (traced minus untraced pass time).  Span seconds are
scaled by their operation's factor and include the kernel samples taken
inside them, about 3% of the time.  Which layer should
move which end-to-end metric on which workload:
  tracker.build_branch.*, tracker.newton_polish.*, tracker.to_chart.*,
  poly.span_equivalent.* -> wall_s, op_s.p50, solutions_per_s on
  solve-uniform; seeds.apply_F.calls, seeds.birth_ok_ratio -> fail_ratio,
  completeness, solutions_per_s on solve-clustered; nets.trace_net.*,
  fuchs.residues.s, fuchs.polynomial_solutions.* -> wall_s, op_s.p50 on
  verify-net; fuchs.bethe_solve.self_s, electro.solve_equilibrium.self_s,
  tracker.solve_all.* -> wall_s, completeness on bethe-equilibrium;
  cli.run.self_s -> verify-net and bethe-equilibrium.

Each run writes its operations, outcomes, digests and (traced) spans to
perfbench/out/.  Exit code 2 means the program could not be set up.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_START = time.perf_counter()
# One BLAS thread, set before NumPy loads: the program runs on one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
import numpy as np  # noqa: E402  (NumPy's import counts as set-up)

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2
FAIL_KINDS = ("ScheduleExhausted", "PathStuck", "CountMismatch",
              "NewtonDiverged", "SingularJacobian", "ChartDegenerate",
              "TraceLost", "MultipleRoot", "NotASolution", "accuracy",
              "check")


class SetupError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up time")
    return p.parse_args(argv)


def _import_program():
    """Import wronski from ./src of this checkout, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wronski
        from wronski import (cli, combinat, electro, errors, fuchs, nets,
                             poly, tracker)
    except ImportError as e:
        raise SetupError(f"cannot import wronski from {src}: {e}")
    if Path(wronski.__file__).resolve().parent != src / "wronski":
        raise SetupError(f"wronski imported from {wronski.__file__}, "
                         f"not from {src}")
    return {"tracker": tracker, "poly": poly, "fuchs": fuchs,
            "electro": electro, "nets": nets, "cli": cli,
            "combinat": combinat, "errors": errors}


class Runner:
    """Calls the program for one operation, and checks the result."""

    def __init__(self, modules):
        self.m = modules

    def call(self, op):
        """The program's result for op, or the exception it raised."""
        try:
            if op.kind == "solve":
                return self.m["tracker"].solve_all(np.asarray(op.points),
                                                   op.d)
            return self.m["cli"].run(op.argv())
        except Exception as e:
            if not isinstance(e, self.m["errors"].WronskiError):
                traceback.print_exc(file=sys.stderr)
            return e

    def check(self, op, result):
        """The Outcome of result; failures never propagate."""
        expected = checks.expected_count(op, self.m["combinat"].catalan)
        if isinstance(result, Exception):
            return checks.error_outcome(expected, result)
        if op.kind == "solve":
            return checks.classes_outcome(result, op.points, expected)
        return checks.cli_outcome(op, *result, expected)


def _set_up(args):
    """Import, corpus and warm-up; returns (runner, modules, ops)."""
    if args.workload not in corpus.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(corpus.WORKLOADS)}")
    modules = _import_program()
    runner = Runner(modules)
    ops = corpus.corpus(args.workload, args.seed)
    for op in corpus.warm_up_ops(args.workload, args.seed):
        runner.check(op, runner.call(op))
    return runner, modules, ops


def _timed_pass(runner, clock, ops, tracer=None):
    """[(start, end, raw seconds, Outcome)] of one pass.  Outputs are
    checked outside the timed region."""
    records = []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        start, end, seconds, result = clock.time(runner.call, op)
        records.append((start, end, seconds, runner.check(op, result)))
    return records


def _scaled(clock, passes):
    """Passes as [(scaled seconds, Outcome)], and the factors per pass."""
    factors = [[clock.factor(start, end) for start, end, _, _ in p]
               for p in passes]
    scaled = [[(raw * f, o) for (_, _, raw, o), f in zip(p, fs)]
              for p, fs in zip(passes, factors)]
    return scaled, factors


def _probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _repeat_mismatches(passes):
    first = [o.digest for _, o in passes[0]]
    return sum(o.digest != d for p in passes[1:]
               for (_, o), d in zip(p, first))


def _digest(records):
    return hashlib.sha256("\n".join(o.digest for _, o in records)
                          .encode()).hexdigest()


def _end_to_end(passes, setups):
    n_ops = len(passes[0])
    per_op = [statistics.median(p[i][0] for p in passes)
              for i in range(n_ops)]
    verified = sum(o.verified for _, o in passes[0])
    expected = sum(o.expected for _, o in passes[0])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_s.p50": (statistics.median(per_op), "s"),
        "solutions_per_s": (verified / sum(per_op), "1/s"),
        "completeness": (verified / expected, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    info = {"passes": len(passes), "ops_per_pass": n_ops}
    return metrics, info


def _traced_passes(runner, modules, clock, ops):
    """One untraced pass, then one traced pass; returns (passes, spans)."""
    untraced = _timed_pass(runner, clock, ops)
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        traced = _timed_pass(runner, clock, ops, tracer)
    finally:
        tracer.uninstall()
    return [untraced, traced], tracer.spans


def _per_layer(passes, factors, span_list):
    untraced, traced = passes
    metrics = spans.layer_metrics(span_list, factors[1])
    kinds = {}
    for _, o in traced:
        if o.fail:
            kind = o.fail if o.fail in FAIL_KINDS else "other"
            kinds[kind] = kinds.get(kind, 0) + 1
    metrics["fail_ratio"] = (sum(kinds.values()) / len(traced), "ratio")
    for kind in FAIL_KINDS + ("other",):
        metrics[f"fail.{kind}"] = (kinds.get(kind, 0), "count")
    overhead = sum(t for t, _ in traced) - sum(t for t, _ in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def _write_report(args, ops, raw, factors, span_list, summary):
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "summary": summary,
        "ops": [{"label": op.label, "kind": op.kind, "d": op.d, "m": op.m,
                 "points": op.points,
                 "runs": [{"seconds": p[i][2] * fs[i], "raw_s": p[i][2],
                           "speed_factor": fs[i], **vars(p[i][3])}
                          for p, fs in zip(raw, factors)]}
                for i, op in enumerate(ops)],
        "spans": span_list,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))
    return path


def main(argv=None):
    args = _parse(argv)
    try:
        runner, modules, ops = _set_up(args)
        end = time.perf_counter()
        clock = hostspeed.HostClock()
        clock.sample(hostspeed.MIN_SAMPLES)
        setup = (end - SETUP_START) * clock.factor(SETUP_START, end)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.trace:
            raw, span_list = _traced_passes(runner, modules, clock, ops)
            passes, factors = _scaled(clock, raw)
            metrics = _per_layer(passes, factors, span_list)
            info = {"passes": 2, "ops_per_pass": len(ops),
                    "spans": len(span_list)}
        else:
            setups = [setup] + [_probe_setup(args)
                                for _ in range(SETUP_PROBES)]
            raw = [_timed_pass(runner, clock, ops)
                   for _ in range(corpus.passes(args.workload,
                                                args.seconds))]
            passes, factors = _scaled(clock, raw)
            metrics, info = _end_to_end(passes, setups)
            span_list = []
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    info["speed_factor"] = statistics.median(f for fs in factors for f in fs)
    records = [r for p in passes for r in p]
    mismatches = _repeat_mismatches(passes)
    wrong = sum(o.wrong for _, o in records)
    failed = sum(bool(o.fail) for _, o in records)
    info.update(digest=_digest(passes[0]), wrong=wrong,
                repeat_mismatches=mismatches,
                fails=sorted({o.fail for _, o in records if o.fail}))
    path = _write_report(args, ops, raw, factors, span_list, info)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"{json.dumps(info, sort_keys=True)} "
          f"report={path.relative_to(ROOT)}")
    result = {
        "correct": wrong == 0 and mismatches == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
