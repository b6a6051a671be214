"""Spans around the public functions of each wronski module, from outside.

Tracer.install replaces each target at the module attribute its callers
look the function up by (tracker.apply_F, not seeds.apply_F), so the
program runs unchanged and every call through that attribute records a
span: name, start, end, parent span, operation id, whether it returned,
and an optional key.  Spans stay in memory until the run ends.

layer_metrics derives the per-layer metrics: calls, inclusive seconds
(`.s`) and self seconds (`.self_s`, the span minus its child spans).
"""

import time
from collections import Counter

# (module, attribute callers look up, span name = owning layer)
TARGETS = (
    ("tracker", "solve_all", "tracker.solve_all"),
    ("tracker", "build_branch", "tracker.build_branch"),
    ("tracker", "apply_F", "seeds.apply_F"),
    ("tracker", "newton_polish", "tracker.newton_polish"),
    ("tracker", "to_chart", "tracker.to_chart"),
    ("poly", "span_equivalent", "poly.span_equivalent"),
    ("fuchs", "residues", "fuchs.residues"),
    ("fuchs", "polynomial_solutions", "fuchs.polynomial_solutions"),
    ("fuchs", "bethe_solve", "fuchs.bethe_solve"),
    ("electro", "solve_equilibrium", "electro.solve_equilibrium"),
    ("nets", "trace_net", "nets.trace_net"),
    ("cli", "run", "cli.run"),
)

# <span name>.<calls | s (inclusive seconds) | self_s>
LAYER_METRICS = (
    "tracker.build_branch.self_s", "tracker.build_branch.calls",
    "seeds.apply_F.calls", "tracker.newton_polish.s",
    "tracker.newton_polish.calls", "tracker.to_chart.calls",
    "poly.span_equivalent.calls", "poly.span_equivalent.s",
    "nets.trace_net.s", "nets.trace_net.calls", "fuchs.residues.s",
    "fuchs.polynomial_solutions.s", "fuchs.polynomial_solutions.calls",
    "fuchs.bethe_solve.self_s", "electro.solve_equilibrium.self_s",
    "tracker.solve_all.s", "tracker.solve_all.calls", "cli.run.self_s",
)

NAME, START, END, PARENT, OP, OK, KEY = range(7)


def _birth_key(args):
    # apply_F(i, a, pair): retries of one birth share the pair, whose
    # sigma is the ballot prefix already built.
    return len(args[2].sigma)


KEYS = {"seeds.apply_F": _birth_key}


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def install(self):
        for mod, attr, name in TARGETS:
            module = self.modules[mod]
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(name, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, name, fn):
        key = KEYS.get(name)

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.op, False,
                    key(args) if key else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
                return result
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()

        return traced


def layer_metrics(spans, factors):
    """Per-layer metrics as {name: (value, unit)}; the seconds of a span of
    operation i are scaled by factors[i] (see hostspeed.py).

    poly.span_equivalent counts only the calls under tracker.solve_all,
    its dedup; the CLI's verify command calls it as well.
    """
    dur = [(s[END] - s[START]) * factors[s[OP]] for s in spans]
    child = [0.0] * len(spans)
    in_solve = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
            in_solve[i] = in_solve[p] or spans[p][NAME] == "tracker.solve_all"
    sums = {"calls": Counter(), "s": Counter(), "self_s": Counter()}
    ok = Counter()
    births = set()
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "poly.span_equivalent" and not in_solve[i]:
            continue
        sums["calls"][name] += 1
        sums["s"][name] += dur[i]
        sums["self_s"][name] += dur[i] - child[i]
        ok[name] += s[OK]
        if name == "seeds.apply_F":
            births.add((s[PARENT], s[KEY]))
    out = {}
    for metric in LAYER_METRICS:
        name, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = (sums[kind][name], "count")
        else:
            out[metric] = (float(sums[kind][name]), "s")
    tries = sums["calls"]["seeds.apply_F"]
    charts = sums["calls"]["tracker.to_chart"]
    out["seeds.birth_ok_ratio"] = (len(births) / tries if tries else 0.0,
                                   "ratio")
    out["tracker.to_chart.ok_ratio"] = (
        ok["tracker.to_chart"] / charts if charts else 0.0, "ratio")
    return out
