"""Command-line interface: JSON results, SVG net pictures, CSV arc dumps.

Exit codes: 0 success, 1 numerical failure (a path, count, or trace
problem, reported with diagnostics), 2 invalid input (InvalidInput, or
any other ValueError).
"""

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from . import electro, fuchs, nets, poly, tracker
from .combinat import catalan, kostka
from .errors import InvalidInput, WronskiError


def _parse_points(text):
    try:
        pts = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "points must be a comma-separated list of reals")
    return np.asarray(pts)


def _round(x):
    # Computed values at 12 digits keep equal runs byte-identical; the input
    # points are echoed in full (tolist), as 12 digits would merge some.
    return float(f"{float(x):.12g}")


def _vec(v):
    return [_round(t) for t in np.asarray(v, dtype=float)]


def _class_doc(pc, x, points):
    # W's computed roots only report the solver's accuracy.
    w_roots = np.sort(pc.wronskian_roots().real)
    net = nets.net_from_ballot(pc.ballot, points)
    return {
        "ballot": pc.ballot,
        "chart_base": _round(pc.chart.base_point),
        "q1_coeffs": _vec(pc.q1),
        "q2_coeffs": _vec(pc.q2),
        "wronskian_roots": _vec(w_roots),
        "residues_x": _vec(x),
        # the class's Bethe sector, read off its degree pair
        "s": pc.d - pc.chart.e,
        "net_matching": sorted(list(p) for p in net.matching),
        "diagnostics": {
            "residual": _round(np.abs(w_roots - points).max()),
        },
    }


def _solve(points, d):
    if d is None:
        if points.size % 2:
            raise InvalidInput("need an even number of points")
        d = points.size // 2 + 1
    return tracker.solve_all(points, d), d


def cmd_count(args):
    if args.d is None or args.d < 2:
        raise InvalidInput("count requires --d >= 2")
    return {"command": "count", "d": args.d, "u": catalan(args.d)}


def cmd_kostka(args):
    if not args.content:
        raise InvalidInput("kostka requires --content")
    total = sum(args.content)
    if args.d is None:
        if total % 2:
            raise InvalidInput("content must sum to 2(d-1)")
        d = total // 2 + 1
    else:
        d = args.d
    return {"command": "kostka", "content": list(args.content), "d": d,
            "kostka": kostka(tuple(args.content), d)}


def cmd_solve(args):
    if args.points is None:
        raise InvalidInput("solve requires --points")
    classes, d = _solve(args.points, args.d)
    pts = np.sort(args.points)
    return {"command": "solve", "d": d, "points": pts.tolist(),
            "classes": [_class_doc(pc, x, pts) for pc, x in
                        zip(classes, fuchs.residues(classes, pts))]}


def cmd_bethe(args):
    if args.points is None:
        raise InvalidInput("bethe requires --points (the singular points a)")
    sols = fuchs.bethe_solve(args.points)
    return {"command": "bethe", "a": np.sort(args.points).tolist(),
            "solutions": [{"x": _vec(s.x), "s": s.s,
                           "qstar": _round(s.qstar),
                           "degrees": list(s.degrees)} for s in sols]}


def cmd_equilibrium(args):
    if args.points is None or args.m is None:
        raise InvalidInput("equilibrium requires --points and --m")
    eqs = electro.solve_equilibrium(args.points, args.m)
    docs = []
    for c in eqs:
        r = electro.equilibrium_residual(c)
        docs.append({
            "z": [[_round(z.real), _round(z.imag)] for z in c.mobile],
            "energy": _round(electro.energy(c)),
            "residual_norm": _round(np.abs(r).max(initial=0.0)),
        })
    return {"command": "equilibrium", "a": np.sort(args.points).tolist(),
            "m": args.m, "equilibria": docs}


def cmd_net(args):
    if args.points is None:
        raise InvalidInput("net requires --points")
    if args.svg:
        _check_folder(args.svg)
    with _open(args.csv) if args.csv else contextlib.nullcontext() as fh:
        classes, d = _solve(args.points, args.d)
        traced = nets.trace_net(classes, args.points)
        if args.svg:
            emit_svg(traced, args.svg)
        if fh:
            _emit_csv(traced, fh)
    return {"command": "net", "d": d, "points": np.sort(args.points).tolist(),
            "nets": [{"ballot": pc.ballot,
                      "matching": sorted(list(p) for p in net.matching),
                      "distinguished": net.distinguished}
                     for pc, net in zip(classes, traced)]}


def cmd_verify(args):
    if args.points is None:
        raise InvalidInput("verify requires --points")
    classes, d = _solve(args.points, args.d)
    pts = np.sort(args.points)
    max_res = 0.0
    round_trip = True
    for pc, x in zip(classes, fuchs.residues(classes, pts)):
        w_roots = np.sort(pc.wronskian_roots().real)
        max_res = max(max_res, float(np.abs(w_roots - pts).max()))
        lo, hi = fuchs.polynomial_solutions(pts, x)
        if not poly.span_equivalent((lo, hi), (pc.q1, pc.q2), tol=1e-6):
            round_trip = False
    traced = [net.matching for net in nets.trace_net(classes, pts)]
    distinct = len(set(traced)) == len(traced)
    # The paper's labelling: the word of a class predicts its net.
    match = traced == [nets.net_from_ballot(pc.ballot, pts).matching
                       for pc in classes]
    ok = round_trip and distinct and match \
        and max_res < 1e-8 * (1 + np.abs(pts).max())
    return {"command": "verify", "d": d, "points": pts.tolist(),
            "classes": len(classes), "round_trip_ok": round_trip,
            "nets_distinct": distinct, "nets_match_ballot": match,
            "max_residual": _round(max_res), "ok": bool(ok)}


def _open(path):
    """path opened for writing; a path that cannot be opened is invalid
    input."""
    try:
        return open(path, "w", newline="")
    except OSError as e:
        raise InvalidInput(f"cannot write {path}: {e.strerror}") from None


def _check_folder(path):
    """The SVG names depend on the number of nets: check their directory."""
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise InvalidInput(f"cannot write {path}: {folder} is not a "
                           "writable directory")


def _svg_arc(pts, sx, sy, mirror=False):
    coords = " ".join(
        f"{sx(p.real):.2f},{sy(-p.imag if mirror else p.imag):.2f}"
        for p in pts)
    return f'<polyline fill="none" stroke="{"#888" if mirror else "#06c"}" ' \
           f'stroke-width="1.5" points="{coords}"/>'


def emit_svg(traced, path):
    """One SVG file per net; multiple nets get numbered suffixes."""
    base, ext = os.path.splitext(path)
    ext = ext or ".svg"
    names = [path if len(traced) == 1 else f"{base}-{i + 1}{ext}"
             for i in range(len(traced))]
    for net, name in zip(traced, names):
        xs = np.asarray(net.vertices)
        span = xs.max() - xs.min() or 1.0
        x0, x1 = xs.min() - 0.2 * span, xs.max() + 0.2 * span
        height = 0.0
        for pts in net.arcs.values():
            height = max(height, max(p.imag for p in pts))
        height = max(height * 1.2, 0.2 * span)
        W, H = 640, 480
        sx = lambda x: (x - x0) / (x1 - x0) * W
        sy = lambda y: H / 2 - y / height * (H / 2 - 20)
        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
                 f'height="{H}" viewBox="0 0 {W} {H}">',
                 f'<line x1="0" y1="{H / 2}" x2="{W}" y2="{H / 2}" '
                 'stroke="#000" stroke-width="1"/>']
        for pts in net.arcs.values():
            parts.append(_svg_arc(pts, sx, sy))
            parts.append(_svg_arc(pts, sx, sy, mirror=True))
        for x in xs:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{H / 2}" r="3" '
                         'fill="#c00"/>')
        parts.append("</svg>")
        with _open(name) as fh:
            fh.write("\n".join(parts))


def _emit_csv(traced, fh):
    writer = csv.writer(fh)
    writer.writerow(["net", "arc_lo", "arc_hi", "re", "im"])
    for i, net in enumerate(traced, start=1):
        for (a, b), pts in sorted(net.arcs.items()):
            for p in pts:
                writer.writerow([i, a, b, f"{p.real:.12g}", f"{p.imag:.12g}"])


COMMANDS = {
    "count": cmd_count,
    "kostka": cmd_kostka,
    "solve": cmd_solve,
    "bethe": cmd_bethe,
    "equilibrium": cmd_equilibrium,
    "net": cmd_net,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # A malformed command line is invalid input like any other.
        self.print_usage(sys.stderr)
        raise InvalidInput(message)


def build_parser():
    p = _Parser(
        prog="wronski",
        description="Classes of rational functions with prescribed real "
                    "critical points.")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--points", type=_parse_points, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--content", type=lambda s: tuple(
        int(t) for t in s.split(",") if t.strip()), default=None)
    # Accepted and ignored, so that command lines written for the former
    # random chart base (--seed) and random multistart (--starts) still run.
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.add_argument("--starts", type=int, help=argparse.SUPPRESS)
    p.add_argument("--json", dest="json_path", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--csv", default=None)
    return p


def _merge_negative_values(argv):
    """Join `--points -1,1` into `--points=-1,1` so argparse does not
    mistake a leading minus sign for an option."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--points", "--content") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def run(argv=None):
    """(exit code, JSON text) of one command line; no text for --help."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    out = None
    try:
        args = build_parser().parse_args(argv)
        out = args.json_path and _open(args.json_path)
        doc, code = COMMANDS[args.command](args), 0
    except SystemExit:  # --help
        return 0, None
    except (WronskiError, ValueError) as e:
        doc = {"error": str(e), "kind": type(e).__name__}
        code = 2 if isinstance(e, ValueError) else 1
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with out:
            out.write(text)
    return code, text


def main(argv=None):
    code, text = run(argv)
    if text is not None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
