"""The CLI's JSON on two fixed point sets, against committed outputs.

Each output must match its file in tests/golden byte for byte, except the
fields that only report rounding noise, which must agree within 1e-12.
Regenerate the files with `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
import os
import sys

import pytest

from wronski import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
POINT_SETS = {
    "uniform-d4": "-4.1,-2.6,-0.9,0.7,2.2,3.8",
    "close-pair-n6": "-3.7,-2.1,-0.6,1.1,2.5,2.51",
}
COMMANDS = {
    "solve": (),
    "net": (),
    "verify": (),
    "bethe": (),
    "equilibrium": ("--m", "2"),
}
NOISE = {"residual", "max_residual", "residual_norm"}
CASES = [(f"{cmd}-{name}", [cmd, "--points", pts, *extra])
         for name, pts in POINT_SETS.items()
         for cmd, extra in COMMANDS.items()]


def _split_noise(doc, noise):
    """doc without its noise fields, which are appended to noise in
    document order."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key in NOISE and isinstance(value, float):
                noise.append(value)
            else:
                out[key] = _split_noise(value, noise)
        return out
    if isinstance(doc, list):
        return [_split_noise(v, noise) for v in doc]
    return doc


def _path(name):
    return os.path.join(GOLDEN, f"{name}.json")


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv):
    code, text = cli.run(argv)
    assert code == 0
    with open(_path(name)) as fh:
        golden = fh.read()
    got_noise, want_noise = [], []
    got = _split_noise(json.loads(text), got_noise)
    want = _split_noise(json.loads(golden), want_noise)
    # the CLI's own serialization, so the rest compares byte for byte
    assert json.dumps(got, sort_keys=True, separators=(",", ":")) == \
        json.dumps(want, sort_keys=True, separators=(",", ":"))
    assert len(got_noise) == len(want_noise)
    for a, b in zip(got_noise, want_noise):
        assert abs(a - b) <= 1e-12


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in CASES:
        code, text = cli.run(argv)
        if code:
            sys.exit(f"{name}: exit {code}: {text}")
        with open(_path(name), "w") as fh:
            fh.write(text)
