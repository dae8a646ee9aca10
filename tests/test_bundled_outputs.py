"""The bundled configs' outputs, pinned.

For configs/minimal.ini, simple-1d.ini and multiple-2d.ini, sweep.csv
without its runtime_s column and the manifest without its timings are held
in bundled_outputs.json, and so are the SHA-256 digests of every artifact
of homogenize, reference, spectrum --eigenfunction-samples 30 and expand
--w-samples 100, and of the verify report.  A change that moves them
regenerates the fixture with

    PYTHONPATH=src python tests/test_bundled_outputs.py

which first prints the shift to state: the largest relative and absolute
change of each sweep.csv column and manifest field that moved, and the
artifact and verify digests that moved.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "bundled_outputs.json")
CONFIGS = ("minimal", "simple-1d", "multiple-2d")
# without x87's 64-bit long double mantissa the reference's energy
# quotients, and the errors measured from them, round differently: there
# every number is held to this relative bound, with an absolute floor
# at the rounding of the eigenvalues that the errors are differences of
RTOL, ATOL = 1e-4, 1e-13


# the commands whose artifacts are pinned by digest, each run with its own
# --out directory in one process per config
COMMANDS = (("homogenize",), ("reference",),
            ("spectrum", "--eigenfunction-samples", "30"),
            ("expand", "--w-samples", "100"))
DRIVER = f"""
import sys
from homspec.cli import main
config, out = sys.argv[1:]
for command in {COMMANDS!r}:
    assert main(["--config", config, "--out", out + "/" + command[0],
                 *command]) == 0
"""


def _cli(*argv, cwd) -> str:
    """stdout of one homspec process at one BLAS thread, which must exit
    0; argv follows the interpreter.  Every thread variable is set, so the
    manifest's record of them does not depend on the caller's."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.path.join(HERE, "..", "src"))
    r = subprocess.run([sys.executable, *argv], capture_output=True,
                       text=True, env=env, cwd=cwd)
    assert r.returncode == 0, r.stderr
    return r.stdout


def _config_path(config: str) -> str:
    return os.path.join(HERE, "..", "configs", f"{config}.ini")


def artifact_digests(config: str) -> dict:
    """The SHA-256 of every file that COMMANDS write for the bundled
    config, keyed by its path under the output directory."""
    with tempfile.TemporaryDirectory() as out:
        _cli("-c", DRIVER, _config_path(config), out, cwd=out)
        digests = {}
        for root, _, names in os.walk(out):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, out)] = hashlib.sha256(
                        fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def verify_digest() -> str:
    """The SHA-256 of the verify report."""
    with tempfile.TemporaryDirectory() as out:
        report = _cli("-m", "homspec.cli", "verify", cwd=out)
    return hashlib.sha256(report.encode()).hexdigest()


def bundled_outputs(config: str) -> dict:
    """sweep.csv without runtime_s and the manifest without timings, from
    one sweep of the bundled config in a subprocess at one BLAS thread."""
    with tempfile.TemporaryDirectory() as out:
        _cli("-m", "homspec.cli", "--config", _config_path(config),
             "--out", out, "sweep", cwd=out)
        with open(os.path.join(out, "sweep.csv")) as fh:
            sweep = "\n".join(line.rsplit(",", 1)[0]
                              for line in fh.read().splitlines())
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
    del manifest["timings"]
    return {"sweep": sweep, "manifest": manifest}


def _assert_close(got, want, key):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), key
        for k in want:
            _assert_close(got[k], want[k], f"{key}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{key}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=RTOL, abs=ATOL,
                                    nan_ok=True), key
    else:
        assert got == want, key


def _numbers(csv_text):
    """The rows of a CSV text, each field a float where it reads as one."""
    def number(field):
        try:
            return float(field)
        except ValueError:
            return field
    return [[number(f) for f in line.split(",")]
            for line in csv_text.splitlines()]


@pytest.mark.parametrize("config", CONFIGS)
def test_bundled_outputs_pinned(config):
    # byte for byte with x87 extended precision, which the fixture was
    # generated with; elsewhere every number within RTOL (or ATOL), and
    # the long double width and the warning it raises left out
    with open(FIXTURE) as fh:
        want = json.load(fh)[config]
    got = bundled_outputs(config)
    if np.finfo(np.longdouble).nmant == 63:
        assert got["sweep"] == want["sweep"]
        assert (json.dumps(got["manifest"], sort_keys=True)
                == json.dumps(want["manifest"], sort_keys=True))
        return
    _assert_close(_numbers(got["sweep"]), _numbers(want["sweep"]), "sweep")
    for manifest in (got["manifest"], want["manifest"]):
        del manifest["longdouble_nmant"], manifest["warnings"]
    _assert_close(got["manifest"], want["manifest"], "manifest")


# the digests hold bytes, which only x87 extended precision reproduces
x87_only = pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                              reason="the digests are of x87 output")


@x87_only
@pytest.mark.parametrize("config", CONFIGS)
def test_bundled_artifacts_pinned(config):
    with open(FIXTURE) as fh:
        want = json.load(fh)[config]["artifacts"]
    assert artifact_digests(config) == want


@x87_only
def test_verify_report_pinned():
    with open(FIXTURE) as fh:
        want = json.load(fh)["verify"]
    assert verify_digest() == want


def _leaves(value, key):
    """(key, value) of every leaf of a JSON value, its list indices left
    out of the key, so one key gathers a list's entries."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}")
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, f"{key}[]")
    else:
        yield key, value


def _shift_lines(old, new) -> list:
    """One line per key of the (key, value) leaves old and new whose values
    moved: the largest relative and absolute change where both hold the
    same count of numbers, both values otherwise."""
    gathered = {}
    for side, leaves in enumerate((old, new)):
        for key, value in leaves:
            gathered.setdefault(key, ([], []))[side].append(value)
    lines = []
    for key, (was, now) in gathered.items():
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in was + now)
        if not numbers or len(was) != len(now):
            if was != now:
                lines.append(f"{key}: {was} -> {now}")
            continue
        moved = [(abs(b - a), abs(b - a) / abs(a) if a else np.inf)
                 for a, b in zip(was, now)
                 if a != b and not (np.isnan(a) and np.isnan(b))]
        if moved:
            lines.append(f"{key}: rel {max(r for _, r in moved):.2g}, "
                         f"abs {max(d for d, _ in moved):.2g}")
    return lines


def _sweep_leaves(text):
    """(column header, field) of every row of a sweep.csv text."""
    header, *rows = _numbers(text)
    return [(f"sweep.csv {name}", v) for row in rows
            for name, v in zip(header, row)]


if __name__ == "__main__":
    pinned = {config: {**bundled_outputs(config),
                       "artifacts": artifact_digests(config)}
              for config in CONFIGS}
    pinned["verify"] = verify_digest()
    with open(FIXTURE) as fh:
        old = json.load(fh)
    for config in CONFIGS:
        was, now = old[config], pinned[config]
        lines = _shift_lines(_sweep_leaves(was["sweep"]),
                             _sweep_leaves(now["sweep"]))
        lines += _shift_lines(_leaves(was["manifest"], "manifest"),
                              _leaves(now["manifest"], "manifest"))
        lines += [f"digest moved: {name}" for name in now["artifacts"]
                  if was["artifacts"].get(name) != now["artifacts"][name]]
        print(f"{config}:", *lines or ["unchanged"], sep="\n  ")
    if old["verify"] != pinned["verify"]:
        print("verify: digest moved")
    with open(FIXTURE, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
