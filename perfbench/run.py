"""homspec benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each operation is a fresh
``python3 perfbench/child.py`` process that calls ``homspec.cli.main`` on an
INI generated from the seed, in a closed loop with one operation in flight,
until ``--seconds`` have passed (at least one operation; with ``--trace 1``
traced and untraced operations alternate, at least one of each). Set-up
probes, processes that stop once the config is loaded, run before, between
and after the operations so that ``setup_s`` samples the whole run. Every
operation's artifacts are checked against the seed-commit values in
``perfbench/baseline.json``.

The last stdout line is the result: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``. The line before it is a report
with every metric's median, max and sample count, the output digest, and the
run environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
SETUP_PROBES = 4          # before the loop and again after it
# per operation; the longest (traced sweep-1d) takes about 40 s on a quiet host
OP_TIMEOUT_S = 150.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# lambda_tilde does not depend on the phase (the spectrum is translation
# invariant); eig_err may move with it, so it gets headroom over seed 0
LAMBDA_RTOL = 1e-9
EIG_ERR_FACTOR = 10.0
EIG_ERR_FLOOR = 1e-11


@dataclass(frozen=True)
class Workload:
    config: str            # file under configs/, also the key in baseline.json
    argv: tuple            # homspec CLI arguments after --config/--out
    kind: str = "sweep"    # which artifacts to check: sweep or expand


# BENCHMARK.json and README.md say why each workload is there
WORKLOADS = {
    "sweep-1d": Workload("simple-1d.ini", ("sweep",)),
    "sweep-2d": Workload("multiple-2d.ini", ("sweep",)),
    "expand-2d": Workload("multiple-2d.ini", ("expand", "--w-samples", "100"),
                          kind="expand"),
}


# --- inputs ---------------------------------------------------------------------


def phase_for(seed: int) -> float:
    """Seed 0 is the bundled config verbatim; others shift the oscillation."""
    return 0.0 if seed == 0 else round(random.Random(seed).uniform(0.01, 0.99), 6)


def seeded_config(text: str, phase: float) -> str:
    """Shift ``cos(2*pi*y)`` to ``cos(2*pi*(y + phase))``: same grids, P and work."""
    if phase == 0.0:
        return text
    out, n = re.subn(r"2\*pi\*(y\d?)\b", rf"2*pi*(\1 + {phase!r})", text)
    if n != 1:
        raise ValueError(f"expected one oscillating term in the config, found {n}")
    return out


# --- one operation --------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    env.update({k: "1" for k in PINNED})
    return env


def run_child(mode: str, argv: list, result: str, timeout: float) -> dict:
    try:
        launch = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                               result, repr(launch), mode, "--", *argv],
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": -1, "timed_out": True,
                "error": f"timed out after {timeout:.0f} s"}
    try:
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
    except (OSError, ValueError):
        return {"rc": proc.returncode or -1, "error": proc.stderr[-2000:]}
    if proc.returncode:
        out.update(rc=proc.returncode, error=proc.stderr[-2000:])
    elif out.get("rc") and "error" not in out:
        out["error"] = proc.stderr[-2000:]
    return out


def _float(text: str) -> float:
    # tolerate numpy 2 reprs such as "np.float64(-4.0)" in w_samples.csv
    m = re.fullmatch(r"np\.float64\((.*)\)", text)
    return float(m.group(1) if m else text)


def check_sweep(out_dir: str, expected: list) -> str:
    """Digest of sweep.csv without runtime_s plus the manifest scalars."""
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8") as fh:
        text = fh.read()
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(expected):
        raise AssertionError(f"{len(rows)} rows, expected {len(expected)}")
    for row, (eps, branch, lam, err) in zip(rows, expected):
        if (float(row["epsilon"]), int(row["branch"])) != (eps, branch):
            raise AssertionError(f"row order: {row['epsilon']}/{row['branch']}")
        for key in ("lambda_tilde", "lambda_ref_richardson", "eig_err"):
            if not math.isfinite(float(row[key])):
                raise AssertionError(f"{key} not finite at eps={eps}")
        if abs(float(row["lambda_tilde"]) - lam) > LAMBDA_RTOL * abs(lam):
            raise AssertionError(f"lambda_tilde {row['lambda_tilde']} != {lam}"
                                 f" at eps={eps} branch={branch}")
        if float(row["eig_err"]) > EIG_ERR_FACTOR * err + EIG_ERR_FLOOR:
            raise AssertionError(f"eig_err {row['eig_err']} above tolerance "
                                 f"at eps={eps} branch={branch}")
    body = [line.rsplit(",", 1)[0] for line in text.splitlines()]
    scalars = {k: v for k, v in manifest.items()
               if not isinstance(v, (dict, list)) and k != "config_text"}
    return _digest("\n".join(body), json.dumps(scalars, sort_keys=True))


def check_expand(out_dir: str, expected: list) -> str:
    """Digest of expand.json and w_samples.csv."""
    with open(os.path.join(out_dir, "expand.json"), encoding="utf-8") as fh:
        payload = fh.read()
    with open(os.path.join(out_dir, "w_samples.csv"), encoding="utf-8") as fh:
        samples = fh.read()
    lam = {(eps, branch): v for eps, branch, v, _ in expected}
    got = {(e["eps"], int(k[len("lambda_tilde_branch"):])): v
           for e in json.loads(payload)["per_eps"]
           for k, v in e.items() if k.startswith("lambda_tilde_branch")}
    if got.keys() != lam.keys():
        raise AssertionError(f"expand rows {sorted(got)} != {sorted(lam)}")
    for key, v in got.items():
        if not abs(v - lam[key]) <= LAMBDA_RTOL * abs(lam[key]):
            raise AssertionError(f"lambda_tilde {v} != {lam[key]} at {key}")
    lines = samples.splitlines()
    width = len(lines[0].split(","))
    if len(lines) != 100 * 100 + 1 or width != 2 + len(lam):
        raise AssertionError(f"w_samples.csv is {len(lines)}x{width}")
    for line in lines[1:]:
        if not all(math.isfinite(_float(v)) for v in line.split(",")):
            raise AssertionError("non-finite value in w_samples.csv")
    return _digest(payload, samples)


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


CHECKS = {"sweep": check_sweep, "expand": check_expand}


# --- the loop -------------------------------------------------------------------


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_threads": {k: child_env()[k] for k in PINNED},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": model,
        "loadavg": os.getloadavg(),
    }


def _stats(values: list) -> dict:
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values), "values": values}


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 expected: list) -> dict:
    """Run ``wl`` for ``seconds``; return the report with every metric."""
    start = time.monotonic()
    env_record = environment()
    work = os.path.join(WORK, f"{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    phase = phase_for(seed)
    with open(os.path.join("configs", wl.config), encoding="utf-8") as fh:
        text = seeded_config(fh.read(), phase)
    config = os.path.join(work, "config.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)

    def op(mode: str, i: int) -> dict:
        out_dir = os.path.join(work, f"op{i}")
        res = run_child(mode, ["--config", config, "--out", out_dir, *wl.argv],
                        os.path.join(work, f"op{i}.json"), OP_TIMEOUT_S)
        res["ok"] = res.get("rc") == 0 and "setup_s" in res
        if res["ok"] and mode != "setup":
            try:
                res["digest"] = CHECKS[wl.kind](out_dir, expected)
            except (OSError, ValueError, KeyError, AssertionError) as exc:
                res.update(ok=False, error=f"correctness gate: {exc!r}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return res

    probes = []

    def probe():
        probes.append(op("setup", -len(probes) - 1))

    for _ in range(SETUP_PROBES):
        probe()
    modes = ["traced", "plain"] if trace else ["plain"]
    ops = []
    while True:
        ops.append(op(modes[len(ops) % len(modes)], len(ops)))
        if len(ops) >= len(modes) and time.monotonic() - start >= seconds:
            break
        probe()
    for _ in range(SETUP_PROBES):
        probe()
    shutil.rmtree(work, ignore_errors=True)

    done = [o for o in probes + ops if o["ok"]]
    plain = [o for o in ops if o["ok"] and o["mode"] == "plain"]
    traced = [o for o in ops if o["ok"] and o["mode"] == "traced"]
    digests = sorted({o["digest"] for o in ops if "digest" in o})
    timeouts = sum(1 for o in probes + ops if o.get("timed_out"))
    report = {
        "workload": name, "seed": seed, "phase": phase, "env": env_record,
        "attempted": len(probes) + len(ops),
        "failed": len(probes) + len(ops) - len(done),
        # a slow host is not a wrong program: timeouts fail the operation
        # but do not make the run incorrect
        "timeouts": timeouts,
        "gate_failures": sum(1 for o in ops
                             if o.get("error", "").startswith("correctness gate")),
        "errors": [o["error"] for o in probes + ops if "error" in o][:3],
        "digest": digests[0] if len(digests) == 1 else digests,
        "end_to_end": {},
        "layers": {},
    }
    report["failed_frac"] = report["failed"] / report["attempted"]
    if done:
        report["end_to_end"]["setup_s"] = _stats([o["setup_s"] for o in done])
    for key in ("run_s", "cpu_s", "peak_rss_mb"):
        if plain:
            report["end_to_end"][key] = _stats([o[key] for o in plain])
    if traced:
        for key in traced[0]["layers"]:
            report["layers"][key] = _stats([o["layers"][key] for o in traced])
        if plain:
            report["layers"]["trace.overhead_frac"] = {
                "median": report["layers"]["run_s"]["median"]
                / report["end_to_end"]["run_s"]["median"] - 1.0,
                "n": len(traced)}
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(WORK, f"trace-{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(traced[-1]["spans"], fh)
    report["correct"] = report["failed"] == timeouts and len(digests) == 1
    return report


def result_line(report: dict, metrics: list, table: str) -> dict:
    """The result line: exactly the metrics named in BENCHMARK.json."""
    table = report[table]
    values = {m["name"]: {"value": table[m["name"]]["median"], "unit": m["unit"]}
              for m in metrics}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    for path in ("BENCHMARK.json", "src/homspec/cli.py",
                 os.path.join("configs", wl.config)):
        if not os.path.isfile(path):
            print(f"run from the root of a homspec checkout: {path} missing",
                  file=sys.stderr)
            return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["expected"][wl.config]
    report = run_workload(args.workload, wl, args.seed, args.seconds,
                          bool(args.trace), expected)
    section, table = (("per_layer", "layers") if args.trace
                      else ("end_to_end", "end_to_end"))
    try:
        line = result_line(report, spec[section], table)
    except KeyError as exc:
        print(json.dumps(report), file=sys.stderr)
        print(f"metric {exc} was not measured", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
