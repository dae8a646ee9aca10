"""Smoke test of the benchmark harness on configs/minimal.ini (about 10 s).

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks that one traced and one
untraced operation emit every metric named in BENCHMARK.json with its unit,
that the tracer puts back every function it wrapped, that a wrong expected
value trips the correctness gate, that a timeout is told apart from it, and
that seeds only shift the phase.
"""

import json
import os
import sys

import run
from tracer import Tracer, install

# sweep.csv of configs/minimal.ini at the seed commit: eps, branch,
# lambda_tilde, eig_err
MINIMAL = [[0.1, 0, 1.0000000000000002, 1.48991929904696e-12]]
SMOKE = run.Workload("minimal.ini", ("sweep",))


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def test_metrics():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    report = run.run_workload("smoke", SMOKE, 0, 0, True, MINIMAL)
    check(report["correct"], f"smoke run failed: {report['errors']}")
    for section, table in (("end_to_end", "end_to_end"), ("per_layer", "layers")):
        line = run.result_line(report, spec[section], table)
        for m in spec[section]:
            got = line["metrics"][m["name"]]
            check(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']}")
            check(isinstance(got["value"], (int, float)), f"{m['name']} value")
    check(report["layers"]["trace.coverage"]["median"] > 0.5, "coverage")


def test_restore():
    sys.path.insert(0, os.path.abspath("src"))
    from homspec import cli, hermite, pipeline, torus  # noqa: F401

    def snapshot():
        owners = [m for k, m in sys.modules.items() if k.startswith("homspec")]
        owners += [torus.PeriodicField, hermite.MacroFunction, pipeline.RunManifest]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    tracer = Tracer()
    install(tracer)
    patched = {(t.__name__, a) for t, a, _ in tracer._patches}
    for want in (("homspec.expansion", "solve_cell"),
                 ("homspec.classical", "solve_cell"),
                 ("homspec.pipeline", "solve_Leps"),
                 ("homspec.pipeline", "assemble"),
                 ("PeriodicField", "evaluate")):
        check(want in patched, f"{want} not wrapped")
    check(snapshot() != before, "install changed nothing")
    tracer.restore()
    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not changed and after.keys() == before.keys(),
          f"not restored: {changed}")


def test_gate():
    wrong = [[0.1, 0, 1.0 + 1e-6, 1.48991929904696e-12]]
    report = run.run_workload("smoke", SMOKE, 0, 0, False, wrong)
    check(not report["correct"] and report["failed"] == 1,
          "a wrong lambda_tilde passed the gate")
    check("correctness gate" in report["errors"][0], report["errors"])


def test_timeout():
    saved, run.OP_TIMEOUT_S = run.OP_TIMEOUT_S, 0.01
    try:
        report = run.run_workload("smoke", SMOKE, 0, 0, False, MINIMAL)
    finally:
        run.OP_TIMEOUT_S = saved
    check(report["timeouts"] == report["failed"] == report["attempted"],
          f"timeouts not counted: {report['errors']}")
    check(report["gate_failures"] == 0, "a timeout counted as a gate miss")


def test_seeds():
    text = "a = 2 + cos(2*pi*y)\n"
    check(run.seeded_config(text, run.phase_for(0)) == text, "seed 0 verbatim")
    phase = run.phase_for(7)
    check(phase == run.phase_for(7) and 0 < phase < 1, "phase from seed")
    check(run.seeded_config(text, phase)
          == f"a = 2 + cos(2*pi*(y + {phase!r}))\n", "phase shift")


def main():
    for test in (test_seeds, test_restore, test_gate, test_timeout, test_metrics):
        test()
        print(f"{test.__name__}: ok", flush=True)
    print("selftest ok")


if __name__ == "__main__":
    main()
