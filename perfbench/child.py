"""One benchmark operation in a fresh process: ``homspec.cli.main(argv)``.

Usage (from run.py):
    python3 child.py RESULT_JSON LAUNCH_TIME MODE -- CLI_ARGV...

MODE is ``setup`` (stop once the config is loaded), ``plain`` or ``traced``.
LAUNCH_TIME is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes on Linux, so the set-up
time includes interpreter start-up and the import of ``homspec.cli``.
The result JSON holds the timings, the exit code and, when traced, the spans
and per-layer metrics.
"""

import json
import os
import resource
import sys
import time
import traceback


class _StopAfterSetup(Exception):
    pass


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def main() -> int:
    result_path, launch, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    import homspec.cli as cli

    marks = {}
    tracer = None
    root = None
    load_config = cli.load_config

    def timed_load_config(path):
        nonlocal tracer, root
        start = time.monotonic()
        cfg = load_config(path)
        marks["loaded"] = loaded = time.monotonic()
        marks["cpu0"] = _cpu()
        if mode == "setup":
            raise _StopAfterSetup
        if mode == "traced":
            from tracer import Tracer, install
            tracer = Tracer()
            tracer.record("config.load_config", start, loaded)
            root = tracer.open("cli.main", start=loaded)
            imp = tracer.open("cli.import")
            install(tracer)
            tracer.close(imp)
        return cfg

    cli.load_config = timed_load_config
    out = {"mode": mode}
    try:
        out["rc"] = cli.main(argv)
    except _StopAfterSetup:
        out["rc"] = 0
    except Exception:
        out["rc"] = 1
        out["error"] = traceback.format_exc()
    done = time.monotonic()
    cli.load_config = load_config
    if tracer is not None:
        tracer.close(root)
        tracer.restore()
        from tracer import layer_metrics
        out["layers"] = layer_metrics(tracer.spans, root)
        out["spans"] = tracer.spans
    if "loaded" in marks:
        out["setup_s"] = marks["loaded"] - launch
        if mode != "setup":
            out["run_s"] = done - marks["loaded"]
            out["cpu_s"] = _cpu() - marks["cpu0"]
            out["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
