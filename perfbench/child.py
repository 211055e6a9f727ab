"""One benchmark pass in a fresh interpreter.

Usage: ``python3 child.py <spec.json>``, run by ``run.py`` with ``src/`` first
on ``PYTHONPATH`` and the pass directory as working directory.  The spec names
the CLI steps, whether to trace, and where to write the result JSON.

The pass times ``import cornerflow.cli`` (set-up), then calls
``cornerflow.cli.main`` once per step and times the steps together (run),
with the CPU seconds and peak RSS of the process.  It stops at the first step
that returns nonzero or raises.
"""

import json
import os
import resource
import sys
import time
import traceback


def _write(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)


def main():
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    t0 = time.perf_counter()
    import cornerflow.cli as cli
    setup_s = time.perf_counter() - t0

    import cornerflow
    import numpy

    result = {
        "setup_s": setup_s,
        "env": {
            "cornerflow_file": cornerflow.__file__,
            "kernel_backend": cornerflow.KERNEL_BACKEND,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
    }
    want = os.path.realpath(os.path.join(spec["src"], "cornerflow"))
    if os.path.dirname(os.path.realpath(cornerflow.__file__)) != want:
        result["error"] = f"cornerflow imported from {cornerflow.__file__}, not {want}"
        _write(spec["result"], result)
        return 3
    if not spec["steps"]:
        _write(spec["result"], result)
        return 0

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    codes = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for sub, cfg, out in spec["steps"]:
        try:
            rc = cli.main([sub, "--config", cfg, "--out", out])
        except Exception:  # a raising step fails the pass; keep its traceback
            codes.append(traceback.format_exc())
            break
        codes.append(rc)
        if rc != 0:
            break
    end = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        codes=codes,
        run_s=end - start,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        own, top = tracer.self_times()
        result["self_s"] = own
        result["top_s"] = top
        tracer.dump(spec["result"] + ".spans")
    _write(spec["result"], result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
