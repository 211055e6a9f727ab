"""cornerflow benchmark: time CLI workloads end to end, or trace them per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-gamma2 --seed 0 --seconds 10 --trace 0

Each pass runs in a fresh interpreter (``child.py``) that imports
``cornerflow.cli`` from this checkout's ``src/`` and calls its ``main`` once
per step.  Passes repeat until ``--seconds`` have gone by (at least one).
Every pass is checked (exit codes, output layout, targets, recorded values at
the default seed) and its artifacts hashed; a pass whose artifacts differ from
another pass of the same code and seed fails.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckError, write_config  # noqa: E402

SETUP_SAMPLES = 5  # import-only interpreters per run, besides one per pass
TIME_LIMIT = 170.0  # seconds; no pass starts that could end past it


class BenchError(Exception):
    """The benchmark cannot run here or refuses to compare; exit nonzero."""


def run_child(pdir, steps, trace=False, timeout=TIME_LIMIT):
    """Run child.py on ``steps`` in ``pdir``; returns its result dict."""
    os.makedirs(pdir, exist_ok=True)
    spec_steps = []
    for st in steps:
        cfg = os.path.join(pdir, st.name + ".cfg")
        write_config(cfg, st.cfg)
        spec_steps.append((st.sub, cfg, st.out))
    result = os.path.join(pdir, "result.json")
    spec = {"src": SRC, "steps": spec_steps, "trace": trace, "result": result}
    spec_path = os.path.join(pdir, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(os.path.join(pdir, "child.log"), "w") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            cwd=pdir, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
        )
    if not os.path.exists(result):
        raise BenchError(f"pass in {pdir} wrote no result (exit {proc.returncode}); see child.log")
    with open(result) as f:
        res = json.load(f)
    if "error" in res:
        raise BenchError(res["error"])
    return res


def artifact_hashes(pdir, outs):
    """sha256 of every file the steps wrote, keyed by its path in the pass."""
    hashes = {}
    for out in outs:
        base = os.path.join(pdir, out)
        for dirpath, _, files in os.walk(base):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    hashes[os.path.relpath(path, pdir)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(hashes.items()))


def code_key():
    """Digest of src/ and of the benchmark: artifacts of one key must match."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for dirpath, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_pass(wl, seed, steps, pdir, ref, trace, timeout):
    """One checked pass; returns a record with timings, errors and hashes."""
    rec = {"dir": pdir, "trace": trace, "errors": []}
    try:
        res = run_child(pdir, steps, trace=trace, timeout=timeout)
    except subprocess.TimeoutExpired:
        rec["errors"].append(f"timed out after {timeout:.0f} s")
        return rec
    rec.update(res)
    if len(res["codes"]) != len(steps) or any(c != 0 for c in res["codes"]):
        rec["errors"].append(f"step exit codes {res['codes']}")
        return rec
    try:
        rec["observed"] = wl.check(pdir, seed, ref)
    except (CheckError, OSError, ValueError, KeyError) as exc:
        rec["errors"].append(f"check: {exc}")
    rec["hashes"] = artifact_hashes(pdir, [st.out for st in steps])
    return rec


def median_pass(passes):
    """The pass with the (lower) median run time."""
    return sorted(passes, key=lambda p: p["run_s"])[(len(passes) - 1) // 2]


def run_passes(args, wl, steps, work, recorded, t_begin):
    """Passes until ``--seconds`` have gone by: untraced, then traced with --trace 1."""
    passes = []
    t_meas = time.perf_counter()
    phases = [(False, args.seconds / 2 if args.trace else args.seconds)]
    if args.trace:
        phases.append((True, args.seconds))
    for traced, until in phases:
        while True:
            elapsed = time.perf_counter() - t_begin
            longest = max((p["wall"] for p in passes), default=0.0)
            if passes and elapsed + longest > TIME_LIMIT:
                return passes
            t0 = time.perf_counter()
            p = run_pass(wl, args.seed, steps, os.path.join(work, f"pass-{len(passes)}"),
                         recorded, traced, timeout=max(5.0, TIME_LIMIT + 5.0 - elapsed))
            p["wall"] = time.perf_counter() - t0
            passes.append(p)
            if "run_s" not in p:
                return passes
            if time.perf_counter() - t_meas >= until:
                break
    return passes


def check_determinism(passes, cache):
    """Fail each pass whose artifacts differ from the first seen for this code and seed.

    The first pass's hashes are stored in ``cache`` when no pass failed, so
    later runs in the same checkout are compared with them too.
    """
    first = None
    if os.path.exists(cache):
        with open(cache) as f:
            first = json.load(f)
    for p in passes:
        if "hashes" not in p:
            continue
        if first is None:
            first = p["hashes"]
        elif p["hashes"] != first:
            diff = sorted(k for k in set(first) | set(p["hashes"])
                          if first.get(k) != p["hashes"].get(k))
            p["errors"].append(f"artifacts differ from an earlier pass: {diff}")
    if first is not None and not os.path.exists(cache) and not any(p["errors"] for p in passes):
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(cache, "w") as f:
            json.dump(first, f)


def metric_values(passes, setup, trace):
    """End-to-end values (medians over untraced passes) or the per-layer ones."""
    timed = [p for p in passes if "run_s" in p]
    untraced = [p for p in timed if not p["trace"]]
    traced = [p for p in timed if p["trace"]]
    if not untraced or (trace and not traced):
        raise BenchError("no pass produced the timings this mode needs")
    if not trace:
        return {
            "run_s": statistics.median(p["run_s"] for p in untraced),
            "setup_s": statistics.median(setup + [p["setup_s"] for p in timed]),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
    tp = median_pass(traced)
    values = tracing.layer_metrics(tp["counts"], tp["self_s"], tp["top_s"], tp["run_s"],
                                   tp.get("observed", {}).get("iterations", 0))
    values["trace.overhead_s"] = tp["run_s"] - statistics.median(p["run_s"] for p in untraced)
    return values


def measure(args, bench, ref):
    wl = WORKLOADS[args.workload]
    t_begin = time.perf_counter()
    work = os.path.join(WORK, f"{wl.name}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    prep = wl.prepare(inputs)
    if prep:
        res = run_child(inputs, prep)
        if any(c != 0 for c in res["codes"]):
            raise BenchError(f"making the inputs failed: {res['codes']}")
    steps = wl.steps(args.seed, inputs)

    # the first import compiles the byte code: it is not a set-up sample
    env = run_child(os.path.join(work, "import-0"), [])["env"]
    if env["kernel_backend"] != ref["kernel_backend"]:
        raise BenchError(
            f"kernel backend {env['kernel_backend']!r} differs from the recorded "
            f"{ref['kernel_backend']!r}: results are not comparable"
        )
    setup = [run_child(os.path.join(work, f"import-{i}"), [])["setup_s"]
             for i in range(1, SETUP_SAMPLES + 1)]

    recorded = ref[wl.name] if args.seed == DEFAULT_SEED else None
    passes = run_passes(args, wl, steps, work, recorded, t_begin)
    check_determinism(passes, os.path.join(WORK, "hashes",
                                           f"{wl.name}-{args.seed}-{code_key()}.json"))
    values = metric_values(passes, setup, args.trace)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"benchmark code does not produce {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    failed = [p for p in passes if p["errors"]]
    summary = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "passes": len(passes), "setup_samples": setup, "metrics": metrics,
        "pass_details": [{k: p.get(k) for k in ("trace", "run_s", "cpu_s", "peak_rss_mb",
                                                "setup_s", "errors")} for p in passes],
    }
    with open(os.path.join(work, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("perfbench " + json.dumps(env, sort_keys=True))
    for i, p in enumerate(passes):
        kind = "traced" if p["trace"] else "timed"
        status = "ok" if not p["errors"] else "FAILED: " + "; ".join(p["errors"])
        print(f"perfbench pass {i} ({kind}) run_s={p.get('run_s', float('nan')):.4f} {status}")
        for err in p["errors"]:
            print(f"perfbench: pass {i} failed: {err}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(passes), "failed": len(failed),
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "cornerflow", "__init__.py")):
            raise BenchError(f"no cornerflow sources under {SRC}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "reference.json")) as f:
            ref = json.load(f)
        out = measure(args, bench, ref)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
