"""Benchmark command: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload gc_identities --seed 0 --seconds 45 --trace 0

Every pass runs in a fresh interpreter (``bench/worker.py``), so caches
inside ``extensor`` start cold, as they do for a user's invocation.  The
load is a closed loop with one caller: one process, one thread, each item
after the previous one returns.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead, plus the tracing overhead.  Either way every
pass must give the same output digest and work counts, and no item may
fail, or the run is not correct.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The same figures, with the host they were measured on, are written to
``bench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes the spans of its first traced pass to
``bench/out/spans-<workload>-seed<seed>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("gc_identities", "whitney_relations", "straighten_cli")
MIN_PASSES = 2            # untraced passes per untraced run, at least
SETUP_ONLY = 3            # set-up-only starts per run; every pass adds one more
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10          # items that must lie beyond the tail percentile


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: bool, setup_only: bool = False,
          spans: str | None = None):
    """Run one worker; returns (set-up CPU seconds, result dict or None)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ready = first.split()
    if ready[:1] != ["READY"] or len(ready) != 2 or proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{(first + out + err).strip()[-2000:]}")
    setup_s = float(ready[1])
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """The highest of these percentiles with TAIL_BEYOND items beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if math.floor(n * (100 - pct) / 100 + 1e-9) >= TAIL_BEYOND:
            return pct
    return 50.0


def nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, math.ceil(pct / 100 * len(sorted_values) - 1e-9))
    return sorted_values[k - 1]


def check_agreement(passes) -> list[str]:
    """Every pass must print the same results and do the same work."""
    problems = []
    ref = passes[0]
    for p in passes:
        if p["failed"]:
            problems.append(f"{p['failed']} failed items: {p['errors']}")
        if p["digest"] != ref["digest"]:
            problems.append(f"digest {p['digest']} differs from {ref['digest']}")
        if p["counts"] != ref["counts"]:
            problems.append(f"work counts {p['counts']} differ from {ref['counts']}")
    return problems


def end_to_end(passes, setups) -> dict[str, float]:
    """Each item's time is its fastest over the run's cold passes.

    A shared host's speed drifts for seconds at a time (on a 2-vCPU VM the
    same pure-Python loop read 25 ms in one second and 35 ms in the
    next, in CPU time as in wall time), so a pass median still carries
    that drift; the per-item minimum mostly does not.
    """
    n = passes[0]["items"]
    per_item = sorted(min(p["item_s"][i] for p in passes) for i in range(n))
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": n / math.fsum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": nearest_rank(per_item, tail_percentile(n)) * 1e3,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(traced, untraced) -> dict[str, float]:
    """Medians over the traced passes; the lower median, so that counts
    stay whole and every value is one that was measured."""
    out = {key: statistics.median_low(p["layers"][key] for p in traced)
           for key in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (statistics.median(p["pass_s"] for p in traced)
                                   / statistics.median(p["pass_s"] for p in untraced))
    return out


def host() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"python": platform.python_version(), "implementation":
            platform.python_implementation(), "nproc": cpus,
            "platform": platform.platform(), "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float, trace: bool):
    start = time.perf_counter()
    deadline = start + seconds
    os.makedirs(OUT, exist_ok=True)
    spawn(workload, seed, False, setup_only=True)          # compile bytecode
    setups = [spawn(workload, seed, False, setup_only=True)[0]
              for _ in range(SETUP_ONLY)]
    untraced, traced = [], []
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.tsv.gz")
    step = 0.0
    while True:
        t0 = time.perf_counter()
        setup_s, res = spawn(workload, seed, False)
        setups.append(setup_s)
        untraced.append(res)
        if trace:
            _, res = spawn(workload, seed, True, spans=None if traced else spans)
            traced.append(res)
        step = max(step, time.perf_counter() - t0)
        enough = len(untraced) >= (1 if trace else MIN_PASSES)
        if enough and time.perf_counter() + step > deadline:
            break               # start another only if the longest step fits
    return setups, untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="extensor benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "extensor", "__init__.py")):
        print(f"error: no extensor sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setups, untraced, traced = measure(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = untraced + traced
    problems = check_agreement(passes)
    values = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    n = untraced[0]["items"]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host(),
        "items": n, "tail_percentile": tail_percentile(n),
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "setup_samples": len(setups)},
        "digest": untraced[0]["digest"], "counts": untraced[0]["counts"],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "problems": problems,
        "metrics": metrics,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    h = record["host"]
    print(f"host: python {h['python']}, nproc {h['nproc']}, {h['platform']}")
    print(f"workload {args.workload}, seed {args.seed}: {n} items, "
          f"tail = p{record['tail_percentile']:g}, passes {record['passes']}")
    print(f"digest {record['digest']}")
    print("counts " + json.dumps(record["counts"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':36s} {record['fail_ratio']:.6g} ratio "
          f"({failed} of {attempted} items)")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
