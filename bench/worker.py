"""One cold pass of one workload, in a fresh interpreter.

Started by ``run.py``.  It imports ``extensor`` from the checkout's
``src/``, installs the instrument (counting only, or tracing), builds the
workload's inputs, prints ``READY`` and the CPU time the process has
used so far (its set-up), runs every item once in order and prints one
JSON line with the per-item times, the output digest, the work counts
and the peak resident set.

Times are CPU time of this thread (``time.thread_time``), not wall
time.  A pass does no I/O and never waits, so on an idle machine the two
agree; on a shared virtual machine wall time also counts the time the
host runs other guests on this vCPU (steal time), which a guest kernel
with paravirtual time accounting leaves out of CPU time.

Run by hand::

    python3 bench/worker.py --workload straighten_cli --seed 0 --trace 1 --limit 20
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import process_time, thread_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import ``extensor`` from this checkout, never from elsewhere."""
    sys.path.insert(0, SRC)
    import extensor
    if os.path.dirname(os.path.dirname(os.path.abspath(extensor.__file__))) != SRC:
        raise ImportError(f"extensor imported from {extensor.__file__}, not {SRC}")
    return extensor


def run_pass(items, inst) -> dict:
    digest = hashlib.sha256()
    times = []
    failed = 0
    errors = []
    start = thread_time()
    for idx, item in enumerate(items):
        t0 = thread_time()
        frame = inst.begin_item(idx)
        ok, text = False, ""
        try:
            ok, text = item()
        except Exception as exc:      # an item that raises is a failed item
            text = f"raised {type(exc).__name__}: {exc}"
        inst.end_item(frame, not ok)
        times.append(thread_time() - t0)
        digest.update(text.encode() + b"\n")
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(f"item {idx}: {text[:300]}")
    return {"item_s": times, "pass_s": thread_time() - start, "failed": failed,
            "errors": errors, "digest": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only N items, evenly spaced over the workload (tests)")
    ap.add_argument("--spans", help="write the traced pass's spans here (.tsv.gz)")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print READY and exit")
    args = ap.parse_args(argv)

    import_package()
    import tracing
    import workloads

    inst = tracing.Instrument(trace=bool(args.trace)).install()
    items = workloads.WORKLOADS[args.workload](args.seed)
    if args.limit is not None:
        items = items[::max(1, len(items) // args.limit)][:args.limit]
    inst.reset()
    print(f"READY {process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    result = run_pass(items, inst)
    result["items"] = len(items)
    result["counts"] = dict(inst.work_counts(), items=len(items))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        result["layers"] = inst.layer_metrics()
        if args.spans:
            result["spans"] = inst.write_spans(args.spans)
    inst.uninstall()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
