"""Checks of the benchmark itself: exact inputs, tracing, seed robustness.

Passes run through ``worker.py`` in fresh interpreters, so the tracer's
patches never reach the process running these tests.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402
from extensor import identity_suite  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)
LIMIT = 24


def run_worker(workload, seed, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--limit", str(LIMIT), *extra],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0].split()[0] == "READY"
    return json.loads(lines[-1])


@pytest.mark.parametrize("suite,kwargs", [
    ("alternative", {"trials_per": 2}), ("capelli", {"trials": 4}),
    ("desargues", {"trials": 10}), ("distributive", {"trials_per": 3}),
    ("hodge", {"trials": 0}), ("meet", {"trials": 20}),
    ("modular", {"trials": 10}), ("recovery", {"trials": 20}),
])
def test_gc_items_reproduce_the_identity_suites(suite, kwargs):
    """Set-up draws what the suites draw, and the items print what the
    suites print.  The n = 4 hodge block is drawn differently on purpose
    (see workloads.gc_identities), so hodge is checked without it."""
    seed = 5
    items = workloads.GC_SUITES[suite](seed, **kwargs)
    expected = [json.dumps(r.to_dict(), sort_keys=True)
                for r in identity_suite.SUITES[suite](seed, **kwargs)]
    got = [item() for item in items]
    assert all(ok for ok, _ in got)
    assert [text for _, text in got] == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_matches_untraced_and_seeds_differ(workload):
    plain = run_worker(workload, 0, 0)
    traced = run_worker(workload, 0, 1)
    other = run_worker(workload, 1, 0)
    for res in (plain, traced, other):
        assert res["items"] == LIMIT
        assert res["failed"] == 0, res["errors"]
    assert traced["digest"] == plain["digest"]
    assert traced["counts"] == plain["counts"]
    assert other["digest"] != plain["digest"]
    layers = traced["layers"]
    assert sum(layers[f"{layer}.calls"] for layer in ("identity_suite", "whitney", "cli")) > 0
    assert all(v >= 0 for v in layers.values())


def test_gc_seeds_flip_signs_but_do_the_same_work():
    """Every gc seed runs the same pool with other coordinate signs: the
    outputs differ, the calls into every layer do not."""
    first = run_worker("gc_identities", 0, 1)
    second = run_worker("gc_identities", 1, 1)
    assert first["digest"] != second["digest"]
    counts = [key for key in first["layers"]
              if not key.endswith("_s") and key != "cg_algebra.star_basis_reuse"]
    assert counts
    assert {k: first["layers"][k] for k in counts} == \
        {k: second["layers"][k] for k in counts}


def test_straighten_counts_terms_in_both_modes():
    plain = run_worker("straighten_cli", 3, 0)
    assert plain["counts"]["bitableau.straighten_calls"] == LIMIT
    assert plain["counts"]["bitableau.straighten_terms_out"] >= LIMIT


def test_star_opens_exterior_child_spans():
    """The star reaches ``exterior.substitute`` through cg_algebra's own
    ``from .exterior import substitute``; that work must show as child
    spans of the exterior layer, not as cg_algebra self time."""
    code = f"""
import json, sys
sys.path[:0] = [{BENCH!r}, {SRC!r}]
import tracing
from extensor import bitableau, cg_algebra, whitney
from extensor.exterior import ExteriorElement
inst = tracing.Instrument(trace=True).install()
imported = [hasattr(f, "__wrapped__") for f in
            (cg_algebra.substitute, whitney.straighten, bitableau.word_slices)]
basis = cg_algebra.OrderedBasis([(1, 2, 0), (0, 1, 3), (1, 0, 1)])
frame = inst.begin_item(0)
basis.star(ExteriorElement.monomial(3, (1, 2), 5))
inst.end_item(frame, False)
names = [inst.names[i] for i in inst.span_name]
star = names.index("cg_algebra.OrderedBasis.star")
children = [names[i] for i, p in enumerate(inst.span_parent) if p == star]
metrics = inst.layer_metrics()
inst.uninstall()
restored = [hasattr(f, "__wrapped__") for f in
            (cg_algebra.substitute, whitney.straighten, bitableau.word_slices)]
print(json.dumps(dict(imported=imported, restored=restored, children=children,
                      metrics=metrics)))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout)
    assert res["imported"] == [True, True, True]
    assert res["restored"] == [False, False, False]
    assert res["children"].count("exterior.substitute") == 2
    assert not any(name.startswith("cg_algebra.") for name in res["children"])
    m = res["metrics"]
    assert m["cg_algebra.star_calls"] == 1
    assert m["exterior.substitute_calls"] == 2
    assert 0 <= m["cg_algebra.self_s"] < m["cg_algebra.time_s"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "straighten_cli",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
