"""Tests of the benchmark itself: reproducible inputs and work counts, the
oracles, the tracer's self-time arithmetic, and refusal to run without a
matchlab source tree.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def ml():
    return workloads.load_matchlab(ROOT)


def small_workloads(ml, seed):
    return [
        workloads.Census(ml, seed, n=6),
        workloads.Integers(ml, seed, rungs=1),
        workloads.Certify(ml, seed, certify_max=30),
    ]


def test_same_seed_gives_same_integer_inputs():
    first = workloads.sample_integer_pairs(7, rungs=3)
    assert first == workloads.sample_integer_pairs(7, rungs=3)
    assert first != workloads.sample_integer_pairs(8, rungs=3)


def test_integer_inputs_sit_on_the_ladder():
    pairs = workloads.sample_integer_pairs(3, rungs=5)
    ratio = workloads.RUNG_HIGH / workloads.RUNG_LOW
    for r, (a, b, count) in enumerate(pairs):
        target = workloads.RUNG_LOW * ratio ** (r / 4)
        assert abs(count - target) <= workloads.RUNG_TOLERANCE * target
        assert len(a) == len(b) in workloads.INT_SIZES and 0 not in b


def test_dp_count_agrees_with_enumeration(ml):
    g = ml.groups.integers()
    for a, b in [((0, 1, 3), (1, 2, 4)), ((-2, 0, 5, 7), (-3, 1, 2, 6)),
                 ((-5, -1, 0, 2, 4), (-4, -2, 1, 3, 5))]:
        report = ml.matching.acyclicity_report(ml.matching.SubsetPair(g, a, b))
        assert workloads.count_matchings(a, b) == report.total_matchings


@pytest.mark.parametrize("n", [7, 8])
def test_census_matches_fixture(ml, n):
    census = workloads.Census(ml, 0, n=n)
    out = census.execute()
    assert census.check(out) == []
    assert out.outputs[0] == workloads.CENSUS_FIXTURE[n]


def test_work_counts_repeat_for_a_seed(ml):
    def counts(seed):
        result = []
        for wl in small_workloads(ml, seed):
            with Tracer(ml) as tracer:
                out = wl.execute(tracer.mark)
            assert all(f.known_defect for f in wl.check(out))
            result.append((out.work, tracer.work_counts()))
        return result

    first = counts(11)
    assert first == counts(11)
    census, integers, certify = first
    assert census[1]["matching.matchings"] > 0 and census[1]["matching.classes"] > 0
    assert integers[0]["pairs"] == 1 and integers[1]["matching.multiplicity"] > 0
    assert certify[0]["certify.bytes"] > 0 and certify[1]["genfun.mul.term_products"] > 0


def test_tracer_restores_every_patched_name(ml):
    before = {mod: dict(vars(getattr(ml, mod))) for mod in workloads.MODULES}
    with Tracer(ml):
        assert ml.matching.acyclicity_report is not before["matching"]["acyclicity_report"]
        assert ml.certify.acyclicity_report is ml.matching.acyclicity_report
    for mod, names in before.items():
        now = vars(getattr(ml, mod))
        assert all(now[k] is v for k, v in names.items())


def test_self_time_subtracts_child_spans():
    tracer = Tracer(None)
    inner = tracer._span("inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        time.sleep(0.005)
        inner()

    tracer._span("outer", outer_body)()
    spans = {tracer.names[name_id]: end - start
             for _, _, _, name_id, start, end in tracer.spans}
    assert tracer.self_ns["outer"] + tracer.self_ns["inner"] == spans["outer"]
    assert tracer.counts["inner"] == 2


def test_generator_span_excludes_consumer_time():
    def numbers():
        yield from range(3)

    tracer = Tracer(None)
    items = tracer._generator_span("gen", numbers, "gen.items")
    for _ in items():
        time.sleep(0.01)
    assert tracer.counts["gen.items"] == 3 and tracer.counts["gen"] == 1
    assert tracer.self_ns["gen"] < 0.01e9


def test_certify_failures_are_only_known_defects(ml):
    wl = workloads.Certify(ml, 0)
    failures = wl.check(wl.execute())
    assert all(f.known_defect for f in failures), failures
    assert {f.op for f in failures} <= set(workloads.KNOWN_DEFECTS)


def test_tail_percentile_is_fixed_per_workload():
    assert bench.tail_percentile(92377) == 99
    assert bench.tail_percentile(workloads.RUNGS) == 95
    assert bench.tail_percentile(177) == 95


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, metrics in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(metrics)
