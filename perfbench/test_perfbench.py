"""Tests of the benchmark itself: its oracle, inputs and declared metrics.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import pytest

import oracle
from jobs import SETUP_JOB, WORKLOADS, build_jobs
from compare import differing
from run import E2E_UNITS, digest, layer_unit, tail
from tracer import layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _files(top: str) -> dict:
    found = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, top)] = handle.read()
    return found


def _job_list_json(jobs) -> str:
    return json.dumps([asdict(j) for j in jobs], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_jobs_and_inputs(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    jobs_a = build_jobs(workload, 7, str(a))
    jobs_b = build_jobs(workload, 7, str(b))
    jobs_c = build_jobs(workload, 8, str(c))
    assert _job_list_json(jobs_a) == _job_list_json(jobs_b)
    assert _files(str(a)) == _files(str(b))
    assert _job_list_json(jobs_a) != _job_list_json(jobs_c)
    assert sum(j.oversize for j in jobs_a) == 1


def _ok(job, stdout: bytes, code: int = 0, files=None, workdir="."):
    out = oracle.Outcome(code, stdout, b"", files or {}, capped=False)
    return oracle.check(job, out, workdir)


def _job(jobs, *argv):
    return next(j for j in jobs if j.argv[:len(argv)] == list(argv))


def test_corrupted_answers_count_as_failed(tmp_path):
    jobs = build_jobs("count", 3, str(tmp_path))
    count = _job(jobs, "count", "--shape", "rect:8x8")
    assert _ok(count, b"12988816\n12988816\n").ok
    for bad in (b"12988817\n12988816\n", b"12988816\n12988815\n", b"", b"x"):
        verdict = _ok(count, bad)
        assert not verdict.ok and verdict.wrong
    assert not _ok(count, b"12988816\n12988816\n", code=1).ok

    diameter = _job(jobs, "diameter", "--method", "levels", "--shape",
                    "rect:12x12")
    assert _ok(diameter, b"286\n").ok
    assert not _ok(diameter, b"285\n").ok

    graph = build_jobs("distance", 3, str(tmp_path / "d"))
    export = next(j for j in graph if j.check["kind"] == "graph")
    missing = _ok(export, b"", files={export.outputs[0]: None})
    assert not missing.ok and missing.wrong

    untileable = next(j for j in jobs if j.check["kind"] == "untileable")
    assert _ok(untileable, b"0\n", code=2).ok
    assert not _ok(untileable, b"0\n", code=0).ok


def test_rotated_regions_must_count_alike(tmp_path):
    jobs = build_jobs("count", 3, str(tmp_path))
    pair = [j for j in jobs if j.check.get("pair") == "r0"]
    verdicts = {j.name: _ok(j, b"%d\n" % (40 + i), workdir=str(tmp_path))
                for i, j in enumerate(pair)}
    assert set(oracle.check_groups(pair, verdicts)) == {j.name for j in pair}
    verdicts = {j.name: _ok(j, b"40\n") for j in pair}
    assert oracle.check_groups(pair, verdicts) == {}


def test_distance_paths_are_replayed(tmp_path):
    jobs = build_jobs("distance", 3, str(tmp_path))
    job = next(j for j in jobs
               if j.check.get("path") and "square:16" in j.argv)
    d = job.check["distance"]
    t1 = oracle.read_tiling((tmp_path / job.check["t1"]).read_bytes())
    t2 = oracle.read_tiling((tmp_path / job.check["t2"]).read_bytes())
    # a wrong distance, or a path that is no path, fails
    fake = json.dumps({"flips": [[1, 1]] * d}).encode()
    assert not _ok(job, b"%d\n" % d, files={job.check["path"]: fake},
                   workdir=str(tmp_path)).ok
    assert not _ok(job, b"%d\n" % (d + 1), workdir=str(tmp_path)).ok
    assert t1 != t2


def test_cap_is_a_failure_and_a_traceback_a_wrong_answer():
    job = SETUP_JOB
    capped = oracle.Outcome(-24, b"", b"", {}, capped=True)
    verdict = oracle.check(job, capped, ".")
    assert not verdict.ok and not verdict.wrong
    crashed = oracle.Outcome(1, b"", b"Traceback (most recent call last):\n"
                             b"KeyError: 1\n", {}, capped=False)
    verdict = oracle.check(job, crashed, ".")
    assert not verdict.ok and verdict.wrong


def test_budget_refusal_is_correct_only_for_oversize_jobs(tmp_path):
    jobs = build_jobs("search", 1, str(tmp_path))
    oversize = next(j for j in jobs if j.oversize)
    normal = next(j for j in jobs if not j.oversize)
    refused = oracle.Outcome(4, b"", b"error: budget\n", {}, capped=False)
    assert oracle.check(oversize, refused, str(tmp_path)).ok
    assert not oracle.check(normal, refused, str(tmp_path)).ok


def test_digest_covers_exit_code_stdout_and_files():
    job = SETUP_JOB
    base = oracle.Outcome(0, b"1\n", b"noise", {}, capped=False)
    assert digest(base, job) == digest(
        oracle.Outcome(0, b"1\n", b"other noise", {}, capped=False), job)
    assert digest(base, job) != digest(
        oracle.Outcome(2, b"1\n", b"", {}, capped=False), job)
    assert digest(base, job) != digest(
        oracle.Outcome(0, b"2\n", b"", {}, capped=False), job)


def test_oracle_closed_forms():
    for m in range(1, 9):
        for n in range(1, 7):
            assert oracle.rect_count(m, n) == oracle.count_small(
                oracle.rect_cells(m, n))
    for n in range(1, 5):
        assert oracle.aztec_count(n) == oracle.count_small(
            oracle.aztec_cells(n))
    assert oracle.rect_count(16, 16) == 2444888770250892795802079170816
    assert oracle.diameter_rect(6, 6) == 35
    assert oracle.diameter_rect(16, 16) == 680
    assert oracle.diameter_aztec(4) == 30


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(i) for i in range(40)]
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10 and pct == 75.0
    assert tail([1.0, 2.0]) == (2.0, 100.0)


def test_benchmark_json_declares_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    layer_names = set(layer_metrics([])) | {"trace.overhead_s",
                                            "oversize.passed"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layer_unit(name) for name in layer_names}


def test_compare_lists_jobs_whose_output_differs():
    before = {"workload": "count", "seed": 1,
              "jobs": [{"argv": ["a"], "digest": "x"},
                       {"argv": ["b"], "digest": "y"}]}
    after = {"workload": "count", "seed": 1,
             "jobs": [{"argv": ["a"], "digest": "x"},
                      {"argv": ["b"], "digest": "z"}]}
    assert differing(before, before) == []
    assert differing(before, after) == ["b"]
    with pytest.raises(ValueError):
        differing(before, dict(after, seed=2))
