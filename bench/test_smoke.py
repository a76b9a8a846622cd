"""Tier-1 smoke test of the benchmark harness (tiny tables, 10 ops, one pass).

Proves the plumbing, not the numbers: every workload and metric that
BENCHMARK.json names is printed with its unit, no op fails, the oracle
ran, the spans are well-formed, the generator is deterministic, and
nothing the harness started — process, scratch directory, shm segment —
outlives the run.
"""

import hashlib
import json
import os
import re

import pytest

from bench import gen, run
from bench.layers import UNITS, child_pids
from bench.trace import read_spans, self_times_ms

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def config():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture
def leak_check():
    """Fail the test if a process, work dir or shm segment is left behind."""
    shm_before = set(os.listdir("/dev/shm"))
    children_before = set(child_pids())
    yield
    assert set(os.listdir("/dev/shm")) <= shm_before
    assert set(child_pids()) <= children_before
    if run.WORK.is_dir():
        assert not [entry for entry in os.listdir(run.WORK) if entry.startswith("run-")]


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness(config):
    assert config["paths"] == ["bench"]
    assert [w["name"] for w in config["workloads"]] == list(gen.WORKLOADS)
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in config["end_to_end"]}
    assert end_to_end == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == UNITS
    for metric in config["end_to_end"] + config["per_layer"] + config["workloads"]:
        assert NAME.match(metric["name"])
    assert all(0 < m["bound"] <= 0.25 for m in config["end_to_end"])


def test_all_workloads_end_to_end(config, capsys, leak_check):
    assert run.main(["--scale", "smoke", "--seed", "13"]) == 0
    summary = last_json(capsys)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] == 10 + 20 + 10 + 10
    for workload in config["workloads"]:
        for metric in config["end_to_end"]:
            reported = summary["metrics"]["{}.{}".format(workload["name"], metric["name"])]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0


def test_second_seed_and_oracle_reach_every_read(leak_check):
    outcomes = run.run_end_to_end(["tail_append"], seed=14, scale="smoke", seconds=10)
    outcome = outcomes["tail_append"]
    assert outcome["correct"] and outcome["checked"] >= 3  # both reads + final revision


def test_traced_run_prints_every_layer_metric(config, capsys, tmp_path, leak_check):
    spans_path = str(tmp_path / "spans.jsonl")
    code = run.main(["--scale", "smoke", "--seed", "14", "--workload", "adhoc_scan",
                     "--trace", "1", "--trace-out", spans_path])
    assert code == 0
    summary = last_json(capsys)
    assert summary["correct"] is True and summary["failed"] == 0
    for metric in config["per_layer"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
    spans = read_spans(spans_path)
    assert len(spans) == summary["metrics"]["trace.spans"]["value"]
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert {"name", "start_ns", "end_ns", "parent", "op_id"} <= set(span)
        assert span["end_ns"] >= span["start_ns"]
        assert span["parent"] is None or span["parent"] in by_id
    # An op's operator spans plus api.run's own time are api.run, by
    # construction; what must hold is that the operators cover it.
    own = self_times_ms(spans)
    runs = [span for span in spans if span["name"] == "api.run"]
    assert runs and all(span["op_id"] is not None for span in runs)
    covered = sum(own[span["id"]] for span in runs)
    total = sum((span["end_ns"] - span["start_ns"]) / 1e6 for span in runs)
    assert covered <= 0.10 * total


def test_generator_is_deterministic(tmp_path):
    def digest(path):
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    for workload in gen.WORKLOADS:
        first = gen.generate(workload, 7, "smoke", str(tmp_path / "a"))
        again = gen.generate(workload, 7, "smoke", str(tmp_path / "b"))
        other = gen.generate(workload, 8, "smoke", str(tmp_path / "c"))
        for key in ("csv", "ops"):
            assert digest(first[key]) == digest(again[key]) == first[key + "_sha256"]
            assert digest(first[key]) != digest(other[key])


def test_a_crashed_pass_counts_as_failed(tmp_path, leak_check):
    outcome = run.run_child({"mode": "timed", "workload": "no_such_workload",
                             "ops": str(tmp_path / "missing.json")}, str(tmp_path))
    assert outcome is None
    summary = run.summarize({"ops": [{}] * 10}, [None], [])
    assert summary["attempted"] == 10 and summary["failed"] == 10
    assert summary["metrics"] == {}
