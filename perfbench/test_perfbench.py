"""Self-tests of the benchmark: checkers, percentile rule, BENCHMARK.json.

    python3 -m pytest perfbench -q

Each checker is shown to pass on records the program really produced
and to fail on the same records with one doctored field.
"""

from __future__ import annotations

import copy
import json
import re

import pytest

import checks
import lib
from lib import nearest_rank, p99
from run import Layers, Totals

lib.use_program()

from repro.service import checkpoint  # noqa: E402
from repro.service.engine import AdmissionEngine, EngineConfig  # noqa: E402
from repro.service.sharding.partition import plan_shards  # noqa: E402

JOBS = 400


def _records(policy: str, config: EngineConfig = None, owner: int = None) -> tuple:
    jobs = lib.build_stream(policy, 7, 0)[:JOBS]
    if owner is not None:
        jobs = [job for job in jobs if checks.shard_owner(job.job_id, 2) == owner]
    engine = AdmissionEngine(config or EngineConfig(policy=policy))
    for job in jobs:
        engine.submit(job)
    engine.drain()
    snap = checkpoint.snapshot(engine)
    return snap["jobs"], snap["decisions"], engine.metrics().as_dict()


@pytest.fixture(scope="module")
def librarisk():
    return _records("librarisk")


@pytest.fixture(scope="module")
def libra():
    return _records("libra")


def _first(jobs, pred):
    return next(i for i, job in enumerate(jobs) if pred(job))


def _started(job):
    return job["state"] == "completed"


def test_share_check_rejects_share_above_one(libra):
    jobs = copy.deepcopy(libra[0])
    checks.share_at_most_one(jobs)
    i = _first(jobs, _started)
    jobs[i]["deadline"] = jobs[i]["estimated_runtime"] / 1.5
    with pytest.raises(checks.CheckFailure, match=f"job {jobs[i]['id']}: admitted with share 1.5"):
        checks.share_at_most_one(jobs)


def test_oversized_check_rejects_share_above_one_on_busy_node(librarisk):
    jobs = copy.deepcopy(librarisk[0])
    checks.oversized_only_on_idle_nodes(jobs)
    busy = _first(jobs, lambda j: _started(j) and j["finish_time"] - j["start_time"] > 10.0)
    i = _first(jobs, lambda j: _started(j) and j["id"] != jobs[busy]["id"]
               and j["estimated_runtime"] <= j["deadline"])
    jobs[i]["assigned_nodes"] = jobs[busy]["assigned_nodes"][:1] + jobs[i]["assigned_nodes"][1:]
    jobs[i]["start_time"] = jobs[busy]["start_time"] + 1.0
    jobs[i]["deadline"] = jobs[i]["estimated_runtime"] / 2.0
    with pytest.raises(checks.CheckFailure, match=f"job {jobs[i]['id']}: admitted with share 2"):
        checks.oversized_only_on_idle_nodes(jobs)


def test_same_decisions_rejects_flipped_outcome(librarisk):
    decisions = librarisk[1]
    checks.same_decisions("self", decisions, decisions)
    flipped = copy.deepcopy(decisions)
    i = _first(flipped, lambda d: d["outcome"] == "accepted")
    flipped[i]["outcome"] = "rejected"
    with pytest.raises(checks.CheckFailure, match=f"job {flipped[i]['job']}"):
        checks.same_decisions("doctored", flipped, decisions)


def test_one_decision_per_job_rejects_missing_decision(librarisk):
    decisions = librarisk[1]
    ids = [d["job"] for d in decisions]
    checks.one_decision_per_job(ids, decisions)
    with pytest.raises(checks.CheckFailure, match="decisions for"):
        checks.one_decision_per_job(ids, decisions[:-1])


def test_nodes_held_rejects_repeated_node(librarisk):
    jobs = copy.deepcopy(librarisk[0])
    checks.nodes_held(jobs, lib.NODES)
    i = _first(jobs, lambda j: _started(j) and j["numproc"] >= 2)
    jobs[i]["assigned_nodes"][1] = jobs[i]["assigned_nodes"][0]
    with pytest.raises(checks.CheckFailure, match=f"job {jobs[i]['id']}"):
        checks.nodes_held(jobs, lib.NODES)


def test_ran_at_least_runtime_rejects_short_run(librarisk):
    jobs = copy.deepcopy(librarisk[0])
    checks.ran_at_least_runtime(jobs)
    i = _first(jobs, _started)
    jobs[i]["finish_time"] = jobs[i]["start_time"] + jobs[i]["runtime"] / 2
    with pytest.raises(checks.CheckFailure, match=f"job {jobs[i]['id']}"):
        checks.ran_at_least_runtime(jobs)


def test_paper_metrics_rejects_wrong_count(librarisk):
    jobs, _, metrics = librarisk
    checks.paper_metrics(jobs, metrics)
    doctored = dict(metrics, deadlines_fulfilled=metrics["deadlines_fulfilled"] + 1)
    with pytest.raises(checks.CheckFailure, match="deadlines met"):
        checks.paper_metrics(jobs, doctored)


def test_owners_rejects_job_on_wrong_shard():
    configs = plan_shards(EngineConfig(policy="libra", num_nodes=lib.NODES), 2)
    shards = [_records("libra", configs[s], owner=s)[0] for s in range(2)]
    ids = sorted(job["id"] for jobs in shards for job in jobs)
    checks.owners(shards, ids)
    moved = copy.deepcopy(shards)
    job = moved[0].pop()
    moved[1].append(job)
    with pytest.raises(checks.CheckFailure, match=f"job {job['id']}: held by shard 1"):
        checks.owners(moved, ids)


# -- percentile rule -------------------------------------------------------------

def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([4, 1, 3, 2], 50) == 2
    assert nearest_rank([7.5], 1) == 7.5
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_p99_withheld_under_1000_samples():
    assert p99([1.0] * 999) is None
    values = [float(i) for i in range(1, 1001)]
    assert p99(values) == 990.0


# -- ports -----------------------------------------------------------------------

def test_fleet_ports_lie_below_the_ephemeral_range():
    # A connection's source port comes from the ephemeral range, so no
    # healthz poll can connect to itself on a port below it.
    import socket

    base = lib.free_base_port(1 + lib.SHARDS)
    assert lib.FLEET_PORT_FLOOR <= base
    assert base + lib.SHARDS < lib.ephemeral_low()
    for port in range(base, base + 1 + lib.SHARDS):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", port))


# -- BENCHMARK.json --------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((lib.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_form(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and 0 < len(w["why"]) <= 200
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_json_names_what_the_runs_print(bench):
    from run import WORKLOADS

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    totals = Totals(jobs=1, timed_s=1.0, cpu_s=1.0, setup_s=[1.0],
                    latencies=[1.0], unstolen_latencies=[1.0], peak_rss_mb=[1.0],
                    recover_s=[1.0], checkpoint_bytes=[1])
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: u for k, (_, u) in totals.end_to_end().items()} == e2e
    layers = Layers(generate_s=[1.0])
    per = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: u for k, (_, u) in layers.metrics().items()} == per
