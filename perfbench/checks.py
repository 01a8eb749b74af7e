"""Correctness checks, computed apart from the path being measured.

Every checker takes plain records — the job dicts of a checkpoint
snapshot (``checkpoint.snapshot(engine)["jobs"]``), decision dicts as
the engine or the service returned them — and recomputes the property
it checks from the jobs' own fields.  A checker raises
:class:`CheckFailure` naming the first offending job; it never compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Mapping, Sequence

#: Completions this close past a deadline count as on time (the
#: program's own ``DELAY_TOLERANCE``: Libra finishes jobs exactly at
#: their deadline, up to float noise).
TIME_TOL = 1e-6
#: Jobs the program still holds nodes for or has finished on them.
STARTED = ("running", "completed", "failed")
ACCEPTED = ("queued", "running", "completed", "failed")


class CheckFailure(AssertionError):
    """An output broke a property; the message names the job."""


def _fail(job_id: Any, what: str) -> None:
    raise CheckFailure(f"job {job_id}: {what}")


def one_decision_per_job(stream_ids: Sequence[int], decisions: Sequence[Mapping[str, Any]]) -> None:
    """Exactly one decision per submitted job, in submit order."""
    if len(decisions) != len(stream_ids):
        raise CheckFailure(
            f"{len(decisions)} decisions for {len(stream_ids)} submitted jobs"
        )
    for job_id, decision in zip(stream_ids, decisions):
        if decision["job"] != job_id:
            _fail(job_id, f"decision out of order (got job {decision['job']})")
        if decision["outcome"] not in ("accepted", "queued", "rejected"):
            _fail(job_id, f"unknown outcome {decision['outcome']!r}")


def accepted_plus_rejected(jobs: Sequence[Mapping[str, Any]]) -> None:
    """Every submitted job ended accepted or rejected, never both or neither."""
    for job in jobs:
        if job["state"] not in ACCEPTED and job["state"] != "rejected":
            _fail(job["id"], f"left in state {job['state']!r}")


def nodes_held(jobs: Iterable[Mapping[str, Any]], num_nodes: int) -> None:
    """Each started job holds ``numproc`` distinct nodes in ``[0, num_nodes)``."""
    for job in jobs:
        if job["state"] not in STARTED:
            continue
        nodes = job.get("assigned_nodes", [])
        if len(nodes) != job["numproc"] or len(set(nodes)) != len(nodes):
            _fail(job["id"], f"holds nodes {nodes} for numproc={job['numproc']}")
        for node in nodes:
            if not 0 <= node < num_nodes:
                _fail(job["id"], f"holds node {node} outside [0, {num_nodes})")


def share_at_most_one(jobs: Iterable[Mapping[str, Any]]) -> None:
    """Eq. 1: an admitted job's share ``estimated_runtime / deadline`` is <= 1."""
    for job in jobs:
        if job["state"] in ACCEPTED and job["estimated_runtime"] > job["deadline"]:
            share = job["estimated_runtime"] / job["deadline"]
            _fail(job["id"], f"admitted with share {share:.6g} > 1")


def oversized_only_on_idle_nodes(jobs: Sequence[Mapping[str, Any]]) -> None:
    """LibraRisk: a job admitted with Eq. 1 share > 1 landed on idle nodes only.

    LibraRisk admits on σ_j = 0 (Eq. 5–6), and a lone job's σ is 0
    whatever its share, so a job whose estimate exceeds its deadline can
    be admitted — but only where no other job was resident when it
    started.  On an occupied node its deadline delay would differ from
    the residents' and σ_j > 0.
    """
    by_node: dict[int, list[tuple[float, float, int]]] = {}
    for job in jobs:
        if job["state"] in STARTED:
            for node in job.get("assigned_nodes", []):
                by_node.setdefault(node, []).append(
                    (job["start_time"], job.get("finish_time", float("inf")), job["id"])
                )
    for job in jobs:
        if job["state"] not in ACCEPTED or job["estimated_runtime"] <= job["deadline"]:
            continue
        start = job["start_time"]
        for node in job.get("assigned_nodes", []):
            for other_start, other_end, other_id in by_node[node]:
                if other_id != job["id"] and other_start <= start < other_end:
                    share = job["estimated_runtime"] / job["deadline"]
                    _fail(job["id"], f"admitted with share {share:.6g} > 1 onto node "
                                     f"{node} while job {other_id} ran there")


def ran_at_least_runtime(jobs: Iterable[Mapping[str, Any]]) -> None:
    """No finished job finished sooner than ``runtime`` after it started."""
    for job in jobs:
        if job["state"] != "completed":
            continue
        took = job["finish_time"] - job["start_time"]
        if took < job["runtime"] * (1.0 - 1e-12) - TIME_TOL:
            _fail(job["id"], f"ran {took:.9g}s < runtime {job['runtime']:.9g}s")


def all_finished(jobs: Iterable[Mapping[str, Any]]) -> None:
    """After a drain every admitted job has completed."""
    for job in jobs:
        if job["state"] in ACCEPTED and job["state"] != "completed":
            _fail(job["id"], f"still {job['state']} after drain")


def deadline_met(job: Mapping[str, Any]) -> bool:
    return (
        job["state"] == "completed"
        and job["finish_time"] - job["submit_time"] <= job["deadline"] + TIME_TOL
    )


def paper_metrics(jobs: Sequence[Mapping[str, Any]], metrics: Mapping[str, Any]) -> None:
    """Acceptance and deadlines met, recounted from the records, match ``metrics``."""
    accepted = sum(1 for job in jobs if job["state"] in ACCEPTED)
    met = sum(1 for job in jobs if deadline_met(job))
    if metrics["total_submitted"] != len(jobs):
        raise CheckFailure(
            f"metrics count {metrics['total_submitted']} jobs, records {len(jobs)}"
        )
    if metrics["accepted"] != accepted:
        raise CheckFailure(
            f"metrics report {metrics['accepted']} accepted, records show {accepted}"
        )
    if metrics["deadlines_fulfilled"] != met:
        raise CheckFailure(
            f"metrics report {metrics['deadlines_fulfilled']} deadlines met, "
            f"records show {met}"
        )


def same_decisions(
    label: str,
    got: Sequence[Mapping[str, Any]],
    want: Sequence[Mapping[str, Any]],
    keys: Sequence[str] = ("job", "outcome", "reason"),
) -> None:
    """Two decision streams agree field by field (``want`` may be a prefix)."""
    if len(got) < len(want):
        raise CheckFailure(f"{label}: {len(got)} decisions, expected {len(want)}")
    for mine, theirs in zip(got, want):
        for key in keys:
            if mine.get(key, "") != theirs.get(key, ""):
                _fail(theirs.get("job"),
                      f"{label}: {key} {mine.get(key, '')!r} != {theirs.get(key, '')!r}")


def shard_owner(job_id: int, shards: int) -> int:
    """Owner shard computed here, apart from the router: crc32 of ``job:<id>``."""
    return zlib.crc32(b"job:%d" % job_id) % shards


def owners(jobs_by_shard: Sequence[Sequence[Mapping[str, Any]]], stream_ids: Sequence[int]) -> None:
    """Every job lives in exactly the shard its id hashes to."""
    shards = len(jobs_by_shard)
    seen: dict[int, int] = {}
    for shard, jobs in enumerate(jobs_by_shard):
        for job in jobs:
            if job["id"] in seen:
                _fail(job["id"], f"held by shards {seen[job['id']]} and {shard}")
            seen[job["id"]] = shard
    for job_id in stream_ids:
        if job_id not in seen:
            _fail(job_id, "held by no shard")
        want = shard_owner(job_id, shards)
        if seen[job_id] != want:
            _fail(job_id, f"held by shard {seen[job_id]}, owner is {want}")
