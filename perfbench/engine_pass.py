"""One ``engine-librarisk`` pass in a fresh interpreter.

Started by ``run.py`` once per pass, so that every pass pays — and the
benchmark times — the set-up a user pays: interpreter start, importing
the program, generating the stream and building the engine.  Protocol on
stdout: one ``ready`` line once the first job can be submitted, then
one JSON line with the pass's samples, counters and final state.

``--reference`` instead decides a prefix of each pass's stream on the
reference admission path (run it with ``REPRO_DISABLE_ADMISSION_CACHE=1``)
and prints those decisions as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

T_START = time.perf_counter()

from lib import Tracer, build_stream, pin, steal_s, stolen, use_program  # noqa: E402

POLICY = "librarisk"


#: Restores timed per pass (recover_s is their median).
RESTORES = 9


def run_pass(seed: int, k: int, trace: bool, setup_only: bool) -> dict:
    use_program()
    from repro.obs.tracing import mint_trace_id
    from repro.obs.windows import WindowAggregator
    from repro.service import checkpoint
    from repro.service.engine import AdmissionEngine, EngineConfig

    t_gen = time.perf_counter()
    jobs = build_stream(POLICY, seed, k)
    generate_s = time.perf_counter() - t_gen
    engine = AdmissionEngine(EngineConfig(policy=POLICY))
    print("ready", flush=True)
    if setup_only:
        return {}
    # Set-up ran unpinned, like the fleet's; the timed
    # phase runs on one CPU.
    pin(os.getpid(), 0)

    tracer = Tracer()
    latencies: list[float] = []
    clock = time.perf_counter
    cpu0 = time.process_time()
    steal0 = steal_s()
    t0 = clock()
    if trace:
        root = tracer.add("pass.timed", t0, t0)
        for job in jobs:
            a = clock()
            engine.advance(job.submit_time)
            b = clock()
            engine.submit(job)
            c = clock()
            tracer.add("sim.advance", a, b, root, job.job_id)
            tracer.add("scheduling.submit", b, c, root, job.job_id)
            latencies.append(c - a)
    else:
        for job in jobs:
            a = clock()
            engine.submit(job)
            latencies.append(clock() - a)
    timed_s = clock() - t0
    stolen_s = stolen(steal0, steal_s(), [0])
    cpu_s = time.process_time() - cpu0
    if trace:
        tracer.spans[root] = ("pass.timed", t0, t0 + timed_s, -1, k)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = engine.stats()

    engine.drain()
    metrics = engine.metrics().as_dict()
    a = clock()
    snap = checkpoint.snapshot(engine)
    text = checkpoint.dumps(snap)
    tracer.add("checkpoint.snapshot", a, clock(), -1, k)
    for _ in range(RESTORES):
        doc = json.loads(text)
        a = clock()
        checkpoint.restore(doc)
        tracer.add("checkpoint.restore", a, clock(), -1, k)

    telemetry_s = 0.0
    if trace:
        window = WindowAggregator()
        a = clock()
        for seq, d in enumerate(engine.decisions, 1):
            mint_trace_id(engine.trace_seed, seq, d.job_id)
            window.note_decision(d.t, d.policy, d.outcome, d.reason)
        telemetry_s = clock() - a
        tracer.add("obs.telemetry", a, a + telemetry_s, -1, k)

    return {
        "generate_s": generate_s,
        "timed_s": timed_s,
        "stolen_s": stolen_s,
        "cpu_s": cpu_s,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "events_fired": stats["events_fired"],
        "cache": stats.get("cache", {}),
        "metrics": metrics,
        "checkpoint_bytes": len(text.encode("utf-8")),
        "snapshot_s": tracer.total("checkpoint.snapshot"),
        "restore_s": tracer.durations("checkpoint.restore"),
        "telemetry_s": telemetry_s,
        "stream_ids": [job.job_id for job in jobs],
        "jobs": snap["jobs"],
        "decisions": snap["decisions"],
        "spans": tracer.spans,
        "t_start": T_START,
    }


def run_reference(seed: int, passes: int, prefix: int) -> dict:
    use_program()
    from repro.service.engine import AdmissionEngine, EngineConfig

    out = []
    for k in range(passes):
        engine = AdmissionEngine(EngineConfig(policy=POLICY))
        for job in build_stream(POLICY, seed, k)[:prefix]:
            engine.submit(job)
        out.append([d.as_dict() for d in engine.decisions])
    return {"decisions": out}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="exit once the first job could be submitted")
    p.add_argument("--reference", action="store_true")
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--prefix", type=int, default=0)
    args = p.parse_args()
    if args.reference:
        result = run_reference(args.seed, args.passes, args.prefix)
    else:
        result = run_pass(args.seed, args.pass_index, bool(args.trace), args.setup_only)
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
