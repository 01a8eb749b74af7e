"""Shared pieces of the admission-controller benchmark.

Streams, the percentile rule, span recording and the process plumbing
(ports, spawning ``repro serve``, readiness, CPU and memory readings from
``/proc``) live here so that the workloads in :mod:`run` measure
the same way.  Nothing in this module imports the program at import
time: the program is imported only after :func:`use_program` has checked
that its sources are present.
"""

from __future__ import annotations

import http.client
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for WALs, checkpoints, server logs and span files.
WORK = ROOT / ".perfbench"

#: Every pass sends one fresh 3,000-job stream: the paper's SDSC SP2
#: subset size.  Longer streams reach simulated times where the
#: time-shared node kernel stops making progress (see CHANGES.md), so
#: a run repeats whole passes instead of lengthening one stream.
JOBS_PER_PASS = 3000
NODES = 128
RATING = 168.0
BATCH = 64
SHARDS = 2
#: Fewest samples under which a p99 is withheld (nearest rank then has
#: at least ten samples beyond it).
P99_MIN_SAMPLES = 1000
#: Lowest port a fleet may bind (clear of the usual service ports).
FLEET_PORT_FLOOR = 20000
READY_POLL_S = 0.002
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class BenchError(RuntimeError):
    """A run cannot produce a trustworthy result (bad output, dead server)."""


def use_program() -> None:
    """Put the checkout's ``src`` on ``sys.path`` or fail the run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env(**extra: str) -> dict[str, str]:
    """Environment for a program process: the checkout's ``src`` first."""
    env = dict(os.environ)
    env.pop("REPRO_DISABLE_ADMISSION_CACHE", None)
    env.pop("REPRO_SANITIZE", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


# -- inputs --------------------------------------------------------------------

def pass_seed(seed: int, k: int) -> int:
    """Scenario seed of pass ``k`` of a run seeded ``seed``."""
    return seed * 1000 + k


def build_stream(policy: str, seed: int, k: int) -> list:
    """The fresh job stream of pass ``k``: the synthetic SDSC-SP2-like trace."""
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.runner import build_scenario_jobs

    return build_scenario_jobs(ScenarioConfig(
        policy=policy, num_nodes=NODES, rating=RATING,
        num_jobs=JOBS_PER_PASS, seed=pass_seed(seed, k),
    ))


# -- statistics ----------------------------------------------------------------

def nearest_rank(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0 < q <= 100) by the nearest-rank rule."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def p99(values: Sequence[float]) -> Optional[float]:
    """Nearest-rank p99, or ``None`` under :data:`P99_MIN_SAMPLES` samples."""
    if len(values) < P99_MIN_SAMPLES:
        return None
    return nearest_rank(values, 99.0)


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 50.0)


# -- spans ---------------------------------------------------------------------

class Tracer:
    """In-memory spans: ``(name, start, end, parent, ident)`` tuples.

    ``parent`` is the index of the enclosing span (``-1`` for a root)
    and ``ident`` the job, frame or request id the span belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, Any]] = []

    def add(self, name: str, start: float, end: float,
            parent: int = -1, ident: Any = None) -> int:
        self.spans.append((name, start, end, parent, ident))
        return len(self.spans) - 1

    def extend(self, spans: Sequence[Sequence[Any]], parent: int) -> None:
        """Adopt spans recorded elsewhere (a child process) under ``parent``."""
        base = len(self.spans)
        for name, start, end, up, ident in spans:
            self.spans.append(
                (name, start, end, parent if up < 0 else base + up, ident)
            )

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(i, ())):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def write(self, path: Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for i, (name, start, end, parent, ident) in enumerate(self.spans):
                fp.write(json.dumps({
                    "i": i, "name": name, "start": start, "end": end,
                    "parent": parent, "id": ident,
                }, separators=(",", ":")) + "\n")


# -- processes -----------------------------------------------------------------

def ephemeral_low() -> int:
    """The lowest port the kernel hands out as a connection's source port."""
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range") as fp:
            return int(fp.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 32768


def free_base_port(width: int) -> int:
    """A port ``p`` below the ephemeral range with ``p .. p+width-1`` all free.

    ``repro serve --shards N --port p`` binds the router on ``p`` and
    shard ``i`` on ``p + 1 + i``, so the whole range must be free.  Its
    supervisor polls each shard's ``/healthz`` before the shard has
    bound; a poll to a port inside the ephemeral range can be given that
    same port as its source and connect to itself, read its own request
    back and kill ``repro serve`` with ``BadStatusLine`` (CHANGES.md).
    ``free_ports`` returns ports inside that range, so the fleet's ports
    are drawn below it, where no connection takes its source port.
    """
    low = ephemeral_low()
    if low - width <= FLEET_PORT_FLOOR:
        raise BenchError(f"no room for {width} ports below the ephemeral range at {low}")
    rng = random.Random()
    for _ in range(200):
        base = rng.randrange(FLEET_PORT_FLOOR, low - width)
        probes = []
        try:
            for port in range(base, base + width):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probes.append(sock)
                sock.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in probes:
                sock.close()
    raise BenchError(f"no run of {width} free ports found")


class Program:
    """One ``repro serve`` process group, stopped on every exit path."""

    def __init__(self, args: Sequence[str], port: int, workdir: Path) -> None:
        self.port = port
        self.url = f"http://127.0.0.1:{port}"
        self.log_path = workdir / f"serve-{port}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port), *args],
            cwd=str(ROOT), env=program_env(), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT, start_new_session=True,
        )

    def wait_ready(self) -> None:
        """Poll ``/healthz`` every :data:`READY_POLL_S` until it answers 200."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"repro serve exited with code {self.proc.returncode}: "
                    f"{self.log_tail()}"
                )
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise BenchError(f"repro serve not ready after {READY_TIMEOUT_S}s")
            time.sleep(READY_POLL_S)

    def pids(self) -> list[int]:
        """The serve process followed by its children (shard workers)."""
        return [self.proc.pid, *child_pids(self.proc.pid)]

    def get(self, path: str, port: Optional[int] = None) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", port or self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read().decode("utf-8")
            if resp.status != 200:
                raise BenchError(f"GET {path} answered {resp.status}")
            return body
        finally:
            conn.close()

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """Kill the whole process group and return once every member is gone.

        Nothing is left to flush when a pass stops its program: every
        WAL append was fsynced before its answer and the final state was
        taken by RPC, so the group is killed outright (the fleet pass then
        recovers each shard from a crashed worker's log).
        """
        members = self.pids()
        _signal_group(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while any(_running(pid) for pid in members[1:]):
            if time.perf_counter() > deadline:
                raise BenchError(f"processes {members[1:]} outlived SIGKILL")
            time.sleep(0.002)
        self._log.close()


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _running(pid: int) -> bool:
    """True while ``pid`` exists and has not exited (zombies have exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            return fp.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


#: The CPUs this run may use, in order.
CPUS = sorted(os.sched_getaffinity(0))
TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def cpu_of(index: int) -> int:
    """The id of the ``index``-th usable CPU (wrapping round)."""
    return CPUS[index % len(CPUS)]


def pin(pid: int, index: int) -> None:
    """Pin every thread of process ``pid`` to the ``index``-th usable CPU.

    Threads the process starts later inherit the mask from their
    creator.  On a shared virtual machine a message between processes on
    two CPUs makes the hypervisor wake a halted virtual CPU, which under
    host load costs milliseconds at random; processes that only take
    turns are therefore pinned to one CPU for the timed phase.
    """
    cpu = {cpu_of(index)}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpu)
        except ProcessLookupError:
            continue


def unpin_self() -> None:
    os.sched_setaffinity(0, CPUS)


def child_pids(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fp:
                out.extend(int(p) for p in fp.read().split())
        except OSError:
            continue
    return sorted(out)


_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole machine, from ``/proc/stat``.

    Steal is time this virtual machine's CPUs were runnable but the
    hypervisor ran something else: the main source of run-to-run noise
    on a shared host, reported beside each run so that it can be seen.
    """
    with open("/proc/stat") as fp:
        fields = [int(x) for x in fp.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_s() -> dict[int, float]:
    """Seconds of steal so far per CPU id, from the ``cpuN`` lines of ``/proc/stat``.

    A CPU accrues steal only while it has work to run, so the steal of
    the CPUs a timed phase is pinned to is time the hypervisor took from
    that phase.
    """
    out: dict[int, float] = {}
    with open("/proc/stat") as fp:
        for line in fp:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit() and len(fields) > 7:
                out[int(name[3:])] = int(fields[7]) / TICKS_PER_S
    return out


def stolen(before: dict[int, float], after: dict[int, float], indices: Sequence[int]) -> float:
    """Mean steal seconds between two :func:`steal_s` readings over the
    CPUs that :func:`pin` calls ``indices``."""
    cpus = {cpu_of(i) for i in indices}
    return sum(after[c] - before[c] for c in cpus) / len(cpus)


def prom_value(text: str, name: str, labels: str = "") -> float:
    """One sample from Prometheus text (``0`` when absent)."""
    key = f"{name}{{{labels}}}" if labels else name
    for line in text.splitlines():
        if line.startswith(key + " "):
            return float(line.split()[-1])
    return 0.0


def make_workdir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=str(WORK)))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
