"""One deployment under test: four replica processes and a gateway host.

The orchestrator side of :mod:`hosts`.  It lays the cluster out with the
program's own ``build_specs``, spawns every process with the ``spawn``
start method, talks to the gateway host over a pipe, kills and respawns
a replica on request, and reads each process's CPU time and peak RSS
from ``/proc``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import hosts
from repro.net.cluster import ClusterConfig, build_specs, sized_max_slots

#: n=4 TetraBFT with Δ = 0.05 s; each workload picks the one-way link
#: delay (:data:`LAN_LATENCY` or :data:`WAN_LATENCY`).
N = 4
TIME_SCALE = 0.05
LAN_LATENCY = 0.002
WAN_LATENCY = 0.020

#: Seconds a process gets to exit on its own before it is terminated.
JOIN_TIMEOUT = 30.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float | None:
    """utime + stime of ``pid`` from ``/proc``; ``None`` once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (0 once it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class ControlError(RuntimeError):
    """The gateway host reported a failure or died."""


class Deployment:
    """Spawns, steers and reaps one cluster plus its gateway host."""

    def __init__(
        self,
        rundir: Path,
        *,
        run_seconds: float,
        link_latency: float,
        durable: bool,
        trace: bool,
    ) -> None:
        self.rundir = rundir
        self.trace = trace
        rundir.mkdir(parents=True, exist_ok=True)
        config = ClusterConfig(
            n=N,
            engine="tetrabft",
            time_scale=TIME_SCALE,
            link_latency=link_latency,
            # The chain budget must outlast the whole run, idle slot burn
            # included: sized_max_slots derives it from this deadline.
            deadline=run_seconds,
            data_dir=str(rundir / "data") if durable else None,
        )
        # Injected transactions are bounded by what 5k txn/s could send.
        config = replace(config, max_slots=sized_max_slots(config, int(5000 * run_seconds)))
        self.specs = build_specs(config)
        self.ctx = multiprocessing.get_context("spawn")
        self.replicas: dict[int, multiprocessing.Process] = {}
        self.incarnation: dict[int, int] = {}
        self.gateway: multiprocessing.Process | None = None
        self.conn = None
        self._waiters: dict[str, asyncio.Future] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self.failure: str | None = None
        #: CPU seconds of processes that have already exited (killed).
        self.retired_cpu: dict[str, float] = {}
        #: Names of the processes killed on purpose.
        self.killed: set[str] = set()

    # -- lifecycle ------------------------------------------------------------

    def _trace_path(self, role: str) -> str | None:
        return str(self.rundir / f"spans-{role}.bin") if self.trace else None

    def _spawn_replica(self, node: int) -> None:
        self.incarnation[node] = self.incarnation.get(node, -1) + 1
        role = f"replica{node}.{self.incarnation[node]}"
        process = self.ctx.Process(
            target=hosts.replica_entry,
            args=(self.specs[node], self._trace_path(role)),
            name=role,
        )
        process.start()
        self.replicas[node] = process

    async def start(self) -> int:
        """Spawn everything; returns once the gateway listens."""
        self._loop = asyncio.get_running_loop()
        for node in range(N):
            self._spawn_replica(node)
        parent, child = self.ctx.Pipe()
        self.conn = parent
        self.gateway = self.ctx.Process(
            target=hosts.gateway_entry,
            args=(self.specs, TIME_SCALE, child, self._trace_path("gateway")),
            name="gateway",
        )
        self.gateway.start()
        child.close()
        self._loop.add_reader(parent.fileno(), self._on_control)
        return await self.request("ready", send=False, timeout=60.0)

    def _on_control(self) -> None:
        try:
            kind, payload = self.conn.recv()
        except (EOFError, OSError):
            self._loop.remove_reader(self.conn.fileno())
            self._fail_all("gateway host closed its control pipe")
            return
        if kind == "error":
            self._fail_all(f"gateway host error: {payload}")
            return
        waiter = self._waiters.pop(kind, None)
        if waiter is not None and not waiter.done():
            waiter.set_result(payload)

    def _fail_all(self, reason: str) -> None:
        self.failure = self.failure or reason
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(ControlError(reason))
        self._waiters.clear()

    async def request(self, reply_kind: str, *command, send: bool = True, timeout: float = 60.0):
        """Send ``command`` (if any) and await the reply of ``reply_kind``."""
        if self.failure is not None:
            raise ControlError(self.failure)
        waiter = self._loop.create_future()
        self._waiters[reply_kind] = waiter
        if send:
            self.conn.send(command)
        return await asyncio.wait_for(waiter, timeout)

    # -- faults ---------------------------------------------------------------

    def kill(self, node: int) -> None:
        """SIGKILL one replica (no goodbye, no flush)."""
        process = self.replicas[node]
        self.retired_cpu[process.name] = cpu_seconds(process.pid) or 0.0
        os.kill(process.pid, signal.SIGKILL)
        process.join(5.0)
        self.killed.add(process.name)

    def respawn(self, node: int) -> None:
        self._spawn_replica(node)

    # -- measurement ----------------------------------------------------------

    def processes(self) -> dict[str, multiprocessing.Process]:
        out = {p.name: p for p in self.replicas.values()}
        if self.gateway is not None:
            out["gateway"] = self.gateway
        return out

    def cpu(self) -> dict[str, float]:
        """CPU seconds per process key, live processes and killed ones."""
        out = dict(self.retired_cpu)
        for key, process in self.processes().items():
            value = cpu_seconds(process.pid)
            if value is not None:
                out[key] = value
        return out

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(p.pid) for p in self.processes().values())

    def unexpected_deaths(self) -> list[str]:
        """Processes that died without being killed on purpose."""
        return [
            key
            for key, process in self.processes().items()
            if not process.is_alive() and process.name not in self.killed
        ]

    # -- teardown -------------------------------------------------------------

    async def join(self) -> list[str]:
        """Wait for every process to exit on its own; terminate stragglers.

        Returns the processes that had to be terminated or exited with an
        error, which a clean run never has.
        """
        if self.conn is not None and self._loop is not None:
            try:
                self._loop.remove_reader(self.conn.fileno())
            except (ValueError, OSError):
                pass
        bad = []
        deadline = time.monotonic() + JOIN_TIMEOUT
        for key, process in self.processes().items():
            await asyncio.to_thread(process.join, max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                bad.append(f"{key} did not exit")
            elif process.exitcode != 0:
                bad.append(f"{key} exited with {process.exitcode}")
        self.abort()
        return bad

    def abort(self) -> None:
        """Terminate whatever still runs and reap it."""
        for process in self.processes().values():
            if process.is_alive():
                process.terminate()
        for process in self.processes().values():
            process.join(5.0)
            if process.is_alive():
                process.kill()
                process.join(5.0)
        if self.conn is not None:
            self.conn.close()
            self.conn = None
