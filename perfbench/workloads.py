"""The three workloads and one measured pass over a deployment.

All three run n=4 TetraBFT with Δ = 0.05 s.  ``saturate`` and
``crash-restart`` use the lan geometry (2 ms one-way link delay);
``paced-mix`` uses 20 ms links (0.4 Δ).

``paced-mix``
    Open loop: Poisson ``incr`` writes over a uniform keyspace at 60/s,
    plus Poisson reads at 60/s of keys written early in warm-up.  The rate
    stays under what the cluster commits with one replica down (about
    80 txn/s), so ``crash-restart`` can reuse the stream.  On 2 ms links
    even the fastest commits are mostly CPU time (5th percentile about
    30 ms against 10 ms of injected delay), so latency follows the CPU
    speed a shared host grants from minute to minute; on 20 ms links the
    five message delays dominate and idle slots burn less CPU.
``saturate``
    Closed loop, writes only: 128 submissions outstanding, each commit
    event releases the next send.  Half the gateway's per-subscriber event
    queue (256), so the commit subscription is never evicted.  Not listed
    in ``BENCHMARK.json``: its numbers follow the CPU time the host grants
    too closely for a gate (see README.md).
``crash-restart``
    ``paced-mix``'s write stream without reads, on ``DiskStorage``.  Once
    K commits of the window are seen replica 3 is SIGKILLed; after K more
    it is respawned over its data dir and the gateway host readmits it.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from cluster import LAN_LATENCY, WAN_LATENCY, Deployment
from loadgen import KEYSPACE, Commit, Gateway, Op, TrafficLog, key_of, poisson_times

_now = time.monotonic

#: Replica the crash-restart workload kills.
VICTIM = 3

#: Seconds to wait for every accepted submission to commit after the
#: window, for a restarted replica to catch up, and for every replica
#: to converge on the same applied log.
DRAIN_TIMEOUT = 30.0
CONVERGE_TIMEOUT = 20.0

#: Reads target keys whose write was due at least this long before the
#: window opens, so the snapshot-fed read path has them.
READ_KEY_AGE = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup: float
    #: Injected one-way link delay, seconds.
    link_latency: float = LAN_LATENCY
    write_rate: float = 0.0
    read_rate: float = 0.0
    #: Closed loop: submissions kept outstanding (0 = open loop).
    outstanding: int = 0
    durable: bool = False
    crash: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paced-mix",
            "open-loop writes and reads well under capacity on 20 ms links: latency "
            "is set by protocol delays, batching windows and the snapshot-fed read path",
            warmup=4.0,
            link_latency=WAN_LATENCY,
            write_rate=60.0,
            read_rate=60.0,
        ),
        Workload(
            "saturate",
            "closed-loop writes keep both cores busy: codec, transport, engine, "
            "execution and the submit path bound throughput",
            warmup=2.0,
            outstanding=128,
        ),
        Workload(
            "crash-restart",
            "paced writes on disk storage while replica 3 is killed and restarted: "
            "the only workload where storage, recovery and view changes work",
            warmup=4.0,
            write_rate=60.0,
            durable=True,
            crash=True,
        ),
    )
}


@dataclass
class Pass:
    """Raw observations of one measured pass."""

    log: TrafficLog
    t_start: float
    t_end: float
    t_first: float
    t_last: float
    cpu_start: dict[str, float]
    cpu_end: dict[str, float]
    loadgen_cpu: float
    rss_mb: float
    scrape_start: dict
    scrape_end: dict
    finish: dict
    t_kill: float | None = None
    t_respawn: float | None = None
    catchup: dict | None = None
    failures: list[str] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)


async def set_up(rundir: Path, workload: Workload, run_seconds: float, trace: bool):
    """Spawn a deployment and return it once a first submission is accepted.

    Returns ``(deployment, gateway, log, seconds from spawn to the first
    202)``.
    """
    started = _now()
    deployment = Deployment(
        rundir,
        run_seconds=run_seconds,
        link_latency=workload.link_latency,
        durable=workload.durable,
        trace=trace,
    )
    try:
        port = await deployment.start()
        log = TrafficLog()
        gateway = Gateway("127.0.0.1", port, log)
        await gateway.connect()
        accepted = asyncio.get_running_loop().create_future()
        probe = Op("probe", "", due=_now(), txid="probe")

        def on_response(op: Op) -> None:
            if op is probe and not accepted.done():
                accepted.set_result(op.status)

        gateway.on_response = on_response
        gateway.submit(probe, ["noop"])
        status = await asyncio.wait_for(accepted, 60.0)
        gateway.on_response = None
        if status != 202:
            raise RuntimeError(f"set-up probe answered {status}")
        return deployment, gateway, log, probe.done - started
    except BaseException:
        deployment.abort()
        raise


async def measure(
    deployment: Deployment,
    gateway: Gateway,
    log: TrafficLog,
    workload: Workload,
    seed: int,
    seconds: float,
) -> Pass:
    """Drive one workload through an assembled deployment, then collect."""
    return await _Driver(deployment, gateway, log, workload, seed, seconds).run()


class _Driver:
    def __init__(self, deployment, gateway, log, workload, seed, seconds) -> None:
        self.deployment = deployment
        self.gateway = gateway
        self.log = log
        self.workload = workload
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.t_base = _now() + 0.05
        self.t_start = self.t_base + workload.warmup
        self.t_end = self.t_start + seconds
        self.failures: list[str] = []
        self.sequence = 0
        self.cpu_start: dict[str, float] = {}
        self.loadgen_start = 0.0
        self.scrape_start: asyncio.Future | None = None
        self.t_kill: float | None = None
        self.t_respawn: float | None = None
        self.catchup: asyncio.Future | None = None
        self.catchup_result: dict | None = None
        self.window_commits = 0
        self.sending = True

    def write(self, due: float, key: str) -> None:
        self.sequence += 1
        op = Op("write", key, due=due, txid=f"w{self.sequence}")
        self.gateway.submit(op, ["incr", key, 1])

    def open_window(self) -> None:
        self.cpu_start = self.deployment.cpu()
        self.loadgen_start = time.process_time()
        self.scrape_start = asyncio.ensure_future(self.deployment.request("scraped", "scrape"))

    async def run(self) -> Pass:
        asyncio.get_running_loop().call_at(self.t_start, self.open_window)
        if self.workload.crash:
            self.gateway.on_commit = self.on_fault_commit
        if self.workload.outstanding:
            await self.closed_loop()
        else:
            await self.open_loop()
        await asyncio.sleep(max(0.0, self.t_end - _now()))
        self.sending = False
        cpu_end = self.deployment.cpu()
        loadgen_cpu = time.process_time() - self.loadgen_start
        rss_mb = self.deployment.peak_rss_mb()
        scrape_start = await self.scrape_start
        scrape_end = await self.deployment.request("scraped", "scrape")
        finish = await self.drain_and_collect()
        commits = [c.at for c in self.log.commits]
        return Pass(
            log=self.log,
            t_start=self.t_start,
            t_end=self.t_end,
            t_first=self.t_base,
            t_last=max(commits, default=self.t_end),
            cpu_start=self.cpu_start,
            cpu_end=cpu_end,
            loadgen_cpu=loadgen_cpu,
            rss_mb=rss_mb,
            scrape_start=scrape_start,
            scrape_end=scrape_end,
            finish=finish,
            t_kill=self.t_kill,
            t_respawn=self.t_respawn,
            catchup=self.catchup_result,
            failures=self.failures,
            spans=sorted(self.deployment.rundir.glob("spans-*.bin")),
        )

    # -- load -----------------------------------------------------------------

    async def closed_loop(self) -> None:
        """Keep ``outstanding`` submissions in flight until the window ends."""

        def release() -> None:
            if self.sending:
                self.write(_now(), key_of(self.rng.randrange(KEYSPACE)))

        def on_response(op: Op) -> None:
            if op.kind == "write" and op.status != 202:
                release()  # a refused submission never commits

        self.gateway.on_commit = lambda commit: commit.txid != "probe" and release()
        self.gateway.on_response = on_response
        await asyncio.sleep(max(0.0, self.t_base - _now()))
        for _ in range(self.workload.outstanding):
            release()

    async def open_loop(self) -> None:
        """Send every write and read at its scheduled time."""
        rng, workload = self.rng, self.workload
        span = workload.warmup + self.seconds
        schedule = [
            (self.t_base + at, "w", key_of(rng.randrange(KEYSPACE)))
            for at in poisson_times(rng, workload.write_rate, 0.0, span)
        ]
        if workload.read_rate:
            eligible = sorted(
                {key for due, _, key in schedule if due < self.t_start - READ_KEY_AGE}
            )
            reads = poisson_times(rng, workload.read_rate, workload.warmup, span)
            schedule += [(self.t_base + at, "r", rng.choice(eligible)) for at in reads]
            schedule.sort()
        for due, kind, key in schedule:
            wait = due - _now()
            if wait > 0:
                await asyncio.sleep(wait)
            if self.gateway.error is not None:
                return
            if kind == "w":
                self.write(due, key)
            else:
                self.gateway.read(Op("read", key, due=due))

    def on_fault_commit(self, commit: Commit) -> None:
        """Kill the victim after K window commits, respawn it after K more."""
        if commit.at < self.t_start:
            return
        self.window_commits += 1
        k = max(1, int(self.workload.write_rate * self.seconds / 4))
        if self.t_kill is None and self.window_commits >= k:
            self.deployment.kill(VICTIM)
            self.t_kill = _now()
        elif self.t_respawn is None and self.window_commits >= 2 * k:
            self.t_respawn = _now()
            self.deployment.respawn(VICTIM)
            self.catchup = asyncio.ensure_future(
                self.deployment.request("caught_up", "readmit", VICTIM, timeout=120.0)
            )

    # -- end of run -----------------------------------------------------------

    async def drain_and_collect(self) -> dict:
        """Wait out accepted submissions and catch-up, then collect."""
        log, deployment = self.log, self.deployment
        deadline = _now() + DRAIN_TIMEOUT
        while _now() < deadline and self.gateway.error is None:
            if all(op.done and (op.committed or op.status != 202 or not op.txid) for op in log.ops):
                break
            await asyncio.sleep(0.05)
        if self.catchup is not None:
            try:
                self.catchup_result = await self.catchup
            except (asyncio.TimeoutError, RuntimeError) as exc:
                self.failures.append(f"restarted replica never reported catch-up: {exc!r}")
        if self.gateway.error is not None:
            self.failures.append(f"generator connection failed: {self.gateway.error!r}")

        # Every replica must hold the same applied log before collect, or
        # the reconciliation would compare a replica still catching up.
        expected = sum(1 for op in log.ops if op.committed)
        deadline = _now() + CONVERGE_TIMEOUT
        while _now() < deadline:
            heights = await deployment.request("heights", "heights")
            if len(heights) == len(deployment.specs) and all(
                applied == expected for _tip, applied in heights.values()
            ):
                break
            await asyncio.sleep(0.2)

        deaths = deployment.unexpected_deaths()
        if deaths:
            self.failures.append(f"processes died unexpectedly: {deaths}")
        self.gateway.close()
        finish = await deployment.request("finished", "finish", timeout=120.0)
        self.failures += await deployment.join()
        return finish
