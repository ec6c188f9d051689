"""Process entry points the benchmark spawns: replicas and the gateway host.

Both run the program's own code.  In a traced run they first wrap the
public functions of each layer (see :func:`install_replica_tracing` and
:func:`install_gateway_tracing`) with spans from :mod:`spans`, then call
``run_replica`` or start the gateway, and write the spans out only after
that returns, so the orchestrator must let them exit (collect, then
join) rather than terminate them.

The gateway host also answers a small control protocol over a
``multiprocessing`` pipe: readmit a restarted replica and time its
catch-up, scrape the cluster, and at the end collect every replica's
evidence and replay it through the ``SafetyAuditor``.
"""

from __future__ import annotations

import asyncio
import ctypes
import logging
import multiprocessing
import os
import signal
import time

from spans import SpanRecorder, patch_method, wrap_coroutine, wrap_function

#: Seconds the gateway host waits for a restarted replica to catch up.
CATCHUP_TIMEOUT = 60.0

#: Seconds between catch-up polls of the restarted replica's height.
CATCHUP_POLL = 0.05


#: prctl(2) option: signal this process when its parent dies.
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Have the kernel SIGKILL this process if the orchestrator dies, so a
    killed benchmark leaves no replica burning CPU behind it."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != multiprocessing.parent_process().pid:
        os._exit(1)  # the parent died before the signal was armed


def _tip(reply) -> int:
    return reply.chain[-1].slot if reply.chain else 0


def _install_common(recorder: SpanRecorder) -> None:
    """Layers both process kinds run: codec, decode and the obs plane."""
    from repro.net.codec import CollectReply, FrameBuffer, WireCodec
    from repro.obs import CommitPathTracer, EventLog, MetricsRegistry

    # encode_frame goes through encode_frame_into, so this one wrapper
    # sees every encode.  A replica's snapshot reply (its whole chain, for
    # the gateway's read path) is kept apart from consensus traffic.
    encode_into = WireCodec.encode_frame_into
    encode_id = recorder.name_id("codec.encode")
    snapshot_encode_id = recorder.name_id("gw.snapshot_encode")

    def traced_encode_into(self, message, buf):
        index = recorder.open(
            snapshot_encode_id if type(message) is CollectReply else encode_id
        )
        try:
            return encode_into(self, message, buf)
        finally:
            recorder.close(index)

    WireCodec.encode_frame_into = traced_encode_into

    feed = FrameBuffer.feed
    decode_id = recorder.name_id("codec.decode")
    snapshot_id = recorder.name_id("gw.snapshot_decode")
    bytes_id = recorder.name_id("codec.bytes_in")

    def traced_feed(self, data):
        # A feed that completes a snapshot reply is the read path's
        # decode cost; every other feed is plain frame decoding.
        recorder.count(bytes_id, len(data))
        index = recorder.open(decode_id)
        messages = ()
        try:
            messages = feed(self, data)
            return messages
        finally:
            snapshot = any(type(m) is CollectReply for m in messages)
            recorder.close(index, snapshot_id if snapshot else None)

    FrameBuffer.feed = traced_feed
    patch_method(recorder, EventLog, "emit", "obs")
    patch_method(recorder, CommitPathTracer, "record", "obs")
    patch_method(recorder, MetricsRegistry, "snapshot_items", "obs")


def install_replica_tracing(recorder: SpanRecorder) -> None:
    from repro.multishot.node import MultiShotNode
    from repro.net.transport import NetContext, NetTransport
    from repro.sim.trace import TraceKind
    from repro.smr.kvstore import KVStore
    from repro.smr.replica import Replica
    from repro.storage.disk import DiskStorage
    from repro.storage.wal import WriteAheadLog

    _install_common(recorder)
    patch_method(recorder, NetTransport, "send", "transport.send")
    patch_method(recorder, NetTransport, "broadcast", "transport.send")
    patch_method(recorder, MultiShotNode, "receive", "engine.receive")
    patch_method(recorder, Replica, "submit", "smr.submit")
    patch_method(recorder, KVStore, "apply", "smr.execute")
    patch_method(recorder, WriteAheadLog, "append_block", "storage.append")
    patch_method(recorder, DiskStorage, "take_snapshot", "storage.snapshot")
    patch_method(recorder, DiskStorage, "recover", "storage.recover")

    # The engine reports view entries through ctx.trace; a view above 0
    # is a view change.
    trace = NetContext.trace
    view_changes_id = recorder.name_id("engine.view_changes")

    def traced_trace(self, kind, **detail):
        if kind is TraceKind.VIEW_ENTER and detail.get("view", 0) > 0:
            recorder.count(view_changes_id, 1)
        return trace(self, kind, **detail)

    NetContext.trace = traced_trace

    flush = WriteAheadLog.flush
    fsync_id = recorder.name_id("storage.fsync")

    def traced_flush(self):
        # Only a flush with records pending writes and fsyncs.
        if not self._pending_count:
            return flush(self)
        index = recorder.open(fsync_id)
        try:
            return flush(self)
        finally:
            recorder.close(index)

    WriteAheadLog.flush = traced_flush


def install_gateway_tracing(recorder: SpanRecorder) -> None:
    import repro.gateway.app as app
    import repro.gateway.service as service
    from repro.net.client import AckCorrelator, ReplicaPool

    _install_common(recorder)
    # app.py imported these by name, so its module attributes are the
    # ones the server calls.
    app.read_request = wrap_coroutine(recorder, "http.parse", app.read_request)
    app.render_response = wrap_function(recorder, "http.render", app.render_response)
    patch_method(recorder, service.GatewayService, "submit", "gw.submit")
    patch_method(recorder, ReplicaPool, "submit_many", "client.broadcast")
    patch_method(recorder, ReplicaPool, "broadcast_frame", "client.broadcast")
    patch_method(recorder, AckCorrelator, "record_ack", "client.ack")

    replay = service.replay_chain
    replay_id = recorder.name_id("gw.replay")
    blocks_id = recorder.name_id("gw.replay_blocks")

    def traced_replay(chain):
        recorder.count(blocks_id, len(chain))
        index = recorder.open(replay_id)
        try:
            return replay(chain)
        finally:
            recorder.close(index)

    service.replay_chain = traced_replay


def replica_entry(spec, trace_path: str | None) -> None:
    """Process target of one replica: optional tracing, then ``run_replica``."""
    _die_with_parent()
    recorder = None
    if trace_path is not None:
        recorder = SpanRecorder("replica")
        install_replica_tracing(recorder)
    from repro.net.replica_main import run_replica

    run_replica(spec)
    if recorder is not None:
        recorder.dump(trace_path)


def gateway_entry(specs, time_scale: float, conn, trace_path: str | None) -> None:
    """Process target of the gateway host (default ``GatewayConfig``)."""
    _die_with_parent()
    logging.getLogger("asyncio").setLevel(logging.ERROR)
    recorder = None
    if trace_path is not None:
        recorder = SpanRecorder("gateway")
        install_gateway_tracing(recorder)
    try:
        asyncio.run(_GatewayHost(specs, time_scale, conn, recorder).run())
    finally:
        conn.close()
    if recorder is not None:
        recorder.dump(trace_path)


class _GatewayHost:
    def __init__(self, specs, time_scale, conn, recorder) -> None:
        self.specs = specs
        self.time_scale = time_scale
        self.conn = conn
        self.recorder = recorder
        self.tasks: set[asyncio.Task] = set()

    async def run(self) -> None:
        from repro.gateway.app import GatewayServer
        from repro.gateway.service import GatewayConfig, GatewayService
        from repro.net.client import ReplicaPool

        self.pool = ReplicaPool.from_specs(self.specs, time_scale=self.time_scale)
        await self.pool.connect()
        self.service = GatewayService(self.pool, GatewayConfig(n=len(self.specs)))
        if self.recorder is not None:
            self.pool.on_ack = wrap_function(self.recorder, "gw.ack", self.pool.on_ack)
        await self.service.start()
        self.server = GatewayServer(self.service)
        await self.server.start()

        loop = asyncio.get_running_loop()
        commands: asyncio.Queue = asyncio.Queue()

        def on_command() -> None:
            try:
                commands.put_nowait(self.conn.recv())
            except (EOFError, OSError):
                loop.remove_reader(self.conn.fileno())
                commands.put_nowait(("closed",))

        loop.add_reader(self.conn.fileno(), on_command)
        self.conn.send(("ready", self.server.port))
        try:
            while True:
                command = await commands.get()
                if command[0] == "closed":
                    return  # the orchestrator went away
                if command[0] == "finish":
                    self.conn.send(("finished", await self.finish()))
                    return
                task = asyncio.ensure_future(self.handle(command))
                self.tasks.add(task)
                task.add_done_callback(self._done)
        finally:
            loop.remove_reader(self.conn.fileno())
            for task in self.tasks:
                task.cancel()
            await self.server.stop()
            self.pool.close()

    def _done(self, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.conn.send(("error", repr(task.exception())))

    async def handle(self, command) -> None:
        kind = command[0]
        if kind == "readmit":
            self.conn.send(("caught_up", await self.readmit(command[1])))
        elif kind == "scrape":
            self.conn.send(("scraped", await self.scrape()))
        elif kind == "heights":
            snaps = await self.pool.snapshot()
            self.conn.send(
                ("heights", {node: (_tip(r), len(r.applied_txids)) for node, r in snaps.items()})
            )
        else:
            raise ValueError(f"unknown control command {kind!r}")

    async def readmit(self, node: int) -> dict:
        """Readmit a respawned replica; time it to the survivors' height.

        Polls with the cheap in-band scrape (recovered + newly finalized
        blocks) and confirms with a full ``ReplicaPool.snapshot`` once
        that estimate reaches the target, so the read path is not flooded
        with chain copies while the replica catches up.
        """
        from repro.net.codec import StartRun
        from repro.obs import items_to_dict

        survivors = await self.pool.snapshot()
        target = max((_tip(r) for n, r in survivors.items() if n != node), default=0)
        await self.pool.readmit(node)
        self.pool.send_to(node, StartRun())
        readmitted = time.monotonic()
        deadline = readmitted + CATCHUP_TIMEOUT
        polls = 0
        while time.monotonic() < deadline:
            polls += 1
            scraped = (await self.pool.scrape()).get(node)
            height = 0.0
            if scraped is not None:
                items = items_to_dict(scraped.items)
                height = items.get("storage.recovered_blocks", 0.0) + items.get(
                    "consensus.blocks", 0.0
                )
            if height >= target or polls % 20 == 0:
                reply = (await self.pool.snapshot()).get(node)
                if reply is not None and _tip(reply) >= target:
                    return {"target": target, "readmitted": readmitted, "at": time.monotonic()}
            await asyncio.sleep(CATCHUP_POLL)
        return {"target": target, "readmitted": readmitted, "at": None}

    async def scrape(self) -> dict:
        from repro.obs import items_to_dict

        replies = await self.pool.scrape()
        return {
            "replicas": {node: items_to_dict(r.items) for node, r in replies.items()},
            "gateway": self.service.metrics(),
        }

    async def finish(self) -> dict:
        """Stop admitting, collect every replica's evidence and audit it."""
        from repro.smr.mempool import Transaction
        from repro.verification.audit import ReplicaEvidence, SafetyAuditor

        await self.service.stop()
        gateway = self.service.metrics()
        replies = await self.pool.collect()
        evidence = [
            ReplicaEvidence(
                node_id=r.node_id,
                chain=tuple(r.chain),
                state_digest=r.state_digest,
                applied_txids=tuple(r.applied_txids),
            )
            for r in sorted(replies.values(), key=lambda r: r.node_id)
        ]
        report = SafetyAuditor().audit_evidence(evidence)
        replicas = {}
        for node, reply in replies.items():
            payloads = [b.payload if isinstance(b.payload, tuple) else () for b in reply.chain]
            txns = [sum(isinstance(t, Transaction) for t in p) for p in payloads]
            replicas[node] = {
                "tip": _tip(reply),
                "blocks": len(reply.chain),
                "empty_blocks": sum(1 for t in txns if t == 0),
                "chain_txns": sum(txns),
                "applied": len(reply.applied_txids),
                "metrics": dict(reply.metrics),
            }
        return {
            "safe": report.safe,
            "violations": list(report.violations),
            "replicas": replicas,
            "gateway": gateway,
        }
