"""The load generator: one process, one thread, two connections.

Submissions (``POST /v1/transactions``) and reads (``GET /v1/state/<key>``)
share one pipelined HTTP/1.1 keep-alive connection: requests are written
as soon as they are due, responses come back in order and are matched
to a FIFO of what was sent.  Commit events arrive on one ``/v1/ws``
subscription.  Every operation is stamped with its due time, its send
time and its completion time on ``time.monotonic``.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import random
import struct
import time
from collections import deque
from dataclasses import dataclass, field

_now = time.monotonic

#: Logical clients the submissions are spread over (``x-client-id``), so
#: that the gateway's per-client token buckets (200 txn/s, burst 50 by
#: default) never bind: at 64 clients they admit 12.8k txn/s.
CLIENT_IDS = 64

#: Keys the writes ``incr`` over, uniformly.
KEYSPACE = 1000

_READ_BUF = 1 << 16


@dataclass
class Op:
    """One submission or read, as the generator saw it."""

    kind: str  # "write" | "read" | "probe"
    key: str
    due: float
    txid: str = ""
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    committed: float = 0.0
    slot: int = 0
    value: object = None
    tip_slot: int = -1
    #: Number of incrs of ``key`` sent before this read's response.
    incrs_sent: int = 0


@dataclass
class Commit:
    txid: str
    slot: int
    at: float


@dataclass
class TrafficLog:
    """Everything one run observed at the client."""

    ops: list[Op] = field(default_factory=list)
    commits: list[Commit] = field(default_factory=list)
    by_txid: dict[str, Op] = field(default_factory=dict)
    incrs_sent: dict[str, int] = field(default_factory=dict)
    foreign_commits: int = 0


class Gateway:
    """The generator's two connections to one gateway."""

    def __init__(self, host: str, port: int, log: TrafficLog) -> None:
        self.host = host
        self.port = port
        self.log = log
        self._pending: deque[Op] = deque()
        self._tasks: list[asyncio.Task] = []
        self._writer: asyncio.StreamWriter | None = None
        self._ws_writer: asyncio.StreamWriter | None = None
        self._next_client = 0
        #: Called with each Commit as it arrives (closed loop, faults).
        self.on_commit = None
        #: Called with each completed Op (setup probe).
        self.on_response = None
        self.error: BaseException | None = None

    async def connect(self) -> None:
        reader, self._ws_writer = await asyncio.open_connection(self.host, self.port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self._ws_writer.write(
            (
                "GET /v1/ws HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        head = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0]:
            raise ConnectionError(f"websocket handshake refused: {head[:80]!r}")
        self._tasks.append(asyncio.ensure_future(self._ws_loop(reader)))
        http_reader, self._writer = await asyncio.open_connection(self.host, self.port)
        self._tasks.append(asyncio.ensure_future(self._http_loop(http_reader)))

    def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        for writer in (self._writer, self._ws_writer):
            if writer is not None:
                writer.close()

    # -- sending --------------------------------------------------------------

    def submit(self, op: Op, body: list) -> None:
        payload = json.dumps({"txid": op.txid, "op": body}, separators=(",", ":")).encode()
        client = self._next_client
        self._next_client = (client + 1) % CLIENT_IDS
        self._send(
            op,
            b"POST /v1/transactions HTTP/1.1\r\nHost: gw\r\nx-client-id: c%d\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (client, len(payload), payload),
        )
        if op.kind == "write":
            self.log.incrs_sent[op.key] = self.log.incrs_sent.get(op.key, 0) + 1

    def read(self, op: Op) -> None:
        self._send(op, b"GET /v1/state/%s HTTP/1.1\r\nHost: gw\r\n\r\n" % op.key.encode())

    def _send(self, op: Op, request: bytes) -> None:
        op.sent = _now()
        if op.txid:
            self.log.by_txid[op.txid] = op
        self.log.ops.append(op)
        self._pending.append(op)
        self._writer.write(request)

    # -- receiving ------------------------------------------------------------

    async def _http_loop(self, reader: asyncio.StreamReader) -> None:
        buf = bytearray()
        try:
            while True:
                data = await reader.read(_READ_BUF)
                if not data:
                    raise ConnectionError("gateway closed the HTTP connection")
                buf += data
                now = _now()
                while True:
                    end = buf.find(b"\r\n\r\n")
                    if end < 0:
                        break
                    head = bytes(buf[:end])
                    length = 0
                    at = head.find(b"Content-Length: ")
                    if at >= 0:
                        length = int(head[at + 16 : head.index(b"\r\n", at)])
                    if len(buf) < end + 4 + length:
                        break
                    body = bytes(buf[end + 4 : end + 4 + length])
                    del buf[: end + 4 + length]
                    self._complete(self._pending.popleft(), int(head[9:12]), body, now)
        except Exception as exc:  # surfaced by the run as a failure
            self.error = self.error or exc

    def _complete(self, op: Op, status: int, body: bytes, now: float) -> None:
        op.done = now
        op.status = status
        if op.kind == "read":
            op.incrs_sent = self.log.incrs_sent.get(op.key, 0)
            if status == 200:
                doc = json.loads(body)
                op.value = doc.get("value")
                op.tip_slot = doc.get("tip_slot", -1)
        if self.on_response is not None:
            self.on_response(op)

    async def _ws_loop(self, reader: asyncio.StreamReader) -> None:
        buf = bytearray()
        log = self.log
        try:
            while True:
                data = await reader.read(_READ_BUF)
                if not data:
                    raise ConnectionError("gateway closed the commit subscription")
                buf += data
                now = _now()
                pos = 0
                while len(buf) - pos >= 2:
                    opcode = buf[pos] & 0x0F
                    length = buf[pos + 1] & 0x7F
                    start = pos + 2
                    if length == 126:
                        if len(buf) - pos < 4:
                            break
                        (length,) = struct.unpack_from(">H", buf, pos + 2)
                        start = pos + 4
                    elif length == 127:
                        if len(buf) - pos < 10:
                            break
                        (length,) = struct.unpack_from(">Q", buf, pos + 2)
                        start = pos + 10
                    if len(buf) < start + length:
                        break
                    payload = bytes(buf[start : start + length])
                    pos = start + length
                    if opcode == 0x8:
                        code = struct.unpack(">H", payload[:2])[0] if len(payload) >= 2 else 0
                        raise ConnectionError(f"commit subscription closed ({code})")
                    if opcode != 0x1:
                        continue
                    event = json.loads(payload)
                    op = log.by_txid.get(event.get("txid"))
                    if op is None:
                        log.foreign_commits += 1
                        continue
                    op.committed = now
                    op.slot = event.get("slot", 0)
                    commit = Commit(op.txid, op.slot, now)
                    log.commits.append(commit)
                    if self.on_commit is not None:
                        self.on_commit(commit)
                del buf[:pos]
        except Exception as exc:  # surfaced by the run as a failure
            self.error = self.error or exc


# -- schedules ----------------------------------------------------------------


def poisson_times(rng: random.Random, rate: float, start: float, end: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate``/s on ``[start, end)``."""
    out, at = [], start
    while True:
        at += rng.expovariate(rate)
        if at >= end:
            return out
        out.append(at)


def key_of(index: int) -> str:
    return f"k{index:04d}"
