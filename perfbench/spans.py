"""In-memory span recording for the traced benchmark run.

A :class:`SpanRecorder` lives in one process.  :func:`wrap_function`
and :func:`wrap_coroutine` put a span around a public call into one of
the program's layers; the program itself is not edited.  Spans are kept
in flat ``array`` columns (name id, start, end, CPU time, parent) so a
25-second run at full load stays a few tens of MB per process, and are
written out once, when the process returns from its benchmark entry
point.

Start and end come from ``time.monotonic``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``: spans from different processes and the
load generator's own timestamps share one time axis.  Each span also
records the thread CPU time it used: the benchmark runs six processes,
usually on fewer cores, so a span's wall time includes time its process
sat descheduled.  Self times are computed from CPU time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from pathlib import Path

_now = time.monotonic
_cpu = time.thread_time


class SpanRecorder:
    """Spans of one process: name, start, end, parent index, pid."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.cpu_col = array("d")
        self.parent_col = array("i")
        self._stack: list[int] = []
        #: Plain counters recorded at the same boundaries (bytes fed, ...),
        #: as (time, name id, amount) so they can be cut to a window.
        self.count_time = array("d")
        self.count_name = array("H")
        self.count_value = array("d")

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, ident: int) -> int:
        index = len(self.start_col)
        self.name_col.append(ident)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.start_col.append(_now())
        self.end_col.append(0.0)
        self.cpu_col.append(_cpu())
        self._stack.append(index)
        return index

    def close(self, index: int, ident: int | None = None) -> None:
        self.cpu_col[index] = _cpu() - self.cpu_col[index]
        self.end_col[index] = _now()
        if ident is not None:
            self.name_col[index] = ident
        # Pop through the index: a span opened inside this one and never
        # closed (an exception path) must not corrupt later parents.
        stack = self._stack
        while stack:
            if stack.pop() == index:
                break

    def count(self, ident: int, amount: float) -> None:
        self.count_time.append(_now())
        self.count_name.append(ident)
        self.count_value.append(amount)

    def dump(self, path: str | Path) -> None:
        """Write every span to ``path`` (read back by :func:`load`): one
        JSON header line, then the raw bytes of each column."""
        columns = [getattr(self, name) for name in _COLUMNS]
        header = {
            "role": self.role,
            "pid": self.pid,
            "names": self.names,
            "lengths": [len(column) for column in columns],
        }
        tmp = Path(str(path) + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(handle)
        os.replace(tmp, path)


#: Column attributes in file order, with their ``array`` type codes.
_COLUMNS = (
    "name_col",
    "start_col",
    "end_col",
    "cpu_col",
    "parent_col",
    "count_time",
    "count_name",
    "count_value",
)


def wrap_function(recorder: SpanRecorder, name: str, fn):
    """``fn`` with a span named ``name`` around every call."""
    ident = recorder.name_id(name)
    open_span, close_span = recorder.open, recorder.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = open_span(ident)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)

    return traced


class _Stepped:
    """Drives a coroutine, with a span around each step it runs.

    A step is the code between two suspensions, so the spans cover the
    coroutine's own work and not the time it spent waiting for I/O.
    """

    __slots__ = ("_coro", "_recorder", "_ident")

    def __init__(self, coro, recorder: SpanRecorder, ident: int) -> None:
        self._coro = coro
        self._recorder = recorder
        self._ident = ident

    def __await__(self):
        coro, recorder, ident = self._coro, self._recorder, self._ident
        value, error = None, None
        while True:
            index = recorder.open(ident)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                recorder.close(index)
                return stop.value
            except BaseException:
                recorder.close(index)
                raise
            recorder.close(index)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # re-raised into the coroutine
                value, error = None, exc


def wrap_coroutine(recorder: SpanRecorder, name: str, fn):
    """Async ``fn`` with a span around each step of every call."""
    ident = recorder.name_id(name)

    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        return await _Stepped(fn(*args, **kwargs), recorder, ident)

    return traced


def patch_method(recorder: SpanRecorder, cls, attr: str, name: str) -> None:
    """Replace ``cls.attr`` with its traced form."""
    setattr(cls, attr, wrap_function(recorder, name, getattr(cls, attr)))


# -- aggregation (orchestrator side) ------------------------------------------


def load(path: str | Path) -> dict:
    """A span file as a dict of ``array`` columns plus its header."""
    recorder = SpanRecorder("")
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        doc = {"role": header["role"], "pid": header["pid"], "names": header["names"]}
        for attr, length in zip(_COLUMNS, header["lengths"]):
            column = array(getattr(recorder, attr).typecode)
            column.fromfile(handle, length)
            doc[attr] = column
    return doc


def self_times(doc: dict, t0: float, t1: float) -> dict[str, float]:
    """Per-name self CPU time (seconds) of the spans starting in ``[t0, t1)``.

    Self time is a span's time minus the part of it its child spans
    cover.  Children of one parent never overlap (one thread), so the
    covered part is the sum of their times.
    """
    names, name_col = doc["names"], doc["name_col"]
    start, end, cpu = doc["start_col"], doc["end_col"], doc["cpu_col"]
    parent = doc["parent_col"]
    child_cpu = [0.0] * len(start)
    for index, up in enumerate(parent):
        if up >= 0 and end[index] > 0.0:
            child_cpu[up] += cpu[index]
    out: dict[str, float] = {}
    for index, begin in enumerate(start):
        if not t0 <= begin < t1 or end[index] <= 0.0:
            continue
        name = names[name_col[index]]
        out[name] = out.get(name, 0.0) + cpu[index] - child_cpu[index]
    return out


def durations(doc: dict, name: str, t0: float = float("-inf"), t1: float = float("inf")):
    """Wall-clock durations (seconds) of every span called ``name`` that
    starts in the window."""
    names = doc["names"]
    if name not in names:
        return []
    ident = names.index(name)
    return [
        e - s
        for n, s, e in zip(doc["name_col"], doc["start_col"], doc["end_col"])
        if n == ident and e > 0.0 and t0 <= s < t1
    ]


def counts(doc: dict, t0: float, t1: float) -> dict[str, float]:
    """Per-name sum of the counters recorded in ``[t0, t1)``."""
    names = doc["names"]
    out: dict[str, float] = {}
    for at, ident, amount in zip(doc["count_time"], doc["count_name"], doc["count_value"]):
        if t0 <= at < t1:
            name = names[ident]
            out[name] = out.get(name, 0.0) + amount
    return out
