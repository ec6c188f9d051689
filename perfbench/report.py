"""Metrics of a measured pass, and the correctness gate.

End-to-end metrics come from an untraced pass and are timed at the
generator.  Per-layer metrics come from the spans of a traced pass, cut
to the measured window and divided by the commits the client saw in it.
"""

from __future__ import annotations

import bisect
import math
import statistics

import spans as spanlib
from workloads import Pass

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commit_mean_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("throughput_tps", "txn/s"),
    ("tail_tps", "txn/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_lag_ms", "ms"),
    ("failed_frac", "ratio"),
    ("cpu_ms_per_commit", "ms"),
    ("rss_mb", "MB"),
    ("stall_ms", "ms"),
    ("catchup_s", "s"),
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100.0)) - 1]


def _window_commits(run: Pass) -> list[float]:
    return sorted(c.at for c in run.log.commits if run.t_start <= c.at < run.t_end)


def _cpu_window(run: Pass, prefix: str = "") -> float:
    return sum(
        end - run.cpu_start.get(key, 0.0)
        for key, end in run.cpu_end.items()
        if key.startswith(prefix)
    )


def series(run: Pass) -> dict:
    """Per-second commit counts and generator lateness over the whole pass."""
    first = run.t_first
    seconds = int(math.ceil(max(run.t_last, run.t_end) - first)) + 1
    commits = [0] * seconds
    for c in run.log.commits:
        commits[min(seconds - 1, max(0, int(c.at - first)))] += 1
    late: list[list[float]] = [[] for _ in range(seconds)]
    for op in run.log.ops:
        if op.sent and op.kind != "probe":
            late[min(seconds - 1, max(0, int(op.due - first)))].append(op.sent - op.due)
    latencies = [
        op.committed - op.due
        for op in run.log.ops
        if op.kind == "write" and op.committed and run.t_start <= op.due < run.t_end
    ]
    return {
        "window_s": [run.t_start - first, run.t_end - first],
        "commit_ms_percentiles": {
            q: percentile(latencies, q) * 1e3 for q in (5, 10, 25, 50, 75, 90, 95, 99)
        }
        if latencies
        else {},
        "commits_per_s": commits,
        "late_p99_ms": [percentile(v, 99) * 1e3 if v else 0.0 for v in late],
    }


def failed_count(run: Pass) -> int:
    """Non-202 submits + accepted submissions uncommitted at drain +
    non-200 reads."""
    failed = 0
    for op in run.log.ops:
        if op.kind == "read":
            failed += op.status != 200
        else:
            failed += op.status != 202 or not op.committed
    return failed


def end_to_end(run: Pass, setup_s: float) -> dict[str, float | None]:
    """Every end-to-end metric; ``None`` where the workload has no such path."""
    seconds = run.t_end - run.t_start
    window = _window_commits(run)
    commits = len(window)
    in_window = [op for op in run.log.ops if run.t_start <= op.due < run.t_end]
    latencies = [op.committed - op.due for op in in_window if op.kind == "write" and op.committed]
    reads = [op.done - op.due for op in in_window if op.kind == "read" and op.status == 200]
    tail_from = run.t_end - seconds / 3.0
    out: dict[str, float | None] = {
        "setup_s": setup_s,
        "commit_p50_ms": percentile(latencies, 50) * 1e3,
        "commit_mean_ms": statistics.fmean(latencies) * 1e3,
        "commit_p99_ms": percentile(latencies, 99) * 1e3,
        "throughput_tps": commits / seconds,
        "tail_tps": sum(1 for at in window if at >= tail_from) / (seconds / 3.0),
        "read_p50_ms": percentile(reads, 50) * 1e3 if reads else None,
        "read_p99_ms": percentile(reads, 99) * 1e3 if reads else None,
        "read_lag_ms": _read_lag_ms(run, in_window) if reads else None,
        "failed_frac": failed_count(run) / max(1, len(run.log.ops)),
        "cpu_ms_per_commit": _cpu_window(run) * 1e3 / max(1, commits),
        "rss_mb": run.rss_mb,
        "stall_ms": _stall_ms(run, window) * 1e3,
        "catchup_s": None,
    }
    if run.catchup is not None and run.catchup.get("at") is not None:
        out["catchup_s"] = run.catchup["at"] - run.t_respawn
    return out


def samples(run: Pass) -> dict[str, int]:
    in_window = [op for op in run.log.ops if run.t_start <= op.due < run.t_end]
    return {
        "commit": sum(1 for op in in_window if op.kind == "write" and op.committed),
        "read": sum(1 for op in in_window if op.kind == "read" and op.status == 200),
    }


def _stall_ms(run: Pass, window: list[float]) -> float:
    """Longest gap between commit events from the kill (else the window
    start) to the window end."""
    start = run.t_kill if run.t_kill is not None else run.t_start
    points = [start] + [at for at in window if at >= start] + [run.t_end]
    return max(b - a for a, b in zip(points, points[1:]))


def _read_lag_ms(run: Pass, in_window) -> float:
    """Median, per read, of the time since the client saw the first
    commit in a slot above the response's ``tip_slot`` (0 if none)."""
    first_seen: dict[int, float] = {}
    for c in run.log.commits:
        if c.slot not in first_seen or c.at < first_seen[c.slot]:
            first_seen[c.slot] = c.at
    slots = sorted(first_seen)
    # suffix[i] = earliest first sighting among slots[i:].
    suffix = [0.0] * len(slots)
    earliest = math.inf
    for i in range(len(slots) - 1, -1, -1):
        earliest = min(earliest, first_seen[slots[i]])
        suffix[i] = earliest
    lags = []
    for op in in_window:
        if op.kind != "read" or op.status != 200:
            continue
        i = bisect.bisect_right(slots, op.tip_slot)
        seen = suffix[i] if i < len(slots) else math.inf
        lags.append(max(0.0, op.done - seen))
    return statistics.median(lags) * 1e3


# -- correctness gate ----------------------------------------------------------


def verdict(run: Pass) -> list[str]:
    """Every reason this pass's numbers may not be reported."""
    problems = list(run.failures)
    failed = failed_count(run)
    if failed:
        problems.append(f"{failed} ops were refused, never committed or not read")
    finish = run.finish
    if not finish.get("safe"):
        problems.append(f"safety audit failed: {finish.get('violations')}")
    for op in run.log.ops:
        if op.kind == "read" and op.status == 200:
            if not isinstance(op.value, int) or not 0 <= op.value <= op.incrs_sent:
                problems.append(
                    f"read of {op.key} returned {op.value!r} with {op.incrs_sent} incrs sent"
                )
                break
    client = sum(1 for op in run.log.ops if op.committed)
    gateway = finish.get("gateway", {}).get("committed")
    if gateway != client:
        problems.append(f"client saw {client} commits, gateway counted {gateway}")
    replicas = finish.get("replicas", {})
    if len(replicas) != 4:
        problems.append(f"only replicas {sorted(replicas)} answered the collect")
    for node, rep in sorted(replicas.items()):
        if rep["applied"] != client:
            problems.append(f"replica {node} applied {rep['applied']}, client saw {client}")
        restarted = run.t_respawn is not None and node == 3
        commits = rep["metrics"].get("consensus.commits", 0.0)
        if not restarted and commits != rep["applied"]:
            problems.append(f"replica {node} counted {commits} commits, applied {rep['applied']}")
    if run.log.foreign_commits:
        problems.append(f"{run.log.foreign_commits} commit events for unknown txids")
    return problems


# -- per-layer metrics -------------------------------------------------------------


def _delta(run: Pass, name: str) -> float:
    """Σ over replicas of a cumulative counter's growth over the window."""
    start = run.scrape_start.get("replicas", {})
    total = 0.0
    for node, items in run.scrape_end.get("replicas", {}).items():
        end = items.get(name, 0.0)
        before = start.get(node, {}).get(name, 0.0)
        # A restarted replica's counters began again at zero.
        total += end - before if end >= before else end
    return total


def per_layer(traced: Pass, untraced: Pass) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from a traced pass and
    the untraced pass of the same seed before it."""
    t0, t1 = traced.t_start, traced.t_end
    seconds = t1 - t0
    commits = max(1, len(_window_commits(traced)))
    self_by_role: dict[str, dict[str, float]] = {"replica": {}, "gateway": {}}
    counts_by_role: dict[str, dict[str, float]] = {"replica": {}, "gateway": {}}
    fsync_ms: list[float] = []
    snapshot_ms: list[float] = []
    recover_ms: list[float] = []
    for path in traced.spans:
        doc = spanlib.load(path)
        role = doc["role"]
        for name, value in spanlib.self_times(doc, t0, t1).items():
            self_by_role[role][name] = self_by_role[role].get(name, 0.0) + value
        for name, value in spanlib.counts(doc, t0, t1).items():
            counts_by_role[role][name] = counts_by_role[role].get(name, 0.0) + value
        fsync_ms += [d * 1e3 for d in spanlib.durations(doc, "storage.fsync", t0, t1)]
        snapshot_ms += [d * 1e3 for d in spanlib.durations(doc, "storage.snapshot", t0, t1)]
        recover_ms += [d * 1e3 for d in spanlib.durations(doc, "storage.recover")]

    rep, gw = self_by_role["replica"], self_by_role["gateway"]

    def us(table: dict[str, float], name: str) -> float:
        return table.get(name, 0.0) * 1e6 / commits

    gateway_metrics = traced.finish.get("gateway", {})
    flushes = gateway_metrics.get("flushes", 0)
    chains = traced.finish.get("replicas", {})
    longest = max(chains.values(), key=lambda r: r["blocks"]) if chains else None
    blocks = longest["blocks"] if longest else 0
    nonempty = blocks - longest["empty_blocks"] if longest else 0
    frames = _delta(traced, "net.frames_in")
    blocks_in_window = _delta(traced, "consensus.blocks")
    cpu = _cpu_window(traced, "replica") + _cpu_window(traced, "gateway")
    traced_layers = sum(rep.values()) + sum(gw.values())
    out = {
        "http.parse_us": us(gw, "http.parse"),
        "http.render_us": us(gw, "http.render"),
        "gw.submit_us": us(gw, "gw.submit"),
        "gw.txns_per_flush": gateway_metrics.get("flushed_txns", 0) / flushes if flushes else 0.0,
        "gw.ack_us": us(gw, "gw.ack"),
        "gw.snapshot_ms_per_s": gw.get("gw.snapshot_decode", 0.0) * 1e3 / seconds,
        "gw.snapshot_encode_ms_per_s": rep.get("gw.snapshot_encode", 0.0) * 1e3 / seconds,
        "gw.replay_ms_per_s": gw.get("gw.replay", 0.0) * 1e3 / seconds,
        "gw.replay_blocks": counts_by_role["gateway"].get("gw.replay_blocks", 0.0) / commits,
        "client.broadcast_us": us(gw, "client.broadcast"),
        "client.ack_us": us(gw, "client.ack"),
        "codec.encode_us.replica": us(rep, "codec.encode"),
        "codec.encode_us.gateway": us(gw, "codec.encode"),
        "codec.decode_us.replica": us(rep, "codec.decode"),
        "codec.decode_us.gateway": us(gw, "codec.decode"),
        "codec.bytes_in.replica": counts_by_role["replica"].get("codec.bytes_in", 0.0) / commits,
        "codec.bytes_in.gateway": counts_by_role["gateway"].get("codec.bytes_in", 0.0) / commits,
        "transport.send_us": us(rep, "transport.send"),
        "transport.frames_per_commit": _delta(traced, "transport.frames_flushed") / commits,
        "transport.bytes_per_commit": _delta(traced, "transport.bytes_flushed") / commits,
        "transport.msgs_per_frame": _delta(traced, "net.messages_in") / frames if frames else 0.0,
        "transport.queue_lag": max(
            (r.get("transport.queue_lag", 0.0) for r in traced.scrape_end.get("replicas", {}).values()),
            default=0.0,
        ),
        "engine.receive_us": us(rep, "engine.receive"),
        "engine.msgs_per_commit": _delta(traced, "net.messages_in") / commits,
        "engine.view_changes": counts_by_role["replica"].get("engine.view_changes", 0.0),
        "engine.empty_block_share": (blocks - nonempty) / blocks if blocks else 0.0,
        "engine.blocks_per_s": blocks / max(1e-9, traced.t_last - traced.t_first),
        "smr.submit_us": us(rep, "smr.submit"),
        "smr.execute_us": us(rep, "smr.execute"),
        "smr.txns_per_block": longest["chain_txns"] / nonempty if nonempty else 0.0,
        "storage.append_us": us(rep, "storage.append"),
        "storage.fsync_ms": statistics.fmean(fsync_ms) if fsync_ms else 0.0,
        "storage.fsyncs_per_block": len(fsync_ms) / blocks_in_window if blocks_in_window else 0.0,
        "storage.snapshot_ms": statistics.fmean(snapshot_ms) if snapshot_ms else 0.0,
        "storage.recover_ms": max(recover_ms, default=0.0),
        "obs.us_per_commit": (rep.get("obs", 0.0) + gw.get("obs", 0.0)) * 1e6 / commits,
        "cpu.unattributed_share": max(0.0, cpu - traced_layers) / cpu if cpu else 0.0,
        "trace.overhead": _cpu_per_commit(traced) / max(1e-9, _cpu_per_commit(untraced)),
    }
    total = _cpu_window(untraced) + untraced.loadgen_cpu
    out["cpu.share.replica"] = _cpu_window(untraced, "replica") / total if total else 0.0
    out["cpu.share.gateway"] = _cpu_window(untraced, "gateway") / total if total else 0.0
    out["cpu.share.loadgen"] = untraced.loadgen_cpu / total if total else 0.0
    out.update(_stages(traced))
    late = [
        op.sent - op.due
        for op in untraced.log.ops
        if op.sent and untraced.t_start <= op.due < untraced.t_end
    ]
    out["loadgen.late_p99_ms"] = percentile(late, 99) * 1e3 if late else 0.0
    return out


def _cpu_per_commit(run: Pass) -> float:
    return _cpu_window(run) / max(1, len(_window_commits(run)))


def _stages(run: Pass) -> dict[str, float]:
    """Commit-path stage means (ms) from the program's own sampled
    tracers, read at the window's end: the gateway's (admit, submit, ack)
    through ``/v1/metrics`` and the replicas' (submit, propose, finalize)
    through the in-band scrape."""
    registry = run.scrape_end.get("gateway", {}).get("registry", {})
    replicas = run.scrape_end.get("replicas", {}).values()

    def mean(keys: tuple[str, ...]) -> float:
        """Count-weighted mean over replicas of the sum of ``keys``."""
        total = weight = 0.0
        for items in replicas:
            count = items.get(f"trace.{keys[0]}.count", 0.0)
            if count:
                total += count * sum(items.get(f"trace.{k}.mean", 0.0) for k in keys)
                weight += count
        return total / weight if weight else 0.0

    propose = mean(("submit_to_propose",))
    finalize = mean(("propose_to_finalize",))
    # Only the proposer records "propose"; the others trace submit →
    # finalize directly.  The replicas' whole share is the mix of both.
    replica_path = (
        mean(("submit_to_finalize",)),
        mean(("submit_to_propose", "propose_to_finalize")),
    )
    weights = [
        sum(items.get(f"trace.{k}.count", 0.0) for items in replicas)
        for k in ("submit_to_finalize", "submit_to_propose")
    ]
    to_finalize = (
        sum(w * v for w, v in zip(weights, replica_path)) / sum(weights) if sum(weights) else 0.0
    )
    to_ack = registry.get("gateway.trace.submit_to_ack.mean", 0.0)
    return {
        "stage.admit_submit_ms": registry.get("gateway.trace.admit_to_submit.mean", 0.0) * 1e3,
        "stage.submit_propose_ms": propose * 1e3,
        "stage.propose_finalize_ms": finalize * 1e3,
        # The gateway sees submit → quorum ack; the rest of it after the
        # replicas' submit → finalize is the hops to and from them.
        "stage.finalize_ack_ms": max(0.0, to_ack - to_finalize) * 1e3,
    }
