"""Gateway session-service behaviour: fairness, batching, commits, reads.

Pure in-process tests — the service runs over a stub pool (no sockets,
no subprocesses) and an injected fake clock, so token refill
arithmetic, quorum arithmetic and eviction policy are pinned exactly.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.ratelimit import (
    AdmissionController,
    AdmissionDenied,
    RateLimited,
    TokenBucket,
)
from repro.gateway.service import (
    EVICTED,
    DuplicateTransaction,
    GatewayConfig,
    GatewayService,
    SnapshotUnavailable,
)
from repro.net.codec import (
    ClientSubmit,
    ClientSubmitBatch,
    CollectReply,
    CommitAck,
    MetricsReply,
)
from repro.multishot.block import GENESIS_DIGEST, Block
from repro.smr.mempool import Transaction
from repro.verification.audit import replay_chain


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubPool:
    """Records submissions; snapshot() serves canned replies.

    Canned replies are full (``from_height=0``) collect evidence; a
    request from a positive height gets what a replica sends — the
    chain from the requester's tip block onward and no applied log.
    """

    def __init__(self, n: int = 4) -> None:
        self.live = set(range(n))
        self.on_ack = None
        self.on_death = None
        self.sent: list[object] = []
        self.canned_snapshots: dict[int, CollectReply] = {}
        self.snapshot_heights: list[int] = []
        self.canned_scrapes: dict[int, MetricsReply] = {}
        self.scrape_error: Exception | None = None
        self.started = False

    def start_run(self) -> None:
        self.started = True

    def submit(self, txn: Transaction) -> None:
        self.sent.append(ClientSubmit(txn))

    def submit_many(self, txns: list[Transaction]) -> None:
        if len(txns) == 1:
            self.submit(txns[0])
        elif txns:
            self.sent.append(ClientSubmitBatch(tuple(txns)))

    async def snapshot(self, timeout=None, from_height=0) -> dict[int, CollectReply]:
        self.snapshot_heights.append(from_height)
        if not from_height:
            return dict(self.canned_snapshots)
        return {
            node_id: replace(
                reply, chain=reply.chain[from_height - 1 :], applied_txids=(), metrics=()
            )
            for node_id, reply in self.canned_snapshots.items()
        }

    async def scrape(self, timeout=None) -> dict[int, MetricsReply]:
        if self.scrape_error is not None:
            raise self.scrape_error
        return dict(self.canned_scrapes)


def _txn(i: int, op: tuple = ("noop",)) -> Transaction:
    return Transaction(txid=f"t{i}", op=op)


def _service(
    n: int = 4, clock: FakeClock | None = None, **overrides
) -> tuple[GatewayService, StubPool, FakeClock]:
    clock = clock or FakeClock()
    pool = StubPool(n)
    defaults = dict(n=n, rate=10.0, burst=3.0, max_batch=4, snapshot_interval=0.0)
    defaults.update(overrides)
    service = GatewayService(pool, GatewayConfig(**defaults), clock=clock)
    return service, pool, clock


def _commit(service: GatewayService, txid: str, *, n_acks: int, slot: int = 1) -> None:
    for node_id in range(n_acks):
        service._on_ack(node_id, CommitAck(node_id=node_id, txid=txid, slot=slot))


# -- token bucket -------------------------------------------------------------


def test_token_bucket_refills_at_rate_up_to_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
    assert bucket.tokens == pytest.approx(5.0)  # starts full
    for _ in range(5):
        assert bucket.try_take() == 0.0
    assert bucket.tokens == pytest.approx(0.0)
    clock.advance(0.25)  # 2.5 tokens back
    assert bucket.tokens == pytest.approx(2.5)
    clock.advance(10.0)  # refill clamps at burst
    assert bucket.tokens == pytest.approx(5.0)


def test_token_bucket_reports_exact_retry_after_when_empty():
    clock = FakeClock()
    bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
    assert bucket.try_take() == 0.0
    # Empty: one token refills in exactly 1/4 second.
    assert bucket.try_take() == pytest.approx(0.25)
    clock.advance(0.1)  # 0.4 tokens there, 0.6 missing
    assert bucket.try_take() == pytest.approx(0.6 / 4.0)


def test_token_bucket_rejects_non_positive_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=-2.0)


# -- admission control --------------------------------------------------------


def test_burst_rejection_carries_retry_after():
    clock = FakeClock()
    admission = AdmissionController(
        max_clients=10, max_inflight_per_client=100, rate=10.0, burst=2.0, clock=clock
    )
    admission.check_submit("alice")
    admission.check_submit("alice")
    with pytest.raises(RateLimited) as exc_info:
        admission.check_submit("alice")
    assert exc_info.value.retry_after == pytest.approx(0.1)
    clock.advance(0.1)
    admission.check_submit("alice")  # refilled


def test_per_client_isolation_one_flooder_cannot_starve_another():
    clock = FakeClock()
    admission = AdmissionController(
        max_clients=10, max_inflight_per_client=100, rate=10.0, burst=2.0, clock=clock
    )
    admission.check_submit("flooder")
    admission.check_submit("flooder")
    with pytest.raises(RateLimited):
        admission.check_submit("flooder")
    # A different client has its own untouched bucket.
    admission.check_submit("bob")
    assert admission.clients["flooder"].rejected == 1
    assert admission.clients["bob"].rejected == 0


def test_client_capacity_is_denied_not_rate_limited():
    admission = AdmissionController(
        max_clients=2, max_inflight_per_client=10, rate=10.0, burst=5.0, clock=FakeClock()
    )
    admission.check_submit("a")
    admission.check_submit("b")
    with pytest.raises(AdmissionDenied) as exc_info:
        admission.check_submit("c")
    assert exc_info.value.code == "client_capacity"
    # Existing clients are unaffected by the full house.
    admission.check_submit("a")


def test_inflight_cap_limits_uncommitted_submissions_per_client():
    clock = FakeClock()
    admission = AdmissionController(
        max_clients=10, max_inflight_per_client=2, rate=1000.0, burst=1000.0, clock=clock
    )
    admission.check_submit("a").inflight = 2
    with pytest.raises(RateLimited):
        admission.check_submit("a")


# -- submission batching ------------------------------------------------------


def test_submissions_batch_up_to_max_batch_into_one_frame():
    async def scenario():
        service, pool, _clock = _service(rate=1000.0, burst=1000.0, max_batch=3)
        await service.start(start_consensus=False)
        for i in range(3):
            service.submit("alice", _txn(i))
        assert len(pool.sent) == 1
        (frame,) = pool.sent
        assert isinstance(frame, ClientSubmitBatch)
        assert [txn.txid for txn in frame.txns] == ["t0", "t1", "t2"]
        await service.stop()

    asyncio.run(scenario())


def test_batch_window_flushes_a_singleton_as_bare_submit():
    async def scenario():
        service, pool, _clock = _service(
            rate=1000.0, burst=1000.0, max_batch=64, batch_window=0.01
        )
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        assert pool.sent == []  # still buffered
        await asyncio.sleep(0.05)
        assert len(pool.sent) == 1
        assert isinstance(pool.sent[0], ClientSubmit)
        await service.stop()

    asyncio.run(scenario())


def test_repro_no_batch_disables_submission_coalescing(monkeypatch):
    """REPRO_NO_BATCH=1 means one thing repo-wide: the gateway must stop
    coalescing ClientSubmitBatch frames, not just the engines."""
    monkeypatch.setenv("REPRO_NO_BATCH", "1")

    async def scenario():
        service, pool, _clock = _service(rate=1000.0, burst=1000.0, max_batch=3)
        await service.start(start_consensus=False)
        for i in range(3):
            service.submit("alice", _txn(i))
        assert len(pool.sent) == 3  # no buffering, no batch frame
        assert all(isinstance(frame, ClientSubmit) for frame in pool.sent)
        assert service.counters["flushes"] == 3
        assert service.counters["flushed_txns"] == 3
        await service.stop()

    asyncio.run(scenario())


def test_gateway_window_shrinks_with_arrival_rate():
    """The flush deadline tracks limit × observed inter-arrival gap,
    capped at the configured batch_window."""
    async def scenario():
        service, pool, clock = _service(
            rate=1000.0, burst=1000.0, max_batch=4, batch_window=0.005
        )
        await service.start(start_consensus=False)
        # First arrival: no gap observed yet, window rests at the cap.
        service.submit("alice", _txn(0))
        assert service._window() == pytest.approx(0.005)
        # Fast arrivals (0.1 ms apart): window = 4 × 0.1 ms = 0.4 ms.
        for i in range(1, 4):
            clock.advance(0.0001)
            service.submit("alice", _txn(i))
        assert service._window() < 0.005
        # Slow arrivals drag the EWMA back up to the cap.
        for i in range(4, 10):
            clock.advance(1.0)
            service.submit("alice", _txn(i))
        assert service._window() == pytest.approx(0.005)
        await service.stop()

    asyncio.run(scenario())


def test_duplicate_txid_is_rejected_without_spending_tokens():
    async def scenario():
        service, _pool, _clock = _service(rate=10.0, burst=2.0)
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        with pytest.raises(DuplicateTransaction):
            service.submit("alice", _txn(0))
        # The duplicate did not burn the second token.
        service.submit("alice", _txn(1))
        await service.stop()

    asyncio.run(scenario())


# -- quorum commit tracking ---------------------------------------------------


def test_commit_requires_f_plus_one_distinct_replica_acks():
    async def scenario():
        service, _pool, clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        status = service.submit("alice", _txn(0))
        assert service.config.ack_quorum == 2
        clock.advance(0.5)
        service._on_ack(0, CommitAck(node_id=0, txid="t0", slot=5))
        assert not status.committed
        # A duplicate ack from the same replica is not quorum.
        service._on_ack(0, CommitAck(node_id=0, txid="t0", slot=5))
        assert not status.committed
        service._on_ack(1, CommitAck(node_id=1, txid="t0", slot=5))
        assert status.committed
        assert status.slot == 5
        assert status.latency == pytest.approx(0.5)
        view = service.txn_view("t0")
        assert view["status"] == "committed"
        assert view["latency_ms"] == pytest.approx(500.0)
        await service.stop()

    asyncio.run(scenario())


def test_commit_frees_the_clients_inflight_budget():
    async def scenario():
        service, _pool, _clock = _service(
            n=4, rate=1000.0, burst=1000.0, max_inflight_per_client=2
        )
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        service.submit("alice", _txn(1))
        with pytest.raises(RateLimited):
            service.submit("alice", _txn(2))
        _commit(service, "t0", n_acks=2)
        service.submit("alice", _txn(3))  # budget freed by the commit
        await service.stop()

    asyncio.run(scenario())


# -- subscription fan-out -----------------------------------------------------


def test_commit_events_fan_out_to_every_subscriber():
    async def scenario():
        service, _pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        sub_a, sub_b = service.subscribe(), service.subscribe()
        service.submit("alice", _txn(0))
        _commit(service, "t0", n_acks=2, slot=9)
        for sub in (sub_a, sub_b):
            event = await asyncio.wait_for(sub.next_event(), timeout=1.0)
            assert event["type"] == "commit"
            assert event["txid"] == "t0"
            assert event["slot"] == 9
        await service.stop()

    asyncio.run(scenario())


def test_slow_subscriber_is_evicted_with_a_sentinel():
    async def scenario():
        service, _pool, _clock = _service(
            n=4, rate=1000.0, burst=1000.0, subscriber_queue=2, max_batch=1000
        )
        await service.start(start_consensus=False)
        slow = service.subscribe()
        for i in range(4):
            service.submit("alice", _txn(i))
            _commit(service, f"t{i}", n_acks=2)
        assert slow.evicted
        assert slow not in service.subscriptions  # no further deliveries
        assert service.counters["subscribers_evicted"] == 1
        # The queue ends with the eviction notice; earlier events that
        # fit are still deliverable.
        drained = []
        while True:
            event = await asyncio.wait_for(slow.next_event(), timeout=1.0)
            drained.append(event)
            if event is EVICTED:
                break
        assert drained[-1] is EVICTED
        assert len(drained) == 2  # queue depth held
        await service.stop()

    asyncio.run(scenario())


def test_unsubscribed_subscriber_stops_counting():
    async def scenario():
        service, _pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        sub = service.subscribe()
        service.unsubscribe(sub)
        service.submit("alice", _txn(0))
        _commit(service, "t0", n_acks=2)
        assert sub.queue.empty()
        await service.stop()

    asyncio.run(scenario())


# -- snapshot read path -------------------------------------------------------


def _chain(*ops: tuple) -> tuple[Block, ...]:
    """A linked chain, one txn per block, with honest digests."""
    blocks: list[Block] = []
    parent = GENESIS_DIGEST
    for slot, op in enumerate(ops):
        payload = (Transaction(txid=f"c{slot}", op=op),)
        block = Block.create(slot=slot, parent=parent, payload=payload)
        blocks.append(block)
        parent = block.digest
    return tuple(blocks)


def _reply(node_id: int, chain: tuple[Block, ...]) -> CollectReply:
    """An honest replica's full reply."""
    store = replay_chain(chain)
    return CollectReply(
        node_id=node_id,
        chain=chain,
        state_digest=store.state_digest(),
        applied_txids=tuple(store.applied_txids),
        blocks_applied=len(chain),
        txns_applied=store.applied_count,
    )


def test_read_state_serves_the_majority_snapshot():
    async def scenario():
        service, pool, _clock = _service(n=4)
        await service.start(start_consensus=False)
        long_chain = _chain(("set", "x", 1), ("set", "x", 2))
        short_chain = long_chain[:1]
        pool.canned_snapshots = {
            0: _reply(0, long_chain),
            1: _reply(1, long_chain),
            2: _reply(2, long_chain),
            3: _reply(3, short_chain),  # a laggard
        }
        support = await service.refresh_snapshots()
        assert support == 3
        view = service.read_state("x")
        assert view.found and view.value == 2
        assert view.supported_by == 3
        assert view.chain_length == 2
        missing = service.read_state("nope")
        assert not missing.found and missing.value is None
        await service.stop()

    asyncio.run(scenario())


def test_snapshot_ties_break_to_the_longest_chain():
    service, pool, _clock = _service(n=2)
    long_chain = _chain(("set", "x", 1), ("set", "x", 2))
    service.ingest_snapshots({0: _reply(0, long_chain[:1]), 1: _reply(1, long_chain)})
    view = service.read_state("x")
    assert view.value == 2  # the longer chain won the 1-1 tie
    assert view.supported_by == 1


def test_read_state_without_snapshot_raises():
    service, _pool, _clock = _service(n=4)
    with pytest.raises(SnapshotUnavailable):
        service.read_state("x")
    with pytest.raises(SnapshotUnavailable):
        service.chain_history()


def test_chain_history_reports_slots_and_txids():
    service, _pool, _clock = _service(n=1)
    chain = _chain(("set", "a", 1), ("set", "b", 2), ("set", "c", 3))
    service.ingest_snapshots({0: _reply(0, chain)})
    history = service.chain_history(start=1, limit=1)
    assert history["height"] == 3
    assert history["tip"] == chain[-1].digest
    assert [block["slot"] for block in history["blocks"]] == [1]
    assert history["blocks"][0]["txids"] == ["c1"]


# -- incremental verified read path -------------------------------------------

_KEYS = ("a", "b", "c", "d")


def _random_chain(rng: random.Random, length: int) -> tuple[Block, ...]:
    """A linked chain from slot 1 over a small keyspace: some blocks are
    empty and some transactions recur in later blocks (first execution
    wins), the shapes a live replica's chain has."""
    pool = []
    for i in range(2 * length + 1):
        key = rng.choice(_KEYS)
        op = rng.choice(
            [("set", key, rng.randrange(100)), ("incr", key, rng.randrange(1, 5)), ("del", key)]
        )
        pool.append(Transaction(txid=f"r{i}", op=op))
    blocks: list[Block] = []
    parent = GENESIS_DIGEST
    for slot in range(1, length + 1):
        payload = tuple(rng.sample(pool, rng.randrange(0, 4)))
        block = Block.create(slot=slot, parent=parent, payload=payload)
        blocks.append(block)
        parent = block.digest
    return tuple(blocks)


def _assert_serves_replay_of(service: GatewayService, chain: tuple[Block, ...]) -> None:
    """Reads, history and the store digest equal ``replay_chain(chain)``."""
    expected = replay_chain(chain)
    items = dict(expected.items())
    for key in _KEYS:
        view = service.read_state(key)
        assert (view.found, view.value) == (key in items, items.get(key))
        assert view.chain_length == len(chain)
    history = service.chain_history(limit=len(chain) + 1)
    assert history["height"] == len(chain)
    assert [b["digest"] for b in history["blocks"]] == [b.digest for b in chain]
    assert [b["txids"] for b in history["blocks"]] == [[t.txid for t in b.payload] for b in chain]
    assert service._store.state_digest() == expected.state_digest()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_incremental_reads_equal_a_full_replay_over_random_schedules(seed):
    """Random chains, random refresh schedules — replicas advancing at
    different paces, a laggard that sometimes misses a round, a replica
    restarted onto a shorter chain, rounds where only two replicas
    answer (1–1 ties) — and after every refresh the gateway serves
    exactly ``replay_chain`` of a prefix of the chain, never a shorter
    one than before, and asks for the suffix above it or resyncs."""
    rng = random.Random(seed)
    canon = _random_chain(rng, rng.randrange(1, 13))
    top = len(canon)

    async def scenario():
        service, pool, _clock = _service(n=4)
        heights = [0, 0, 0, 0]
        served = 0

        async def refresh(responders):
            nonlocal served
            pool.canned_snapshots = {i: _reply(i, canon[: heights[i]]) for i in responders}
            await service.refresh_snapshots()
            assert pool.snapshot_heights[-1] in (0, served)
            if service.has_snapshot:
                height = service.chain_history()["height"]
                assert height >= served, "the served history went backwards"
                served = height
                _assert_serves_replay_of(service, canon[:served])

        for _round in range(8):
            for i in (0, 1):
                heights[i] = min(top, heights[i] + rng.randrange(0, 4))
            heights[2] = min(top, heights[2] + rng.randrange(0, 2))  # the laggard
            if rng.random() < 0.2:
                heights[3] = rng.randrange(0, heights[3] + 1)  # restarted, shorter
            else:
                heights[3] = min(top, heights[3] + rng.randrange(0, 4))
            roll = rng.random()
            if roll < 0.2:
                responders = rng.sample(range(4), 2)  # two answers: often a 1-1 tie
            elif roll < 0.4:
                responders = [0, 1, 3]  # the laggard missed the round
            else:
                responders = range(4)
            await refresh(responders)
        heights[:] = [top] * 4
        await refresh(range(4))
        await refresh(range(4))  # nothing new: the anchor alone re-verifies
        assert served == top
        assert pool.snapshot_heights[-1] == top

    asyncio.run(scenario())


def test_refresh_asks_for_the_suffix_above_the_verified_height():
    async def scenario():
        service, pool, _clock = _service(n=4)
        canon = _random_chain(random.Random(7), 6)
        pool.canned_snapshots = {i: _reply(i, canon[:3]) for i in range(4)}
        assert await service.refresh_snapshots() == 4
        # Two replicas at 4, two at 5: the tie goes to the greater height.
        pool.canned_snapshots = {i: _reply(i, canon[: 4 + i % 2]) for i in range(4)}
        assert await service.refresh_snapshots() == 2
        assert pool.snapshot_heights == [0, 3]
        _assert_serves_replay_of(service, canon[:5])

    asyncio.run(scenario())


def test_a_round_answering_an_older_height_is_ignored():
    """Two refreshes can overlap; replies to a request made before the
    other one moved the chain are neither adopted nor a failure."""
    canon = _random_chain(random.Random(5), 6)
    service, pool = _synced_service(canon, 4)
    stale = {i: _suffix_reply(i, canon[2:6], _digest(canon)) for i in range(4)}
    assert service.ingest_snapshots(stale, from_height=3) == 0
    _assert_serves_replay_of(service, canon[:4])
    pool.canned_snapshots = {i: _reply(i, canon) for i in range(4)}
    assert asyncio.run(service.refresh_snapshots()) == 4
    assert pool.snapshot_heights[-1] == 4  # still synced: no resync
    _assert_serves_replay_of(service, canon)


def _synced_service(canon: tuple[Block, ...], height: int) -> tuple[GatewayService, StubPool]:
    service, pool, _clock = _service(n=4)
    pool.canned_snapshots = {i: _reply(i, canon[:height]) for i in range(4)}
    asyncio.run(service.refresh_snapshots())
    _assert_serves_replay_of(service, canon[:height])
    return service, pool


def _digest(chain: tuple[Block, ...]) -> str:
    return replay_chain(chain).state_digest()


def _suffix_reply(node_id: int, blocks: tuple[Block, ...], digest: str) -> CollectReply:
    """An incremental reply: ``blocks`` from the anchor on, claiming ``digest``."""
    return CollectReply(node_id, blocks, digest, (), blocks_applied=0, txns_applied=0)


def _assert_rejected(service, pool, canon, height, replies, from_height) -> None:
    """The round changes nothing served and the next request resyncs."""
    assert service.ingest_snapshots(replies, from_height) == 0
    _assert_serves_replay_of(service, canon[:height])
    pool.canned_snapshots = {}
    asyncio.run(service.refresh_snapshots())
    assert pool.snapshot_heights[-1] == 0


def _fork_at(canon: tuple[Block, ...], index: int) -> tuple[Block, ...]:
    """``canon`` up to ``index``, then a different block there and after."""
    forked = list(canon[:index])
    parent = forked[-1].digest if forked else GENESIS_DIGEST
    for slot in range(index + 1, len(canon) + 1):
        block = Block.create(
            slot=slot, parent=parent, payload=(Transaction(f"fork{slot}", ("set", "a", -slot)),)
        )
        forked.append(block)
        parent = block.digest
    return tuple(forked)


def test_an_unlinked_anchor_is_rejected_and_forces_a_resync():
    canon = _random_chain(random.Random(11), 6)
    service, pool = _synced_service(canon, 3)
    # A different block at the gateway's tip, and a digest that applying
    # the rest of the fork on the gateway's own state would reach.
    forked = _fork_at(canon, 2)
    replies = {
        i: _suffix_reply(i, forked[2:5], _digest(canon[:3] + forked[3:5])) for i in range(3)
    }
    _assert_rejected(service, pool, canon, 3, replies, from_height=3)
    # A suffix whose anchor is the tip but whose next block names
    # another parent does not link either.
    service, pool = _synced_service(canon, 3)
    unlinked = (canon[2], replace(canon[3], parent=forked[2].digest))
    replies = {i: _suffix_reply(i, unlinked, _digest(canon[:4])) for i in range(3)}
    _assert_rejected(service, pool, canon, 3, replies, from_height=3)
    # The resync itself will not drop the served tip for a fork.
    pool.canned_snapshots = {i: _reply(i, forked[:5]) for i in range(3)}
    assert asyncio.run(service.refresh_snapshots()) == 0
    _assert_serves_replay_of(service, canon[:3])


def test_a_suffix_replaying_to_another_digest_is_rejected_and_rolled_back():
    canon = _random_chain(random.Random(13), 6)
    service, pool = _synced_service(canon, 3)
    # The linked, honest suffix, claiming a digest its replay misses.
    assert _digest(canon[:4]) != _digest(canon[:5])
    replies = {i: _suffix_reply(i, canon[2:5], _digest(canon[:4])) for i in range(3)}
    _assert_rejected(service, pool, canon, 3, replies, from_height=3)
    # The full resync then catches up to the honest majority.
    pool.canned_snapshots = {i: _reply(i, canon[:5]) for i in range(4)}
    assert asyncio.run(service.refresh_snapshots()) == 4
    assert pool.snapshot_heights[-1] == 0
    _assert_serves_replay_of(service, canon[:5])


def test_a_supported_height_below_the_tip_never_rolls_the_gateway_back():
    """Lag is no evidence of corruption: replicas agreeing below the
    served tip change nothing, and the next request stays incremental."""
    canon = _random_chain(random.Random(17), 8)
    service, pool = _synced_service(canon, 5)
    lagging = _digest(canon[:3])
    replies = {
        0: _suffix_reply(0, (), lagging),  # two replicas below the tip agree
        1: _suffix_reply(1, (), lagging),
        2: _suffix_reply(2, canon[4:6], _digest(canon[:6])),
        3: _suffix_reply(3, canon[4:7], _digest(canon[:7])),
    }
    assert service.ingest_snapshots(replies, from_height=5) == 0
    _assert_serves_replay_of(service, canon[:5])
    pool.canned_snapshots = {
        0: _reply(0, canon[:3]),
        1: _reply(1, canon[:3]),
        2: _reply(2, canon[:6]),
        3: _reply(3, canon[:7]),
    }
    assert asyncio.run(service.refresh_snapshots()) == 0
    assert pool.snapshot_heights[-1] == 5
    _assert_serves_replay_of(service, canon[:5])
    # A full resync sees the same lagging pair: still no rollback.
    service._synced = False
    assert asyncio.run(service.refresh_snapshots()) == 0
    assert pool.snapshot_heights[-1] == 0
    _assert_serves_replay_of(service, canon[:5])
    pool.canned_snapshots = {i: _reply(i, canon[:7]) for i in range(4)}
    assert asyncio.run(service.refresh_snapshots()) == 4
    _assert_serves_replay_of(service, canon[:7])
    asyncio.run(service.refresh_snapshots())
    assert pool.snapshot_heights[-1] == 7


def test_a_lone_replica_cannot_move_the_served_state():
    """Four replicas at four heights: the one claiming the greatest
    height, with a fabricated but self-consistent chain, does not win
    the 1-1-1-1 tie — only a claim f+1 replicas share moves the state."""
    canon = _random_chain(random.Random(19), 8)
    service, pool = _synced_service(canon, 3)
    forged = _fork_at(canon, 3)
    pool.canned_snapshots = {
        0: _reply(0, forged),
        1: _reply(1, canon[:4]),
        2: _reply(2, canon[:5]),
        3: _reply(3, canon[:6]),
    }
    assert asyncio.run(service.refresh_snapshots()) == 0
    assert pool.snapshot_heights[-1] == 3  # nothing failed: still incremental
    _assert_serves_replay_of(service, canon[:3])
    # The same forger on the full-resync path fares no better.
    service._synced = False
    assert asyncio.run(service.refresh_snapshots()) == 0
    _assert_serves_replay_of(service, canon[:3])
    # Two honest replicas agreeing move the state past the forger.
    pool.canned_snapshots[1] = _reply(1, canon[:6])
    assert asyncio.run(service.refresh_snapshots()) == 2
    _assert_serves_replay_of(service, canon[:6])
    assert service.read_state("a").supported_by == 2


def test_supporters_must_agree_on_the_tip_block():
    """A faulty replica echoing the honest state digest and height over
    a different, self-consistent chain (the same transactions in a block
    of another slot) is not a second supporter of the honest claim."""
    canon = _random_chain(random.Random(37), 5)
    service, _pool = _synced_service(canon, 3)
    twin = Block.create(slot=canon[3].slot + 10, parent=canon[2].digest, payload=canon[3].payload)
    digest = _digest(canon[:4])
    assert _digest(canon[:3] + (twin,)) == digest
    replies = {
        0: _suffix_reply(0, (canon[2], twin), digest),
        1: _suffix_reply(1, canon[2:4], digest),
    }
    assert service.ingest_snapshots(replies, from_height=3) == 0
    _assert_serves_replay_of(service, canon[:3])
    replies[2] = _suffix_reply(2, canon[2:4], digest)
    assert service.ingest_snapshots(replies, from_height=3) == 2
    _assert_serves_replay_of(service, canon[:4])


def test_a_supporter_with_a_broken_chain_is_passed_over():
    """A faulty replica can echo the honest claim (digest, height, tip)
    with a chain that does not link, or send something that is no chain;
    the next supporter's chain is used and the round still moves the
    state."""
    canon = _random_chain(random.Random(29), 6)
    service, _pool = _synced_service(canon, 3)
    digest = _digest(canon[:6])
    broken = (canon[2], replace(canon[3], payload=()), canon[4], canon[5])
    replies = {0: _suffix_reply(0, broken, digest)}
    replies.update({i: _suffix_reply(i, canon[2:6], digest) for i in (1, 2)})
    replies[3] = _suffix_reply(3, 6, digest)  # not a chain at all: ignored
    assert service.ingest_snapshots(replies, from_height=3) == 3
    _assert_serves_replay_of(service, canon)
    assert service.read_state("a").replica == 1


def test_a_suffix_with_a_malformed_command_is_rolled_back():
    """A replay that raises partway is a failed verification, not a
    crash: the partly applied store is rolled back and the gateway
    resyncs; a full chain carrying the command is refused the same way."""
    canon = _random_chain(random.Random(23), 6)
    service, pool = _synced_service(canon, 3)
    payload = (Transaction("bad0", ("set", "a", "text")), Transaction("bad1", ("incr", "a", 1)))
    bad = Block.create(slot=4, parent=canon[2].digest, payload=payload)
    replies = {i: _suffix_reply(i, (canon[2], bad), _digest(canon[:3])) for i in range(3)}
    _assert_rejected(service, pool, canon, 3, replies, from_height=3)
    pool.canned_snapshots = {
        i: _suffix_reply(i, canon[:3] + (bad,), _digest(canon[:3])) for i in range(4)
    }
    assert asyncio.run(service.refresh_snapshots()) == 0
    assert pool.snapshot_heights[-1] == 0
    _assert_serves_replay_of(service, canon[:3])


def test_metrics_and_health_summarize_the_service():
    async def scenario():
        service, pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        service.submit("bob", _txn(1))
        _commit(service, "t0", n_acks=2)
        metrics = service.metrics()
        assert metrics["submitted"] == 2
        assert metrics["committed"] == 1
        assert metrics["pending"] == 1
        assert metrics["clients"] == 2
        health = service.health()
        assert health["status"] == "ok"
        assert health["ack_quorum"] == 2
        # Losing all but one replica degrades health (quorum is 2).
        pool.live = {0}
        assert service.health()["status"] == "degraded"
        await service.stop()

    asyncio.run(scenario())


def test_metrics_view_is_backed_by_the_registry():
    """The counters the routes expose ARE registry counters — one
    source of truth, surfaced flat for the old callers and under
    ``registry`` (gateway.* namespace) for scrape consumers."""

    async def scenario():
        service, _pool, _clock = _service(n=4, rate=1000.0, burst=1000.0)
        await service.start(start_consensus=False)
        service.submit("alice", _txn(0))
        metrics = service.metrics()
        assert metrics["submitted"] == 1
        assert metrics["registry"]["gateway.submitted"] == 1.0
        assert service.registry.counter("gateway.submitted").value == 1.0
        await service.stop()

    asyncio.run(scenario())


def test_cluster_metrics_aggregates_per_replica_scrapes():
    async def scenario():
        service, pool, _clock = _service(n=4)
        await service.start(start_consensus=False)
        pool.canned_scrapes = {
            node_id: MetricsReply(
                node_id=node_id,
                items=(("consensus.commits", 7.0),),
                events=3,
            )
            for node_id in range(4)
        }
        view = await service.cluster_metrics()
        assert sorted(view["replicas"]) == ["0", "1", "2", "3"]
        replica = view["replicas"]["2"]
        assert replica["metrics"]["consensus.commits"] == 7.0
        assert replica["events"] == 3
        assert view["replicas_live"] == 4
        assert "gateway.submitted" in view["gateway"]
        await service.stop()

    asyncio.run(scenario())
