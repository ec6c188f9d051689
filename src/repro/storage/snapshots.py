"""Replica state snapshots: one self-validating file, atomically replaced.

A snapshot is a single :class:`~repro.net.codec.SnapshotImage` frame —
the wire codec again, so the file format is deterministic, versioned,
and rejects truncation the same way the WAL does.  It carries the
*full* finalized chain, not just the tip: after WAL compaction the
snapshot is the only copy of the compacted prefix, and recovery must be
able to rebuild the executed state by replaying it (blocks carry their
transactions, so replay reconstitutes the kvstore, the dedup ledger,
and the applied-txid frontier in one pass through the replica's normal
execution path).

Writes follow the ``merge_record`` discipline — temp file in the same
directory, ``fsync``, ``os.replace``, directory ``fsync`` — so readers
see either the old complete snapshot or the new complete snapshot,
never a torn one.  Loads validate before trusting: the frame must
decode, the chain must hash-link from genesis with recomputed digests,
and the recorded state digest must match one recomputed from the
kv image + applied frontier.  Anything less comes back as ``None`` and
recovery falls through to the WAL (and, ultimately, peer state
transfer).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from repro.multishot.block import GENESIS_DIGEST, extends
from repro.net.codec import WIRE_CODEC, CodecError, SnapshotImage

#: Snapshot file name inside a replica's data dir.
SNAPSHOT_NAME = "snapshot.bin"


def state_digest_of(kv_items: tuple, applied_txids: tuple) -> str:
    """The :meth:`~repro.smr.kvstore.KVStore.state_digest` a store with
    exactly this image would report (same material, byte for byte)."""
    material = repr(sorted(kv_items)) + "|" + repr(list(applied_txids))
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def snapshot_image(chain: tuple, kv_items: tuple, applied_txids: tuple) -> SnapshotImage:
    """Build the image for ``chain`` + executed state (tip fields derived)."""
    tip = chain[-1]
    return SnapshotImage(
        tip_slot=tip.slot,
        tip_digest=tip.digest,
        state_digest=state_digest_of(kv_items, applied_txids),
        applied_txids=tuple(applied_txids),
        kv_items=tuple(kv_items),
        chain=tuple(chain),
    )


def write_snapshot(path: str | Path, image: SnapshotImage) -> None:
    """Atomically replace ``path`` with ``image`` (temp + ``os.replace``)."""
    path = Path(path)
    payload = WIRE_CODEC.encode_frame(image)
    fd, tmp_path = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def validate_snapshot(image: SnapshotImage) -> bool:
    """Whether ``image`` is internally consistent (see module docs)."""
    chain = image.chain
    if not chain or not extends(GENESIS_DIGEST, chain):
        return False
    if [block.slot for block in chain] != list(range(1, len(chain) + 1)):
        return False
    if image.tip_slot != chain[-1].slot or image.tip_digest != chain[-1].digest:
        return False
    return state_digest_of(image.kv_items, image.applied_txids) == image.state_digest


def load_snapshot(path: str | Path) -> SnapshotImage | None:
    """The latest valid snapshot at ``path``, or ``None``.

    Missing file, partial/garbled frame, wrong frame type, or failed
    validation all degrade to ``None`` — a bad snapshot must never be
    worse than no snapshot.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return None
    if len(data) < 4:
        return None
    try:
        image = WIRE_CODEC.decode(data[4:])
    except CodecError:
        return None
    if not isinstance(image, SnapshotImage) or not validate_snapshot(image):
        return None
    return image
