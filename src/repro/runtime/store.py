"""On-disk ``RXPD`` index shards.

The packed tables are a *persistent* artifact, so a fresh
``repro batch``/``repro serve`` invocation attaches them instead of
re-walking the network at startup:

* :func:`write_shard` — atomically write a :class:`PackedIndex` to an
  ``RXPD`` shard file (the packed body under a disk header carrying
  its CRC-32 and the source network's fingerprint);
* :meth:`PackedIndex.from_mmap` — attach the shard read-only through
  ``mmap``; every attaching process (server, concurrent CLI runs)
  shares the same physical pages via the OS page cache, and pool
  workers fork with the parent's mapping.

The shard body is CRC-stamped at write time and structurally validated
at attach time; :func:`verify_shard` re-checks the full checksum (the
deep, page-everything-in variant) for offline integrity audits.
"""

from __future__ import annotations

import os

from .pack import PackedIndex, read_disk_header


def write_shard(
    index: PackedIndex,
    path: "str | os.PathLike[str]",
    fingerprint: str | None = None,
) -> dict:
    """Atomically write ``index`` to an ``RXPD`` shard file.

    The payload is staged to a sibling temp file and ``os.replace``-d
    into place, so a concurrent reader never maps a half-written shard.
    ``fingerprint`` (the source network's SHA-256 hex digest) is
    stamped into the header so attaches can detect a network/shard
    mismatch.  Returns a stats dict (path, bytes, concepts).
    """
    path = os.fspath(path)
    payload = index.to_disk_payload(fingerprint=fingerprint)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return {
        "path": path,
        "shard_bytes": len(payload),
        "concepts": len(index),
    }


def read_shard_header(path: "str | os.PathLike[str]") -> dict:
    """Parse and validate one shard's 32-byte header (no body I/O).

    Returns ``{version, body_bytes, file_bytes, fingerprint, crc}``
    with ``fingerprint`` the stamped hex prefix or ``None`` when the
    shard was written without one, and ``crc`` the stamped CRC-32 of
    the body.  The checks and their typed
    :class:`~repro.runtime.pack.PackedIndexError` family are
    :meth:`PackedIndex.from_mmap`'s own
    (:func:`~repro.runtime.pack.read_disk_header`): bad magic,
    unsupported version, foreign byte order, truncation.
    """
    with open(os.fspath(path), "rb") as fh:
        return read_disk_header(fh)


def verify_shard(path: "str | os.PathLike[str]") -> dict:
    """Deep-verify one shard: header, structure, and full body CRC.

    Pages the whole file in (that is the point); returns the shard's
    stats dict.  Raises
    :class:`~repro.runtime.pack.PackedIndexTruncatedError` /
    :class:`~repro.runtime.pack.PackedIndexCRCError` on damage.
    """
    header = read_shard_header(path)
    stats = PackedIndex.from_mmap(path, verify=True).stats()
    return {
        "path": os.fspath(path),
        "concepts": stats["concepts"],
        "ancestor_entries": stats["ancestor_entries"],
        "shard_bytes": header["file_bytes"],
        "fingerprint": header["fingerprint"],
    }
