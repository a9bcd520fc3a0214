"""Packed semantic index: interned flat-array tables over one RXPD body.

Knowledge-based WSD spends almost all of its time in repeated taxonomy
walks: hypernym closures, depths, lowest common subsumers, information
content and gloss token bags are recomputed for the same concepts over
and over (conceptual-distance and conceptual-density methods amortize
exactly these with precomputed taxonomy tables — Agirre & Rigau).
:class:`PackedIndex` walks the network **once**, interns concept ids
and gloss tokens to dense integers, and lays the results out as flat
CSR-style tables (offsets + values):

* **ancestor closures** — one ``(concept, distance)`` run per concept,
  in the exact BFS order the network produces;
* **depth / information-content tables** — one slot per concept;
* **gloss bags** — token-id sequences (order preserved: the extended
  Lesk overlap is sequence-sensitive) plus per-concept token *sets* for
  an exact-match quick reject.

The tables live in one ``RXPD`` body — uncompressed, 8-byte aligned
sections — and the index always reads them through typed
``memoryview`` casts over that body.  A heap build
(``PackedIndex(network)``) views a private ``bytes`` object;
:meth:`PackedIndex.from_mmap` views a read-only mapping of a shard
file written by :func:`repro.runtime.store.write_shard`, so every
process attaching the same shard shares its pages.  Both backings go
through the same lazy attach path and the same kernels.

The similarity kernels are **bit-identical** to the network walk.
Each has one body over slots (:meth:`PackedIndex.slot`, the dense int
id of a concept): :meth:`PackedIndex.pair_terms_of_slots` for the
edge/node terms, :meth:`PackedIndex.lesk_similarity_of_slots` and
:meth:`PackedIndex.lesk_upper_bound_of_slots` for gloss overlap.  The
lowest-common-subsumer tie-break is the network's total order
``(depth, -distance-sum, concept-id)``.  Their one consumer is the
slot path of :class:`repro.similarity.combined.CombinedSimilarity`,
which :class:`repro.core.framework.XSDF` builds from its ``index=``;
the component measures in :mod:`repro.similarity` walk the network
and are the oracle the parity suite in ``tests/similarity`` holds that
path ``==`` to::

    packed = PackedIndex(network)
    xsdf = XSDF(network, config, index=packed)   # drop-in index=
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time
import zlib
from array import array
from typing import BinaryIO, Iterable

from ..semnet.ic import InformationContent
from ..semnet.network import SemanticNetwork, UnknownConceptError
from ..similarity.gloss import extended_gloss_tokens

_VERSION = 1

#: On-disk shard magic (``repro pack`` output).
_DISK_MAGIC = b"RXPD"

#: Disk header: magic, version, byteorder flag, pad, CRC-32 of the
#: body, body length, and a 16-byte network fingerprint prefix (SHA-256
#: of the source network, zero when unknown) so attaching processes can
#: refuse a shard built from a different network.  32 bytes, so the
#: body starts 8-byte aligned.
_DISK_HEADER = struct.Struct("<4sHBxII16s")

#: The header's byte-order flag for this host: 0 little-, 1 big-endian.
_BYTEORDER = 0 if sys.byteorder == "little" else 1

#: The fingerprint field of a shard written without a fingerprint.
_NO_DIGEST = b"\x00" * 16

#: Meta-section flags: gloss tables (1) and IC table (2) present.
#: Every index packs both; the bits stay for format compatibility.
_FLAGS = 3

#: The IC smoothing the meta section records (the
#: :class:`~repro.semnet.ic.InformationContent` default every build uses).
_IC_SMOOTHING = 1.0

#: Attribute names materialized on first access.  Attach leaves the
#: string tables undecoded and the per-concept memo lists unallocated
#: (together they are the bulk of attach cost); the first access of any
#: of these materializes them all.
_LAZY_ATTRS = frozenset({
    "_ids", "_id_of", "_tokens", "_depths", "_ic_list",
    "_closures", "_bags", "_bag_sets", "_bag_positions",
})

class PackedIndexError(ValueError):
    """Raised when a packed-index shard is truncated or corrupted."""


class PackedIndexTruncatedError(PackedIndexError):
    """The shard ends before the header/body it declares.

    Actionable: the file was cut short in transit or on disk — rewrite
    it; the bytes that *are* present are intact.
    """


class PackedIndexCRCError(PackedIndexError):
    """The body checksum does not match.

    Actionable: the shard is the right length but its content was
    altered — a corrupt write, a bad copy, or injected bitrot; re-pack
    it from the network.
    """


def read_disk_header(fh: BinaryIO) -> dict:
    """Read and validate the ``RXPD`` header of the open shard file ``fh``.

    The one parser of the disk header: :meth:`PackedIndex.from_mmap`
    and :func:`repro.runtime.store.read_shard_header` both call it.
    ``fh`` is a binary file positioned at its start.  Returns
    ``{version, body_bytes, file_bytes, fingerprint, crc}`` with
    ``fingerprint`` the stamped hex prefix or ``None`` when the shard
    was written without one, and ``crc`` the stamped CRC-32 of the
    body.  Raises :class:`PackedIndexTruncatedError` when the file is
    shorter than the header or than the body it declares, and
    :class:`PackedIndexError` for a bad magic, an unsupported version
    or a foreign byte order.
    """
    size = os.fstat(fh.fileno()).st_size
    raw = fh.read(_DISK_HEADER.size)
    if len(raw) < _DISK_HEADER.size:
        raise PackedIndexTruncatedError(
            "shard file shorter than the RXPD header"
        )
    magic, version, byteorder, crc, body_len, digest = _DISK_HEADER.unpack(
        raw
    )
    if magic != _DISK_MAGIC:
        raise PackedIndexError("not an RXPD shard file (bad magic)")
    if version != _VERSION:
        raise PackedIndexError(f"unsupported shard version {version}")
    if byteorder != _BYTEORDER:
        raise PackedIndexError("shard file has a foreign byte order")
    if _DISK_HEADER.size + body_len > size:
        raise PackedIndexTruncatedError(
            f"shard truncated: header declares {body_len} body bytes, "
            f"{size - _DISK_HEADER.size} present"
        )
    return {
        "version": version,
        "body_bytes": body_len,
        "file_bytes": size,
        "fingerprint": digest.hex() if digest != _NO_DIGEST else None,
        "crc": crc,
    }


def _encode_strings(items: Iterable[str]) -> bytes:
    """NUL-join a string table (ids/tokens must not contain NUL)."""
    table = tuple(items)
    if any("\x00" in item for item in table):
        raise PackedIndexError("string table entries must not contain NUL")
    return "\x00".join(table).encode("utf-8")


def _decode_strings(blob: bytes) -> tuple[str, ...]:
    """Inverse of :func:`_encode_strings` (empty blob -> empty table)."""
    if not blob:
        return ()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PackedIndexError(f"string table undecodable: {exc}") from None
    return tuple(text.split("\x00"))


def _index_typecode(n: int) -> str:
    """Smallest unsigned array typecode that can hold ids ``< n``."""
    return "H" if n <= 0xFFFF else "I"


def _pad8(blob: bytes) -> bytes:
    """``blob`` zero-padded to a multiple of 8 bytes."""
    remainder = len(blob) % 8
    return blob if remainder == 0 else blob + b"\x00" * (8 - remainder)


def _array_section(arr: array) -> bytes:
    """One array payload: typecode, pad, count, raw data.

    The 8-byte prologue keeps the raw element data 8-aligned inside an
    8-aligned section, so ``memoryview.cast`` over the body serves even
    ``"d"`` tables without copying.
    """
    return (
        arr.typecode.encode("ascii")
        + b"\x00\x00\x00"
        + struct.pack("<I", len(arr))
        + arr.tobytes()
    )


def _array_view(section: memoryview) -> memoryview:
    """Zero-copy typed view over one array payload."""
    if len(section) < 8:
        raise PackedIndexTruncatedError("array section truncated")
    (count,) = struct.unpack_from("<I", section, 4)
    try:
        typecode = bytes(section[:1]).decode("ascii")
        itemsize = array(typecode).itemsize
    except ValueError as exc:
        raise PackedIndexError(f"array section malformed: {exc}") from None
    data = section[8 : 8 + count * itemsize]
    if len(data) != count * itemsize:
        raise PackedIndexTruncatedError(
            f"array section declares {count} items, "
            f"holds {len(data) // max(1, itemsize)}"
        )
    return data.cast(typecode)


def _network_body(network: SemanticNetwork) -> bytes:
    """Walk ``network`` once and lay its tables out as an RXPD body.

    Every value is the one the network walk produces (closures in its
    BFS order, depths by :meth:`SemanticNetwork.depth`'s root-distance
    formula, the default-smoothed IC table, :func:`extended_gloss_tokens`
    bags), which is what keeps the packed kernels bit-identical to it.
    Each concept's own gloss is tokenized once and reused for every
    neighbour whose extended bag includes it.
    """
    ids = tuple(concept.id for concept in network)
    id_of = {cid: i for i, cid in enumerate(ids)}
    n = len(ids)

    anc_off = array("I", [0])
    anc_cid = array(_index_typecode(n))
    anc_dist = array("I")
    depths = array("I")
    for cid in ids:
        closure = network.hypernym_closure(cid)
        for ancestor, dist in closure.items():
            anc_cid.append(id_of[ancestor])
            anc_dist.append(dist)
        anc_off.append(len(anc_cid))
        depths.append(min(
            (dist for ancestor, dist in closure.items()
             if not network.hypernyms(ancestor)),
            default=0,
        ))

    own_gloss = {cid: network.concept(cid).gloss_tokens() for cid in ids}
    token_of: dict[str, int] = {}
    flat: list[int] = []
    gloss_off = array("I", [0])
    for cid in ids:
        for token in extended_gloss_tokens(
            network, cid, gloss_of=own_gloss.__getitem__
        ):
            flat.append(token_of.setdefault(token, len(token_of)))
        gloss_off.append(len(flat))
    gloss_tok = array(_index_typecode(len(token_of)), flat)

    # An empty network has no frequency mass to take IC from.
    ic = InformationContent(network, smoothing=_IC_SMOOTHING) if n else None
    ic_values = array("d", [ic.ic(cid) for cid in ids] if ic else [])
    meta = struct.pack(
        "<IIBdd",
        n,
        max(depths, default=1),
        _FLAGS,
        _IC_SMOOTHING,
        ic.max_ic if ic else 1.0,
    )
    sections = [
        meta,
        _encode_strings(ids),
        _array_section(depths),
        _array_section(anc_off),
        _array_section(anc_cid),
        _array_section(anc_dist),
        _encode_strings(token_of),
        _array_section(gloss_off),
        _array_section(gloss_tok),
        _array_section(ic_values),
    ]
    return b"".join(
        _pad8(struct.pack("<II", len(section), 0) + section)
        for section in sections
    )


def _interned_overlap_score(tokens_a: list[int], tokens_b: list[int]) -> float:
    """Greedy extended-Lesk overlap over interned token-id sequences.

    The same procedure as :func:`repro.similarity.gloss
    ._ngram_overlap_score` — repeatedly find the longest common
    contiguous run, score it ``len**2``, remove it from both sides —
    but the DP rows are *sparse*: only positions where the tokens
    actually match are visited (non-match cells are always zero and can
    never beat the running best), and comparisons are int equality
    instead of string equality.  Identical removal sequence, identical
    score, a fraction of the work.
    """
    a = list(tokens_a)
    b = list(tokens_b)
    score = 0.0
    while a and b:
        positions: dict[int, list[int]] = {}
        for j, token in enumerate(b):
            positions.setdefault(token, []).append(j)
        best_len = 0
        best_a = best_b = -1
        prev: dict[int, int] = {}
        for i, token in enumerate(a):
            hits = positions.get(token)
            row: dict[int, int] = {}
            if hits:
                prev_get = prev.get
                for j in hits:
                    length = prev_get(j - 1, 0) + 1
                    row[j] = length
                    if length > best_len:
                        best_len = length
                        best_a = i - length + 1
                        best_b = j - length + 1
            prev = row
        if best_len == 0:
            break
        score += float(best_len * best_len)
        del a[best_a : best_a + best_len]
        del b[best_b : best_b + best_len]
    return score


def _token_positions(tokens: Iterable[int]) -> dict[int, list[int]]:
    """Token id -> its ascending positions in one token sequence."""
    positions: dict[int, list[int]] = {}
    for i, token in enumerate(tokens):
        positions.setdefault(token, []).append(i)
    return positions


def _shared_count(
    shared: Iterable[int],
    positions_a: dict[int, list[int]],
    positions_b: dict[int, list[int]],
) -> int:
    """Multiset-intersection size ``sum_t min(count_a(t), count_b(t))``."""
    m = 0
    for token in shared:
        count_a = len(positions_a[token])
        count_b = len(positions_b[token])
        m += count_a if count_a < count_b else count_b
    return m


def _isolated(shared: Iterable[int], positions: dict[int, list[int]]) -> bool:
    """True when no two adjacent positions both hold a ``shared`` token."""
    taken: set[int] = set()
    for token in shared:
        taken.update(positions[token])
    return taken.isdisjoint([p + 1 for p in taken])


def _gloss_overlap(
    tokens_a: list[int],
    tokens_b: list[int],
    positions_a: dict[int, list[int]],
    positions_b: dict[int, list[int]],
    shared: frozenset[int],
) -> float:
    """:func:`_interned_overlap_score`, answered in closed form when it can be.

    ``positions_*`` are :func:`_token_positions` of the two sequences
    and ``shared`` the token ids both contain.  When, in either
    sequence, no two adjacent positions both hold shared tokens, the
    greedy procedure returns exactly ``float(m)`` for the
    multiset-intersection size ``m``: every common run has length 1,
    removing one shared token from that sequence leaves two unshared
    tokens adjacent (so the condition survives every step, and the
    shared set only shrinks), and the loop stops after exactly ``m``
    steps of ``+= 1.0``.  Every other pair runs the DP unchanged, in
    the caller's argument order.
    """
    if _isolated(shared, positions_a) or _isolated(shared, positions_b):
        return float(_shared_count(shared, positions_a, positions_b))
    return _interned_overlap_score(tokens_a, tokens_b)


class PackedIndex:
    """Interned flat-array semantic index over one ``RXPD`` body.

    Pass it as ``index=`` to :class:`repro.core.framework.XSDF` (or
    to :class:`repro.similarity.combined.CombinedSimilarity`, whose
    slot path is the kernels' one consumer) to route scoring through
    the packed kernels.  All scores are bit-identical to the plain
    network walk.

    Parameters
    ----------
    network:
        The network to index (not mutated; the packed tables are a
        snapshot and hold **no** reference to it afterwards).
    """

    #: Path of the ``RXPD`` shard this index was attached from (set by
    #: :meth:`from_mmap`; ``None`` for heap-built indexes).  It decides
    #: :attr:`backing`.
    shard_path: "str | None" = None

    def __init__(self, network: SemanticNetwork):
        start = time.perf_counter()
        self._attach_body(memoryview(_network_body(network)))
        self.build_seconds = time.perf_counter() - start

    # -- attach ---------------------------------------------------------------

    def _attach_body(self, body: memoryview) -> None:
        """Install typed views over one section body, strings deferred.

        Attach stays O(section count), not O(concepts): the id/token
        tables (the bulk of the body) are kept as raw views and decoded
        on the first access of any interned-string surface (see
        ``__getattr__``); the CSR arrays are served as typed views
        directly.
        """
        body_len = len(body)
        sections: list[memoryview] = []
        offset = 0
        while offset < body_len:
            if offset + 8 > body_len:
                raise PackedIndexTruncatedError("section length truncated")
            (length,) = struct.unpack_from("<I", body, offset)
            offset += 8
            if offset + length > body_len:
                raise PackedIndexTruncatedError("section payload truncated")
            sections.append(body[offset : offset + length])
            offset += (length + 7) & ~7
        if len(sections) != 10:
            raise PackedIndexError(
                f"expected 10 sections, found {len(sections)}"
            )
        try:
            n, max_depth, _flags, _smoothing, _max_ic = struct.unpack(
                "<IIBdd", sections[0]
            )
        except struct.error as exc:
            raise PackedIndexError(f"meta section malformed: {exc}") from None
        depths = _array_view(sections[2])
        anc_off = _array_view(sections[3])
        anc_cid = _array_view(sections[4])
        anc_dist = _array_view(sections[5])
        if len(anc_off) != n + 1 or len(depths) != n:
            raise PackedIndexError("taxonomy tables inconsistent")
        if len(anc_cid) != len(anc_dist) or (
            n and anc_off[-1] != len(anc_cid)
        ):
            raise PackedIndexError("ancestor tables inconsistent")
        gloss_off = _array_view(sections[7])
        gloss_tok = _array_view(sections[8])
        if len(gloss_off) != n + 1 or (
            n and gloss_off[-1] != len(gloss_tok)
        ):
            raise PackedIndexError("gloss tables inconsistent")
        ic_values = _array_view(sections[9])
        if len(ic_values) != n:
            raise PackedIndexError("IC table inconsistent")
        self._body = body
        self._lazy_blobs: tuple | None = (
            sections[1], sections[6], depths, ic_values
        )
        self._anc_off = anc_off
        self._anc_cid = anc_cid
        self._anc_dist = anc_dist
        self._gloss_off = gloss_off
        self._gloss_tok = gloss_tok
        self._n = n
        self.max_taxonomy_depth = max_depth
        self.build_seconds = 0.0

    def __getattr__(self, name: str):
        """Materialize the deferred string tables on first access.

        Only fires for attributes missing from the instance dict:
        attach leaves ``_ids``/``_id_of``/``_tokens``/``_depths``/
        ``_ic_list`` unset so it never pays the decode; the first
        interned lookup decodes them all at once, after which attribute
        access is back on the zero-overhead fast path.
        """
        if name in _LAZY_ATTRS and self.__dict__.get("_lazy_blobs") is not None:
            self.materialize()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def materialize(self) -> None:
        """Decode the deferred id/token/depth/IC tables (idempotent).

        A damaged table raises its :class:`PackedIndexError` here.
        ``CombinedSimilarity`` calls it at construction and the
        executor before its first fork, so a warmed pipeline never
        pays for (or trips over) the decode on its first document.
        """
        if self._lazy_blobs is None:
            return
        id_blob, token_blob, depths, ic_values = self._lazy_blobs
        ids = _decode_strings(bytes(id_blob))
        if len(ids) != self._n:
            raise PackedIndexError(
                f"id table declares {self._n} concepts, holds {len(ids)}"
            )
        n = self._n
        self._ids = ids
        self._id_of = {cid: i for i, cid in enumerate(ids)}
        self._tokens = _decode_strings(bytes(token_blob))
        self._depths = depths.tolist()
        self._ic_list = ic_values.tolist()
        self._closures: list[dict[int, int] | None] = [None] * n
        self._bags: list[list[int] | None] = [None] * n
        self._bag_sets: list[frozenset[int] | None] = [None] * n
        self._bag_positions: list[dict[int, list[int]] | None] = [None] * n
        self._lazy_blobs = None

    @classmethod
    def from_mmap(
        cls,
        path: "str | os.PathLike[str]",
        verify: bool = False,
        expect_fingerprint: str | None = None,
    ) -> "PackedIndex":
        """Attach zero-copy to an ``RXPD`` shard file on disk.

        The file is memory-mapped read-only and the CSR tables become
        typed ``memoryview`` casts over the mapping — no decode, no
        copy, and every process attaching the same shard shares the
        same physical pages through the OS page cache.  Attach is
        O(section count): the id/token string tables stay undecoded
        until first use, so attaching a 100k-concept shard touches a
        handful of pages.  The mapping is released when the index and
        every view into it are garbage.

        ``verify=True`` additionally checks the body CRC-32 (paging in
        the whole shard; the CLI ``--shard`` paths and the server
        always verify, while the default trusts the filesystem because
        the file was CRC-stamped by :meth:`to_disk_payload` and is
        validated structurally here).  ``expect_fingerprint`` (a network SHA-256
        hex digest) raises when the shard records a different source
        network or records none.  Raises
        ``FileNotFoundError``/``OSError`` for missing/unmappable files
        and the typed :class:`PackedIndexError` family for truncated or
        corrupted shards.
        """
        path = os.fspath(path)
        with open(path, "rb") as fh:
            header = read_disk_header(fh)
            if expect_fingerprint is not None:
                stamp = header["fingerprint"]
                if stamp is None:
                    raise PackedIndexError(
                        "shard carries no network fingerprint; re-pack it "
                        "with repro pack"
                    )
                expected = bytes.fromhex(expect_fingerprint)[:16].hex()
                if stamp[: len(expected)] != expected:
                    raise PackedIndexError(
                        "shard was packed from a different network "
                        "(fingerprint mismatch)"
                    )
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        start = time.perf_counter()
        body = memoryview(mapped)[
            _DISK_HEADER.size : _DISK_HEADER.size + header["body_bytes"]
        ]
        if verify and zlib.crc32(body) != header["crc"]:
            raise PackedIndexCRCError("shard corrupted (checksum mismatch)")
        packed = cls.__new__(cls)
        packed._attach_body(body)
        packed.shard_path = path
        packed.build_seconds = time.perf_counter() - start
        return packed

    def to_disk_payload(self, fingerprint: str | None = None) -> bytes:
        """The ``RXPD`` shard bytes: disk header + this index's body.

        The header records the body CRC-32 and the first 16 bytes of
        the source network's SHA-256 fingerprint (all zeros when
        unknown) so :meth:`from_mmap` can refuse a shard built from a
        different network.
        """
        digest = _NO_DIGEST
        if fingerprint:
            try:
                digest = bytes.fromhex(fingerprint)[:16]
            except ValueError:
                raise PackedIndexError(
                    "fingerprint must be a hex digest"
                ) from None
            if len(digest) < 16:
                digest = digest.ljust(16, b"\x00")
        body = self._body
        header = _DISK_HEADER.pack(
            _DISK_MAGIC,
            _VERSION,
            _BYTEORDER,
            zlib.crc32(body),
            len(body),
            digest,
        )
        return header + bytes(body)

    def __reduce__(self):
        """Refuse to pickle: pool workers fork with the index instead.

        Another process gets the tables from a shard file
        (:func:`~repro.runtime.store.write_shard`, then
        :meth:`from_mmap`), never from a pickled copy.
        """
        raise TypeError(
            "PackedIndex does not pickle; write it with "
            "repro.runtime.store.write_shard and attach the file with "
            "PackedIndex.from_mmap"
        )

    # -- interning ------------------------------------------------------------

    def slot(self, concept_id: str) -> int:
        """Dense integer id of one concept (raises on unknown ids)."""
        try:
            return self._id_of[concept_id]
        except KeyError:
            raise UnknownConceptError(concept_id) from None

    def concept_id(self, slot: int) -> str:
        """The concept-id string a dense integer id stands for."""
        return self._ids[slot]

    def __len__(self) -> int:
        # ``_n`` (not ``len(self._ids)``) so sizing an index never
        # forces the deferred string decode.
        return self._n

    # -- packed kernels -------------------------------------------------------

    def _closure(self, slot: int) -> dict[int, int]:
        """Interned ancestor->distance map of one concept (memoized)."""
        closure = self._closures[slot]
        if closure is None:
            lo, hi = self._anc_off[slot], self._anc_off[slot + 1]
            closure = dict(
                zip(self._anc_cid[lo:hi].tolist(),
                    self._anc_dist[lo:hi].tolist())
            )
            self._closures[slot] = closure
        return closure

    def pair_terms_of_slots(
        self, ia: int, ib: int
    ) -> tuple[int, int, int, int] | None:
        """``(lcs_slot, depth(lcs), dist(a, lcs), dist(b, lcs))`` or None.

        One fetch serves every taxonomic term: Wu-Palmer reads all
        four, Lin the LCS slot.  Scans the smaller closure for the
        max-key shared ancestor.  The selection key is the total order
        ``(depth, -distance-sum, concept-id)`` — exactly the network's
        tie-break, so both paths agree bit-for-bit, and the result is
        the same for either argument order (only the two distances
        swap).
        """
        closure_a = self._closure(ia)
        closure_b = self._closure(ib)
        if len(closure_a) <= len(closure_b):
            outer, other, outer_is_a = closure_a, closure_b, True
        else:
            outer, other, outer_is_a = closure_b, closure_a, False
        depths = self._depths
        other_get = other.get
        best = -1
        best_depth = -1
        best_sum = 0
        best_out = best_oth = 0
        for cid, dist_out in outer.items():
            dist_oth = other_get(cid)
            if dist_oth is None:
                continue
            depth = depths[cid]
            total = dist_out + dist_oth
            if best < 0 or depth > best_depth or (
                depth == best_depth and (
                    total < best_sum or (
                        total == best_sum
                        and self._ids[cid] > self._ids[best]
                    )
                )
            ):
                best = cid
                best_depth = depth
                best_sum = total
                best_out = dist_out
                best_oth = dist_oth
        if best < 0:
            return None
        if outer_is_a:
            return (best, best_depth, best_out, best_oth)
        return (best, best_depth, best_oth, best_out)

    def _bag(self, slot: int) -> list[int]:
        """Interned gloss token sequence of one concept (memoized)."""
        bag = self._bags[slot]
        if bag is None:
            lo, hi = self._gloss_off[slot], self._gloss_off[slot + 1]
            bag = self._gloss_tok[lo:hi].tolist()
            self._bags[slot] = bag
        return bag

    def _bag_set(self, slot: int) -> frozenset[int]:
        """Distinct token ids of one gloss bag (the shared-token set)."""
        bag_set = self._bag_sets[slot]
        if bag_set is None:
            bag_set = frozenset(self._bag(slot))
            self._bag_sets[slot] = bag_set
        return bag_set

    def _positions(self, slot: int) -> dict[int, list[int]]:
        """Token id -> ascending positions in one gloss bag (memoized).

        A token's multiplicity is the length of its list.
        """
        positions = self._bag_positions[slot]
        if positions is None:
            positions = _token_positions(self._bag(slot))
            self._bag_positions[slot] = positions
        return positions

    def lesk_upper_bound_of_slots(self, ia: int, ib: int) -> float:
        """Cheap exact upper bound on :meth:`lesk_similarity_of_slots`.

        Let ``m`` be the multiset-intersection size of the two token
        bags (``sum_t min(count_a(t), count_b(t))``).  Every maximal
        common run the greedy overlap removes is made of matched
        tokens, and runs are removed from both sides, so the removed
        lengths sum to at most ``m``; the raw score ``sum len_k**2``
        is therefore at most ``(sum len_k)**2 <= m**2``.  In floats:
        ``raw`` is an exactly-represented integer ``<= m**2``,
        ``sqrt`` is correctly rounded and ``m**2`` is a perfect
        square, so ``fl(sqrt(raw)) <= m`` exactly; division and
        ``min`` are monotone.  Hence ``min(1, m/shorter)`` bounds the
        true similarity in *float* arithmetic, which is what exact
        pruning requires.  Symmetric in ``ia`` and ``ib``.
        """
        if ia == ib:
            return 1.0
        shared = self._bag_set(ia) & self._bag_set(ib)
        if not shared:
            return 0.0
        m = _shared_count(shared, self._positions(ia), self._positions(ib))
        shorter = min(len(self._bag(ia)), len(self._bag(ib)))
        return min(1.0, m / shorter)

    def lesk_similarity_of_slots(self, ia: int, ib: int) -> float:
        """Normalized extended-Lesk gloss overlap of two slots, in that order.

        Bit-identical to :class:`repro.similarity.gloss
        .ExtendedLeskSimilarity`'s unpacked arithmetic: disjoint token
        sets short-circuit to the same 0.0 the full DP would produce,
        and :func:`_gloss_overlap` answers most other pairs in closed
        form before falling back to the DP, in the caller's argument
        order.
        """
        if ia == ib:
            return 1.0
        shared = self._bag_set(ia) & self._bag_set(ib)
        if not shared:
            return 0.0
        bag_a = self._bag(ia)
        bag_b = self._bag(ib)
        raw = _gloss_overlap(
            bag_a, bag_b, self._positions(ia), self._positions(ib), shared
        )
        shorter = min(len(bag_a), len(bag_b))
        return min(1.0, (raw ** 0.5) / shorter)

    def ic_of_slot(self, slot: int) -> float:
        """Packed information content of one interned concept slot."""
        return self._ic_list[slot]

    # -- query surface --------------------------------------------------------

    def hypernym_closure(self, concept_id: str) -> dict[str, int]:
        """Ancestor -> minimal IS-A distance (includes self at 0)."""
        slot = self.slot(concept_id)
        lo, hi = self._anc_off[slot], self._anc_off[slot + 1]
        ids = self._ids
        return {
            ids[cid]: dist
            for cid, dist in zip(self._anc_cid[lo:hi], self._anc_dist[lo:hi])
        }

    def depth(self, concept_id: str) -> int:
        """Minimal number of IS-A edges from a taxonomy root."""
        return self._depths[self.slot(concept_id)]

    def gloss_bag(self, concept_id: str) -> list[str]:
        """Extended-Lesk token bag of one concept (reconstructed strings)."""
        tokens = self._tokens
        return [tokens[t] for t in self._bag(self.slot(concept_id))]

    @property
    def backing(self) -> str:
        """Where the flat tables live: ``mmap`` or ``heap``.

        ``mmap`` — typed views over a memory-mapped ``RXPD`` shard
        file (pages shared with every other attaching process);
        ``heap`` — views over a private body built by this process.
        """
        return "heap" if self.shard_path is None else "mmap"

    # -- observability --------------------------------------------------------

    def stats(self) -> dict[str, int | float | str]:
        """Size/build statistics.

        ``backing`` reports where the tables live (``heap``/``mmap``);
        ``packed_bytes`` is the ``RXPD`` payload size (header + body).
        """
        return {
            "concepts": self._n,
            "backing": self.backing,
            "ancestor_entries": len(self._anc_cid),
            "gloss_tokens": len(self._gloss_tok),
            "distinct_tokens": (
                len(self._tokens)
                if self.__dict__.get("_lazy_blobs") is None
                else -1  # token table not decoded yet
            ),
            "max_taxonomy_depth": self.max_taxonomy_depth,
            "packed_bytes": _DISK_HEADER.size + len(self._body),
            "build_seconds": round(self.build_seconds, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedIndex({self._n} concepts, "
            f"{len(self._anc_cid)} ancestor entries)"
        )
