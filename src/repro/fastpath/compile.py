"""Freeze clue tables and binary tries into flat, contiguous arrays.

The object-graph structures (`trie.binary_trie.BinaryTrie`,
`core.table.ClueTable`) chase one Python pointer per "memory reference"
of the paper's cost model.  This module compiles a *built* pair into the
struct-of-arrays layout the batch kernels iterate over:

``CompiledTrie`` — one dense integer id per trie vertex (pre-order,
root = 0), ``child[2 * node + bit]`` holding the child id or -1, and
``node_result[node]`` holding a result-pool code for marked vertices
(-1 otherwise).  Descending one bit is a single gather instead of two
dict probes.

``CompiledClueTable`` — one bucketized 2-choice cuckoo table keyed by
``(bits << 6) | length`` (``key_shift`` bits of length at other widths):
every key lives in one of two buckets of :data:`BUCKET_WAYS` slots, so
a probe reads at most :data:`PROBE_BUCKETS` buckets whatever the clue
length — the batch kernel gathers both candidate buckets of every lane
at once and compares.  The build is pure Python over 64-bit-masked
ints: bounded evictions, then a deterministic doubling and rehash.
Parallel record columns, each at its narrowest signed dtype, hold the
method, the FD code, the outgoing clue, the Ptr continuation vertex and
its depth, and a row into a packed Claim-1 stop bitmask (Advance's "can
any longer match exist below?" Booleans, one bit per trie vertex); two
sentinel rows make a miss and a clueless lane gathers too.  The
``probe_index`` dict is the pure-Python kernel's independent probe.

Results are interned in a shared ``ResultPool`` so a lane's outcome is
one int32 code; the pool decodes it back to ``(prefix, next_hop)`` and
supplies the new clue length.  Only *active* table records compile —
an inactive record probes as a miss in the object graph, so omitting it
preserves semantics exactly.

Only the "regular" technique (``TrieContinuation`` Ptr fields) is
compilable; anything else raises ``FastpathUnsupported`` and the caller
stays on the scalar path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.addressing import Prefix
from repro.fastpath.backend import (
    CODE_CLUE_MISS,
    CODE_FD_IMMEDIATE,
    CODE_FULL,
    CODE_RESUMED,
    get_numpy,
    numpy_eligible,
)
from repro.lookup.restricted import TrieContinuation
from repro.trie.binary_trie import BinaryTrie


#: Slots per cuckoo bucket: a probe reads both candidate buckets whole.
BUCKET_WAYS = 4

#: Candidate buckets per key — the physical probe bound of a lookup.
PROBE_BUCKETS = 2

#: Odd 64-bit multipliers of the two bucket hashes.
HASH_MULTS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F)

#: Key of an empty slot; real keys are never negative.
EMPTY_KEY = -1

_MASK64 = (1 << 64) - 1

#: Highest load the first cuckoo build is sized for.
_MAX_LOAD = 0.9

#: Evictions one insertion may make before the table grows.
_MAX_KICKS = 128

#: Bucket-count doublings a build may make before it gives up.
_MAX_GROWS = 8


class FastpathUnsupported(ValueError):
    """The structure cannot be frozen into flat arrays (wrong technique,
    foreign continuation type, or a continuation pointing outside the
    compiled trie); callers fall back to the object-graph path."""


class ResultPool:
    """Interned ``(prefix, next_hop)`` outcomes shared by trie and table.

    A lane's result is a small int code; decoding is a list index.  The
    pool also exposes the prefix lengths as an array so the kernels can
    derive the outgoing clue of a whole batch with one gather.
    """

    __slots__ = ("prefixes", "next_hops", "lengths", "_index", "_frozen")

    def __init__(self) -> None:
        self.prefixes: List[Prefix] = []
        self.next_hops: List[object] = []
        self.lengths: List[int] = []
        self._index: Dict[object, int] = {}
        self._frozen = None

    def intern(self, prefix: Prefix, next_hop: object) -> int:
        """The code for ``(prefix, next_hop)``, allocating on first use."""
        try:
            key: Optional[Tuple[Prefix, object]] = (prefix, next_hop)
            code = self._index.get(key)
        except TypeError:  # unhashable next hop payload: store un-deduped
            key = None
            code = None
        if code is None:
            code = len(self.prefixes)
            self.prefixes.append(prefix)
            self.next_hops.append(next_hop)
            self.lengths.append(prefix.length)
            if key is not None:
                self._index[key] = code
        return code

    def lengths_array(self):
        """Prefix lengths by code — numpy int64 when available.

        Rebuilt lazily: the pool keeps growing while a ``CompiledTrie``
        and one or more ``CompiledClueTable``s intern into it.
        """
        np = get_numpy()
        if np is None:
            return self.lengths
        if self._frozen is None or len(self._frozen) != len(self.lengths):
            self._frozen = np.asarray(self.lengths, dtype=np.int64)
        return self._frozen

    def nbytes(self) -> int:
        """Data-plane footprint: one int64 length per interned code.

        The prefix/next-hop decode side is control-plane bookkeeping
        (Python objects a hardware table would not hold); the kernels
        only ever gather the lengths array, so that is what counts.
        """
        return len(self.lengths) * 8

    def __len__(self) -> int:
        return len(self.prefixes)


class CompiledTrie:
    """A ``BinaryTrie`` frozen into flat child / result arrays."""

    __slots__ = (
        "width",
        "size",
        "backend",
        "child",
        "node_result",
        "node_index",
        "root_result",
        "pool",
    )

    def __init__(self, trie: BinaryTrie, pool: Optional[ResultPool] = None):
        self.width = trie.width
        self.pool = pool if pool is not None else ResultPool()
        self.backend = "numpy" if numpy_eligible(trie.width) else "python"
        nodes = []
        index: Dict[Prefix, int] = {}
        stack = [trie.root]
        while stack:
            node = stack.pop()
            index[node.prefix] = len(nodes)
            nodes.append(node)
            one = node.children.get(1)
            if one is not None:
                stack.append(one)
            zero = node.children.get(0)
            if zero is not None:
                stack.append(zero)
        child = [-1] * (2 * len(nodes))
        result = [-1] * len(nodes)
        for position, node in enumerate(nodes):
            for bit in (0, 1):
                branch = node.children.get(bit)
                if branch is not None:
                    child[2 * position + bit] = index[branch.prefix]
            if node.marked:
                result[position] = self.pool.intern(node.prefix, node.next_hop)
        self.size = len(nodes)
        self.node_index = index
        self.root_result = result[0]
        np = get_numpy()
        if self.backend == "numpy":
            self.child = np.asarray(child, dtype=np.int64)
            self.node_result = np.asarray(result, dtype=np.int64)
        else:
            self.child = child
            self.node_result = result

    def nbytes(self) -> int:
        """Data-plane footprint of the flat arrays, in bytes.

        ``child`` plus ``node_result``, both int64 lanes (the python
        backend is accounted at the same 8 bytes per element so the two
        backends report comparable numbers); the ``node_index`` decode
        dict is compile-time-only and excluded.
        """
        return (len(self.child) + len(self.node_result)) * 8


class CompiledClueTable:
    """A ``ClueTable`` frozen for the regular-technique batch kernels.

    ``trie`` may be the dense :class:`CompiledTrie` or any layout
    wrapping one (a ``CompiledMultibitTrie`` exposes it as ``.base``).
    The clue-probe arrays and the continuation/stop machinery always
    address the dense binary arrays — Claim-1 stop bits are a
    per-binary-vertex notion — while :attr:`layout` records which
    layout the *full-lookup* side of the kernels should descend.

    The probe structure is one bucketized 2-choice cuckoo table over
    the keys ``(bits << key_shift) | length``: ``slot_key`` and
    ``slot_rec`` hold :data:`BUCKET_WAYS` slots per bucket (an empty
    slot keys :data:`EMPTY_KEY` and points at the miss sentinel).  The
    record columns carry two sentinel rows past the ``records`` real
    ones — :attr:`miss_record` (a probe that found nothing) and
    :attr:`full_record` (no usable clue) — so the method, code and
    outgoing clue of every lane are plain gathers.
    """

    __slots__ = (
        "trie",
        "layout",
        "width",
        "backend",
        "records",
        "miss_record",
        "full_record",
        "probe_index",
        "key_shift",
        "hash_shift",
        "hash_mults",
        "slot_key",
        "slot_rec",
        "rec_method",
        "rec_fd",
        "rec_clue",
        "rec_cont_node",
        "rec_cont_depth",
        "rec_stop_row",
        "itemsizes",
        "stop_masks",
        "has_stops",
    )

    def __init__(self, table, trie):
        self.layout = trie
        trie = getattr(trie, "base", trie)
        self.trie = trie
        self.width = trie.width
        self.backend = trie.backend
        pool = trie.pool
        self.key_shift = trie.width.bit_length()
        keys: List[int] = []
        probe_index: Dict[Tuple[int, int], int] = {}
        rec_method: List[int] = []
        rec_fd: List[int] = []
        rec_clue: List[int] = []
        rec_cont_node: List[int] = []
        rec_cont_depth: List[int] = []
        rec_stop_row: List[int] = []
        stop_dicts: List[Optional[Dict[Prefix, bool]]] = [None]
        row_of: Dict[int, int] = {}
        for entry in table.entries():
            if not entry.active:
                continue  # probes identically to an absent record
            clue = entry.clue
            if clue.width != trie.width:
                raise FastpathUnsupported(
                    "clue width %d does not match trie width %d"
                    % (clue.width, trie.width)
                )
            probe_index[(clue.length, clue.bits)] = len(rec_fd)
            keys.append((clue.bits << self.key_shift) | clue.length)
            if entry.fd_prefix is not None:
                rec_fd.append(pool.intern(entry.fd_prefix, entry.fd_next_hop))
                rec_clue.append(entry.fd_prefix.length)
            else:
                rec_fd.append(-1)
                rec_clue.append(-1)
            continuation = entry.continuation
            if continuation is None:
                rec_method.append(CODE_FD_IMMEDIATE)
                rec_cont_node.append(-1)
                rec_cont_depth.append(0)
                rec_stop_row.append(0)
                continue
            if type(continuation) is not TrieContinuation:
                raise FastpathUnsupported(
                    "only regular-technique TrieContinuation records "
                    "compile; found %s" % type(continuation).__name__
                )
            start_id = trie.node_index.get(continuation.start.prefix)
            if start_id is None:
                raise FastpathUnsupported(
                    "continuation start %r is not a vertex of the "
                    "compiled trie" % (continuation.start.prefix,)
                )
            rec_method.append(CODE_RESUMED)
            rec_cont_node.append(start_id)
            rec_cont_depth.append(continuation.start.prefix.length)
            stops = continuation.stops
            if stops is None:
                rec_stop_row.append(0)
            else:
                row = row_of.get(id(stops))
                if row is None:
                    row = len(stop_dicts)
                    stop_dicts.append(stops)
                    row_of[id(stops)] = row
                rec_stop_row.append(row)
        self.records = len(rec_fd)
        self.miss_record = self.records
        self.full_record = self.records + 1
        rec_method.extend((CODE_CLUE_MISS, CODE_FULL))
        for column in (rec_fd, rec_clue, rec_cont_node):
            column.extend((-1, -1))
        rec_cont_depth.extend((0, 0))
        rec_stop_row.extend((0, 0))
        self.probe_index = probe_index
        buckets, slot_rec = _cuckoo_build(keys)
        self.hash_shift = 64 - (buckets.bit_length() - 1)
        slot_key = [EMPTY_KEY if rec < 0 else keys[rec] for rec in slot_rec]
        slot_rec = [self.miss_record if rec < 0 else rec for rec in slot_rec]
        self.has_stops = len(stop_dicts) > 1
        mask_bytes = (trie.size + 7) // 8
        mask_rows = []
        for stops in stop_dicts:
            row_bits = bytearray(mask_bytes)
            if stops:
                for prefix, flag in stops.items():
                    if not flag:
                        continue
                    node_id = trie.node_index.get(prefix)
                    if node_id is not None:
                        row_bits[node_id >> 3] |= 1 << (node_id & 7)
            mask_rows.append(row_bits)
        columns = {
            "slot_key": slot_key,
            "slot_rec": slot_rec,
            "rec_method": rec_method,
            "rec_fd": rec_fd,
            "rec_clue": rec_clue,
            "rec_cont_node": rec_cont_node,
            "rec_cont_depth": rec_cont_depth,
            "rec_stop_row": rec_stop_row,
        }
        self.itemsizes = {
            name: narrow_int_bytes(min(values), max(values))
            for name, values in columns.items()
        }
        # The kernel merges probe results with the full-lookup sentinel
        # in slot_rec's dtype, so that dtype must hold it too.
        self.itemsizes["slot_rec"] = narrow_int_bytes(0, self.full_record)
        np = get_numpy()
        if self.backend == "numpy":
            self.hash_mults = np.asarray(HASH_MULTS, dtype=np.uint64)[:, None]
            for name, values in columns.items():
                dtype = np.dtype("int%d" % (8 * self.itemsizes[name]))
                setattr(self, name, np.asarray(values, dtype=dtype))
            self.stop_masks = np.frombuffer(
                bytes(b"".join(mask_rows)), dtype=np.uint8
            ).reshape(len(mask_rows), mask_bytes)
        else:
            self.hash_mults = HASH_MULTS
            for name, values in columns.items():
                setattr(self, name, values)
            self.stop_masks = mask_rows

    def load(self) -> float:
        """Occupied share of the cuckoo slots."""
        return self.records / len(self.slot_key)

    def nbytes(self) -> int:
        """Data-plane footprint of the probe and record arrays, in bytes.

        Every slot and record column at its declared (narrowest signed)
        itemsize, sentinel rows included, plus the packed stop bitmask
        rows — the same figure on both backends, and on numpy exactly
        the arrays' own ``.nbytes``.  The ``probe_index`` dict is the
        fallback kernel's independent probe oracle, not a data-plane
        structure.  Excludes the trie layout — report that separately
        via the layout's own ``nbytes()``.
        """
        total = sum(
            len(getattr(self, name)) * size
            for name, size in self.itemsizes.items()
        )
        for row in self.stop_masks:
            total += len(row)
        return total


def narrow_int_bytes(lo: int, hi: int) -> int:
    """Bytes of the narrowest signed integer field holding [lo, hi].

    Ranges beyond int64 (width-128 probe keys, pure-Python lists only)
    are accounted in whole 64-bit words.
    """
    for nbytes in (1, 2, 4, 8):
        half = 1 << (8 * nbytes - 1)
        if -half <= lo and hi < half:
            return nbytes
    bits = max(lo.bit_length(), hi.bit_length()) + 1
    return 8 * ((bits + 63) // 64)


def bucket_of(key: int, mult: int, shift: int) -> int:
    """One of a key's two candidate buckets: multiplicative hashing.

    Keys wider than 64 bits fold their 64-bit words together first, so
    for every width-32 key this is exactly the numpy kernel's wrapping
    ``uint64`` product shifted right by ``shift``.
    """
    while key > _MASK64:
        key = (key & _MASK64) ^ (key >> 64)
    return ((key * mult) & _MASK64) >> shift


def _initial_buckets(count: int) -> int:
    """Power-of-two bucket count sized for ``count`` keys at
    :data:`_MAX_LOAD`; never fewer than two buckets."""
    buckets = 2
    while buckets * BUCKET_WAYS * _MAX_LOAD < count:
        buckets *= 2
    return buckets


def _cuckoo_build(keys: List[int]) -> Tuple[int, List[int]]:
    """``(buckets, slot_rec)``: key ``i`` lives in a slot holding ``i``.

    Inserts in key order; a key whose two buckets are full evicts a
    resident (way ``kick % BUCKET_WAYS`` of the bucket it did not just
    leave), which moves to its other bucket.  After
    :data:`_MAX_KICKS` evictions the build gives up, doubles the bucket
    count and starts over — every step is deterministic, so the same
    keys always give the same slots.  Past :data:`_MAX_GROWS` doublings
    the keys are taken to be adversarial and the table does not compile.
    """
    buckets = _initial_buckets(len(keys))
    for _ in range(_MAX_GROWS):
        slot_rec = _cuckoo_try(keys, buckets)
        if slot_rec is not None:
            return buckets, slot_rec
        buckets *= 2
    raise FastpathUnsupported(
        "%d clue keys found no cuckoo placement in %d buckets"
        % (len(keys), buckets // 2)
    )


def _cuckoo_try(keys: List[int], buckets: int) -> Optional[List[int]]:
    shift = 64 - (buckets.bit_length() - 1)
    mult_a, mult_b = HASH_MULTS
    homes = [
        (bucket_of(key, mult_a, shift), bucket_of(key, mult_b, shift))
        for key in keys
    ]
    slot_rec = [-1] * (buckets * BUCKET_WAYS)
    for record in range(len(keys)):
        item, evicted_from = record, -1
        for kick in range(_MAX_KICKS):
            first, second = homes[item]
            slot = _free_slot(slot_rec, first)
            if slot < 0:
                slot = _free_slot(slot_rec, second)
            if slot >= 0:
                slot_rec[slot] = item
                break
            evicted_from = second if first == evicted_from else first
            slot = evicted_from * BUCKET_WAYS + kick % BUCKET_WAYS
            item, slot_rec[slot] = slot_rec[slot], item
        else:
            return None
    return slot_rec


def _free_slot(slot_rec: List[int], bucket: int) -> int:
    base = bucket * BUCKET_WAYS
    for slot in range(base, base + BUCKET_WAYS):
        if slot_rec[slot] < 0:
            return slot
    return -1


def compile_trie(trie: BinaryTrie, pool: Optional[ResultPool] = None) -> CompiledTrie:
    """Freeze a built ``BinaryTrie`` into a :class:`CompiledTrie`."""
    return CompiledTrie(trie, pool)


def compile_clue_table(table, trie) -> CompiledClueTable:
    """Freeze a built ``ClueTable`` against its receiver trie.

    ``trie`` may be the receiver's ``BinaryTrie``, an already-compiled
    :class:`CompiledTrie` (sharing one across tables shares the result
    pool and the flat trie arrays), or any compiled layout wrapping one
    (e.g. :class:`repro.fastpath.layouts.CompiledMultibitTrie`), in
    which case the batch kernels run their full-lookup descents through
    that layout.
    """
    if isinstance(trie, BinaryTrie):
        trie = CompiledTrie(trie)
    return CompiledClueTable(table, trie)
