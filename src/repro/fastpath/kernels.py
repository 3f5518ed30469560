"""Vectorized batch lookup kernels over the compiled flat arrays.

A clue probe is one gather of both candidate cuckoo buckets for every
lane of the batch, whatever the clue lengths; a final-decision hit then
finishes in plain gathers of its record columns.  Descents replace two
dict probes per packet with one gather per step: each lane walks from
its own start depth, and lanes whose walk ended (no child, or an
Advance Claim-1 stop bit) are compacted away after every step.  The
dense kernels reproduce the object-graph memory-reference accounting
*bit for bit* — `repro.fastpath.certify` enforces that — so the paper's
counters stay exact while the wall-clock cost collapses.

The stride kernels (`repro.fastpath.layouts.CompiledMultibitTrie`)
consume *k* address bits per gather instead of one: answers stay
bit-identical (prefix, next hop, method, new clue — certified the same
way) while memrefs/packet drop to at most ``ceil(width / stride)`` on
the full-lookup side; the certifier compares those counts per layout
instead of requiring equality.  Clue-table resume walks always descend
the dense binary arrays — Claim-1 stop bits are per binary vertex.

The public entry points (`full_lookup_batch`, `lookup_batch`) dispatch
on the compiled structure's backend: numpy arrays when available and the
width fits an int64 lane, otherwise the pure-Python twins in
`repro.fastpath.fallback`.  ``force_python=True`` pins the fallback,
which the differential tests use to certify the two implementations
against each other and against the scalar path.
"""

from __future__ import annotations

from repro.fastpath import fallback
from repro.fastpath.backend import (
    CODE_RESUMED,
    get_numpy,
)
from repro.fastpath.compile import (
    BUCKET_WAYS,
    PROBE_BUCKETS,
    CompiledClueTable,
    CompiledTrie,
)
from repro.fastpath.layouts import CompiledMultibitTrie
from repro.lookup.hotpath import hot_path


def as_destination_array(values, width: int = 32):
    """Pack destination address values for the kernels.

    numpy int64 when the backend allows it for ``width``; otherwise the
    values are returned as a plain list for the fallback kernels.  An
    already-packed int64 ndarray passes through untouched — the serve
    loadgen materializes flat arrays up front, and re-boxing every
    element through a Python list each batch was pure hot-path overhead.
    """
    np = get_numpy()
    if np is not None and width <= 32:
        if isinstance(values, np.ndarray):
            if values.dtype == np.int64:
                return values
            return values.astype(np.int64)
        return np.asarray(
            [int(getattr(value, "value", value)) for value in values],
            dtype=np.int64,
        )
    return [int(getattr(value, "value", value)) for value in values]


def as_length_array(lengths, width: int = 32):
    """Pack clue lengths (−1 = clueless) to match the destination array.

    Like :func:`as_destination_array`, an int64 ndarray is returned
    as-is instead of being re-boxed element by element.
    """
    np = get_numpy()
    if np is not None and width <= 32:
        if isinstance(lengths, np.ndarray):
            if lengths.dtype == np.int64:
                return lengths
            return lengths.astype(np.int64)
        return np.asarray([int(length) for length in lengths], dtype=np.int64)
    return [int(length) for length in lengths]


@hot_path
def _descend_numpy(np, ctrie, dsts, cur, depths, stop_masks, rows):
    """Lane-aligned restricted descent: (best codes, refs) per lane.

    Every lane steps from its own start vertex and depth, and the live
    lanes are compacted after each step, so a batch costs as many steps
    as its longest walk, not ``width`` minus its shallowest start.  A
    lane retires when its next child is absent or (with ``stop_masks``)
    when the vertex it last entered carries its record's Claim-1 stop
    bit.  Per the scalar semantics the start vertex itself is never
    charged nor matched; every *entered* vertex costs one reference,
    may update the best marked code, and only then is its stop bit
    consulted.

    ``path`` holds each lane's address shifted so its next bit sits at
    bit ``width - 1``.  A vertex at depth ``width`` has no children, so
    whatever bit a lane reads there, the step retires it; a walk enters
    at most ``width`` vertices, which bounds the loop.
    """
    top = ctrie.width - 1
    child = ctrie.child
    node_result = ctrie.node_result
    lanes = dsts.shape[0]
    best = np.full(lanes, -1, dtype=np.int64)
    refs = np.zeros(lanes, dtype=np.int64)
    live = np.arange(lanes)
    path = dsts << depths
    going = None  # lanes whose last entered vertex carries no stop bit
    for _ in range(ctrie.width):
        branch = child[2 * cur + ((path >> top) & 1)]
        entered = branch >= 0
        if going is not None:
            entered &= going
        keep = entered.nonzero()[0]
        if not keep.shape[0]:
            break
        live, cur, path = live[keep], branch[keep], path[keep] << 1
        refs[live] += 1
        codes = node_result[cur]
        marked = (codes >= 0).nonzero()[0]
        best[live[marked]] = codes[marked]
        if stop_masks is not None:
            rows = rows[keep]
            going = ((stop_masks[rows, cur >> 3] >> (cur & 7)) & 1) == 0
    return best, refs


@hot_path
def _full_lookup_numpy(np, ctrie, dsts):
    """Clueless Regular baseline, batched: (codes, memrefs)."""
    lanes = dsts.shape[0]
    cur = np.zeros(lanes, dtype=np.int64)
    depths = np.zeros(lanes, dtype=np.int64)
    best, refs = _descend_numpy(np, ctrie, dsts, cur, depths, None, None)
    best = np.where(best >= 0, best, np.int64(ctrie.root_result))
    return best, refs + 1  # the root itself is always touched


@hot_path
def _full_lookup_multibit_numpy(np, mtrie, dsts):
    """Leaf-pushed stride descent for every lane: (codes, memrefs).

    One gather per stride level, all lanes in lockstep; a lane retires
    the moment it hits a terminal slot — the leaf-pushed answer is *in*
    the slot, so there is no best-so-far bookkeeping and the walk is
    bounded by ``ceil(width / stride)`` probes.  Each stride-node probe
    costs one memory reference; the packed ``leaf_codes`` pool is
    modelled as cache-resident (that is the point of packing it) and
    decodes for free.
    """
    lanes = dsts.shape[0]
    fanout = mtrie.fanout
    slots = mtrie.slots
    cur = np.zeros(lanes, dtype=np.int64)
    out = np.zeros(lanes, dtype=np.int64)
    refs = np.zeros(lanes, dtype=np.int64)
    alive = np.ones(lanes, dtype=bool)
    for shift, mask in mtrie.level_shifts:
        if not alive.any():
            break
        chunk = (dsts >> shift) & mask
        value = slots[cur * fanout + chunk].astype(np.int64)
        refs = refs + alive
        terminal = alive & (value < 0)
        out = np.where(terminal, -(value + 1), out)
        alive = alive & ~terminal
        cur = np.where(alive, value, cur)
    if lanes:
        codes = mtrie.leaf_codes[out]
    else:
        codes = np.zeros(0, dtype=np.int64)
    return codes, refs


@hot_path
def _full_dispatch_numpy(np, layout, dsts):
    """Full-lookup codes and memrefs through whichever layout compiled."""
    if type(layout) is CompiledMultibitTrie:
        return _full_lookup_multibit_numpy(np, layout, dsts)
    return _full_lookup_numpy(np, layout, dsts)


@hot_path
def _clue_lengths_numpy(np, pool, codes):
    """Outgoing clue length per result code (−1 where nothing matched)."""
    lengths = pool.lengths_array()
    if not len(lengths):  # empty pool: nothing ever matches
        return np.full(codes.shape[0], -1, dtype=np.int64)
    return np.where(codes >= 0, lengths[np.maximum(codes, 0)], np.int64(-1))


@hot_path
def _clue_lookup_numpy(np, ctable, dsts, clue_lens):
    """Clue-assisted lookup, batched: (methods, codes, new_clues, memrefs).

    One probe of the cuckoo table for every lane: both candidate
    buckets are gathered whole and compared against the lane's key, and
    a lane without a usable clue is sent to the full-lookup sentinel
    record.  Method, code and outgoing clue are then one gather each;
    only miss/clueless lanes (full lookup) and Ptr lanes (resumed
    descent) do any further work.
    """
    width = ctable.width
    # A clue length is usable iff 0 <= length <= width; negative lengths
    # wrap to huge unsigned values, so one unsigned compare checks both.
    carrying = clue_lens.view(np.uint64) <= np.uint64(width)
    # Unusable lanes still form a key (the shift is kept in range) but
    # are sent to the full-lookup sentinel below whatever it matches.
    bits = dsts >> ((width - clue_lens) & 63)
    keys = (bits << ctable.key_shift) | clue_lens
    buckets = (ctable.hash_mults * keys.view(np.uint64)) >> np.uint64(
        ctable.hash_shift
    )
    # (buckets, ways, lanes): every candidate slot of every lane, laid
    # out so the reduction over candidates runs along the first axis.
    slots = (
        buckets.astype(np.int64)[:, None, :] * BUCKET_WAYS
        + np.arange(BUCKET_WAYS)[:, None]
    ).reshape(PROBE_BUCKETS * BUCKET_WAYS, -1)
    found = np.where(
        ctable.slot_key[slots] == keys,
        ctable.slot_rec[slots],
        ctable.miss_record,
    ).min(axis=0)
    record = np.where(carrying, found, ctable.full_record)
    methods = ctable.rec_method[record].astype(np.int64)
    codes = ctable.rec_fd[record].astype(np.int64)
    new_clues = ctable.rec_clue[record].astype(np.int64)
    memrefs = carrying.astype(np.int64)  # every probe costs one reference
    pool = ctable.trie.pool
    full_path = (record >= ctable.miss_record).nonzero()[0]
    if full_path.shape[0]:
        full_codes, full_refs = _full_dispatch_numpy(
            np, ctable.layout, dsts[full_path]
        )
        codes[full_path] = full_codes
        memrefs[full_path] += full_refs
        new_clues[full_path] = _clue_lengths_numpy(np, pool, full_codes)
    resumed = (methods == CODE_RESUMED).nonzero()[0]
    if resumed.shape[0]:
        hits = record[resumed]
        masks = ctable.stop_masks if ctable.has_stops else None
        best, refs = _descend_numpy(
            np,
            ctable.trie,
            dsts[resumed],
            ctable.rec_cont_node[hits].astype(np.int64),
            ctable.rec_cont_depth[hits].astype(np.int64),
            masks,
            ctable.rec_stop_row[hits] if masks is not None else None,
        )
        found_codes = np.where(best >= 0, best, codes[resumed])
        codes[resumed] = found_codes
        memrefs[resumed] += refs
        new_clues[resumed] = _clue_lengths_numpy(np, pool, found_codes)
    return methods, codes, new_clues, memrefs


@hot_path
def full_lookup_batch(ctrie, dsts, force_python: bool = False):
    """Batched clueless lookups: ``(codes, memrefs)``.

    ``ctrie`` is any compiled layout — the dense :class:`CompiledTrie`
    or a :class:`CompiledMultibitTrie`; ``dsts`` comes from
    :func:`as_destination_array`; codes decode through ``ctrie.pool``.
    """
    if ctrie.backend == "numpy" and not force_python:
        return _full_dispatch_numpy(get_numpy(), ctrie, dsts)
    return fallback.full_lookup_batch(ctrie, dsts)


@hot_path
def lookup_batch(
    ctable: CompiledClueTable, dsts, clue_lens, force_python: bool = False
):
    """Batched clue-assisted lookups over a compiled table.

    ``dsts`` and ``clue_lens`` come from :func:`as_destination_array`
    and :func:`as_length_array` (int64 on the numpy backend).  Returns
    ``(methods, codes, new_clues, memrefs)`` — method codes from
    `repro.fastpath.backend`, result codes into ``ctable.trie.pool``,
    the outgoing clue length per lane (−1 for no match), and the exact
    object-graph memory-reference count per lane.
    """
    if ctable.backend == "numpy" and not force_python:
        return _clue_lookup_numpy(get_numpy(), ctable, dsts, clue_lens)
    return fallback.clue_lookup_batch(ctable, dsts, clue_lens)
