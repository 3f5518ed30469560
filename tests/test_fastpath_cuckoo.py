"""The cuckoo clue-table probe: adversarial differentials, build
determinism and byte accounting.

Every clue table here is certified lane by lane three ways — the numpy
kernel, the pure-Python kernel (whose ``probe_index`` dict is an
independent probe) and the scalar ``ClueAssistedLookup`` — on tables
built to stress the hashed probe: the same bits at several clue
lengths, clues of length 0 and ``width``, lanes whose clue length is
negative or past the width, empty and all-resumed batches, and a table
whose first cuckoo build cannot place its keys.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.addressing import Address, Prefix
from repro.core.advance import AdvanceMethod
from repro.core.entry import ClueEntry
from repro.core.lookup import ClueAssistedLookup
from repro.core.receiver import ReceiverState
from repro.core.simple import SimpleMethod
from repro.core.table import ClueTable
from repro.fastpath import (
    CODE_RESUMED,
    HAVE_NUMPY,
    as_destination_array,
    as_length_array,
    certify_clue,
    compile_clue_table,
    compile_trie,
    get_numpy,
    lookup_batch,
)
from repro.fastpath import compile as compile_module
from repro.fastpath.compile import (
    BUCKET_WAYS,
    HASH_MULTS,
    PROBE_BUCKETS,
    _initial_buckets,
    bucket_of,
)
from repro.lookup.regular import RegularTrieLookup
from repro.trie.binary_trie import BinaryTrie

WIDTH = 32

#: Lane clue lengths that no record can answer: clueless, garbage
#: negative, one past the width.
BAD_LENGTHS = (-1, -7, WIDTH + 1)


@st.composite
def stacked_pairs(draw):
    """(sender, receiver) whose clues repeat one bits value at several
    lengths, with a default route and a host route among them; the
    receiver drops some sender prefixes and adds private more-specifics,
    so Advance tables carry resumable Ptr records."""
    bits = draw(st.integers(min_value=0, max_value=255))
    lengths = draw(
        st.sets(st.integers(min_value=8, max_value=WIDTH), max_size=5)
    )
    host = draw(st.integers(min_value=0, max_value=(1 << WIDTH) - 1))
    prefixes = {Prefix(0, 0, WIDTH), Prefix(host, WIDTH, WIDTH)}
    prefixes.update(Prefix(bits, length, WIDTH) for length in lengths)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        length = draw(st.integers(min_value=1, max_value=16))
        prefixes.add(
            Prefix(draw(st.integers(0, (1 << length) - 1)), length, WIDTH)
        )
    sender = [
        (prefix, "s%d" % i) for i, prefix in enumerate(sorted(prefixes))
    ]
    dropped = draw(st.sets(st.integers(0, len(sender) - 1)))
    receiver = {
        prefix: "r%d" % i
        for i, (prefix, _hop) in enumerate(sender)
        if i not in dropped
    }
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        parent = sender[draw(st.integers(0, len(sender) - 1))][0]
        extra = draw(st.integers(min_value=1, max_value=6))
        if parent.length + extra > WIDTH:
            continue
        tail = draw(st.integers(0, (1 << extra) - 1))
        bits = (parent.bits << extra) | tail
        receiver.setdefault(Prefix(bits, parent.length + extra, WIDTH), "x")
    return sender, sorted(receiver.items())


def build(sender, receiver, method):
    sender_trie = BinaryTrie(WIDTH)
    for prefix, hop in sender:
        sender_trie.insert(prefix, hop)
    state = ReceiverState(receiver, WIDTH)
    if method == "simple":
        builder = SimpleMethod(state, "regular")
    else:
        builder = AdvanceMethod(sender_trie, state, "regular")
    table = builder.build_table(list(sender_trie.prefixes()))
    scalar = ClueAssistedLookup(RegularTrieLookup(receiver, WIDTH), table)
    ctable = compile_clue_table(table, compile_trie(state.trie))
    return sender_trie, scalar, ctable


def adversarial_sweep(sender_trie, sender, values):
    """Each destination under every stacked clue length it matches, the
    0 and width edges, its true BMP and the unusable lengths."""
    clue_lengths = sorted({prefix.length for prefix, _ in sender})
    dsts, lens = [], []
    for value in values:
        address = Address(value, WIDTH)
        bmp = sender_trie.best_prefix(address)
        wanted = set(clue_lengths) | {0, WIDTH, bmp.length if bmp else 0}
        for length in sorted(wanted) + list(BAD_LENGTHS):
            dsts.append(value)
            lens.append(length)
    return dsts, lens


def destinations(sender, draw_values):
    """Hosts inside every sender prefix plus the drawn values."""
    values = list(draw_values)
    for prefix, _hop in sender:
        shift = WIDTH - prefix.length
        values.append(prefix.bits << shift)
        values.append((prefix.bits << shift) | ((1 << shift) - 1))
    return values


def certify_both(ctable, scalar, dsts, lens):
    checked = certify_clue(ctable, scalar, dsts, lens, force_python=True)
    if HAVE_NUMPY:
        assert certify_clue(ctable, scalar, dsts, lens) == checked
        fast = lookup_batch(
            ctable, as_destination_array(dsts), as_length_array(lens)
        )
        assert all(column.dtype == get_numpy().int64 for column in fast)
    return checked


@given(
    stacked_pairs(),
    st.lists(st.integers(0, (1 << WIDTH) - 1), max_size=4),
    st.sampled_from(["simple", "advance"]),
)
@settings(max_examples=80, deadline=None)
def test_adversarial_clue_tables_match_scalar(pair, values, method):
    sender, receiver = pair
    sender_trie, scalar, ctable = build(sender, receiver, method)
    dsts, lens = adversarial_sweep(
        sender_trie, sender, destinations(sender, values)
    )
    assert certify_both(ctable, scalar, dsts, lens) == len(dsts)


@given(
    stacked_pairs(),
    st.lists(st.integers(0, (1 << WIDTH) - 1), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_all_resumed_batch_matches_scalar(pair, values):
    sender, receiver = pair
    sender_trie, scalar, ctable = build(sender, receiver, "advance")
    dsts, lens = adversarial_sweep(
        sender_trie, sender, destinations(sender, values)
    )
    methods = lookup_batch(
        ctable, as_destination_array(dsts), as_length_array(lens),
        force_python=True,
    )[0]
    resumed = [i for i, code in enumerate(methods) if code == CODE_RESUMED]
    assume(resumed)
    dsts = [dsts[i] for i in resumed]
    lens = [lens[i] for i in resumed]
    assert certify_both(ctable, scalar, dsts, lens) == len(dsts)
    if HAVE_NUMPY:
        fast = lookup_batch(
            ctable, as_destination_array(dsts), as_length_array(lens)
        )
        assert set(int(m) for m in fast[0]) == {CODE_RESUMED}


def test_empty_batch():
    sender = [(Prefix(0b1, 1, WIDTH), "a"), (Prefix(0b10, 2, WIDTH), "b")]
    _trie, _scalar, ctable = build(sender, sender[:1], "advance")
    for force_python in (False, True):
        out = lookup_batch(
            ctable, as_destination_array([]), as_length_array([]),
            force_python=force_python,
        )
        assert [len(column) for column in out] == [0, 0, 0, 0]
        if HAVE_NUMPY and not force_python:
            assert all(column.dtype == get_numpy().int64 for column in out)


def colliding_clues(count):
    """``count`` clues whose two candidate buckets both lie in buckets 0
    and 1 of the table the first build sizes for them — more keys than
    those two buckets hold."""
    buckets = _initial_buckets(count)
    shift = 64 - (buckets.bit_length() - 1)
    clues = []
    for length in range(8, WIDTH + 1):
        for bits in range(0, 1 << 8):
            key = (bits << 6) | length
            if all(bucket_of(key, mult, shift) < 2 for mult in HASH_MULTS):
                clues.append(Prefix(bits, length, WIDTH))
                if len(clues) == count:
                    return buckets, clues
    raise AssertionError("no colliding clue set found")


def test_first_build_that_must_rehash_still_probes_exactly():
    count = 2 * BUCKET_WAYS + 1
    first_buckets, clues = colliding_clues(count)
    receiver = [(clue, "h%d" % i) for i, clue in enumerate(clues)]
    table = ClueTable()
    for clue, hop in receiver:
        table.insert(ClueEntry(clue, clue, hop))
    scalar = ClueAssistedLookup(RegularTrieLookup(receiver, WIDTH), table)
    ctable = compile_clue_table(table, ReceiverState(receiver, WIDTH).trie)
    assert len(ctable.slot_key) > first_buckets * BUCKET_WAYS
    assert 0 < ctable.load() <= 1
    values = destinations(receiver, [0, (1 << WIDTH) - 1])
    dsts, lens = [], []
    for value in values:
        for length in [clue.length for clue in clues] + list(BAD_LENGTHS):
            dsts.append(value)
            lens.append(length)
    assert certify_both(ctable, scalar, dsts, lens) == len(dsts)


@pytest.mark.parametrize("count", [126, 127, 128])
def test_sentinels_fit_the_narrow_record_index(count):
    # 127 real records put the miss sentinel at int8's top and the
    # full-lookup sentinel one past it.
    clues = [Prefix(bits, 12, WIDTH) for bits in range(count)]
    receiver = [(clue, "h%d" % i) for i, clue in enumerate(clues)]
    table = ClueTable()
    for clue, hop in receiver:
        table.insert(ClueEntry(clue, clue, hop))
    scalar = ClueAssistedLookup(RegularTrieLookup(receiver, WIDTH), table)
    ctable = compile_clue_table(table, ReceiverState(receiver, WIDTH).trie)
    values = [clue.bits << (WIDTH - 12) for clue in clues] + [1 << 31]
    dsts = values * 3
    lens = [12] * len(values) + [-1] * len(values) + [13] * len(values)
    assert certify_both(ctable, scalar, dsts, lens) == len(dsts)


# ----------------------------------------------------------------------
# Build determinism and byte accounting
# ----------------------------------------------------------------------
COLUMNS = (
    "slot_key",
    "slot_rec",
    "rec_method",
    "rec_fd",
    "rec_clue",
    "rec_cont_node",
    "rec_cont_depth",
    "rec_stop_row",
)


@pytest.fixture(scope="module")
def advance_pair(pair_structures):
    sender_trie, state = pair_structures
    table = AdvanceMethod(sender_trie, state, "regular").build_table(
        list(sender_trie.prefixes())
    )
    return state, table


def test_compiling_twice_gives_identical_slots(advance_pair):
    state, table = advance_pair
    first = compile_clue_table(table, compile_trie(state.trie))
    again = compile_clue_table(table, compile_trie(state.trie))
    assert first.records > 0
    for name in COLUMNS:
        a, b = getattr(first, name), getattr(again, name)
        if HAVE_NUMPY:
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the numpy backend")
def test_nbytes_is_the_arrays_nbytes_on_numpy(advance_pair):
    state, table = advance_pair
    ctable = compile_clue_table(table, compile_trie(state.trie))
    assert ctable.backend == "numpy"
    arrays = [getattr(ctable, name) for name in COLUMNS]
    arrays.append(ctable.stop_masks)
    assert ctable.nbytes() == sum(array.nbytes for array in arrays)
    for name in COLUMNS:
        assert getattr(ctable, name).itemsize == ctable.itemsizes[name]


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the numpy backend")
def test_nbytes_agrees_across_backends(advance_pair, monkeypatch):
    state, table = advance_pair
    fast = compile_clue_table(table, compile_trie(state.trie))
    monkeypatch.setattr(compile_module, "numpy_eligible", lambda width: False)
    slow = compile_clue_table(table, compile_trie(state.trie))
    assert slow.backend == "python"
    assert slow.nbytes() == fast.nbytes()
    for name in COLUMNS:
        assert [int(v) for v in getattr(fast, name)] == getattr(slow, name)


def test_probe_touches_at_most_two_buckets(advance_pair):
    state, table = advance_pair
    ctable = compile_clue_table(table, compile_trie(state.trie))
    assert PROBE_BUCKETS == 2
    buckets = len(ctable.slot_key) // BUCKET_WAYS
    assert buckets & (buckets - 1) == 0
    assert 0 < ctable.load() <= 1
    # Every record sits in exactly one slot, in one of its key's two
    # buckets.
    slot_of = {}
    for slot, rec in enumerate(ctable.slot_rec):
        if int(rec) != ctable.miss_record:
            assert int(rec) not in slot_of
            slot_of[int(rec)] = slot
    assert len(slot_of) == ctable.records
    for (length, bits), record in ctable.probe_index.items():
        key = (bits << ctable.key_shift) | length
        homes = {
            bucket_of(key, mult, ctable.hash_shift) for mult in HASH_MULTS
        }
        assert slot_of[record] // BUCKET_WAYS in homes
        assert int(ctable.slot_key[slot_of[record]]) == key
