"""Pinned set-up artifacts and the object graph they are compiled from.

The set-up path (tries, overlay, clue tables, compiled layouts,
certification) may be made cheaper, but never different: a sha256 over
every compiled column of a fixed-seed shard, at widths 32 and 128, must
stay exactly what it was when it was pinned.  The digests are computed
over plain Python integers, so both backends hash alike.

The structural tests pin the object graph itself: every trie and
overlay vertex carries exactly ``prefix.truncate(depth)`` of the path
that reaches it, with the marks and next hops a reference walk over the
table gives, and the overlay's Claim-1 stop booleans are those of a
vertex-by-vertex recomputation.
"""

import hashlib

import pytest

from repro.addressing import Prefix
from repro.fastpath import compile_layout
from repro.serve.shard import Shard
from repro.tablegen import (
    DEFAULT_IPV6_HISTOGRAM,
    NeighborProfile,
    derive_neighbor,
    generate_table,
)
from repro.trie.binary_trie import BinaryTrie
from repro.trie.overlay import TrieOverlay

TABLE_SIZE = 400

#: sha256 of :func:`_artifact_digest`, per ``(width, seed)``.
PINNED = {
    (32, 3): (
        "78ddb963a8924e568a62ded882cfb9df"
        "33acb6ce98360c517b037ad5e880d195"
    ),
    (32, 11): (
        "95b14cbe44d66d86f90a288e02fe50cc"
        "540c8efbebcc9fc8c6d3e58c37f7ca34"
    ),
    (128, 3): (
        "c8d4ee50ffd2014d83ebee4739c58095"
        "b0f92ef42749c1594d58bbeb147cc185"
    ),
    (128, 11): (
        "9cc25e874a533160c2d76a9ba9010f00"
        "5bb7b7ba6d6c84024b86a5e96c6e8ea5"
    ),
}


def _pair(width, seed, size=TABLE_SIZE):
    histogram = DEFAULT_IPV6_HISTOGRAM if width == 128 else None
    sender = generate_table(size, seed=seed, histogram=histogram, width=width)
    receiver = derive_neighbor(sender, NeighborProfile(), seed=seed + 1)
    return sender, receiver


def _feed(digest, name, values):
    digest.update(name.encode())
    digest.update(",".join(str(int(value)) for value in values).encode())
    digest.update(b";")


def _artifact_digest(width, seed):
    sender, receiver = _pair(width, seed)
    sender_trie = BinaryTrie.from_prefixes(sender, width)
    clues = list(sender_trie.prefixes())
    shard = Shard(0, receiver, clues, sender_trie, width=width, seed=seed)
    multibit = compile_layout(shard.ctrie, "multibit8")
    ctrie, ctable = shard.ctrie, shard.ctable
    digest = hashlib.sha256()
    _feed(digest, "child", ctrie.child)
    _feed(digest, "node_result", ctrie.node_result)
    pool = ctrie.pool
    digest.update(
        repr([(str(p), h) for p, h in zip(pool.prefixes, pool.next_hops)]).encode()
    )
    for name in (
        "slot_key",
        "slot_rec",
        "rec_method",
        "rec_fd",
        "rec_clue",
        "rec_cont_node",
        "rec_cont_depth",
        "rec_stop_row",
    ):
        _feed(digest, name, getattr(ctable, name))
    for row in ctable.stop_masks:
        _feed(digest, "stop_mask", bytes(row))
    digest.update(repr(sorted(ctable.itemsizes.items())).encode())
    _feed(digest, "slots", multibit.slots)
    _feed(digest, "leaf_codes", multibit.leaf_codes)
    _feed(
        digest,
        "sizes",
        [ctrie.nbytes(), ctable.nbytes(), multibit.nbytes(), shard.certified_lanes],
    )
    return digest.hexdigest()


@pytest.mark.parametrize("width, seed", sorted(PINNED))
def test_compiled_artifacts_match_pinned_digest(width, seed):
    assert _artifact_digest(width, seed) == PINNED[(width, seed)]


# ---------------------------------------------------------------------------
# structure of the object graph


def _walk(root):
    """``(vertex, path prefix bits, depth)`` for every vertex, pre-order."""
    stack = [(root, 0, 0)]
    while stack:
        node, bits, depth = stack.pop()
        yield node, bits, depth
        for bit, child in node.children.items():
            stack.append((child, (bits << 1) | bit, depth + 1))


def _reference_vertices(entries, width):
    """Every vertex a bit-by-bit trie over ``entries`` must have."""
    vertices = {Prefix.root(width)}
    for prefix, _hop in entries:
        for depth in range(prefix.length + 1):
            vertices.add(prefix.truncate(depth))
    return vertices


@pytest.mark.parametrize("width", [32, 128])
def test_binary_trie_vertices_carry_their_path_prefix(width):
    _sender, receiver = _pair(width, 5, size=150)
    table = dict(receiver)
    trie = BinaryTrie.from_prefixes(receiver, width)
    seen = set()
    for node, bits, depth in _walk(trie.root):
        want = Prefix(bits, depth, width)
        assert node.prefix == want
        assert hash(node.prefix) == hash(want)
        assert node.marked == (want in table)
        assert node.next_hop == table.get(want)
        seen.add(want)
    assert seen == _reference_vertices(receiver, width)


@pytest.mark.parametrize("width", [32, 128])
def test_overlay_vertices_marks_and_stops_match_a_reference(width):
    sender, receiver = _pair(width, 6, size=150)
    marks1, marks2 = dict(sender), dict(receiver)
    overlay = TrieOverlay(
        BinaryTrie.from_prefixes(sender, width),
        BinaryTrie.from_prefixes(receiver, width),
    )
    vertices = {}
    for node, bits, depth in _walk(overlay.root):
        want = Prefix(bits, depth, width)
        assert node.prefix == want
        assert node.marked1 == (want in marks1)
        assert node.marked2 == (want in marks2)
        vertices[want] = node
    assert set(vertices) == _reference_vertices(sender + receiver, width)

    def unclaimed(prefix):
        # A t2 prefix at or below ``prefix`` reached before any t1 prefix.
        if prefix in marks1:
            return False
        if prefix in marks2:
            return True
        return any(
            unclaimed(prefix.child(bit))
            for bit in (0, 1)
            if prefix.length < width and prefix.child(bit) in vertices
        )

    want_stops = {
        prefix: not any(
            unclaimed(prefix.child(bit))
            for bit in (0, 1)
            if prefix.length < width and prefix.child(bit) in vertices
        )
        for prefix in vertices
    }
    assert overlay.stop_booleans() == want_stops
