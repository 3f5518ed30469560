"""Unit tests for the Simple and Advance clue-table builders.

The handcrafted pair (conftest) pins down the paper's case analysis
exactly; the generated pair checks the statistical regime.
"""

import random

import pytest

from repro.addressing import Prefix
from repro.core import AdvanceMethod, ReceiverState, SimpleMethod
from repro.core.receiver import TECHNIQUES
from repro.trie.patricia import PatriciaTrie
from tests.conftest import p


class TestReceiverState:
    def test_structures_agree(self, tiny_receiver):
        assert set(tiny_receiver.trie.prefixes()) == set(
            tiny_receiver.patricia.prefixes()
        )

    def test_fd_for_present_clue(self, tiny_receiver):
        assert tiny_receiver.fd_for_clue(p("00")) == (p("00"), "r-a")

    def test_fd_for_absent_clue_is_least_ancestor(self, tiny_receiver):
        # 0101 is absent; its deepest marked ancestor at the receiver is
        # the root region: only "00" and nothing on the 01 branch → no
        # ancestor, FD is (None, None).
        assert tiny_receiver.fd_for_clue(p("0101")) == (None, None)

    def test_fd_walks_partial_paths(self, tiny_receiver):
        assert tiny_receiver.fd_for_clue(p("1100")) == (p("1100"), "r-d")
        assert tiny_receiver.fd_for_clue(p("110")) == (p("1"), "r-c")


class TestSimpleMethod:
    def test_rejects_unknown_technique(self, tiny_receiver):
        with pytest.raises(ValueError):
            SimpleMethod(tiny_receiver, technique="quantum")

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_ptr_empty_iff_no_descendants(self, tiny_receiver, technique):
        method = SimpleMethod(tiny_receiver, technique)
        # "00" has descendant 0010 → pointer set.
        assert not method.build_entry(p("00")).pointer_empty()
        # "1100" is a leaf → pointer empty.
        assert method.build_entry(p("1100")).pointer_empty()
        # "0101" absent → pointer empty.
        assert method.build_entry(p("0101")).pointer_empty()

    def test_fd_recorded(self, tiny_receiver):
        entry = SimpleMethod(tiny_receiver).build_entry(p("00"))
        assert entry.final_decision() == (p("00"), "r-a")

    def test_build_table(self, tiny_receiver, tiny_sender_trie):
        method = SimpleMethod(tiny_receiver)
        table = method.build_table(tiny_sender_trie.prefixes())
        assert len(table) == 5


class TestAdvanceMethod:
    def test_rejects_unknown_technique(self, tiny_sender_trie, tiny_receiver):
        with pytest.raises(ValueError):
            AdvanceMethod(tiny_sender_trie, tiny_receiver, technique="quantum")

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_case1_absent_vertex(self, tiny_sender_trie, tiny_receiver, technique):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver, technique)
        entry = method.build_entry(p("0101"))
        assert entry.pointer_empty()
        assert entry.final_decision() == (None, None)

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_case2_claim1_holds(self, tiny_sender_trie, tiny_receiver, technique):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver, technique)
        # "1" has receiver descendants but Claim 1 holds (1100 shared):
        # the Ptr must be empty where Simple would have searched.
        entry = method.build_entry(p("1"))
        assert entry.pointer_empty()
        assert entry.final_decision() == (p("1"), "r-c")

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_case3_problematic(self, tiny_sender_trie, tiny_receiver, technique):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver, technique)
        entry = method.build_entry(p("00"))
        assert not entry.pointer_empty()

    def test_potential_candidates_carry_next_hops(
        self, tiny_sender_trie, tiny_receiver
    ):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver)
        assert method.potential_candidates(p("00")) == [(p("0010"), "r-b")]

    def test_build_table_defaults_to_sender_universe(
        self, tiny_sender_trie, tiny_receiver
    ):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver)
        table = method.build_table()
        assert len(table) == len(tiny_sender_trie)
        assert table.pointer_count() == 1  # only "00"

    def test_problematic_fraction(self, tiny_sender_trie, tiny_receiver):
        method = AdvanceMethod(tiny_sender_trie, tiny_receiver)
        assert method.problematic_fraction() == pytest.approx(1 / 5)

    def test_stops_only_built_for_walk_techniques(
        self, tiny_sender_trie, tiny_receiver
    ):
        assert AdvanceMethod(tiny_sender_trie, tiny_receiver, "patricia").stops
        assert AdvanceMethod(tiny_sender_trie, tiny_receiver, "regular").stops
        assert AdvanceMethod(tiny_sender_trie, tiny_receiver, "binary").stops is None

    def test_generated_pair_pointer_fraction_small(self, pair_structures):
        sender_trie, receiver = pair_structures
        method = AdvanceMethod(sender_trie, receiver, "binary")
        table = method.build_table()
        # §3.5: fewer than 10% of Advance entries need the Ptr field.
        assert table.pointer_count() / len(table) < 0.10


def _table_signature(table):
    """Every record of a clue table as comparable plain values."""
    rows = {}
    for entry in table.entries():
        cont = entry.continuation
        if cont is not None:
            cont = (
                type(cont).__name__,
                cont.entry.prefix,
                cont.entry_is_clue_vertex,
                cont.stops,
            )
        rows[entry.clue] = (entry.fd_prefix, entry.fd_next_hop, entry.active, cont)
    return rows


def _route_change(receiver_entries, seed):
    """A seeded update: withdraw, add more-specifics, re-point next hops."""
    rng = random.Random(seed)
    table = dict(receiver_entries)
    present = sorted(table, key=lambda q: (q.length, q.bits))
    removed = rng.sample(present, 40)
    added = []
    for prefix in rng.sample(present, 60):
        if prefix.length < prefix.width:
            extra = prefix.child(rng.randrange(2))
            if extra not in table:
                added.append((extra, "new-%d" % len(added)))
    kept = [q for q in present if q not in set(removed)]
    added.extend((q, "moved") for q in rng.sample(kept, 15))
    for prefix in removed:
        table.pop(prefix)
    table.update(added)
    return added, removed, table


class TestLazyPatricia:
    """The Patricia trie is built on first use and kept current after."""

    def test_update_before_and_after_first_access(self, pair_tables):
        _sender, receiver = pair_tables
        added, removed, updated = _route_change(receiver, seed=7)
        fresh = PatriciaTrie.from_prefixes(updated.items(), 32)

        early = ReceiverState(receiver)
        # Built here, then updated in place.
        assert len(early.patricia) == len(receiver)
        early.apply_update(add=added, remove=removed)

        late = ReceiverState(receiver)
        late.apply_update(add=added, remove=removed)
        assert late._patricia is None  # the update did not build it

        for state in (early, late):
            assert state.patricia.check_invariant()
            assert dict(state.patricia.entries()) == dict(fresh.entries())
            assert len(state.patricia) == len(fresh) == len(updated)
            assert dict(state.trie.entries()) == updated

    @pytest.mark.parametrize("method", ["simple", "advance"])
    def test_patricia_technique_tables_identical(
        self, pair_tables, pair_structures, method
    ):
        _sender, receiver = pair_tables
        sender_trie, _state = pair_structures
        added, removed, updated = _route_change(receiver, seed=11)

        def table_for(state):
            if method == "simple":
                builder = SimpleMethod(state, "patricia")
            else:
                builder = AdvanceMethod(sender_trie, state, "patricia")
            return _table_signature(builder.build_table(sender_trie.prefixes()))

        early = ReceiverState(receiver)
        assert len(early.patricia) == len(receiver)
        early.apply_update(add=added, remove=removed)
        late = ReceiverState(receiver)
        late.apply_update(add=added, remove=removed)
        want = table_for(ReceiverState(updated.items()))
        assert any(row[3] is not None for row in want.values())
        assert table_for(early) == want
        assert table_for(late) == want
