"""Stores into the cuckoo probe slots of a compiled clue table outside
the compiler: both flagged."""

from repro.fastpath.compile import CompiledClueTable


def plant_key(table: CompiledClueTable, slot, key):
    table.slot_key[slot] = key


def retarget_slot(table: CompiledClueTable, slot):
    table.slot_rec[slot] += 1
