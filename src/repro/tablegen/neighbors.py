"""Deriving *neighbouring* forwarding tables with controlled similarity.

The premise of the clue scheme is that neighbouring routers hold very
similar tables (§3).  This module derives a neighbour's table from a base
table with explicit knobs for every way real neighbours diverge:

* ``drop`` — routes the neighbour filters or never heard (BGP policy);
* ``add`` — routes only the neighbour has (its own customers/peers);
* ``add_specifics`` — more-specifics only the neighbour has.  These are
  *exactly* what creates the paper's "problematic clues": a clue ``s`` of
  the sender below which the receiver holds a prefix the sender lacks;
* ``aggregate`` — groups of the base table's more-specifics the neighbour
  has aggregated away (replaced by their covering prefix), producing
  Advance-method case 1 (clue vertex absent at the receiver);
* ``rehop`` — shared prefixes whose next hop differs.

The seven named routers of the paper's §6 (Table 1) are reconstructed by
:func:`paper_router_tables`, with all cross-similarities calibrated so the
pair statistics land in the regime of Tables 2 and 3.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.addressing import Prefix
from repro.tablegen.synthetic import Entry, TableGenerator, generate_table

#: Sizes of the paper's seven router tables (Table 1).
PAPER_TABLE_SIZES: Dict[str, int] = {
    "MAE-East": 42986,
    "MAE-West": 23123,
    "Paix": 5974,
    "AT&T-1": 23414,
    "AT&T-2": 60475,
    "ISP-B-1": 56034,
    "ISP-B-2": 55959,
}

#: The ordered (sender, receiver) pairs evaluated in the paper's tables.
PAPER_PAIRS: List[Tuple[str, str]] = [
    ("MAE-East", "MAE-West"),
    ("MAE-East", "Paix"),
    ("Paix", "MAE-East"),
    ("AT&T-1", "AT&T-2"),
    ("AT&T-2", "AT&T-1"),
    ("ISP-B-1", "ISP-B-2"),
    ("ISP-B-2", "ISP-B-1"),
]


class NeighborProfile:
    """Perturbation knobs describing how a neighbour's table differs."""

    def __init__(
        self,
        drop: float = 0.01,
        add: float = 0.01,
        add_specifics: float = 0.005,
        aggregate: float = 0.002,
        rehop: float = 0.05,
    ):
        for name, value in (
            ("drop", drop),
            ("add", add),
            ("add_specifics", add_specifics),
            ("aggregate", aggregate),
            ("rehop", rehop),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be within [0, 1]" % name)
        self.drop = drop
        self.add = add
        self.add_specifics = add_specifics
        self.aggregate = aggregate
        self.rehop = rehop


def derive_neighbor(
    base: Sequence[Entry],
    profile: Optional[NeighborProfile] = None,
    seed: int = 1,
    next_hops: Sequence[object] = ("hop-a", "hop-b", "hop-c", "hop-d"),
    width: Optional[int] = None,
    histogram: Optional[dict] = None,
) -> List[Entry]:
    """Derive a neighbouring router's table from ``base``.

    ``width``/``histogram`` control the family of the *fresh* prefixes
    only the neighbour has.  ``width`` defaults to the width of the base
    entries (32 for an empty base); a base mixing address families, or
    one that disagrees with an explicit ``width``, raises ``ValueError``.
    At width 128 the histogram defaults to the IPv6 one.
    """
    base = list(base)
    widths = {prefix.width for prefix, _ in base}
    if width is not None:
        widths.add(width)
    if len(widths) > 1:
        raise ValueError(
            "derive_neighbor needs one address family, got widths %s"
            % sorted(widths)
        )
    width = widths.pop() if widths else 32
    if width == 128 and histogram is None:
        from repro.tablegen.histogram import DEFAULT_IPV6_HISTOGRAM

        histogram = DEFAULT_IPV6_HISTOGRAM
    profile = profile if profile is not None else NeighborProfile()
    rng = random.Random(seed)
    existing = {prefix for prefix, _ in base}
    result: Dict[Prefix, object] = {}

    # Aggregation: victims lose their more-specifics, keeping (or creating)
    # the covering prefix one to four bits shorter.
    aggregated: set = set()
    if profile.aggregate > 0:
        for prefix, _ in base:
            if prefix.length > 8 and rng.random() < profile.aggregate:
                aggregated.add(prefix)

    for prefix, next_hop in base:
        if prefix in aggregated:
            cover = prefix.truncate(max(prefix.length - rng.randint(1, 4), 1))
            result.setdefault(cover, next_hop)
            continue
        if rng.random() < profile.drop:
            continue
        hop = rng.choice(next_hops) if rng.random() < profile.rehop else next_hop
        result[prefix] = hop

    # Fresh prefixes only the neighbour has, planted in the same address
    # regions (under random base prefixes' top blocks).
    extra_count = round(len(base) * profile.add)
    extras = generate_table(
        extra_count,
        seed=seed + 101,
        width=width,
        next_hops=next_hops,
        histogram=histogram,
    )
    for prefix, next_hop in extras:
        if prefix not in existing:
            result.setdefault(prefix, next_hop)

    # More-specifics only the neighbour has — the problematic-clue source.
    specific_count = round(len(base) * profile.add_specifics)
    for _ in range(specific_count):
        parent, _ = base[rng.randrange(len(base))]
        room = width - parent.length
        if room < 1:
            continue
        extra_bits = rng.randint(1, min(8, room))
        bits = (parent.bits << extra_bits) | rng.getrandbits(extra_bits)
        specific = Prefix(bits, parent.length + extra_bits, width)
        if specific not in existing:
            result.setdefault(specific, rng.choice(next_hops))

    return sorted(result.items(), key=lambda item: (item[0].length, item[0].bits))


def subset_table(
    base: Sequence[Entry],
    count: int,
    seed: int = 2,
    extra_fraction: float = 0.01,
    hole_fraction: float = 0.02,
    specific_fraction: float = 0.008,
    next_hops: Sequence[object] = ("hop-a", "hop-b", "hop-c", "hop-d"),
    width: int = 32,
) -> List[Entry]:
    """A smaller router whose table is (almost) a subset of ``base``.

    Models the paper's route-server relationships: the Paix and MAE-West
    tables are nearly contained in MAE-East's (Table 3).  Sampling is
    *family-complete*: prefixes are grouped under their top-level marked
    ancestor and whole families are taken, because a router that holds an
    aggregate route almost always heard its more-specifics too.  Sampling
    independently instead would leave "holes" — the subset keeping an
    aggregate whose specifics only the big table has — and those holes are
    exactly what Claim 1 calls problematic, wildly inflating Table 2.

    Real subsets are not perfectly family-complete, so two knobs restore
    the paper's (small, nonzero) Table 2 counts: ``hole_fraction`` drops
    a few covered more-specifics (creating problematic clues towards the
    big table), and ``specific_fraction`` adds a few private
    more-specifics (creating problematic clues from the big table).
    """
    rng = random.Random(seed)
    base = list(base)
    count = min(count, len(base))
    from repro.trie.binary_trie import BinaryTrie

    trie = BinaryTrie.from_prefixes(base, width)
    families: Dict[Prefix, List[Entry]] = {}
    for prefix, next_hop in base:
        ancestor = trie.least_marked_ancestor(prefix)
        root = ancestor.prefix
        # repro: noqa[RC106] -- climbs marked ancestors; height <= prefix.length
        while True:
            above = trie.least_marked_ancestor(root, include_self=False)
            if above is None:
                break
            root = above.prefix
        families.setdefault(root, []).append((prefix, next_hop))
    order = sorted(families)
    rng.shuffle(order)
    result: Dict[Prefix, object] = {}
    for root in order:
        if len(result) >= count:
            break
        for prefix, next_hop in families[root]:
            result[prefix] = next_hop
    # Holes: drop a few covered more-specifics (kept by the big table).
    covered = [
        prefix
        for prefix in result
        if any(ancestor in result for ancestor in prefix.ancestors())
    ]
    rng.shuffle(covered)
    for prefix in covered[: round(len(result) * hole_fraction)]:
        del result[prefix]
    # Private more-specifics of included prefixes, absent from the base.
    base_prefixes = {prefix for prefix, _ in base}
    included = list(result)
    for _ in range(round(count * specific_fraction)):
        parent = included[rng.randrange(len(included))]
        room = width - parent.length
        if room < 1:
            continue
        extra_bits = rng.randint(1, min(6, room))
        bits = (parent.bits << extra_bits) | rng.getrandbits(extra_bits)
        specific = Prefix(bits, parent.length + extra_bits, width)
        if specific not in base_prefixes:
            result.setdefault(specific, rng.choice(next_hops))
    extras = generate_table(
        round(count * extra_fraction), seed=seed + 7, width=width, next_hops=next_hops
    )
    for prefix, next_hop in extras:
        result.setdefault(prefix, next_hop)
    return sorted(result.items(), key=lambda item: (item[0].length, item[0].bits))


def paper_router_tables(
    scale: float = 0.1, seed: int = 42
) -> Dict[str, List[Entry]]:
    """Synthetic stand-ins for the paper's seven routers (Table 1).

    ``scale`` multiplies every table size (1.0 reproduces paper-sized
    tables; the default 0.1 keeps the full 15-method matrix fast).
    Relationships encoded, per Tables 1 and 3:

    * MAE-West and Paix are near-subsets of MAE-East (route servers);
    * AT&T-1 is a near-subset of its bigger sibling AT&T-2;
    * ISP-B-1 and ISP-B-2 are same-size siblings with ~99 % overlap.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    sizes = {name: max(int(round(size * scale)), 50) for name, size in PAPER_TABLE_SIZES.items()}
    generator = TableGenerator()
    tables: Dict[str, List[Entry]] = {}

    mae_east = generator.generate(sizes["MAE-East"], seed=seed)
    tables["MAE-East"] = mae_east
    tables["MAE-West"] = subset_table(
        mae_east, sizes["MAE-West"], seed=seed + 1, extra_fraction=0.012
    )
    # Paix nests inside MAE-West (and hence inside MAE-East): Table 3 shows
    # its snapshot almost entirely contained in both route servers.
    tables["Paix"] = subset_table(
        tables["MAE-West"], sizes["Paix"], seed=seed + 2, extra_fraction=0.013
    )

    att2 = generator.generate(sizes["AT&T-2"], seed=seed + 3)
    tables["AT&T-2"] = att2
    tables["AT&T-1"] = subset_table(
        att2, sizes["AT&T-1"], seed=seed + 4, extra_fraction=0.002
    )

    ispb1 = generator.generate(sizes["ISP-B-1"], seed=seed + 5)
    tables["ISP-B-1"] = ispb1
    tables["ISP-B-2"] = derive_neighbor(
        ispb1,
        NeighborProfile(drop=0.009, add=0.008, add_specifics=0.0012, aggregate=0.0, rehop=0.05),
        seed=seed + 6,
    )
    return tables
