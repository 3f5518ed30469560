"""Property-based tests for the addressing layer (hypothesis)."""

import pytest
from hypothesis import given, strategies as st

from repro.addressing import (
    Address,
    Prefix,
    PrefixLengthError,
    format_ipv4,
    format_ipv6,
    parse_ipv4,
    parse_ipv6,
)

addresses32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
addresses128 = st.integers(min_value=0, max_value=(1 << 128) - 1)


@st.composite
def prefixes(draw, width=32):
    length = draw(st.integers(min_value=0, max_value=width))
    bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1)) if length else 0
    return Prefix(bits, length, width)


@given(addresses32)
def test_ipv4_format_parse_roundtrip(value):
    assert parse_ipv4(format_ipv4(value)) == value


@given(addresses128)
def test_ipv6_format_parse_roundtrip(value):
    assert parse_ipv6(format_ipv6(value)) == value


@given(prefixes())
def test_bitstring_roundtrip(prefix):
    assert Prefix.from_bitstring(prefix.bitstring()) == prefix


@given(prefixes(), st.integers(min_value=0, max_value=32))
def test_truncate_is_prefix(prefix, length):
    length = min(length, prefix.length)
    assert prefix.truncate(length).is_prefix_of(prefix)


@given(prefixes())
def test_child_parent_inverse(prefix):
    if prefix.length < prefix.width:
        for bit in (0, 1):
            assert prefix.child(bit).parent() == prefix


@given(prefixes(), prefixes())
def test_common_with_is_symmetric(a, b):
    assert a.common_with(b) == b.common_with(a)


@given(prefixes(), prefixes())
def test_common_with_is_common(a, b):
    common = a.common_with(b)
    assert common.is_prefix_of(a)
    assert common.is_prefix_of(b)


@given(prefixes(), prefixes())
def test_common_with_is_longest(a, b):
    common = a.common_with(b)
    if common.length < min(a.length, b.length):
        # The next bit must differ, otherwise common would be longer.
        assert a.bit(common.length) != b.bit(common.length)


@given(prefixes(), prefixes(), prefixes())
def test_is_prefix_of_transitive(a, b, c):
    if a.is_prefix_of(b) and b.is_prefix_of(c):
        assert a.is_prefix_of(c)


@given(prefixes(), addresses32)
def test_matches_iff_leading_bits_equal(prefix, value):
    address = Address(value, 32)
    assert prefix.matches(address) == (
        address.leading_bits(prefix.length) == prefix.bits
    )


@given(prefixes())
def test_address_range_covers_exactly(prefix):
    low, high = prefix.address_range()
    assert high - low + 1 == 1 << (prefix.width - prefix.length)
    assert prefix.matches(Address(low, prefix.width))
    assert prefix.matches(Address(high, prefix.width))
    if low > 0:
        assert not prefix.matches(Address(low - 1, prefix.width))
    if high < (1 << prefix.width) - 1:
        assert not prefix.matches(Address(high + 1, prefix.width))


@given(prefixes(), st.integers(min_value=0, max_value=31))
def test_address_prefix_agrees_with_matches(prefix, length):
    address = prefix.network_address()
    derived = address.prefix(min(length, prefix.length))
    assert derived.matches(address)


@given(st.lists(prefixes(), min_size=2, max_size=10))
def test_ordering_is_total(items):
    ordered = sorted(items)
    for first, second in zip(ordered, ordered[1:]):
        assert first <= second


# ---------------------------------------------------------------------------
# Derived prefixes (truncate/child/parent/Address.prefix) skip re-validation,
# so they must be indistinguishable from a checked ``Prefix(bits, length, width)``.

widths = st.sampled_from([32, 128])


@st.composite
def prefixes_any_width(draw):
    return draw(prefixes(width=draw(widths)))


def assert_same_as_checked(derived, bits, length, width):
    checked = Prefix(bits, length, width)
    assert type(derived) is Prefix
    assert (derived.bits, derived.length, derived.width) == (bits, length, width)
    assert derived == checked and checked == derived
    assert hash(derived) == hash(checked)
    assert derived <= checked and checked <= derived
    assert not derived < checked and not checked < derived
    assert str(derived) == str(checked)


@given(prefixes_any_width(), st.integers(min_value=0, max_value=128))
def test_derived_prefixes_equal_checked_ones(prefix, cut):
    width, bits, length = prefix.width, prefix.bits, prefix.length
    cut = min(cut, length)
    assert_same_as_checked(
        prefix.truncate(cut), bits >> (length - cut), cut, width
    )
    if length < width:
        for bit in (0, 1):
            assert_same_as_checked(
                prefix.child(bit), (bits << 1) | bit, length + 1, width
            )
    if length:
        assert_same_as_checked(prefix.parent(), bits >> 1, length - 1, width)
    address = prefix.network_address()
    assert_same_as_checked(address.prefix(length), bits, length, width)
    assert_same_as_checked(address.prefix(cut), bits >> (length - cut), cut, width)


@given(prefixes_any_width())
def test_derived_prefixes_still_reject_bad_arguments(prefix):
    with pytest.raises(PrefixLengthError):
        prefix.truncate(-1)
    with pytest.raises(PrefixLengthError):
        prefix.truncate(prefix.length + 1)
    with pytest.raises(ValueError):
        prefix.child(2)
    full = Prefix(0, prefix.width, prefix.width)
    with pytest.raises(PrefixLengthError):
        full.child(0)
    with pytest.raises(PrefixLengthError):
        Prefix.root(prefix.width).parent()
    address = prefix.network_address()
    with pytest.raises(PrefixLengthError):
        address.prefix(prefix.width + 1)
    with pytest.raises(PrefixLengthError):
        address.prefix(-1)
