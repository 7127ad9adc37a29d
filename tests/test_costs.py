"""The gas meter: a receipt merges each label's charges in first-charge
order, the same items as the merge over the list of charges it replaced."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from relaysim.costs import GasCostTable, GasMeter

TABLE = GasCostTable()
LABELS = [f.name for f in fields(GasCostTable)]


class _ListMeter:
    """The earlier meter, kept as the reference: every charge appended to a
    list, merged per label when the receipt is read."""

    def __init__(self, table):
        self.table = table
        self._items = []

    def charge(self, label, count=1):
        if count < 0:
            raise ValueError("charge count must be non-negative")
        if count:
            self._items.append((label, count, self.table.unit(label)))

    def receipt_items(self):
        merged = {}
        for label, count, _ in self._items:
            merged[label] = merged.get(label, 0) + count
        return tuple((label, count, self.table.unit(label)) for label, count in merged.items())


def _outcome(meter, label, count):
    try:
        meter.charge(label, count)
    except (ValueError, KeyError) as exc:
        return type(exc)
    return None


charges = st.lists(
    st.tuples(st.sampled_from([*LABELS[:4], "no_such_primitive"]), st.integers(-2, 5)),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(charges)
def test_merge_as_you_charge_matches_the_list_merge(seq):
    meter, reference = GasMeter(TABLE, "op"), _ListMeter(TABLE)
    for label, count in seq:
        assert _outcome(meter, label, count) == _outcome(reference, label, count)
    receipt = meter.receipt()
    assert receipt.operation == "op"
    assert receipt.items == reference.receipt_items()
    assert receipt.total == sum(count * unit for _, count, unit in reference.receipt_items())


def test_charge_refuses_negative_counts_and_unknown_labels():
    meter = GasMeter(TABLE, "op")
    meter.charge("hash_op", 2)
    with pytest.raises(ValueError):
        meter.charge("hash_op", -1)
    with pytest.raises(KeyError):
        meter.charge("no_such_primitive", 1)
    meter.charge("no_such_primitive", 0)  # a zero charge records nothing
    meter.charge("sload_word", 0)
    meter.charge("hash_op", 3)
    assert meter.receipt().items == (("hash_op", 5, TABLE.hash_op),)


@pytest.mark.parametrize("label", ["with_overrides", "unit", "_units", "__class__"])
def test_only_gas_constants_are_labels(label):
    """A label is checked against the table's map of gas constants: other
    attributes of the table are unknown primitives, to `unit` and to a
    charge alike."""
    with pytest.raises(KeyError, match="unknown gas primitive"):
        TABLE.unit(label)
    with pytest.raises(KeyError, match="unknown gas primitive"):
        GasMeter(TABLE, "op").charge(label)


def test_receipt_total_is_made_once_from_its_items():
    """`total` is stored when a receipt is made, from its items, and made
    again for a copy with other items; it takes no part in equality."""
    from dataclasses import replace

    from relaysim.costs import GasReceipt

    receipt = GasReceipt("op", (("hash_op", 3, 60), ("call_overhead", 1, 21_000)))
    assert receipt.total == 21_180 and "total" in GasReceipt.__slots__
    assert replace(receipt, items=(("hash_op", 2, 60),)).total == 120
    with pytest.raises(TypeError):
        GasReceipt("op", (), total=5)
