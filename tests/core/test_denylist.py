"""Tests for the DENYLIST vectors (S-DL and L-DL)."""

import pytest

from repro.core.denylist import LargeDenylist, SmallDenylist
from repro.core.errors import CapacityError


class TestSmallDenylist:
    def test_add_and_contains(self):
        denylist = SmallDenylist(capacity=8)
        denylist.add(1, 2)
        assert denylist.contains(1, 2)
        assert not denylist.contains(2, 1)
        assert len(denylist) == 1

    def test_payloads_round_trip(self):
        denylist = SmallDenylist(capacity=8)
        denylist.add(1, 2, payload=5)
        assert denylist.get(1, 2) == 5
        denylist.set(1, 2, 9)
        assert denylist.get(1, 2) == 9
        assert denylist.get(3, 4, "default") == "default"

    def test_remove(self):
        denylist = SmallDenylist(capacity=8)
        denylist.add(1, 2)
        assert denylist.remove(1, 2) is True
        assert denylist.remove(1, 2) is False
        assert len(denylist) == 0

    def test_capacity_enforced(self):
        denylist = SmallDenylist(capacity=2)
        denylist.add(1, 1)
        denylist.add(1, 2)
        with pytest.raises(CapacityError):
            denylist.add(1, 3)

    def test_re_adding_existing_edge_never_overflows(self):
        denylist = SmallDenylist(capacity=1)
        denylist.add(1, 1, payload="a")
        denylist.add(1, 1, payload="b")  # same edge: update, not overflow
        assert denylist.get(1, 1) == "b"

    def test_drain_for_source_removes_only_matching_entries(self):
        denylist = SmallDenylist(capacity=16)
        denylist.add(1, 10, "a")
        denylist.add(1, 11, "b")
        denylist.add(2, 12, "c")
        drained = dict(denylist.drain_for_source(1))
        assert drained == {10: "a", 11: "b"}
        assert len(denylist) == 1
        assert denylist.contains(2, 12)

    def test_successors_of_does_not_remove(self):
        denylist = SmallDenylist(capacity=16)
        denylist.add(3, 30)
        denylist.add(3, 31)
        assert sorted(v for v, _ in denylist.successors_of(3)) == [30, 31]
        assert len(denylist) == 2

    def test_modelled_bytes(self):
        denylist = SmallDenylist(capacity=16)
        denylist.add(1, 2)
        denylist.add(3, 4)
        assert denylist.modelled_bytes(16) == 32


class SpyDict(dict):
    """Counts entry reads and notices any walk over the whole dict."""

    reads = 0
    walks = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def pop(self, *args):
        self.reads += 1
        return super().pop(*args)

    def items(self):
        self.walks += 1
        return super().items()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def scan(denylist, u):
    """What the S-DL answered before it had an index: a scan of every entry."""
    return [(v, payload) for (src, v), payload in dict.items(denylist._entries) if src == u]


class TestSmallDenylistSourceIndex:
    def parked(self):
        """4 000 parked edges over 40 sources, interleaved, with removals,
        re-additions and payload updates along the way."""
        denylist = SmallDenylist(capacity=4096)
        for v in range(100):
            for u in range(40):
                denylist.add(u, 1000 * u + v, payload=(u, v))
        for u in range(0, 40, 3):
            assert denylist.remove(u, 1000 * u + 7)
            denylist.add(u, 1000 * u + 7, payload="back")     # now last for u
            denylist.add(u, 1000 * u + 50, payload="updated")  # keeps its place
            denylist.set(u, 1000 * u + 51, "set")
        assert len(denylist) == 4000
        return denylist

    def test_successors_of_touches_only_the_asked_source(self):
        denylist = self.parked()
        denylist._entries = spy = SpyDict(denylist._entries)
        for u in (0, 1, 17, 39):
            spy.reads = 0
            assert denylist.successors_of(u) == scan(denylist, u)
            assert spy.reads == 100
        assert denylist.successors_of(40) == []
        assert spy.walks == 0

    def test_drain_for_source_touches_only_the_asked_source(self):
        denylist = self.parked()
        order_before = list(denylist.items())
        denylist._entries = spy = SpyDict(denylist._entries)
        expected = scan(denylist, 9)
        assert denylist.drain_for_source(9) == expected
        assert (spy.reads, spy.walks) == (100, 0)
        assert denylist.drain_for_source(9) == [] == denylist.successors_of(9)
        assert len(denylist) == 3900
        assert list(denylist.items()) == [entry for entry in order_before if entry[0][0] != 9]

    def test_index_follows_removal_of_a_sources_last_entry(self):
        denylist = SmallDenylist(capacity=8)
        denylist.add(1, 2)
        assert denylist.remove(1, 2) and not denylist.remove(1, 2)
        assert denylist.successors_of(1) == [] and denylist._by_source == {}
        denylist.add(1, 3, "again")
        assert denylist.successors_of(1) == [(3, "again")]


class TestLargeDenylist:
    def test_add_get_remove(self):
        denylist = LargeDenylist(capacity=4)
        denylist.add(7, "part2-object")
        assert denylist.contains(7)
        assert denylist.get(7) == "part2-object"
        assert denylist.remove(7) is True
        assert denylist.remove(7) is False

    def test_capacity_enforced(self):
        denylist = LargeDenylist(capacity=1)
        denylist.add(1, "a")
        with pytest.raises(CapacityError):
            denylist.add(2, "b")

    def test_drain_removes_everything(self):
        denylist = LargeDenylist(capacity=4)
        denylist.add(1, "a")
        denylist.add(2, "b")
        drained = dict(denylist.drain())
        assert drained == {1: "a", 2: "b"}
        assert len(denylist) == 0

    def test_items_and_keys(self):
        denylist = LargeDenylist(capacity=4)
        denylist.add(5, "x")
        assert list(denylist.items()) == [(5, "x")]
        assert list(denylist.keys()) == [5]

    def test_modelled_bytes(self):
        denylist = LargeDenylist(capacity=4)
        denylist.add(5, "x")
        assert denylist.modelled_bytes(56) == 56
