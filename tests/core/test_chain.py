"""Tests for the TRANSFORMATION table chain (Table II behaviour)."""

import random

from repro.core import CuckooGraphConfig
from repro.core.chain import TableChain
from repro.core.counters import Counters
from repro.core.hashing import HashFamily


def make_chain(n=4, R=3, d=4, G=0.9, lam=0.4, drain_source=None, seed=3):
    config = CuckooGraphConfig(
        d=d, R=R, G=G, lam=min(lam, 2.0 * G / 3.0), T=100,
        initial_scht_length=n, seed=seed
    )
    return TableChain(
        config=config,
        hash_family=HashFamily("mult", seed),
        initial_length=n,
        counters=Counters(),
        rng=random.Random(seed),
        drain_source=drain_source,
    )


def fill_chain(chain, count, start=0):
    leftovers = []
    for key in range(start, start + count):
        leftovers.extend(chain.insert(key, key))
    return leftovers


class TestIntegerThresholds:
    """The per-item checks compare integers; they must decide exactly as the
    loading-rate divisions they replace, at every size and for awkward floats."""

    def test_thresholds_decide_like_the_float_predicates(self):
        for G, lam in [(0.9, 0.4), (0.8, 0.5), (0.85, 0.0), (0.95, 0.6), (1.0, 0.3), (0.1, 0.05)]:
            for n, d in [(1, 1), (2, 2), (4, 8), (7, 3), (64, 8)]:
                chain = make_chain(n=n, d=d, G=G, lam=lam)
                chain.expand()
                lam = chain.config.lam
                newest_cells = chain.tables[-1].num_cells
                for size in range(newest_cells + 2):
                    grows = (size + 1) / newest_cells > G or size / newest_cells >= G
                    assert (size > chain._grow_above) == grows, (G, n, d, size)
                for size in range(chain.total_cells + 2):
                    shrinks = size / chain.total_cells < lam
                    assert (size < chain._shrink_below) == shrinks, (lam, n, d, size)

    def test_running_totals_follow_every_operation(self):
        chain = make_chain(n=2, d=2, lam=0.4)
        rng = random.Random(5)
        present = set()
        for step in range(600):
            key = rng.randrange(80)
            if key in present:
                deleted, leftovers = chain.delete(key)
                assert deleted
                present.discard(key)
            else:
                leftovers = chain.insert(key, step)
                present.add(key)
            present.difference_update(k for k, _ in leftovers)
            assert len(chain) == sum(len(table) for table in chain.tables) == len(present)
            assert chain.total_cells == sum(table.num_cells for table in chain.tables)


class TestTable2Rule:
    def test_initial_state_single_table_of_length_n(self):
        chain = make_chain(n=4)
        assert chain.table_lengths == [4]
        assert chain.transform_step == 0

    def test_table2_length_sequence(self):
        """Expanding repeatedly must reproduce the Table II length pattern."""
        chain = make_chain(n=4, R=3)
        expected = [
            [4, 2],          # step 1
            [4, 2, 2],       # step 2
            [8, 4],          # step 3: merge to 2n, open n
            [8, 4, 4],       # step 4
            [16, 8],         # step 5
            [16, 8, 8],      # step 6
            [32, 16],        # step 7
        ]
        for lengths in expected:
            chain.expand()
            assert chain.table_lengths == lengths

    def test_expansion_preserves_contents(self):
        chain = make_chain(n=4)
        fill_chain(chain, 30)
        before = dict(chain.items())
        chain.expand()
        chain.expand()
        chain.expand()  # includes a merge
        assert dict(chain.items()) == before

    def test_expansion_triggered_by_loading_rate(self):
        chain = make_chain(n=2, d=4, G=0.5)
        fill_chain(chain, 200)
        assert chain.num_tables >= 2
        assert len(chain) == 200
        assert sorted(chain.keys()) == list(range(200))

    def test_never_more_than_R_tables(self):
        chain = make_chain(n=2, R=3, d=4)
        fill_chain(chain, 500)
        assert chain.num_tables <= 3

    def test_overall_loading_rate_bounded_by_G_after_inserts(self):
        chain = make_chain(n=2, d=8, G=0.9)
        fill_chain(chain, 1000)
        assert chain.overall_loading_rate <= 0.95


class TestLookupAndDelete:
    def test_get_and_contains_across_tables(self):
        chain = make_chain(n=2, d=4)
        leftovers = fill_chain(chain, 300)
        # Pairs the chain could not place are returned to the caller (the
        # graph parks them in the S-DL); everything else must be findable.
        parked = {key for key, _ in leftovers}
        assert set(chain.keys()) | parked == set(range(300))
        resident = next(key for key in range(300) if key not in parked)
        assert resident in chain
        assert chain.get(resident) == resident
        assert chain.get(10_000) is None

    def test_insert_overwrites_across_tables(self):
        chain = make_chain(n=2, d=4)
        leftovers = fill_chain(chain, 300)
        parked = {key for key, _ in leftovers}
        resident = next(key for key in range(300) if key not in parked)
        size_before = len(chain)
        chain.insert(resident, "updated")
        assert chain.get(resident) == "updated"
        assert len(chain) == size_before

    def test_insert_overwrites_in_newest_table_when_it_expands(self):
        """Regression: re-inserting a key that lives in the newest table, on
        the very insert that expands the chain, used to store it twice (the
        overwrite scan only covered the tables that were older *before* the
        expansion)."""
        chain = make_chain(n=2, d=4)
        key = 0
        while chain.tables[-1]._size <= chain._grow_above:
            assert chain.insert(key, key) == []
            key += 1
        resident = next(k for k in range(key) if k in chain.tables[-1])
        tables, size = len(chain.tables), len(chain)
        assert chain.insert(resident, "updated") == []
        assert chain.keys().count(resident) == 1
        assert chain.get(resident) == "updated"
        assert (len(chain.tables), len(chain)) == (tables, size)

    def test_update_returns_false_for_missing(self):
        chain = make_chain()
        fill_chain(chain, 10)
        assert chain.update(3, "x") is True
        assert chain.get(3) == "x"
        assert chain.update(999, "x") is False

    def test_delete_returns_flag(self):
        chain = make_chain()
        fill_chain(chain, 20)
        deleted, _ = chain.delete(7)
        assert deleted is True
        deleted, _ = chain.delete(7)
        assert deleted is False
        assert len(chain) == 19

    def test_reverse_transformation_contracts(self):
        chain = make_chain(n=2, d=4, lam=0.4)
        parked = {key for key, _ in fill_chain(chain, 400)}
        assert sorted(chain.keys() + list(parked)) == list(range(400))
        cells_full = chain.total_cells
        for key in range(380):
            deleted, leftovers = chain.delete(key)
            # A key the chain handed back earlier lives with the caller (the
            # graph's S-DL), so the chain reports it missing.
            assert deleted is (key not in parked)
            parked.discard(key)
            parked.update(k for k, _ in leftovers)
        assert chain.total_cells < cells_full
        assert sorted(chain.keys() + list(parked)) == list(range(380, 400))

    def test_contraction_never_loses_items(self):
        chain = make_chain(n=2, d=4, lam=0.5, G=0.9)
        insert_leftovers = fill_chain(chain, 256)
        survivors = set(chain.keys())
        assert survivors | {key for key, _ in insert_leftovers} == set(range(256))
        rng = random.Random(5)
        victims = rng.sample(sorted(survivors), int(len(survivors) * 0.8))
        displaced: set[int] = set()
        for key in victims:
            deleted, leftovers = chain.delete(key)
            if key in displaced:
                # A contraction already handed this key back to the caller
                # (it would live in the S-DL); deleting it there is the
                # graph's job, so the chain correctly reports it missing.
                assert not deleted
                displaced.discard(key)
            else:
                assert deleted
            displaced.update(k for k, _ in leftovers)
            survivors.discard(key)
        # A contraction may hand back the occasional pair (the graph parks it
        # in the S-DL); nothing may simply vanish, and such cases stay rare.
        assert set(chain.keys()) | displaced == survivors
        assert len(displaced) <= max(2, len(victims) // 20)

    def test_contraction_skipped_when_it_would_overfill(self):
        chain = make_chain(n=8, d=4, lam=0.4, G=0.5)
        fill_chain(chain, 40)
        # Delete down to just above half of the *current* capacity so that a
        # halving would exceed G; the chain must keep its size.
        tables_before = chain.table_lengths
        chain.delete(0)
        assert chain.table_lengths == tables_before or len(chain) <= chain.total_cells * 0.5


class TestDenylistDrain:
    def test_drain_source_called_on_expansion(self):
        parked = [(1000, "parked"), (1001, "parked")]
        calls = []

        def drain():
            calls.append(True)
            items, parked[:] = list(parked), []
            return items

        chain = make_chain(n=2, d=4, drain_source=drain)
        fill_chain(chain, 100)
        assert calls, "expansion should have drained the denylist"
        assert chain.get(1000) == "parked"
        assert chain.get(1001) == "parked"

    def test_expand_on_failure_grows_newest_table(self):
        chain = make_chain(n=2, d=4)
        fill_chain(chain, 20)
        length_before = chain.tables[-1].length
        chain.expand_on_failure(factor=1.5)
        assert chain.tables[-1].length > length_before
        assert sorted(chain.keys()) == list(range(20))


class TestMemoryModel:
    def test_modelled_bytes_sums_tables(self):
        chain = make_chain(n=4, d=4)
        chain.expand()
        per_cell = 8
        expected = sum(table.num_cells for table in chain.tables) * per_cell
        assert chain.modelled_bytes(per_cell) == expected
