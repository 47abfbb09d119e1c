"""Tests for the mini-Redis server and the CuckooGraph module (Section V-F)."""

import tracemalloc

import pytest

from repro.core.errors import IntegrationError
from repro.integrations import (
    CuckooGraphModule,
    MiniRedisServer,
    RedisGraphStore,
    RedisModule,
)


@pytest.fixture
def server() -> MiniRedisServer:
    instance = MiniRedisServer()
    instance.load_module(CuckooGraphModule())
    return instance


class TestDispatch:
    def test_unknown_command_raises(self):
        with pytest.raises(IntegrationError):
            MiniRedisServer().execute("FLUSHEVERYTHING")

    def test_empty_command_raises(self):
        with pytest.raises(IntegrationError):
            MiniRedisServer().execute("")

    def test_commands_processed_counter(self, server):
        server.execute("GSIZE")
        server.execute_many(["GSIZE", "GSIZE"])
        assert server.commands_processed == 3


class TestModuleLoading:
    def test_loadmodule_registers_commands(self, server):
        assert server.loaded_modules() == ["cuckoograph"]
        assert server.execute("GSIZE") == 0

    def test_double_load_rejected(self, server):
        with pytest.raises(IntegrationError):
            server.load_module(CuckooGraphModule())

    def test_conflicting_command_rejected(self, server):
        class Conflicting(RedisModule):
            name = "conflict"

            def commands(self):
                return {"gsize": lambda server, args: -1}

        with pytest.raises(IntegrationError):
            server.load_module(Conflicting())
        assert server.loaded_modules() == ["cuckoograph"]


class TestGraphCommands:
    def test_insert_query_neighbors_delete(self, server):
        assert server.execute("GINSERT 1 2") == 1
        assert server.execute("GINSERT 1 2") == 2          # weight bump
        assert server.execute("GINSERT 1 3") == 1
        assert server.execute("GQUERY 1 2") == 2
        assert server.execute("GNEIGHBORS 1") == [2, 3]
        assert server.execute("GSIZE") == 2
        assert server.execute("GDEL 1 3") == 1
        assert server.execute("GQUERY 1 3") == 0

    def test_argument_validation(self, server):
        with pytest.raises(IntegrationError):
            server.execute("GINSERT 1")
        with pytest.raises(IntegrationError):
            server.execute("GINSERT a b")
        with pytest.raises(IntegrationError):
            server.execute("GNEIGHBORS")

    def test_tokenised_command_form(self, server):
        assert server.execute(["GINSERT", 4, 5]) == 1
        assert server.execute(["GQUERY", "4", "5"]) == 1


class TestPersistence:
    def test_rdb_round_trip(self, server):
        server.execute("GINSERT 1 2")
        server.execute("GINSERT 1 2")
        snapshot = server.save_rdb()

        restored = MiniRedisServer()
        restored.load_module(CuckooGraphModule())
        restored.load_rdb(snapshot)
        assert restored.execute("GQUERY 1 2") == 2

    def test_rdb_with_unloaded_module_rejected(self, server):
        server.execute("GINSERT 1 2")
        snapshot = server.save_rdb()
        bare = MiniRedisServer()
        with pytest.raises(IntegrationError):
            bare.load_rdb(snapshot)


class TestRedisGraphStore:
    """The DynamicGraphStore facade that puts mini-Redis in the store matrix."""

    def test_distinct_edge_semantics_over_the_command_path(self):
        store = RedisGraphStore()
        assert store.insert_edge(1, 2) is True
        assert store.insert_edge(1, 2) is False  # duplicate must not stack weight
        assert store.delete_edge(1, 2) is True
        assert store.delete_edge(1, 2) is False
        assert not store.has_edge(1, 2)

    def test_every_operation_pays_command_dispatch(self):
        store = RedisGraphStore()
        before = store.server.commands_processed
        store.insert_edge(1, 2)     # probe + insert
        store.has_edge(1, 2)        # probe
        store.successors(1)         # neighbors
        store.delete_edge(1, 2)     # probe + delete
        assert store.server.commands_processed - before == 6

    def test_spawn_empty_is_a_fresh_server(self):
        store = RedisGraphStore()
        store.insert_edge(1, 2)
        fresh = store.spawn_empty()
        assert fresh.num_edges == 0
        assert fresh.server is not store.server
        assert fresh.insert_edge(1, 2) is True
        assert store.num_edges == 1

    def test_requires_the_module(self):
        with pytest.raises(IntegrationError):
            RedisGraphStore(MiniRedisServer())

    def test_wraps_a_preloaded_server(self):
        server = MiniRedisServer()
        server.load_module(CuckooGraphModule())
        server.execute("GINSERT 4 5")
        store = RedisGraphStore(server)
        assert store.has_edge(4, 5)
        assert sorted(store.edges()) == [(4, 5)]

    def test_delete_drains_preloaded_weights(self):
        """delete_edge True must mean removed, even over a weighted graph."""
        server = MiniRedisServer()
        server.load_module(CuckooGraphModule())
        server.execute("GINSERT 4 5")
        server.execute("GINSERT 4 5")  # weight 2, loaded outside the facade
        store = RedisGraphStore(server)
        assert store.delete_edge(4, 5) is True
        assert not store.has_edge(4, 5)
        assert store.num_edges == 0

    def test_cold_tier_holds_no_per_command_state(self):
        """The server keeps no record of the commands it ran: memory after
        11 k insert/delete cycles on one edge equals memory after 1 k."""
        store = RedisGraphStore()

        def cycles(count):
            for _ in range(count):
                store.insert_edge(1, 2)
                store.delete_edge(1, 2)

        cycles(100)  # warm up every lazily built structure
        tracemalloc.start()
        try:
            cycles(1_000)
            after_1k = tracemalloc.get_traced_memory()[0]
            cycles(10_000)
            after_11k = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after_11k - after_1k < 4096, (after_1k, after_11k)
