"""An in-process Redis-like command server with a CuckooGraph module.

Section V-F deploys CuckooGraph inside Redis through the Redis Module API,
exposing ``insert`` / ``del`` / ``query`` / ``getneighbors`` commands and the
RDB persistence hooks (``save_rdb`` / ``load_rdb``).  The real Redis server
is out of scope for an offline pure-Python reproduction, so this module
provides the closest structural equivalent:

* :class:`MiniRedisServer` -- a command dispatcher that parses textual
  commands (simulating the protocol/dispatch overhead that
  dominates the measured throughput in the paper: native Redis peaks at
  ~0.16 Mops on the authors' server, and CuckooGraph-on-Redis reaches
  0.04-0.05 Mops);
* :class:`CuckooGraphModule` -- a loadable module registering the graph
  commands and the persistence callbacks on top of a
  :class:`~repro.core.weighted.WeightedCuckooGraph`;
* RDB-style snapshots (a JSON document of every module's data).

The substitution preserves what the experiment measures: every graph
operation pays command parsing, dispatch and reply formatting on top of the
data-structure cost, so the relative drop from raw CuckooGraph throughput to
"CuckooGraph on Redis" throughput has the same cause as in the paper.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator, Optional, Sequence

from ..core.errors import IntegrationError
from ..core.weighted import WeightedCuckooGraph
from ..interfaces import DynamicGraphStore

#: Signature of a command handler: (server, args) -> reply.
CommandHandler = Callable[["MiniRedisServer", Sequence[str]], object]


class RedisModule:
    """Base class for loadable modules (mirrors the Redis Module API surface)."""

    #: Module name reported by :meth:`MiniRedisServer.loaded_modules`.
    name = "module"

    def commands(self) -> dict[str, CommandHandler]:
        """Mapping from command name (upper case) to handler."""
        return {}

    def save_rdb(self) -> dict:
        """Serialisable snapshot of the module's data (RDB hook)."""
        return {}

    def load_rdb(self, payload: dict) -> None:
        """Restore the module's data from a snapshot (RDB hook)."""


class CuckooGraphModule(RedisModule):
    """Redis module exposing a weighted CuckooGraph as ``G*`` commands.

    Commands (case-insensitive):

    * ``GINSERT u v``      -- insert the edge (or bump its weight); replies ``:w``
    * ``GDEL u v``         -- decrement / delete the edge; replies ``:1`` or ``:0``
    * ``GQUERY u v``       -- reply the weight of the edge (``:0`` if absent)
    * ``GNEIGHBORS u``     -- reply the successor list of ``u``
    * ``GSIZE``            -- reply the number of distinct edges
    """

    name = "cuckoograph"

    def __init__(self, graph: Optional[WeightedCuckooGraph] = None):
        self.graph = graph if graph is not None else WeightedCuckooGraph()

    # -- command handlers ------------------------------------------------ #

    def commands(self) -> dict[str, CommandHandler]:
        return {
            "GINSERT": self._cmd_insert,
            "GDEL": self._cmd_delete,
            "GQUERY": self._cmd_query,
            "GNEIGHBORS": self._cmd_neighbors,
            "GSIZE": self._cmd_size,
        }

    def _cmd_insert(self, server: "MiniRedisServer", args: Sequence[str]) -> int:
        u, v = _parse_edge(args, "GINSERT")
        return self.graph.insert_weighted_edge(u, v)

    def _cmd_delete(self, server: "MiniRedisServer", args: Sequence[str]) -> int:
        u, v = _parse_edge(args, "GDEL")
        return 1 if self.graph.delete_edge(u, v) else 0

    def _cmd_query(self, server: "MiniRedisServer", args: Sequence[str]) -> int:
        u, v = _parse_edge(args, "GQUERY")
        return self.graph.edge_weight(u, v)

    def _cmd_neighbors(self, server: "MiniRedisServer", args: Sequence[str]) -> list[int]:
        if len(args) != 1:
            raise IntegrationError("GNEIGHBORS expects exactly one argument")
        return sorted(self.graph.successors(int(args[0])))

    def _cmd_size(self, server: "MiniRedisServer", args: Sequence[str]) -> int:
        return self.graph.num_edges

    # -- persistence hooks ------------------------------------------------ #

    def save_rdb(self) -> dict:
        return {"edges": [[u, v, w] for u, v, w in self.graph.weighted_edges()]}

    def load_rdb(self, payload: dict) -> None:
        self.graph = WeightedCuckooGraph()
        for u, v, w in payload.get("edges", []):
            self.graph.insert_weighted_edge(int(u), int(v), int(w))


class MiniRedisServer:
    """A tiny single-threaded command server with module support.

    Every command comes from a loaded module.  Every call goes through
    textual parsing and dispatch, which is deliberately the dominant cost.
    """

    def __init__(self):
        self._modules: dict[str, RedisModule] = {}
        self._commands: dict[str, CommandHandler] = {}
        self.commands_processed = 0

    # ------------------------------------------------------------------ #
    # Module management (--loadmodule equivalent)
    # ------------------------------------------------------------------ #

    def load_module(self, module: RedisModule) -> None:
        """Register a module and its commands (``--loadmodule`` equivalent)."""
        if module.name in self._modules:
            raise IntegrationError(f"module {module.name!r} already loaded")
        for command, handler in module.commands().items():
            upper = command.upper()
            if upper in self._commands:
                raise IntegrationError(f"command {upper} already registered")
            self._commands[upper] = handler
        self._modules[module.name] = module

    def loaded_modules(self) -> list[str]:
        """Names of the loaded modules."""
        return sorted(self._modules)

    # ------------------------------------------------------------------ #
    # Command execution
    # ------------------------------------------------------------------ #

    def execute(self, command_line: str | Sequence[str]):
        """Parse and execute one command; return its reply.

        Accepts either a raw command line (``"GINSERT 1 2"``) or a
        pre-tokenised argument sequence.
        """
        if isinstance(command_line, str):
            tokens = command_line.split()
        else:
            tokens = [str(token) for token in command_line]
        if not tokens:
            raise IntegrationError("empty command")
        name, args = tokens[0].upper(), tokens[1:]
        handler = self._commands.get(name)
        if handler is None:
            raise IntegrationError(f"unknown command {name!r}")
        self.commands_processed += 1
        return handler(self, args)

    def execute_many(self, command_lines: Sequence[str | Sequence[str]]) -> list:
        """Execute a batch of commands; return the list of replies."""
        return [self.execute(line) for line in command_lines]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save_rdb(self) -> str:
        """Serialise every module's data to a JSON snapshot."""
        snapshot = {
            "modules": {name: module.save_rdb() for name, module in self._modules.items()},
        }
        return json.dumps(snapshot)

    def load_rdb(self, snapshot: str) -> None:
        """Restore module data from a JSON snapshot."""
        payload = json.loads(snapshot)
        for name, module_payload in payload.get("modules", {}).items():
            module = self._modules.get(name)
            if module is None:
                raise IntegrationError(f"snapshot references unloaded module {name!r}")
            module.load_rdb(module_payload)


class RedisGraphStore(DynamicGraphStore):
    """Distinct-edge :class:`DynamicGraphStore` facade over mini-Redis.

    Every operation travels the full command path -- textual parsing,
    dispatch, reply formatting -- through a :class:`MiniRedisServer` with a
    loaded :class:`CuckooGraphModule`, so the scheme keeps paying exactly
    the overhead the Figure 17 experiment measures while still speaking the
    store contract.  That is what lets the integration participate in the
    store-contract matrix, the differential fuzzer and subgraph extraction
    (via :meth:`spawn_empty`) like every other scheme.

    The module's graph is weighted (duplicate ``GINSERT`` bumps a weight);
    this facade enforces the contract's distinct-edge semantics with a
    membership probe before every mutation, the same way the paper's Redis
    module client would guard a set-like API.
    """

    name = "MiniRedis"

    def __init__(self, server: Optional[MiniRedisServer] = None):
        if server is None:
            server = MiniRedisServer()
            server.load_module(CuckooGraphModule())
        module = server._modules.get("cuckoograph")
        if not isinstance(module, CuckooGraphModule):
            raise IntegrationError(
                "RedisGraphStore needs a server with the cuckoograph module loaded"
            )
        self._server = server
        self._module = module

    @property
    def server(self) -> MiniRedisServer:
        """The underlying command server (for RDB snapshots)."""
        return self._server

    def spawn_empty(self) -> "RedisGraphStore":
        """Fresh empty server + module, mirroring this configuration."""
        return RedisGraphStore()

    # -- store contract, one command round-trip per probe/mutation ------- #

    def insert_edge(self, u: int, v: int) -> bool:
        if self._server.execute(("GQUERY", u, v)) > 0:
            return False
        self._server.execute(("GINSERT", u, v))
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return self._server.execute(("GQUERY", u, v)) > 0

    def delete_edge(self, u: int, v: int) -> bool:
        if self._server.execute(("GQUERY", u, v)) == 0:
            return False
        # GDEL decrements the module graph's weight and only replies 1 once
        # the edge is actually gone; a wrapped pre-loaded server may hold
        # weights above 1, so drain until removal to keep the facade's
        # distinct-edge contract (delete_edge True => edge removed).
        while not self._server.execute(("GDEL", u, v)):
            pass
        return True

    def successors(self, u: int) -> list[int]:
        return self._server.execute(("GNEIGHBORS", u))

    def edges(self) -> Iterator[tuple[int, int]]:
        # Quiesced introspection reads the module's graph directly, the way
        # the service client reads its store: enumeration is a diagnostic
        # scan, not part of the measured command traffic.
        return self._module.graph.edges()

    @property
    def num_edges(self) -> int:
        return self._server.execute("GSIZE")

    def memory_bytes(self) -> int:
        return self._module.graph.memory_bytes()

    @property
    def accesses(self) -> int:
        return self._module.graph.accesses

    def reset_accesses(self) -> None:
        self._module.graph.reset_accesses()


def _parse_edge(args: Sequence[str], command: str) -> tuple[int, int]:
    if len(args) != 2:
        raise IntegrationError(f"{command} expects exactly two arguments (u, v)")
    try:
        return int(args[0]), int(args[1])
    except ValueError as error:
        raise IntegrationError(f"{command} arguments must be integers") from error
