"""Request-queue service layer: micro-batched traffic over a graph store.

The "serves heavy traffic" layer of the reproduction.  Client threads submit
requests to a :class:`GraphService` -- one operation each, or a list of up
to ``max_batch`` of them; the service coalesces single operations into
micro-batches (size window ``max_batch``, time window ``max_delay_s``),
dispatches each batch and each list through the store's batch APIs / the
analytics traversal engine, and routes results and exceptions back through
one future per request.  :class:`GraphClient` is the synchronous facade that makes the
whole thing look like a plain :class:`~repro.interfaces.DynamicGraphStore`.

Durable serving is the same path over a
:class:`~repro.persist.PersistentStore`: ``GraphClient.durable(path)``, or
``GraphService(store, durability="batch")`` -- which sets the store's
``sync_on_commit`` itself -- makes every dispatched mutation run one
pipelined store commit (the group commit: fsyncs beside the apply, and
beside the requests the dispatcher serves meanwhile), acknowledged in commit
order, so a resolved future means the write -- and every write committed
before it -- is on disk.

Quickstart::

    from repro.service import GraphClient

    client = GraphClient.local(num_shards=4)
    client.insert_edges([(1, 2), (1, 3)])
    assert client.has_edge(1, 2)
    print(client.service.metrics_summary()["latency"])
    client.close()
"""

from .batcher import KINDS, Request, gather_window, split_runs
from .client import GraphClient
from .errors import QueueFullError, ServiceClosedError, ServiceError
from .metrics import LatencyRecorder, ServiceMetrics, percentile
from .queue import POLICIES, BoundedRequestQueue
from .service import ANALYTICS_HANDLERS, DURABILITY_MODES, GraphService

__all__ = [
    "ANALYTICS_HANDLERS",
    "BoundedRequestQueue",
    "DURABILITY_MODES",
    "GraphClient",
    "GraphService",
    "KINDS",
    "LatencyRecorder",
    "POLICIES",
    "QueueFullError",
    "Request",
    "ServiceClosedError",
    "ServiceError",
    "ServiceMetrics",
    "gather_window",
    "percentile",
    "split_runs",
]
