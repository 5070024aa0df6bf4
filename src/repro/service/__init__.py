"""The serving layer: online relay selection over campaign history.

The offline side of the system (``repro.core``) measures; this package
*serves*: :class:`RelayDirectory` compiles observation tables into dense
ranked lookup lanes, :class:`ShortcutService` answers batched relay
queries with pair → country → direct fallback and ingests new rounds
incrementally, and :mod:`repro.service.loadgen` replays Zipf-shaped
synthetic user traffic against it to measure sustained queries/sec
(``repro serve-bench``).

Scale-out lives in :mod:`repro.service.cluster`: :class:`ClusterService`
serves one compiled segment from N worker processes over one shared
memory-mapped snapshot, each worker answering a contiguous row span of
every batch (answers byte-identical to the in-process service for any
worker count),
and :func:`cross_world_service` pools several world seeds' campaigns
behind one directory via node-identity unification.

Construct services with the keyword-only classmethods —
:meth:`ShortcutService.from_campaign` / ``from_table`` /
``from_snapshot`` / ``empty`` — and consume the typed results
(:class:`RouteAnswer`, :class:`RouteBatch`, :class:`ServiceStats`).
Snapshots have one format (:data:`SNAPSHOT_VERSION`): what
:meth:`ShortcutService.save` writes, :meth:`ShortcutService.from_snapshot`
restores and :meth:`ClusterService.from_snapshot` serves.
"""

from repro.service.cluster import (
    ClusterService,
    cross_world_service,
    load_cluster_snapshot,
)
from repro.service.directory import (
    SNAPSHOT_VERSION,
    TIER_COUNTRY,
    TIER_DIRECT,
    TIER_NAMES,
    TIER_PAIR,
    LaneBlock,
    RelayDirectory,
)
from repro.service.loadgen import (
    BLOCK_SIZE,
    LoadgenConfig,
    QueryStream,
    country_rank_order,
    replay,
)
from repro.service.results import (
    DegradationCounters,
    RouteAnswer,
    RouteBatch,
    ServiceStats,
)
from repro.service.service import ShortcutService

__all__ = [
    "BLOCK_SIZE",
    "ClusterService",
    "DegradationCounters",
    "LaneBlock",
    "LoadgenConfig",
    "QueryStream",
    "RelayDirectory",
    "RouteAnswer",
    "RouteBatch",
    "SNAPSHOT_VERSION",
    "ServiceStats",
    "ShortcutService",
    "TIER_COUNTRY",
    "TIER_DIRECT",
    "TIER_NAMES",
    "TIER_PAIR",
    "country_rank_order",
    "cross_world_service",
    "load_cluster_snapshot",
    "replay",
]
