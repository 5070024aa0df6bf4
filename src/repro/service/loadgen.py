"""Traffic replay: deterministic query streams and a serving benchmark.

A serving layer is only credible under load that *looks like* user
traffic, and overlay traffic is famously skewed: a few populous eyeball
country pairs dominate call volume.  The generator models that directly —
countries are ranked by their observed eyeball population (how many
distinct endpoint probes the directory saw there, the stand-in for the
scenario's APNIC user weights) and country *pairs* get Zipf-shaped
probabilities from the two ranks; endpoints are drawn uniformly inside
each chosen country.

Determinism is block-structured: the stream is cut into fixed-size blocks
and block ``b`` is synthesised from its own seeded generator
(``SeedSequence([seed, b])``), so any number of workers can synthesise
disjoint block ranges in parallel and the concatenated stream is
byte-identical regardless of the worker count (asserted in the tests).

:func:`replay` drives a :class:`~repro.service.service.ShortcutService`
with the stream in batches, measuring sustained queries/sec, the latency
of each batch and the tier mix, and digests the answers so two replays
can be compared exactly.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import obs
from repro.core.types import RelayType
from repro.errors import EmptyDirectoryError, ServiceError, UnknownCountryError
from repro.service.directory import RelayDirectory, TIER_NAMES
from repro.service.results import ServiceStats
from repro.service.service import ShortcutService

#: Queries per determinism block (the unit of parallel synthesis).
BLOCK_SIZE = 4096


@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    """Knobs of the query generator and the replay harness."""

    num_queries: int = 100_000
    """Total queries to synthesise and replay."""

    batch_size: int = 1024
    """Queries per :meth:`ShortcutService.route_many` call."""

    zipf_exponent: float = 1.1
    """Zipf exponent over the country popularity ranks (higher = more
    skew toward the most populous eyeball countries)."""

    seed: int = 0
    """Root seed of the block-structured query synthesis."""

    k: int = 3
    """Relay candidates requested per query."""

    relay_type: RelayType = RelayType.COR
    """Relay lane the replay queries."""

    workers: int = 1
    """Parallel synthesis shards.  Purely a partitioning knob: the stream
    is identical for every worker count."""

    country_weights: Mapping[str, float] | None = None
    """Optional per-country multipliers on the Zipf weights (the fault
    timeline's traffic-shift hook): a country's weight is scaled before
    pair probabilities normalise, 0 silences it entirely.  Countries not
    named keep multiplier 1.  Naming a country the directory never
    observed raises :class:`~repro.errors.UnknownCountryError`; weights
    that silence every pair produce a deterministic *empty* stream, not
    an error."""

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise ServiceError("num_queries must be >= 1")
        if self.country_weights is not None:
            for country, weight in self.country_weights.items():
                if not weight >= 0.0:
                    raise ServiceError(
                        f"country weight for {country!r} must be >= 0, "
                        f"got {weight}"
                    )
        if self.batch_size < 1:
            raise ServiceError("batch_size must be >= 1")
        if self.zipf_exponent <= 0:
            raise ServiceError("zipf_exponent must be positive")
        if self.k < 1:
            raise ServiceError("k must be >= 1")
        if self.workers < 1:
            raise ServiceError("workers must be >= 1")


def country_rank_order(directory: RelayDirectory) -> list[str]:
    """The directory's countries ranked by eyeball popularity.

    Rank 0 is the country with the most distinct observed endpoints, ties
    broken stably by country string — the order the Zipf head follows and
    the one rank-targeted traffic shifts resolve against.

    Raises:
        EmptyDirectoryError: when the directory knows no endpoints.
    """
    ep_cc = directory.endpoint_country_codes()
    ccs = ep_cc[ep_cc >= 0]
    if ccs.size == 0:
        raise EmptyDirectoryError("directory has no endpoints to rank")
    population = np.bincount(ccs)
    names = directory.countries()
    active = np.flatnonzero(population > 0)
    return [
        names[c]
        for c in sorted(
            active.tolist(), key=lambda c: (-int(population[c]), names[c])
        )
    ]


class QueryStream:
    """Deterministic endpoint-pair query synthesis over a directory."""

    def __init__(self, directory: RelayDirectory, config: LoadgenConfig) -> None:
        self._config = config
        ep_cc = directory.endpoint_country_codes()
        known = np.flatnonzero(ep_cc >= 0)
        if known.size == 0:
            raise EmptyDirectoryError(
                "directory has no endpoints to synthesise from"
            )
        ccs = ep_cc[known]
        # eyeball population per country = distinct endpoints observed there
        num_cc = int(ccs.max()) + 1
        population = np.bincount(ccs, minlength=num_cc)
        names = directory.countries()
        active = np.flatnonzero(population > 0)
        if active.size < 2:
            raise ServiceError("need endpoints in >= 2 countries for pairs")
        # rank countries by (-population, name): the Zipf head is the most
        # populous eyeball country, ties broken stably by country string
        rank_order = sorted(
            active.tolist(), key=lambda c: (-int(population[c]), names[c])
        )
        weights = 1.0 / np.power(
            np.arange(1, len(rank_order) + 1, dtype=float), config.zipf_exponent
        )
        if config.country_weights:
            multipliers = dict(config.country_weights)
            by_name = {names[c]: pos for pos, c in enumerate(rank_order)}
            for country, mult in multipliers.items():
                if country not in by_name:
                    raise UnknownCountryError(
                        f"country {country!r} has no observed endpoints to "
                        "re-weight"
                    )
                weights[by_name[country]] *= mult
        # country pairs (i != j) with product-of-Zipf weights
        c = len(rank_order)
        src_idx, dst_idx = np.meshgrid(np.arange(c), np.arange(c), indexing="ij")
        off_diag = src_idx != dst_idx
        self._pair_src = np.asarray(rank_order, np.int32)[src_idx[off_diag]]
        self._pair_dst = np.asarray(rank_order, np.int32)[dst_idx[off_diag]]
        pair_w = (weights[:, np.newaxis] * weights[np.newaxis, :])[off_diag]
        total = pair_w.sum()
        # weights can silence every pair (e.g. one country left with any
        # traffic): the stream is then deterministically empty — never a
        # division by zero in the normalisation
        self._pair_p = pair_w / total if total > 0 else None
        # country -> endpoint codes, CSR over sorted (cc, endpoint) pairs
        order = np.lexsort((known, ccs))
        self._ep_codes = known[order].astype(np.int64)
        self._ep_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(ccs, minlength=num_cc)))
        )

    @property
    def is_empty(self) -> bool:
        """True when re-weighting silenced every country pair."""
        return self._pair_p is None

    @property
    def num_blocks(self) -> int:
        return 0 if self.is_empty else -(-self._config.num_queries // BLOCK_SIZE)

    def block(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Synthesise block ``index``: parallel (src, dst) endpoint codes."""
        cfg = self._config
        if self._pair_p is None:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        size = min(BLOCK_SIZE, cfg.num_queries - index * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
        pair = rng.choice(self._pair_p.size, size=size, p=self._pair_p)
        src_cc = self._pair_src[pair]
        dst_cc = self._pair_dst[pair]
        u = rng.random((2, size))
        src_n = self._ep_indptr[src_cc + 1] - self._ep_indptr[src_cc]
        dst_n = self._ep_indptr[dst_cc + 1] - self._ep_indptr[dst_cc]
        src = self._ep_codes[
            self._ep_indptr[src_cc] + (u[0] * src_n).astype(np.int64)
        ]
        dst = self._ep_codes[
            self._ep_indptr[dst_cc] + (u[1] * dst_n).astype(np.int64)
        ]
        return src, dst

    def generate(self) -> tuple[np.ndarray, np.ndarray]:
        """The full stream, assembled from per-worker block shards.

        Worker ``w`` of ``workers`` synthesises blocks ``w, w + workers,
        ...``; reassembly orders blocks by index, so the result is
        invariant in the worker count.
        """
        if self.num_blocks == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        blocks: list[tuple[np.ndarray, np.ndarray] | None] = [None] * self.num_blocks
        for worker in range(self._config.workers):
            for index in range(worker, self.num_blocks, self._config.workers):
                blocks[index] = self.block(index)
        src = np.concatenate([b[0] for b in blocks])
        dst = np.concatenate([b[1] for b in blocks])
        return src, dst


def replay(
    service: ShortcutService,
    config: LoadgenConfig | None = None,
) -> ServiceStats:
    """Synthesise a query stream and drive the service with it, batched.

    Synthesis is excluded from the timed section; the measured loop is
    exactly ``route_many`` over consecutive batches, each call timed on
    its own.  Returns a :class:`~repro.service.results.ServiceStats`:
    sustained queries/sec, per-batch latency p50/p99, the tier mix, the
    fraction of queries answered with a relay, and a BLAKE2 digest of
    every answer (relay ids + tiers) for exact cross-run comparison.

    Works on anything with the service query surface: an in-process
    :class:`~repro.service.service.ShortcutService` or a
    :class:`~repro.service.cluster.ClusterService` fleet — for the
    latter the cluster's CPU-clock scale-out accounting is reset before
    the timed loop and reported under :attr:`ServiceStats.scale_out`.
    """
    config = config or LoadgenConfig()
    stream = QueryStream(service.directory, config)
    src, dst = stream.generate()
    n = src.shape[0]
    batches = -(-n // config.batch_size)
    latencies = np.empty(batches)
    tier_counts = np.zeros(len(TIER_NAMES), np.int64)
    no_relay = 0
    digest = hashlib.blake2b(digest_size=16)
    reset_clocks = getattr(service, "reset_clocks", None)
    if reset_clocks is not None:
        reset_clocks()
    start = time.perf_counter()
    with obs.span("loadgen.replay"):
        for index, lo in enumerate(range(0, n, config.batch_size)):
            hi = min(lo + config.batch_size, n)
            called = time.perf_counter()
            batch = service.route_many(
                src[lo:hi], dst[lo:hi], config.relay_type, config.k
            )
            latencies[index] = time.perf_counter() - called
            tier_counts += np.bincount(batch.tier, minlength=len(TIER_NAMES))
            no_relay += int(np.count_nonzero(batch.relay_ids[:, 0] < 0))
            digest.update(batch.relay_ids.tobytes())
            digest.update(batch.tier.tobytes())
    wall = time.perf_counter() - start
    obs.inc("loadgen.queries", n)
    obs.inc("loadgen.batches", batches)
    obs.set_gauge("loadgen.batch_size", config.batch_size)
    degradation = getattr(service, "degradation_summary", lambda: None)()
    scale_out = getattr(service, "scale_out_summary", lambda: None)()
    p50_ms, p99_ms = (
        np.round(1e3 * np.percentile(latencies, (50, 99)), 4).tolist()
        if n
        else (None, None)
    )
    return ServiceStats(
        queries=n,
        batch_size=config.batch_size,
        batches=batches,
        k=config.k,
        relay_type=config.relay_type.value,
        zipf_exponent=config.zipf_exponent,
        seed=config.seed,
        loadgen_workers=config.workers,
        wall_clock_s=round(wall, 4),
        queries_per_s=int(n / wall) if n and wall > 0 else None,
        tier_counts={
            name: int(tier_counts[code]) for code, name in enumerate(TIER_NAMES)
        },
        relay_answer_frac=round(1.0 - no_relay / n, 4) if n else None,
        answers_digest=digest.hexdigest(),
        latency_p50_ms=p50_ms,
        latency_p99_ms=p99_ms,
        degradation=degradation,
        scale_out=scale_out,
    )
