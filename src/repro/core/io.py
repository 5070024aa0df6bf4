"""Campaign result persistence: one columnar, versioned ``.npz`` artifact.

A campaign runs once and is analysed many times (``repro campaign --out``,
then ``repro analyze``).  The artifact stores the columns the campaign
already holds, so saving builds no per-observation records and loading
never creates a :class:`~repro.core.results.PairObservation`.

Layout (format version 2, uncompressed, written to exactly the given
path): ``meta`` is UTF-8 JSON in a ``uint8`` array (format version,
string pools, relay registry payload, per-round scalars, funnel counts);
``round{i}.<column>`` are round ``i``'s
:class:`~repro.core.table.ObservationTable` columns; and
``round{i}.direct_*`` / ``round{i}.relay_*`` hold its direct and
relay-leg medians as key-code and value arrays in dict order (the
stability analysis iterates both dicts).

Members are written in a fixed order with constant zip timestamps, so
saving one result twice gives identical bytes.  Any defect (missing or
truncated file, missing member, other format version, a column
disagreeing with its round, an object-dtype member, which is refused and
never unpickled) raises :class:`~repro.errors.AnalysisError` naming the
file.  Version-1 JSON results are no longer read.
"""

from __future__ import annotations

import json
import pathlib
import zipfile
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro import obs
from repro.core.results import CampaignResult, RelayRegistry, RoundResult
from repro.core.table import NUM_RELAY_TYPES, Interner, ObservationTable, TablePools
from repro.core.types import RelayType
from repro.errors import AnalysisError

#: Format version written into every artifact; bumped on breaking changes.
FORMAT_VERSION = 2

#: The TablePools fields, in constructor order.
_POOLS = ("endpoint_ids", "countries", "cities")

#: Each code column and the pool it indexes.
_CODE_POOLS = {"e1_id": "endpoint_ids", "e2_id": "endpoint_ids", "e1_cc": "countries",
               "e2_cc": "countries", "e1_city": "cities", "e2_city": "cities"}

_DIRECT = ("direct_e1", "direct_e2", "direct_ms")
_RELAY = ("relay_endpoint", "relay_index", "relay_ms")

#: What reading a defective file can raise; each becomes an AnalysisError.
_DEFECTS = (AnalysisError, OSError, EOFError, zipfile.BadZipFile, ValueError,
            KeyError, IndexError, TypeError, AttributeError)


def _member(pos: int, name: str) -> str:
    return f"round{pos}.{name}"


def _result_arrays(result: CampaignResult) -> dict[str, np.ndarray]:
    """Every archive member of ``result``, ``meta`` first."""
    base = result.rounds[0].table.pools if result.rounds else TablePools.fresh()
    if any(rnd.table.pools is not base for rnd in result.rounds):
        raise AnalysisError("a result's round tables must share one TablePools")
    # copies, so ids only the medians mention never touch the live pools
    pools = TablePools(*(Interner(getattr(base, f).values) for f in _POOLS))
    code = pools.endpoint_ids.code
    members: dict[str, np.ndarray] = {}
    rounds_meta = []
    for pos, rnd in enumerate(result.rounds):
        for name in ObservationTable._ARRAY_FIELDS:
            members[_member(pos, name)] = getattr(rnd.table, name)
        direct, relay = rnd.direct_medians, rnd.relay_medians or {}
        for name, values, dtype in (
            ("direct_e1", [code(e1) for e1, _ in direct], np.int32),
            ("direct_e2", [code(e2) for _, e2 in direct], np.int32),
            ("direct_ms", list(direct.values()), float),
            ("relay_endpoint", [code(endpoint) for endpoint, _ in relay], np.int32),
            ("relay_index", [index for _, index in relay], np.int32),
            ("relay_ms", list(relay.values()), float),
        ):
            members[_member(pos, name)] = np.asarray(values, dtype)
        rounds_meta.append(
            {
                "round_index": rnd.round_index,
                "timestamp_hours": rnd.timestamp_hours,
                "endpoint_ids": list(rnd.endpoint_ids),
                "relay_indices_by_type": {
                    t.value: list(indices) for t, indices in rnd.relay_indices_by_type.items()
                },
                "pings_sent": rnd.pings_sent,
                "relay_medians_recorded": rnd.relay_medians is not None,
            }
        )
    meta = {
        "format_version": FORMAT_VERSION,
        "pools": {f: getattr(pools, f).values for f in _POOLS},
        "registry": result.registry.to_payload(),
        "rounds": rounds_meta,
        "verified_eyeball_tuples": result.verified_eyeball_tuples,
        "colo_filter_funnel": list(result.colo_filter_funnel),
    }
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8)
    return {"meta": meta_bytes, **members}


def save_result(result: CampaignResult, path: str | pathlib.Path) -> None:
    """Write a campaign result to exactly ``path`` as a version-2 artifact."""
    # imported here, not at module level, so ``repro analyze`` startup
    # does not pay for the writer
    from repro.util.npz import write_npz_atomic

    with obs.span("io.save_result"):
        write_npz_atomic(pathlib.Path(path), _result_arrays(result))


def load_result(path: str | pathlib.Path) -> CampaignResult:
    """Read a campaign result previously written by :func:`save_result`.

    Raises:
        AnalysisError: naming the file, if it is missing or defective, a
            version-1 JSON result, or of another format version.
    """
    file_path = pathlib.Path(path)
    with obs.span("io.load_result"):
        try:
            with open(file_path, "rb") as fh:
                head = fh.read(4)
                if head.lstrip()[:1] == b"{":
                    raise AnalysisError(
                        "a version-1 JSON result; that format is no longer read, "
                        "re-run the campaign to write a version-2 artifact"
                    )
                if head != b"PK\x03\x04":
                    raise AnalysisError("not a result artifact (no zip signature)")
                fh.seek(0)
                with np.load(fh, allow_pickle=False) as archive:
                    meta = json.loads(archive["meta"].tobytes())
                    if meta["format_version"] != FORMAT_VERSION:
                        raise AnalysisError(
                            f"format version {meta['format_version']}; "
                            f"this build reads {FORMAT_VERSION}"
                        )
                    return _rebuild(meta, archive)
        except FileNotFoundError as exc:
            raise AnalysisError(f"no such result file: {file_path}") from exc
        except _DEFECTS as exc:
            raise AnalysisError(f"{file_path}: {exc}") from exc


def _rebuild(meta: dict[str, Any], archive: Mapping[str, np.ndarray]) -> CampaignResult:
    registry = RelayRegistry.from_payload(meta["registry"])
    if len(registry) != len(meta["registry"]["node_ids"]):
        raise AnalysisError("relay registry repeats a node id")
    pools = TablePools(*(Interner(meta["pools"][f]) for f in _POOLS))
    ids = pools.endpoint_ids.values
    template = ObservationTable.empty()
    rounds = []
    for pos, rnd in enumerate(meta["rounds"]):
        columns = {name: archive[_member(pos, name)] for name in ObservationTable._ARRAY_FIELDS}
        _check_columns(pos, columns, template)
        for name, pool in _CODE_POOLS.items():
            _check_codes(pos, name, columns[name], len(getattr(pools, pool)))
        e1, e2, direct_ms = _medians(archive, pos, _DIRECT, len(ids), len(ids))
        direct_keys = zip([ids[c] for c in e1], [ids[c] for c in e2])
        relay_medians = None
        if rnd["relay_medians_recorded"]:
            endpoint, index, relay_ms = _medians(archive, pos, _RELAY, len(ids), len(registry))
            relay_medians = dict(zip(zip([ids[c] for c in endpoint], index), relay_ms))
        rounds.append(
            RoundResult(
                round_index=rnd["round_index"],
                timestamp_hours=rnd["timestamp_hours"],
                endpoint_ids=tuple(rnd["endpoint_ids"]),
                relay_indices_by_type={
                    RelayType(t): tuple(indices)
                    for t, indices in rnd["relay_indices_by_type"].items()
                },
                table=ObservationTable(pools, **columns),
                direct_medians=dict(zip(direct_keys, direct_ms)),
                relay_medians=relay_medians,
                pings_sent=rnd["pings_sent"],
            )
        )
    return CampaignResult(
        rounds=rounds,
        registry=registry,
        verified_eyeball_tuples=meta["verified_eyeball_tuples"],
        colo_filter_funnel=tuple(meta["colo_filter_funnel"]),
    )


def _check_columns(pos: int, columns: dict[str, np.ndarray], template: ObservationTable) -> None:
    """Each column has its table dtype and the shape its round's case
    count (and improving-entry count) implies."""
    types, n = NUM_RELAY_TYPES, len(columns["round_idx"])
    indptr = columns["imp_indptr"]
    entries = int(indptr[-1]) if indptr.shape == (n * types + 1,) else -1
    shapes = dict.fromkeys(("best_relay", "best_stitched", "feasible"), (types, n))
    shapes.update(country_flags=(types, 4, n), imp_indptr=(n * types + 1,),
                  imp_relay=(entries,), imp_gain=(entries,))
    for name, column in columns.items():
        dtype, shape = getattr(template, name).dtype, shapes.get(name, (n,))
        if column.dtype != dtype or column.shape != shape:
            raise AnalysisError(
                f"round {pos}: {name} is {column.dtype} {column.shape}, "
                f"expected {dtype} {shape}"
            )


def _check_codes(pos: int, name: str, codes: np.ndarray, size: int) -> None:
    if codes.size and (codes.min() < 0 or codes.max() >= size):
        raise AnalysisError(f"round {pos}: {name} holds codes outside 0..{size - 1}")


def _medians(
    archive: Mapping[str, np.ndarray], pos: int, names: tuple[str, ...], *sizes: int
) -> tuple[list, list, list]:
    """A round's median members as lists: two in-range key columns and
    the values, all 1-D and of one length."""
    arrays = [archive[_member(pos, name)] for name in names]
    if arrays[0].ndim != 1 or len({a.shape for a in arrays}) != 1:
        raise AnalysisError(f"round {pos}: {', '.join(names)} differ in shape")
    for name, codes, size in zip(names, arrays, sizes):
        _check_codes(pos, name, codes, size)
    return tuple(a.tolist() for a in arrays)
