"""Tests for campaign result persistence (the version-2 ``.npz`` artifact)."""

import contextlib
import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.improvements import ImprovementAnalysis
from repro.analysis.stability import StabilityAnalysis
from repro.core.io import FORMAT_VERSION, load_result, save_result
from repro.core.results import CampaignResult
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER
from repro.errors import AnalysisError

#: sha256 of ``small_campaign_result`` saved as an artifact.  It pins the
#: campaign's output and the artifact layout together: a deliberate change
#: to either moves it, and the new value is committed with the change.
GOLDEN_SHA256 = "e6cbe65777705ef1c84ae57f9c404057b0ea4be977dbbfffc242b5736f382c9c"


@pytest.fixture(scope="module")
def artifact_bytes(small_campaign_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "result.npz"
    save_result(small_campaign_result, path)
    return path.read_bytes()


@pytest.fixture
def artifact(artifact_bytes, tmp_path):
    """A private copy of the artifact a test may damage."""
    path = tmp_path / "result.npz"
    path.write_bytes(artifact_bytes)
    return path


@pytest.fixture(scope="module")
def loaded(small_campaign_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("loaded") / "result.npz"
    save_result(small_campaign_result, path)
    return load_result(path)


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self, small_campaign_result, loaded):
        assert loaded.total_cases == small_campaign_result.total_cases
        assert loaded.total_pings == small_campaign_result.total_pings
        assert loaded.colo_filter_funnel == small_campaign_result.colo_filter_funnel
        assert loaded.verified_eyeball_tuples == (
            small_campaign_result.verified_eyeball_tuples
        )
        assert loaded.summary() == small_campaign_result.summary()
        assert list(loaded.observations()) == list(
            small_campaign_result.observations()
        )

    def test_roundtrip_preserves_rounds(self, small_campaign_result, loaded):
        for original, restored in zip(small_campaign_result.rounds, loaded.rounds):
            assert restored.table.columns_equal(original.table)
            assert restored.round_index == original.round_index
            assert restored.timestamp_hours == original.timestamp_hours
            assert restored.endpoint_ids == original.endpoint_ids
            assert restored.relay_indices_by_type == original.relay_indices_by_type
            assert restored.pings_sent == original.pings_sent
        assert loaded.table.columns_equal(small_campaign_result.table)

    def test_roundtrip_preserves_medians(self, small_campaign_result, loaded):
        for original, restored in zip(small_campaign_result.rounds, loaded.rounds):
            assert list(restored.direct_medians.items()) == list(
                original.direct_medians.items()
            )
            assert list(restored.relay_medians.items()) == list(
                original.relay_medians.items()
            )
        assert StabilityAnalysis(loaded).all_cvs() == StabilityAnalysis(
            small_campaign_result
        ).all_cvs()

    def test_registry_roundtrip(self, small_campaign_result, loaded):
        assert list(loaded.registry) == list(small_campaign_result.registry)
        for relay_type in RELAY_TYPE_ORDER:
            originals = small_campaign_result.registry.of_type(relay_type)
            restored = loaded.registry.of_type(relay_type)
            assert [r.node_id for r in originals] == [r.node_id for r in restored]
            assert [r.facility_id for r in originals] == [
                r.facility_id for r in restored
            ]

    def test_analyses_agree_on_loaded_result(self, small_campaign_result, loaded):
        a = ImprovementAnalysis(small_campaign_result).summary()
        b = ImprovementAnalysis(loaded).summary()
        assert a == b

    def test_round_tables_share_one_pools_object(self, loaded):
        pools = loaded.rounds[0].table.pools
        assert all(rnd.table.pools is pools for rnd in loaded.rounds)
        assert loaded.table.pools is pools

    def test_load_and_analysis_build_no_pair_observations(
        self, artifact, monkeypatch
    ):
        def refuse(self, i):
            raise AssertionError("a PairObservation was materialized")

        monkeypatch.setattr(ObservationTable, "observation", refuse)
        result = load_result(artifact)
        ImprovementAnalysis(result).summary()
        result.summary()

    def test_unrecorded_relay_medians_stay_none(self, small_campaign_result, tmp_path):
        stripped = CampaignResult(
            rounds=[replace(small_campaign_result.rounds[0], relay_medians=None)],
            registry=small_campaign_result.registry,
        )
        path = tmp_path / "r.npz"
        save_result(stripped, path)
        assert load_result(path).rounds[0].relay_medians is None


class TestWritePath:
    def test_golden_digest(self, artifact_bytes):
        assert hashlib.sha256(artifact_bytes).hexdigest() == GOLDEN_SHA256

    def test_two_saves_are_byte_identical(
        self, small_campaign_result, artifact_bytes, tmp_path
    ):
        path = tmp_path / "again.npz"
        save_result(small_campaign_result, path)
        assert path.read_bytes() == artifact_bytes

    def test_resaving_a_loaded_result_is_byte_identical(
        self, artifact, artifact_bytes, tmp_path
    ):
        path = tmp_path / "resaved.npz"
        save_result(load_result(artifact), path)
        assert path.read_bytes() == artifact_bytes

    def test_writes_exactly_the_given_path(self, small_campaign_result, tmp_path):
        save_result(small_campaign_result, tmp_path / "x.json")
        assert os.listdir(tmp_path) == ["x.json"]
        assert load_result(tmp_path / "x.json").summary() == (
            small_campaign_result.summary()
        )

    def test_round_tables_with_separate_pools_are_refused(
        self, small_campaign_result, tmp_path
    ):
        first, second = small_campaign_result.rounds[:2]
        mixed = CampaignResult(
            rounds=[
                replace(first, table=ObservationTable.from_observations(first.observations)),
                second,
            ],
            registry=small_campaign_result.registry,
        )
        with pytest.raises(AnalysisError, match="share one TablePools"):
            save_result(mixed, tmp_path / "mixed.npz")
        assert os.listdir(tmp_path) == []

    def test_failed_write_leaves_no_temp_file_and_keeps_the_old_file(
        self, small_campaign_result, artifact, artifact_bytes, monkeypatch
    ):
        def savez_then_fail(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise RuntimeError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(RuntimeError, match="disk full"):
            save_result(small_campaign_result, artifact)
        assert os.listdir(artifact.parent) == [artifact.name]
        assert artifact.read_bytes() == artifact_bytes


# --------------------------------------------------------------------------
# defective artifacts: every fault is a typed AnalysisError naming the file

#: Set by _Canary's unpickler; a refused object member leaves it empty.
UNPICKLED: list[str] = []


def _record_unpickle() -> str:
    UNPICKLED.append("unpickled")
    return "unpickled"


class _Canary:
    def __reduce__(self):
        return (_record_unpickle, ())


def _rewrite(path, edit) -> None:
    """Apply ``edit`` to the archive's members and write them back."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    edit(members)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def _set_meta(members, **changes) -> None:
    meta = json.loads(members["meta"].tobytes())
    meta.update(changes)
    members["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)


@contextlib.contextmanager
def _raises_naming(path, message: str):
    """Expect an AnalysisError whose message names ``path`` and says ``message``."""
    with pytest.raises(AnalysisError) as info:
        yield
    assert str(path) in str(info.value)
    assert message in str(info.value)


class TestErrorHandling:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.npz"
        with _raises_naming(path, "no such result file"):
            load_result(path)

    def test_version_1_json_is_no_longer_read(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(json.dumps({"format_version": 1, "rounds": []}))
        with _raises_naming(path, "no longer read"):
            load_result(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with _raises_naming(path, "no longer read"):
            load_result(path)

    def test_arbitrary_bytes(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(bytes(range(256)) * 8)
        with _raises_naming(path, "not a result artifact"):
            load_result(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with _raises_naming(path, "not a result artifact"):
            load_result(path)

    def test_truncated_to_half(self, artifact, artifact_bytes):
        artifact.write_bytes(artifact_bytes[: len(artifact_bytes) // 2])
        with _raises_naming(artifact, ""):
            load_result(artifact)

    def test_missing_member(self, artifact):
        _rewrite(artifact, lambda members: members.pop("round1.imp_gain"))
        with _raises_naming(artifact, "round1.imp_gain"):
            load_result(artifact)

    def test_missing_meta(self, artifact):
        _rewrite(artifact, lambda members: members.pop("meta"))
        with _raises_naming(artifact, "meta"):
            load_result(artifact)

    def test_wrong_version(self, artifact):
        _rewrite(
            artifact, lambda members: _set_meta(members, format_version=FORMAT_VERSION + 1)
        )
        with _raises_naming(artifact, f"format version {FORMAT_VERSION + 1}"):
            load_result(artifact)

    @pytest.mark.parametrize(
        "member",
        ["round0.e2_id", "round1.best_stitched", "round0.imp_relay", "round2.direct_e1"],
    )
    def test_column_length_disagrees_with_its_round(self, artifact, member):
        def drop_last(members):
            members[member] = members[member][..., :-1]

        _rewrite(artifact, drop_last)
        with _raises_naming(artifact, member.split(".")[1]):
            load_result(artifact)

    def test_code_outside_its_pool(self, artifact):
        def corrupt(members):
            column = members["round0.e1_cc"].copy()
            column[0] = 10_000
            members["round0.e1_cc"] = column

        _rewrite(artifact, corrupt)
        with _raises_naming(artifact, "e1_cc holds codes outside"):
            load_result(artifact)

    def test_wrong_dtype(self, artifact):
        def widen(members):
            members["round0.e1_id"] = members["round0.e1_id"].astype(np.int64)

        _rewrite(artifact, widen)
        with _raises_naming(artifact, "e1_id is int64"):
            load_result(artifact)

    def test_object_member_is_refused_never_unpickled(self, artifact):
        def plant(members):
            members["round0.direct_rtt_ms"] = np.array([_Canary()], dtype=object)

        _rewrite(artifact, plant)
        UNPICKLED.clear()
        with _raises_naming(artifact, "allow_pickle"):
            load_result(artifact)
        assert UNPICKLED == []
        # the planted member really is a pickle that would run on load
        with np.load(artifact, allow_pickle=True) as archive:
            archive["round0.direct_rtt_ms"]
        assert UNPICKLED == ["unpickled"]
