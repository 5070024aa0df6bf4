"""Tests for the VIA-style predictor and the 1-vs-2-relay study."""

import hashlib

import numpy as np
import pytest

from repro.analysis.multihop import two_relay_study
from repro.core.oracle import LaneHistory, evaluate_prediction
from repro.core.results import CampaignResult, PairObservation
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError

#: ``evaluate_prediction`` on ``small_campaign_result`` per (relay type, k):
#: ``(evaluated, hit_at_k, captured_gain_frac)``, recorded while a
#: per-observation loop evaluation still existed and bit-equal to it.
GOLDEN_PREDICTION_SCORES = {
    ("COR", 1): (75, 7, 0.22450470739982714),
    ("COR", 3): (75, 21, 0.5586926909910447),
    ("COR", 5): (75, 25, 0.6543998409908685),
    ("PLR", 1): (21, 2, 0.18339482717777753),
    ("PLR", 3): (21, 3, 0.3306699353772732),
    ("PLR", 5): (21, 4, 0.43817202828319096),
    ("RAR_OTHER", 1): (59, 13, 0.4929301491201456),
    ("RAR_OTHER", 3): (59, 28, 0.7819796683081438),
    ("RAR_OTHER", 5): (59, 36, 0.8624330780873382),
    ("RAR_EYE", 1): (6, 2, 0.3333333333333333),
    ("RAR_EYE", 3): (6, 2, 0.3333333333333333),
    ("RAR_EYE", 5): (6, 2, 0.3333333333333333),
}
#: ``LaneHistory.predict_ccs(cc1, cc2, 4)`` for every lane of the full
#: ``small_campaign_result`` history, in lane-key order: the lane count
#: and a BLAKE2 digest of the ``((cc1, cc2), prediction)`` rows (equal to
#: the per-observation loop predictor's when recorded).
GOLDEN_LANE_PREDICTIONS = {
    "COR": (89, "2a1c390891b4ac7fb91afe7bfdfdc549"),
    "RAR_OTHER": (74, "070c49162d4b23606838eab7d0a5bbde"),
}


def _blake(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


def _obs(round_index, cc1, cc2, improving, direct=100.0):
    return PairObservation(
        round_index=round_index,
        e1_id="a",
        e2_id="b",
        e1_cc=cc1,
        e2_cc=cc2,
        e1_city=f"X/{cc1}",
        e2_city=f"Y/{cc2}",
        direct_rtt_ms=direct,
        best_by_type={},
        improving_by_type={RelayType.COR: tuple(improving)},
        feasible_by_type={RelayType.COR: len(improving)},
    )


def _history(observations) -> LaneHistory:
    return LaneHistory.from_table(ObservationTable.from_observations(observations))


class TestLaneHistoryPredictor:
    """The frequency-based predictor (:class:`LaneHistory`) on hand-built
    histories."""

    def test_predicts_most_frequent(self):
        history = _history(
            [_obs(0, "DE", "US", [(1, 10.0), (2, 5.0)])] * 3
            + [_obs(0, "DE", "US", [(2, 5.0)]), _obs(0, "DE", "US", [(3, 50.0)])]
        )
        # relay 2 improved 4 times, relay 1 three times, relay 3 once
        assert history.predict_ccs("DE", "US", k=2) == [2, 1]

    def test_country_pair_key_symmetric(self):
        history = _history([_obs(0, "DE", "US", [(7, 10.0)])])
        assert history.predict_ccs("US", "DE", k=1) == [7]

    def test_no_history_predicts_empty(self):
        history = _history(
            [_obs(0, "DE", "US", [(7, 10.0)]), _obs(0, "FR", "JP", [])]
        )
        assert history.predict_ccs("FR", "JP", k=3) == []
        assert history.num_lanes == 1

    def test_bad_k(self):
        history = _history([_obs(0, "DE", "US", [(7, 10.0)])])
        with pytest.raises(AnalysisError):
            history.predict_ccs("DE", "US", k=0)


class TestEvaluatePrediction:
    def test_needs_two_rounds(self, small_campaign_result):
        single = CampaignResult(
            rounds=small_campaign_result.rounds[:1],
            registry=small_campaign_result.registry,
        )
        with pytest.raises(AnalysisError):
            evaluate_prediction(single)

    def test_score_ranges(self, small_campaign_result):
        score = evaluate_prediction(small_campaign_result, k=3)
        assert score.evaluated >= 0
        assert 0.0 <= score.hit_rate <= 1.0
        assert 0.0 <= score.captured_gain_frac <= 1.0

    def test_bigger_k_never_worse(self, small_campaign_result):
        k1 = evaluate_prediction(small_campaign_result, k=1)
        k5 = evaluate_prediction(small_campaign_result, k=5)
        assert k5.hit_at_k >= k1.hit_at_k
        assert k5.captured_gain_frac >= k1.captured_gain_frac - 1e-9

    def test_history_helps(self, small_campaign_result):
        """With frequency-stable winners, prediction should capture a
        meaningful share of the oracle gain."""
        score = evaluate_prediction(small_campaign_result, k=5)
        if score.evaluated >= 10:
            assert score.captured_gain_frac > 0.3


class TestColumnarParity:
    """The columnar predictor/evaluation against committed golden values."""

    def test_evaluate_prediction_bit_equal(self, small_campaign_result):
        for relay_type in RELAY_TYPE_ORDER:
            for k in (1, 3, 5):
                score = evaluate_prediction(small_campaign_result, relay_type, k)
                # bit-equal, not approximately equal: the captured-gain sum
                # is accumulated in case order
                assert (
                    score.evaluated, score.hit_at_k, score.captured_gain_frac
                ) == GOLDEN_PREDICTION_SCORES[(relay_type.value, k)]

    def test_lane_history_matches_loop_predictor(self, small_campaign_result):
        """Every lane's prediction equals the recorded per-observation
        loop predictor's."""
        table = small_campaign_result.table
        names = table.pools.countries.values
        for relay_type in (RelayType.COR, RelayType.RAR_OTHER):
            history = LaneHistory.from_table(table, relay_type)
            rows = []
            for key in history.lane_keys.tolist():
                pair = (names[key >> 32], names[key & 0xFFFFFFFF])
                rows.append((pair, history.predict_ccs(*pair, 4)))
            assert (len(rows), _blake(rows)) == GOLDEN_LANE_PREDICTIONS[
                relay_type.value
            ]

    def test_lane_history_unknown_country_empty(self, small_campaign_result):
        history = LaneHistory.from_table(small_campaign_result.table)
        assert history.predict_ccs("ZZ", "XX", 3) == []

    def test_columnar_needs_two_rounds(self, small_campaign_result):
        single = CampaignResult(
            rounds=small_campaign_result.rounds[:1],
            registry=small_campaign_result.registry,
        )
        with pytest.raises(AnalysisError):
            evaluate_prediction(single)

    def test_columnar_k_validation(self, small_campaign_result):
        reference = evaluate_prediction(small_campaign_result, RelayType.COR, 1)
        if reference.evaluated == 0:
            pytest.skip("fixture evaluated nothing")
        with pytest.raises(AnalysisError):
            evaluate_prediction(small_campaign_result, RelayType.COR, 0)


class TestTwoRelayStudy:
    def test_study_runs(self, small_world):
        probes = [p.node.endpoint for p in small_world.atlas.all_probes()[:12]]
        relays = [
            i.node.endpoint for i in small_world.colo_pool.live_interfaces()[:20]
        ]
        study = two_relay_study(
            small_world.latency, probes, relays, np.random.default_rng(0)
        )
        assert study.pairs > 0
        # a strict 2-relay path (r1 != r2) is not a superset of 1-relay
        # paths, so its improved count can land on either side; both must
        # be in a plausible band
        assert 0 <= study.two_relay_improved <= study.pairs
        assert 0 <= study.one_relay_improved <= study.pairs
        assert study.extra_gain_ms_median >= 0.0

    def test_one_relay_is_usually_enough(self, small_world):
        """The Han et al. claim the paper builds on."""
        probes = [p.node.endpoint for p in small_world.atlas.all_probes()[:16]]
        relays = [
            i.node.endpoint for i in small_world.colo_pool.live_interfaces()[:25]
        ]
        study = two_relay_study(
            small_world.latency, probes, relays, np.random.default_rng(1)
        )
        assert study.one_relay_captures_frac >= 0.5

    def test_input_validation(self, small_world):
        rng = np.random.default_rng(2)
        probes = [p.node.endpoint for p in small_world.atlas.all_probes()[:3]]
        with pytest.raises(AnalysisError):
            two_relay_study(small_world.latency, probes[:1], probes, rng)
        with pytest.raises(AnalysisError):
            two_relay_study(small_world.latency, probes, probes[:1], rng)
