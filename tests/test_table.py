"""Table-vs-object equivalence suite for the columnar observation pipeline.

The analyses were rewritten from PairObservation walks to NumPy column
reductions; the numbers the original object walks produced on a real
same-seed campaign are committed below as golden values, and the
columnar analyses are asserted equal to them — plus structural
round-trips (table -> objects -> table, save/load, pickle payload) and
ragged-CSR edge cases (zero improving / zero feasible relays).
"""

import hashlib
import json
import pickle

import pytest

from repro.analysis.countries import CountryChangeAnalysis
from repro.analysis.improvements import ImprovementAnalysis
from repro.analysis.ranking import TopRelayAnalysis
from repro.analysis.stability import StabilityAnalysis
from repro.analysis.voip import VoipAnalysis
from repro.core.results import PairObservation
from repro.core.sweep import SweepRequest, run_seed_campaign, run_sweep
from repro.core.table import NUM_RELAY_TYPES, ObservationTable, TablePools
from repro.core.types import RELAY_TYPE_ORDER, RelayType


# --------------------------------------------------------------------------
# golden values: computed on ``small_campaign_result`` by walking the
# PairObservation objects with the pre-columnar analysis code

GOLDEN_SUMMARY = {
    "improved_frac_COR": 0.8718,
    "median_improvement_ms_COR": 44.37,
    "frac_gt100ms_of_improved_COR": 0.3445,
    "median_num_improving_COR": 10.0,
    "improved_frac_PLR": 0.3004,
    "median_improvement_ms_PLR": 22.19,
    "frac_gt100ms_of_improved_PLR": 0.061,
    "median_num_improving_PLR": 2.0,
    "improved_frac_RAR_OTHER": 0.6813,
    "median_improvement_ms_RAR_OTHER": 43.96,
    "frac_gt100ms_of_improved_RAR_OTHER": 0.3763,
    "median_num_improving_RAR_OTHER": 5.0,
    "improved_frac_RAR_EYE": 0.1465,
    "median_improvement_ms_RAR_EYE": 14.0,
    "frac_gt100ms_of_improved_RAR_EYE": 0.05,
    "median_num_improving_RAR_EYE": 1.0,
}
#: Per relay type: (improved cases, digest of the per-case best gains in
#: case order, digest of the clipped fig2 CDF points).
GOLDEN_BEST_IMPROVEMENTS = {
    "COR": (238, "a5becc88a2d82e10d5b344a2634cd70f", "686d6097a2090dd39148abcc1a7a7ce8"),
    "PLR": (82, "16b3eb4bf549eadcfff12b6908c4db57", "b2be8dd22e451dee8d5ac38efc9ad282"),
    "RAR_OTHER": (186, "ab2ddcc5289b1767b3f3ee787e191eb0", "59d08e46fdb9c094206e42c76ddbe134"),
    "RAR_EYE": (40, "5b04f357acefddf0867fbf86e6aff854", "802794c1fb70da64b571ce07b0b9c686"),
}
#: Per relay type: best-relay country split and usable-group rates, each
#: (different_total, different_improved, same_total, same_improved).
GOLDEN_COUNTRY_SPLIT = {
    "COR": ((184, 169, 89, 69), (273, 217, 228, 152)),
    "PLR": ((173, 45, 100, 37), (256, 52, 163, 41)),
    "RAR_OTHER": ((225, 155, 48, 31), (273, 175, 270, 87)),
    "RAR_EYE": ((154, 24, 118, 16), (265, 24, 207, 18)),
}
#: Per relay type: digests of the sorted improvement-frequency items and
#: of the 25-point fig3 curve.
GOLDEN_RANKING = {
    "COR": ("1b44cc479c827eb9a066f93f522632cf", "4d2b06a4e360d6c29a6c7bcc48741511"),
    "PLR": ("f1a9245de23c5945a661ef6f1fd43d4a", "d838bfcf7a6b03c0286b61ff1f1ca1bf"),
    "RAR_OTHER": ("38d00cbad031d36507c14da6a3fbf02f", "c9f442ac7163a1ef98b80c10e179eca2"),
    "RAR_EYE": ("9d8a63674dc88d26d0ce41d9d3ed2bb5", "2d9797669e3fd1a500c85a46eff07eb5"),
}
FIG4_THRESHOLDS = [0.0, 5.0, 20.0, 100.0]
#: Per relay type: the fig4 curve over all relays, then over the top 5.
GOLDEN_FIG4 = {
    "COR": (
        [(0.0, 87.17948717948718), (5.0, 75.0915750915751),
         (20.0, 61.53846153846154), (100.0, 30.036630036630036)],
        [(0.0, 57.875457875457876), (5.0, 50.91575091575091),
         (20.0, 40.29304029304029), (100.0, 24.90842490842491)],
    ),
    "PLR": (
        [(0.0, 30.036630036630036), (5.0, 26.007326007326007),
         (20.0, 15.750915750915752), (100.0, 1.8315018315018314)],
        [(0.0, 20.146520146520146), (5.0, 15.750915750915752),
         (20.0, 9.89010989010989), (100.0, 1.8315018315018314)],
    ),
    "RAR_OTHER": (
        [(0.0, 68.13186813186813), (5.0, 63.73626373626374),
         (20.0, 50.91575091575091), (100.0, 25.641025641025642)],
        [(0.0, 50.18315018315018), (5.0, 47.252747252747255),
         (20.0, 41.391941391941394), (100.0, 25.274725274725274)],
    ),
    "RAR_EYE": (
        [(0.0, 14.652014652014651), (5.0, 10.256410256410257),
         (20.0, 4.761904761904762), (100.0, 0.7326007326007326)],
        [(0.0, 13.186813186813186), (5.0, 8.424908424908425),
         (20.0, 4.395604395604396), (100.0, 0.7326007326007326)],
    ),
}
#: VoIP (direct, COR-relayed) poor-call fractions at the 320 ms threshold.
GOLDEN_VOIP = (0.27106227106227104, 0.02564102564102564)
#: ``run_seed_campaign(3, rounds=1, countries=8)``: total cases and, per
#: relay type, (win rate, median RTT reduction).
GOLDEN_SEED3_CASES = 21
GOLDEN_SEED3_METRICS = {
    "COR": (0.9524, 97.607),
    "PLR": (0.5238, 103.148),
    "RAR_OTHER": (0.7619, 79.934),
    "RAR_EYE": (0.0, None),
}


def _blake(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


# --------------------------------------------------------------------------
# equivalence on a real campaign


@pytest.fixture(scope="module")
def campaign(small_campaign_result):
    observations = list(small_campaign_result.observations())
    return small_campaign_result, observations


class TestObjectPathEquivalence:
    def test_improvement_summary(self, campaign):
        result, _ = campaign
        assert ImprovementAnalysis(result).summary() == GOLDEN_SUMMARY

    def test_best_improvement_lists(self, campaign):
        result, _ = campaign
        analysis = ImprovementAnalysis(result)
        for relay_type in RELAY_TYPE_ORDER:
            values = analysis.improvements(relay_type)
            assert (
                len(values), _blake(values), _blake(analysis.fig2_cdf(relay_type))
            ) == GOLDEN_BEST_IMPROVEMENTS[relay_type.value]

    def test_improved_fraction_matches_object_walk(self, campaign):
        result, observations = campaign
        for relay_type in RELAY_TYPE_ORDER:
            improved = sum(1 for o in observations if o.improved(relay_type))
            assert result.improved_fraction(relay_type) == improved / len(observations)

    def test_country_split_and_groups(self, campaign):
        result, _ = campaign
        analysis = CountryChangeAnalysis(result)
        for relay_type in RELAY_TYPE_ORDER:
            split = analysis.split(relay_type)
            rates = analysis.group_rates(relay_type)
            assert tuple(
                (c.different_total, c.different_improved, c.same_total, c.same_improved)
                for c in (split, rates)
            ) == GOLDEN_COUNTRY_SPLIT[relay_type.value]

    def test_intercontinental_fraction(self, campaign):
        result, observations = campaign
        inter = sum(1 for o in observations if o.is_intercontinental)
        assert CountryChangeAnalysis(result).intercontinental_fraction() == (
            inter / len(observations)
        )

    def test_ranking_frequency_and_curves(self, campaign):
        result, _ = campaign
        ranking = TopRelayAnalysis(result)
        for relay_type in RELAY_TYPE_ORDER:
            name = relay_type.value
            frequency = sorted(ranking.improvement_frequency(relay_type).items())
            assert (
                _blake(frequency), _blake(ranking.fig3_curve(relay_type, max_n=25))
            ) == GOLDEN_RANKING[name]
            assert (
                ranking.fig4_curve(relay_type, FIG4_THRESHOLDS),
                ranking.fig4_curve(relay_type, FIG4_THRESHOLDS, top_n=5),
            ) == GOLDEN_FIG4[name]

    def test_voip_fractions(self, campaign):
        result, _ = campaign
        voip = VoipAnalysis(result)
        assert (
            voip.direct_poor_fraction(), voip.relayed_poor_fraction(RelayType.COR)
        ) == GOLDEN_VOIP

    def test_stability_per_round_fractions(self, campaign):
        result, _ = campaign
        stability = StabilityAnalysis(result, min_occurrences=2)
        for relay_type in RELAY_TYPE_ORDER:
            expected = []
            for rnd in result.rounds:
                obs = rnd.observations
                if not obs:
                    continue
                improved = sum(1 for o in obs if o.improved(relay_type))
                expected.append((rnd.round_index, improved / len(obs)))
            assert stability.per_round_improved_fractions(relay_type) == expected


# --------------------------------------------------------------------------
# structural round-trips


class TestRoundTrips:
    def test_objects_to_table_and_back(self, campaign):
        result, observations = campaign
        rebuilt = ObservationTable.from_observations(observations)
        assert result.table.columns_equal(rebuilt)
        assert rebuilt.materialized() == observations

    def test_round_tables_share_pools_with_campaign_table(self, campaign):
        result, _ = campaign
        for rnd in result.rounds:
            assert rnd.table.pools is result.table.pools

    def test_payload_pickle_round_trip(self, campaign):
        result, observations = campaign
        payload = pickle.loads(pickle.dumps(result.table.to_payload()))
        restored = ObservationTable.from_payload(payload)
        assert result.table.columns_equal(restored)
        assert restored.materialized() == observations

    def test_save_load_round_trip(self, campaign, tmp_path):
        from repro.core.io import load_result, save_result

        result, observations = campaign
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert list(loaded.observations()) == observations
        assert loaded.table.columns_equal(result.table)
        assert ImprovementAnalysis(loaded).summary() == ImprovementAnalysis(
            result
        ).summary()

    def test_concat_with_distinct_pools_decodes_identically(self, campaign):
        result, observations = campaign
        # one table per round, each with its own pools: the remap path
        per_round = [
            ObservationTable.from_observations(rnd.observations)
            for rnd in result.rounds
        ]
        merged = ObservationTable.concat(per_round)
        assert merged.columns_equal(result.table)


# --------------------------------------------------------------------------
# sweep transport


class TestSweepTransport:
    def test_artifact_byte_identical_across_runs_and_workers(self):
        config = dict(seeds=(3, 4), rounds=1, countries=8)
        a = run_sweep(SweepRequest.from_scenario("baseline", **config))
        b = run_sweep(SweepRequest.from_scenario("baseline", **config, workers=2))
        assert json.dumps(a.as_dict(include_timing=False), sort_keys=True) == (
            json.dumps(b.as_dict(include_timing=False), sort_keys=True)
        )

    def test_per_seed_metrics_match_object_path(self):
        outcome = run_seed_campaign(3, rounds=1, countries=8)
        metrics = outcome["metrics"]
        assert metrics["total_cases"] == GOLDEN_SEED3_CASES
        for relay_type in RELAY_TYPE_ORDER:
            name = relay_type.value
            assert (
                metrics[f"win_rate_{name}"], metrics[f"median_rtt_reduction_ms_{name}"]
            ) == GOLDEN_SEED3_METRICS[name]

    def test_pooled_section_counts_all_cases(self):
        result = run_sweep(
            SweepRequest.from_scenario("baseline", seeds=(3, 4), rounds=1, countries=8)
        )
        assert result.pooled["total_cases"] == sum(
            m["total_cases"] for m in result.per_seed
        )


# --------------------------------------------------------------------------
# ragged-CSR edge cases


def _obs(round_index, pair_no, *, improving=None, best=None, feasible=None,
         groups=None, direct=120.0):
    improving = improving or {}
    feasible = feasible or {}
    groups = groups or {}
    full_improving = {t: tuple(improving.get(t, ())) for t in RELAY_TYPE_ORDER}
    full_feasible = {t: feasible.get(t, 0) for t in RELAY_TYPE_ORDER}
    full_groups = {
        t: tuple(groups.get(t, (False, False, False, False)))
        for t in RELAY_TYPE_ORDER
    }
    return PairObservation(
        round_index=round_index,
        e1_id=f"p{pair_no}a",
        e2_id=f"p{pair_no}b",
        e1_cc="DE",
        e2_cc="JP",
        e1_city="Berlin/DE",
        e2_city="Tokyo/JP",
        direct_rtt_ms=direct,
        best_by_type=best or {},
        improving_by_type=full_improving,
        feasible_by_type=full_feasible,
        country_groups_by_type=full_groups,
    )


class TestCsrEdgeCases:
    def test_zero_improving_and_zero_feasible(self):
        observations = [
            # no feasible relays at all: everything empty
            _obs(0, 0),
            # feasible relays but none improving (best exists, no gain)
            _obs(
                0,
                1,
                best={RelayType.COR: (7, 150.0)},
                feasible={RelayType.COR: 3},
            ),
            # a mixed case: COR improves twice, PLR has feasible-only
            _obs(
                0,
                2,
                improving={RelayType.COR: ((7, 30.0), (9, 12.5))},
                best={RelayType.COR: (7, 90.0)},
                feasible={RelayType.COR: 4, RelayType.PLR: 2},
                groups={RelayType.COR: (True, True, True, False)},
            ),
        ]
        table = ObservationTable.from_observations(observations)
        assert table.num_cases == 3
        assert table.imp_indptr[-1] == 2
        counts = table.improving_counts()
        cor = RELAY_TYPE_ORDER.index(RelayType.COR)
        assert counts[cor].tolist() == [0, 0, 2]
        assert table.improved_count(cor) == 1
        for code in range(NUM_RELAY_TYPES):
            if code != cor:
                assert table.improved_count(code) == 0
        # materialized objects are exactly the originals
        assert table.materialized() == observations

    def test_empty_type_entries(self):
        table = ObservationTable.from_observations([_obs(0, 0)])
        for code in range(NUM_RELAY_TYPES):
            cases, relays, gains = table.type_entries(code)
            assert cases.size == relays.size == gains.size == 0
            got_cases, got_gains = table.best_gain_per_improved_case(code)
            assert got_cases.size == got_gains.size == 0

    def test_empty_table(self):
        table = ObservationTable.empty()
        assert table.num_cases == 0
        assert table.materialized() == []
        assert ObservationTable.concat([]).num_cases == 0

    def test_best_gain_segments(self):
        observations = [
            _obs(
                0,
                0,
                improving={RelayType.PLR: ((1, 5.0), (2, 25.0), (3, 10.0))},
                best={RelayType.PLR: (2, 95.0)},
                feasible={RelayType.PLR: 3},
            ),
            _obs(0, 1),
            _obs(
                0,
                2,
                improving={RelayType.PLR: ((4, 40.0),)},
                best={RelayType.PLR: (4, 80.0)},
                feasible={RelayType.PLR: 1},
            ),
        ]
        table = ObservationTable.from_observations(observations)
        plr = RELAY_TYPE_ORDER.index(RelayType.PLR)
        cases, gains = table.best_gain_per_improved_case(plr)
        assert cases.tolist() == [0, 2]
        assert gains.tolist() == [25.0, 40.0]

    def test_from_observations_with_shared_pools(self):
        pools = TablePools.fresh()
        t1 = ObservationTable.from_observations([_obs(0, 0)], pools=pools)
        t2 = ObservationTable.from_observations([_obs(1, 0)], pools=pools)
        merged = ObservationTable.concat([t1, t2])
        assert merged.pools is pools
        assert merged.num_cases == 2
        assert merged.round_idx.tolist() == [0, 1]

    def test_interner_is_stable(self):
        pool = TablePools.fresh()
        a = pool.countries.code("DE")
        b = pool.countries.code("JP")
        assert pool.countries.code("DE") == a
        assert pool.countries.codes(["JP", "DE"]).tolist() == [b, a]
        assert pool.countries[a] == "DE"
