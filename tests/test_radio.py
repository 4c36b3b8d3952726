"""Profiler mapping: reference-row reproduction plus monotonicity
properties."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranslicer.errors import ProfilerError
from ranslicer.model import (
    BandRange,
    McsSet,
    Priority,
    SchedulerPolicy,
    SliceRequirements,
    Sst,
)
from ranslicer.radio import (
    build_ran_nsst,
    default_policy,
    select_5qi,
    select_mcs_set,
    select_numerology,
    select_operation_bands,
    select_scheduler,
    select_slot_format,
)

POLICY = default_policy()


@pytest.mark.parametrize("field", ["mobility_uplift_kmh", "narrowband_rate_threshold_mbps"])
def test_policy_threshold_may_be_zero_but_not_negative(field):
    for zero in (0, -0.0):
        assert getattr(dataclasses.replace(POLICY, **{field: zero}), field) == 0
    with pytest.raises(ValueError, match="^mobility and narrowband thresholds must be non-negative$"):
        dataclasses.replace(POLICY, **{field: -1})


class TestNumerology:
    @pytest.mark.parametrize(
        "latency,mobility,expected",
        [
            (10.0, 10.0, 2),
            (5.0, 250.0, 3),
            (3_600_000.0, 0.0, 0),
            (2.0, 0.0, 3),      # exactly at the floor
            (20.0, 0.0, 2),     # interval boundaries are inclusive above
            (20.1, 0.0, 1),
            (100.0, 300.0, 2),  # mobility uplift raises mu=1 to mu=2
        ],
    )
    def test_reference_points(self, latency, mobility, expected):
        assert select_numerology(latency, mobility, POLICY) == expected

    def test_below_floor_is_unsatisfiable(self):
        with pytest.raises(ProfilerError) as err:
            select_numerology(1.0, 0.0, POLICY)
        assert err.value.code == "UNSATISFIABLE_LATENCY"

    @given(
        l1=st.floats(min_value=2.0, max_value=1e6),
        l2=st.floats(min_value=2.0, max_value=1e6),
        mobility=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_mu_non_increasing_in_latency(self, l1, l2, mobility):
        lo, hi = sorted((l1, l2))
        assert select_numerology(lo, mobility, POLICY) >= select_numerology(hi, mobility, POLICY)


class TestOperationBands:
    def test_high_demand_maxes_both_ranges(self):
        bands = select_operation_bands(300.0, 50.0, 5000.0, 2, POLICY)
        assert [(b.band_range, b.carrier_bandwidth_mhz) for b in bands] == [
            (BandRange.SUB6_450_6000, 100.0),
            (BandRange.MMWAVE_24250_52600, 400.0),
        ]

    def test_narrowband_service_gets_minimum_carrier(self):
        bands = select_operation_bands(0.1, 0.1, 500_000.0, 0, POLICY)
        assert [(b.band_range, b.carrier_bandwidth_mhz) for b in bands] == [
            (BandRange.SUB6_450_6000, 5.0)
        ]

    def test_mu3_is_mmwave_only_with_demand_formula_bandwidth(self):
        # Hand-derived: 50 UE/km2 * 0.1 km2 * 25 Mbps * 0.1 = 12.5 Mbps cell
        # load; / 10 bit/s/Hz = 1.25 MHz; clamped up to the 5 MHz minimum.
        demand = 50.0 * POLICY.reference_cell_area_km2 * 25.0 * POLICY.activity_factor
        expected_bw = max(demand / POLICY.spectral_efficiency_bps_per_hz, 5.0)
        assert expected_bw == 5.0
        bands = select_operation_bands(1.0, 25.0, 50.0, 3, POLICY)
        assert [(b.band_range, b.carrier_bandwidth_mhz) for b in bands] == [
            (BandRange.MMWAVE_24250_52600, expected_bw)
        ]

    def test_mu0_is_sub6_only(self):
        bands = select_operation_bands(300.0, 50.0, 5000.0, 0, POLICY)
        assert [b.band_range for b in bands] == [BandRange.SUB6_450_6000]

    @given(
        dl=st.floats(min_value=0.01, max_value=1e4),
        ul=st.floats(min_value=0.0, max_value=1e4),
        density=st.floats(min_value=0.1, max_value=1e6),
        mu=st.sampled_from([0, 1, 2, 3]),
    )
    def test_bandwidths_always_within_band_limits(self, dl, ul, density, mu):
        for band in select_operation_bands(dl, ul, density, mu, POLICY):
            lo, hi = 5.0, 100.0 if band.band_range is BandRange.SUB6_450_6000 else 400.0
            assert lo <= band.carrier_bandwidth_mhz <= hi


class TestSlotFormat:
    @pytest.mark.parametrize(
        "dl,ul,expected",
        [
            (300.0, 50.0, 28),
            (0.1, 0.1, 45),
            (1.0, 25.0, 10),
            (10.0, 0.0, 28),  # downlink-only: ratio -> infinity
            (0.0, 10.0, 10),  # uplink-only: ratio -> 0
        ],
    )
    def test_reference_points(self, dl, ul, expected):
        assert select_slot_format(dl, ul, POLICY) == expected

    @given(dl=st.floats(min_value=0.0, max_value=1e5), ul=st.floats(min_value=0.0, max_value=1e5))
    def test_total_coverage(self, dl, ul):
        if dl == 0.0 and ul == 0.0:
            with pytest.raises(ValueError):
                select_slot_format(dl, ul, POLICY)
        else:
            assert select_slot_format(dl, ul, POLICY) in {10, 28, 45}


class TestFiveQi:
    def test_embb_point(self):
        q = select_5qi(10.0, None, Priority.LOW, POLICY)
        assert (q.id, q.priority_level, q.packet_delay_budget_ms, q.packet_error_rate) == (
            80, 66, 10.0, 1e-6,
        )

    def test_mmtc_point(self):
        q = select_5qi(300.0, None, Priority.MEDIUM, POLICY)
        assert (q.id, q.priority_level) == (4, 50)

    def test_urllc_point(self):
        q = select_5qi(5.0, 99.999, Priority.HIGH, POLICY)
        assert (q.id, q.priority_level, q.packet_delay_budget_ms, q.packet_error_rate) == (
            81, 11, 5.0, 1e-5,
        )

    def test_no_match_below_all_budgets(self):
        with pytest.raises(ProfilerError) as err:
            select_5qi(3.0, None, Priority.LOW, POLICY)
        assert err.value.code == "NO_MATCHING_5QI"

    def test_reliability_filters_candidates(self):
        # 99.99999 % allows only error rates <= 1e-7; no default class fits.
        with pytest.raises(ProfilerError):
            select_5qi(10.0, 99.99999, Priority.HIGH, POLICY)


class TestMcsAndScheduler:
    @pytest.mark.parametrize("dl,expected", [
        (300.0, McsSet.EXTENDED_256QAM),
        (100.0, McsSet.EXTENDED_256QAM),
        (99.9, McsSet.LTE_COMPATIBLE),
        (0.1, McsSet.LTE_COMPATIBLE),
        (1.0, McsSet.LTE_COMPATIBLE),
    ])
    def test_mcs_threshold(self, dl, expected):
        assert select_mcs_set(dl, POLICY) is expected

    @given(d1=st.floats(min_value=0, max_value=1e4), d2=st.floats(min_value=0, max_value=1e4))
    def test_mcs_monotone(self, d1, d2):
        lo, hi = sorted((d1, d2))
        if select_mcs_set(lo, POLICY) is McsSet.EXTENDED_256QAM:
            assert select_mcs_set(hi, POLICY) is McsSet.EXTENDED_256QAM

    def test_scheduler_archetypes(self, requests):
        assert select_scheduler(requests[Sst.EMBB]) is SchedulerPolicy.DYNAMIC_GUARANTEED_THROUGHPUT
        assert select_scheduler(requests[Sst.MMTC]) is SchedulerPolicy.SEMI_PERSISTENT
        assert select_scheduler(requests[Sst.URLLC]) is SchedulerPolicy.DYNAMIC_GUARANTEED_DELAY


class TestBuildRanNsst:
    def test_embb_column(self, requests):
        nsst = build_ran_nsst(requests[Sst.EMBB], Sst.EMBB, "nsd-gnb-v1")
        config = nsst.radio_config
        assert config.numerology_mu == 2
        assert [(b.band_range, b.carrier_bandwidth_mhz) for b in config.bands] == [
            (BandRange.SUB6_450_6000, 100.0), (BandRange.MMWAVE_24250_52600, 400.0),
        ]
        assert config.slot_format_id == 28
        assert config.five_qi.id == 80
        assert config.mcs_set is McsSet.EXTENDED_256QAM
        assert config.scheduler_policy is SchedulerPolicy.DYNAMIC_GUARANTEED_THROUGHPUT
        assert nsst.s_nssai.sst is Sst.EMBB
        assert nsst.requirement_profile == requests[Sst.EMBB]

    def test_urllc_column(self, requests):
        config = build_ran_nsst(requests[Sst.URLLC], Sst.URLLC, "nsd-gnb-v1").radio_config
        assert config.numerology_mu == 3
        assert [b.band_range for b in config.bands] == [BandRange.MMWAVE_24250_52600]
        assert config.slot_format_id == 10
        assert (config.five_qi.id, config.five_qi.priority_level) == (81, 11)
        assert config.mcs_set is McsSet.LTE_COMPATIBLE
        assert config.scheduler_policy is SchedulerPolicy.DYNAMIC_GUARANTEED_DELAY

    def test_unsatisfiable_latency_propagates(self, requests):
        impossible = SliceRequirements(
            latency_ms=1.0, max_mobility_kmh=0.0, throughput_ul_mbps=1.0,
            throughput_dl_mbps=1.0, ue_density_per_km2=10.0, reliability_pct=None,
            priority=Priority.HIGH, ue_type="x", target_regions=("suburban",),
        )
        with pytest.raises(ProfilerError) as err:
            build_ran_nsst(impossible, Sst.URLLC, "nsd-gnb-v1")
        assert err.value.code == "UNSATISFIABLE_LATENCY"

    def test_deterministic_serialization(self, requests):
        from ranslicer.io import envelope_for, serialize_document
        from ranslicer.model import Catalog

        a = build_ran_nsst(requests[Sst.EMBB], Sst.EMBB, "nsd-gnb-v1")
        b = build_ran_nsst(requests[Sst.EMBB], Sst.EMBB, "nsd-gnb-v1")
        assert a == b
        wrap = lambda t: serialize_document(envelope_for(Catalog(nssts=(t,))))
        assert wrap(a) == wrap(b)

    @settings(max_examples=200)
    @given(
        latency=st.floats(min_value=5.0, max_value=1e5),
        mobility=st.floats(min_value=0.0, max_value=500.0),
        dl=st.floats(min_value=0.1, max_value=500.0),
        ul=st.floats(min_value=0.1, max_value=500.0),
        density=st.floats(min_value=0.5, max_value=1e5),
    )
    def test_mu3_implies_mmwave_only(self, latency, mobility, dl, ul, density):
        requirements = SliceRequirements(
            latency_ms=latency, max_mobility_kmh=mobility, throughput_ul_mbps=ul,
            throughput_dl_mbps=dl, ue_density_per_km2=density, reliability_pct=None,
            priority=Priority.MEDIUM, ue_type="x", target_regions=("a",),
        )
        config = build_ran_nsst(requirements, Sst.EMBB, "nsd").radio_config
        if config.numerology_mu == 3:
            assert all(b.band_range is BandRange.MMWAVE_24250_52600 for b in config.bands)
