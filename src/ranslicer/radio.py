"""Requirement-to-radio-parameter translation.

Maps a slice requirement vector onto the NR configuration parameters a
slice template carries: numerology, operation bands with carrier
bandwidth, TDD slot format, 5QI, MCS set and packet-scheduler policy.
All thresholds live in ``ProfilerPolicy`` so an operator can recalibrate
without touching code; the defaults reproduce the three reference
templates shipped in the builtin catalog.

``area_load_mbps``, the one demand model, sizes both the carriers and
the planner's regional peak load from ``ProfilerPolicy.activity_factor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ProfilerError
from .model import (
    BAND_BW_LIMITS_MHZ,
    BandRange,
    CarrierBand,
    FiveQi,
    McsSet,
    Priority,
    RadioConfig,
    RanNsst,
    SchedulerPolicy,
    SliceRequirements,
    SNssai,
    Sst,
)


@dataclass(frozen=True)
class SlotFormatRow:
    """One TDD slot format and the downlink/uplink ratio interval it
    serves.  ``max_dl_ul_ratio`` None means unbounded above."""

    slot_format_id: int
    min_dl_ul_ratio: float
    max_dl_ul_ratio: float | None
    dl_symbols: int
    ul_symbols: int
    flexible_symbols: int


@dataclass(frozen=True)
class ProfilerPolicy:
    """Threshold tables for the requirement-to-parameter mapping.

    ``latency_to_mu_thresholds`` is an ordered list of
    ``(max_latency_ms, mu)`` pairs: a request whose latency falls in the
    interval up to ``max_latency_ms`` (and above the previous entry's
    bound) gets that numerology.  ``None`` as bound means unbounded and
    must come last.
    """

    latency_to_mu_thresholds: tuple[tuple[float | None, int], ...]
    slot_format_table: tuple[SlotFormatRow, ...]
    fiveqi_table: tuple[FiveQi, ...]
    mcs_threshold_mbps: float = 100.0
    mobility_uplift_kmh: float = 200.0
    min_latency_ms: float = 2.0
    reference_cell_area_km2: float = 0.1
    activity_factor: float = 0.1
    spectral_efficiency_bps_per_hz: float = 10.0
    narrowband_rate_threshold_mbps: float = 1.0

    def __post_init__(self):
        if not self.latency_to_mu_thresholds:
            raise ValueError("latency thresholds must be non-empty")
        bounds = [b for b, _ in self.latency_to_mu_thresholds]
        if any(b is None for b in bounds[:-1]):
            raise ValueError("only the last latency threshold may be unbounded")
        finite = [b for b in bounds if b is not None]
        if any(b2 <= b1 for b1, b2 in zip(finite, finite[1:])):
            raise ValueError("latency thresholds must be strictly increasing")
        mus = [m for _, m in self.latency_to_mu_thresholds]
        if any(m2 >= m1 for m1, m2 in zip(mus, mus[1:])):
            raise ValueError("mu values must be strictly decreasing along the thresholds")
        if any(m not in (0, 1, 2, 3) for m in mus):
            raise ValueError("mu values must lie in 0..3")
        if not self.slot_format_table:
            raise ValueError("slot format table must be non-empty")
        rows = sorted(self.slot_format_table, key=lambda r: r.min_dl_ul_ratio)
        if rows[0].min_dl_ul_ratio != 0.0 or rows[-1].max_dl_ul_ratio is not None:
            raise ValueError("slot format ratio intervals must cover (0, inf)")
        for a, b in zip(rows, rows[1:]):
            if a.max_dl_ul_ratio != b.min_dl_ul_ratio:
                raise ValueError("slot format ratio intervals must tile without gaps or overlaps")
        if not self.fiveqi_table:
            raise ValueError("5QI table must be non-empty")
        if self.mcs_threshold_mbps <= 0 or self.min_latency_ms <= 0:
            raise ValueError("thresholds must be positive")
        if not 0 < self.activity_factor <= 1:
            raise ValueError("activity factor must lie in (0, 1]")
        if self.reference_cell_area_km2 <= 0 or self.spectral_efficiency_bps_per_hz <= 0:
            raise ValueError("demand-model constants must be positive")


def default_policy() -> ProfilerPolicy:
    """Policy calibrated against the three reference slice archetypes."""
    return ProfilerPolicy(
        latency_to_mu_thresholds=((5.0, 3), (20.0, 2), (200.0, 1), (None, 0)),
        slot_format_table=(
            SlotFormatRow(10, 0.0, 0.25, dl_symbols=0, ul_symbols=13, flexible_symbols=1),
            SlotFormatRow(45, 0.25, 4.0, dl_symbols=6, ul_symbols=6, flexible_symbols=2),
            SlotFormatRow(28, 4.0, None, dl_symbols=12, ul_symbols=1, flexible_symbols=1),
        ),
        fiveqi_table=(
            FiveQi(id=4, priority_level=50, packet_delay_budget_ms=300.0, packet_error_rate=1e-6),
            FiveQi(id=80, priority_level=66, packet_delay_budget_ms=10.0, packet_error_rate=1e-6),
            FiveQi(id=81, priority_level=11, packet_delay_budget_ms=5.0, packet_error_rate=1e-5),
        ),
    )


def select_numerology(latency_ms: float, max_mobility_kmh: float, policy: ProfilerPolicy) -> int:
    """Pick the subcarrier-spacing exponent for a latency bound.

    High-mobility slices get one extra step (shorter TTI), capped at 3.
    """
    if latency_ms <= 0:
        raise ValueError("latency must be positive")
    if latency_ms < policy.min_latency_ms:
        raise ProfilerError(
            "UNSATISFIABLE_LATENCY",
            f"latency {latency_ms} ms is below the {policy.min_latency_ms} ms floor of mu=3",
        )
    mu = policy.latency_to_mu_thresholds[-1][1]
    for bound, candidate in policy.latency_to_mu_thresholds:
        if bound is None or latency_ms <= bound:
            mu = candidate
            break
    if max_mobility_kmh > policy.mobility_uplift_kmh:
        mu = min(mu + 1, 3)
    return mu


def area_load_mbps(ue_density_per_km2: float, area_km2: float, per_ue_mbps: float, policy: ProfilerPolicy) -> float:
    """Peak offered load of an area: UE density times area times the
    dominant per-UE rate, derated by the policy's activity factor."""
    return ue_density_per_km2 * area_km2 * per_ue_mbps * policy.activity_factor


def select_operation_bands(
    throughput_dl_mbps: float,
    throughput_ul_mbps: float,
    ue_density_per_km2: float,
    mu: int,
    policy: ProfilerPolicy,
) -> tuple[CarrierBand, ...]:
    """Choose band ranges for the numerology and size their carriers.

    mu=3 is only defined in the mmWave range and mu=0 only makes sense
    below 6 GHz; the middle numerologies may use both.  Carrier bandwidth
    follows the offered load of a reference cell, except that services
    whose per-UE rate sits in the narrowband regime always get the
    minimum carrier regardless of UE density.
    """
    if mu not in (0, 1, 2, 3):
        raise ValueError("mu must lie in 0..3")
    per_ue = max(throughput_dl_mbps, throughput_ul_mbps)
    if per_ue <= 0:
        raise ValueError("at least one throughput must be positive")
    if ue_density_per_km2 <= 0:
        raise ValueError("UE density must be positive")
    if per_ue <= policy.narrowband_rate_threshold_mbps:
        demand_mhz = 0.0  # clamps to the minimum carrier
    else:
        cell_load_mbps = area_load_mbps(ue_density_per_km2, policy.reference_cell_area_km2, per_ue, policy)
        demand_mhz = cell_load_mbps / policy.spectral_efficiency_bps_per_hz
    if mu == 3:
        ranges = (BandRange.MMWAVE_24250_52600,)
    elif mu == 0:
        ranges = (BandRange.SUB6_450_6000,)
    else:
        ranges = (BandRange.SUB6_450_6000, BandRange.MMWAVE_24250_52600)
    bands = []
    for band_range in ranges:
        lo, hi = BAND_BW_LIMITS_MHZ[band_range]
        bands.append(CarrierBand(band_range, min(max(demand_mhz, lo), hi)))
    return tuple(bands)


def select_slot_format(
    throughput_dl_mbps: float, throughput_ul_mbps: float, policy: ProfilerPolicy
) -> int:
    """Pick the TDD slot format whose ratio interval contains DL/UL."""
    if throughput_dl_mbps <= 0 and throughput_ul_mbps <= 0:
        raise ValueError("at least one throughput must be positive")
    if throughput_ul_mbps <= 0:
        ratio = math.inf
    elif throughput_dl_mbps <= 0:
        ratio = 0.0
    else:
        ratio = throughput_dl_mbps / throughput_ul_mbps
    for row in sorted(policy.slot_format_table, key=lambda r: r.min_dl_ul_ratio):
        upper = math.inf if row.max_dl_ul_ratio is None else row.max_dl_ul_ratio
        if row.min_dl_ul_ratio <= ratio < upper or (ratio == math.inf and upper == math.inf):
            return row.slot_format_id
    raise AssertionError("slot format intervals failed to cover the ratio")  # pragma: no cover


def select_5qi(
    latency_ms: float,
    reliability_pct: float | None,
    priority: Priority,
    policy: ProfilerPolicy,
) -> FiveQi:
    """Most latency-tolerant 5QI still within the delay budget.

    Reliability, when stated, caps the admissible packet error rate.
    Ties on delay budget resolve by priority class: HIGH prefers the
    lowest (strongest) priority level, LOW the highest.
    """
    if latency_ms <= 0:
        raise ValueError("latency must be positive")
    max_error_rate = None if reliability_pct is None else 1.0 - reliability_pct / 100.0
    candidates = [
        q
        for q in policy.fiveqi_table
        if q.packet_delay_budget_ms <= latency_ms
        and (max_error_rate is None or q.packet_error_rate <= max_error_rate)
    ]
    if not candidates:
        raise ProfilerError(
            "NO_MATCHING_5QI",
            f"no 5QI with delay budget <= {latency_ms} ms"
            + ("" if max_error_rate is None else f" and error rate <= {max_error_rate:g}"),
        )
    best_budget = max(q.packet_delay_budget_ms for q in candidates)
    tied = [q for q in candidates if q.packet_delay_budget_ms == best_budget]
    if priority is Priority.HIGH:
        tied.sort(key=lambda q: (q.priority_level, q.id))
    elif priority is Priority.LOW:
        tied.sort(key=lambda q: (-q.priority_level, q.id))
    else:
        levels = sorted(q.priority_level for q in tied)
        median = levels[(len(levels) - 1) // 2]
        tied.sort(key=lambda q: (abs(q.priority_level - median), q.id))
    return tied[0]


def select_mcs_set(throughput_dl_mbps: float, policy: ProfilerPolicy) -> McsSet:
    if throughput_dl_mbps < 0:
        raise ValueError("throughput must be non-negative")
    if throughput_dl_mbps >= policy.mcs_threshold_mbps:
        return McsSet.EXTENDED_256QAM
    return McsSet.LTE_COMPATIBLE


def select_scheduler(requirements: SliceRequirements) -> SchedulerPolicy:
    """Scheduler policy from UE behaviour.

    Stationary populations with sub-Mbps symmetric traffic are periodic
    reporters and fit semi-persistent grants; tight latency budgets need
    delay-guaranteeing dynamic scheduling; everything else gets
    throughput-guaranteeing dynamic scheduling.
    """
    dl, ul = requirements.throughput_dl_mbps, requirements.throughput_ul_mbps
    symmetric = dl > 0 and ul > 0 and max(dl, ul) / min(dl, ul) <= 2.0
    if requirements.max_mobility_kmh == 0 and max(dl, ul) < 1.0 and symmetric:
        return SchedulerPolicy.SEMI_PERSISTENT
    if requirements.latency_ms <= 5.0:
        return SchedulerPolicy.DYNAMIC_GUARANTEED_DELAY
    return SchedulerPolicy.DYNAMIC_GUARANTEED_THROUGHPUT


def build_ran_nsst(
    requirements: SliceRequirements,
    sst: Sst,
    nsd_ref: str,
    policy: ProfilerPolicy | None = None,
    *,
    sd: str | None = None,
) -> RanNsst:
    """Compile a full slice template from a requirement vector."""
    policy = policy or default_policy()
    mu = select_numerology(requirements.latency_ms, requirements.max_mobility_kmh, policy)
    config = RadioConfig(
        numerology_mu=mu,
        bands=select_operation_bands(
            requirements.throughput_dl_mbps,
            requirements.throughput_ul_mbps,
            requirements.ue_density_per_km2,
            mu,
            policy,
        ),
        slot_format_id=select_slot_format(
            requirements.throughput_dl_mbps, requirements.throughput_ul_mbps, policy
        ),
        five_qi=select_5qi(
            requirements.latency_ms, requirements.reliability_pct, requirements.priority, policy
        ),
        mcs_set=select_mcs_set(requirements.throughput_dl_mbps, policy),
        scheduler_policy=select_scheduler(requirements),
    )
    return RanNsst(
        nsst_id=f"nsst-{sst.name.lower()}",
        s_nssai=SNssai(sst, sd),
        radio_config=config,
        nsd_ref=nsd_ref,
        requirement_profile=requirements,
    )
