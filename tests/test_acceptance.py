"""Acceptance suite: every shipping criterion, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Tolerances are pinned here: configuration and
planning reproduction are exact-match, the CU solver must equal the
independent oracle on 100% of feasible instances, monotonicity and
round-trip checks admit zero violations.
"""

import random
import time
import zlib
from pathlib import Path

import docgen
from cu_oracle import make_instance, oracle_min_cus
from ranslicer.builtin import builtin_catalog, reference_requests
from ranslicer.cli import cli_main
from ranslicer.errors import PlannerError
from ranslicer.io import envelope_for, parse_document, serialize_document
from ranslicer.model import (
    CITY_CENTER,
    INDUSTRIAL,
    SUBURBAN,
    BandRange,
    DuIlCapacity,
    DuSubsetKey,
    FronthaulTech,
    GnbSubsetKey,
    IlSubset,
    InstantiationLevel,
    McsSet,
    SchedulerPolicy,
    Sst,
    VmSpec,
)
from ranslicer.planner import PlannerConfig, assign_dus_to_cus, plan_slice, select_il_for_traffic
from ranslicer.radio import build_ran_nsst, default_policy, select_mcs_set, select_numerology
from ranslicer.topology import reference_area
from ranslicer.validate import validate_catalog
from test_catalog_validate import EXACT_REPORTS

DATA_DIR = Path(__file__).parent / "data"


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}): " + " | ".join(failures[:10])


def test_criterion_1_configuration_reproduction():
    failures: list[str] = []
    requests = reference_requests()
    started = time.perf_counter()
    nssts = {
        sst: build_ran_nsst(requests[sst], sst, "nsd-gnb-v1") for sst in (Sst.EMBB, Sst.MMTC, Sst.URLLC)
    }
    elapsed = time.perf_counter() - started

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: expected {want!r}, got {got!r}")

    embb = nssts[Sst.EMBB].radio_config
    check("eMBB mu", embb.numerology_mu, 2)
    check("eMBB bands", [(b.band_range, b.carrier_bandwidth_mhz) for b in embb.bands],
          [(BandRange.SUB6_450_6000, 100.0), (BandRange.MMWAVE_24250_52600, 400.0)])
    check("eMBB slot format", embb.slot_format_id, 28)
    check("eMBB 5QI", (embb.five_qi.id, embb.five_qi.priority_level,
                       embb.five_qi.packet_delay_budget_ms, embb.five_qi.packet_error_rate),
          (80, 66, 10.0, 1e-6))
    check("eMBB MCS", embb.mcs_set, McsSet.EXTENDED_256QAM)
    check("eMBB scheduler", embb.scheduler_policy, SchedulerPolicy.DYNAMIC_GUARANTEED_THROUGHPUT)

    mmtc = nssts[Sst.MMTC].radio_config
    check("mMTC mu", mmtc.numerology_mu, 0)
    check("mMTC bands", [(b.band_range, b.carrier_bandwidth_mhz) for b in mmtc.bands],
          [(BandRange.SUB6_450_6000, 5.0)])
    check("mMTC slot format", mmtc.slot_format_id, 45)
    check("mMTC 5QI", (mmtc.five_qi.id, mmtc.five_qi.priority_level,
                       mmtc.five_qi.packet_delay_budget_ms, mmtc.five_qi.packet_error_rate),
          (4, 50, 300.0, 1e-6))
    check("mMTC MCS", mmtc.mcs_set, McsSet.LTE_COMPATIBLE)
    check("mMTC scheduler", mmtc.scheduler_policy, SchedulerPolicy.SEMI_PERSISTENT)

    urllc = nssts[Sst.URLLC].radio_config
    check("uRLLC mu", urllc.numerology_mu, 3)
    check("uRLLC bands", [b.band_range for b in urllc.bands], [BandRange.MMWAVE_24250_52600])
    check("uRLLC slot format", urllc.slot_format_id, 10)
    check("uRLLC 5QI", (urllc.five_qi.id, urllc.five_qi.priority_level,
                        urllc.five_qi.packet_delay_budget_ms, urllc.five_qi.packet_error_rate),
          (81, 11, 5.0, 1e-5))
    check("uRLLC MCS", urllc.mcs_set, McsSet.LTE_COMPATIBLE)
    check("uRLLC scheduler", urllc.scheduler_policy, SchedulerPolicy.DYNAMIC_GUARANTEED_DELAY)

    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s exceeds 1s")
    _report(1, "template configuration reproduction", failures)


def test_criterion_2_planning_reproduction():
    failures: list[str] = []
    catalog = builtin_catalog()
    area = reference_area()
    requests = reference_requests()
    started = time.perf_counter()
    plans = {sst: plan_slice(requests[sst], sst, area, catalog) for sst in (Sst.EMBB, Sst.MMTC, Sst.URLLC)}
    elapsed = time.perf_counter() - started

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: expected {want!r}, got {got!r}")

    city_rus = tuple(f"ru-cc-{i:02d}" for i in range(1, 9))
    suburb_rus = tuple(f"ru-sub-{i:02d}" for i in range(1, 7))
    all_rus = tuple(sorted(r.ru_id for r in area.rus))

    check("eMBB flavor", [g.nsd_flavor_id for g in plans[Sst.EMBB].gnbs], [2])
    check("eMBB RUs", plans[Sst.EMBB].selected_rus, city_rus)
    check("uRLLC flavor", [g.nsd_flavor_id for g in plans[Sst.URLLC].gnbs], [1])
    check("uRLLC RUs", plans[Sst.URLLC].selected_rus, suburb_rus)
    check("mMTC flavor", [g.nsd_flavor_id for g in plans[Sst.MMTC].gnbs], [3])
    check("mMTC RUs", plans[Sst.MMTC].selected_rus, all_rus)
    triple = GnbSubsetKey((
        (INDUSTRIAL, FronthaulTech.ECPRI),
        (SUBURBAN, FronthaulTech.CPRI),
        (CITY_CENTER, FronthaulTech.ECPRI),
    ))
    check("mMTC gNB IL subset key", [g.nsd_il_subset.key for g in plans[Sst.MMTC].gnbs], [triple])

    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.3f}s exceeds 5s")
    _report(2, "deployment planning reproduction", failures)


def test_criterion_3_cu_minimization_oracle_equivalence():
    failures: list[str] = []
    rng = random.Random(20260810)
    config = PlannerConfig()
    feasible = infeasible = 0
    started = time.perf_counter()
    for instance in range(500):
        dus, area, cu_vnfd, capacity = make_instance(rng)
        expected = oracle_min_cus(dus, area, config.cu_du_latency_budget_ms, capacity)
        try:
            skeletons = assign_dus_to_cus(dus, area, cu_vnfd, config)
            got = len(skeletons)
        except PlannerError as err:
            got = None if err.code == "INFEASIBLE_LATENCY" else f"error {err.code}"
        if got != expected:
            failures.append(f"instance {instance}: oracle {expected}, planner {got}")
            if len(failures) > 5:
                break
        if expected is None:
            infeasible += 1
        else:
            feasible += 1
    elapsed = time.perf_counter() - started
    if feasible == 0 or infeasible == 0:
        failures.append(f"degenerate sample: {feasible} feasible / {infeasible} infeasible")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(3, f"CU minimization equals oracle on 500 instances "
               f"({feasible} feasible, {infeasible} infeasible, {elapsed:.1f}s)", failures)


def test_criterion_4_invariant_suite():
    failures: list[str] = []
    catalog = builtin_catalog()
    area = reference_area()
    if validate_catalog(catalog, area) != []:
        failures.append("builtin catalog did not validate clean")
    mutation_count = 0
    for name, (mutate, expected) in sorted(EXACT_REPORTS.items()):
        mutation_count += 1
        rules = {v.rule for v in validate_catalog(mutate(catalog), area)}
        wanted = {rule for _, _, rule, _ in expected}
        if rules != wanted:
            failures.append(f"mutation {name}: wanted rules {sorted(wanted)}, got {sorted(rules)}")
    if mutation_count < 10:
        failures.append(f"only {mutation_count} mutations exercised")
    _report(4, f"catalog invariant suite ({mutation_count} single-fault mutations)", failures)


def test_criterion_5_monotonicity_properties():
    failures: list[str] = []
    policy = default_policy()
    rng = random.Random(1789)

    def subset_from(caps):
        levels = tuple(
            InstantiationLevel(f"il-{i}", VmSpec(2 + i, 2.0, 4.0 + i), DuIlCapacity(4, cap))
            for i, cap in enumerate(caps)
        )
        return IlSubset(DuSubsetKey(SUBURBAN, FronthaulTech.CPRI, 1, 4), levels)

    for sample in range(1000):
        l1 = rng.uniform(2.0, 1e6)
        l2 = rng.uniform(2.0, 1e6)
        lo, hi = sorted((l1, l2))
        mobility = rng.uniform(0.0, 500.0)
        if select_numerology(lo, mobility, policy) < select_numerology(hi, mobility, policy):
            failures.append(f"sample {sample}: mu increased with latency ({lo:g} -> {hi:g})")
        d1, d2 = sorted((rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)))
        if (select_mcs_set(d1, policy) is McsSet.EXTENDED_256QAM
                and select_mcs_set(d2, policy) is not McsSet.EXTENDED_256QAM):
            failures.append(f"sample {sample}: MCS set downgraded with more throughput")
        caps = sorted({round(rng.uniform(10.0, 5000.0), 1) for _ in range(rng.randint(1, 5))})
        subset = subset_from(caps)
        ids = [lvl.il_id for lvl in subset.levels]
        load_lo, load_hi = sorted((rng.uniform(0.0, caps[-1]), rng.uniform(0.0, caps[-1])))
        idx_lo = ids.index(select_il_for_traffic(subset, load_lo).il_id)
        idx_hi = ids.index(select_il_for_traffic(subset, load_hi).il_id)
        if idx_lo > idx_hi:
            failures.append(f"sample {sample}: IL selection not monotone in load")
        if len(failures) > 5:
            break
    _report(5, "monotonicity over 1000 sampled vectors", failures)


def test_criterion_6_serialization_roundtrip():
    failures: list[str] = []
    for kind, generator in sorted(docgen.GENERATORS.items()):
        seed = zlib.crc32(kind.encode())  # fixed across runs, unlike hash(str)
        rng = random.Random(seed)
        for sample in range(1000):
            body = generator(rng)
            envelope = envelope_for(body)
            text = serialize_document(envelope)
            parsed = parse_document(text)
            if parsed != envelope:
                failures.append(f"{kind} sample {sample} (seed {seed}): parse(serialize(x)) != x")
            elif serialize_document(parsed) != text:
                failures.append(f"{kind} sample {sample} (seed {seed}): canonical form not idempotent")
            if len(failures) > 5:
                break
    _report(6, "round-trip identity for 1000 documents of every kind", failures)


def test_criterion_7_paper_example_command(capsys):
    failures: list[str] = []
    code = cli_main(["paper-example"])
    out = capsys.readouterr()
    if code != 0:
        failures.append(f"exit code {code}")
    pinned = (DATA_DIR / "paper_example_output.txt").read_text()
    if out.out != pinned:
        failures.append("rendered comparison differs from the pinned fixture")
    if "5QI=81" not in out.out:
        failures.append("uRLLC column does not name 5QI=81")
    with capsys.disabled():
        _report(7, "paper-example command matches the pinned fixture byte-for-byte", failures)
