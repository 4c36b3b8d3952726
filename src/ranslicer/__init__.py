"""RAN slice descriptor compiler and virtualized gNB deployment planner."""

from .builtin import builtin_catalog, reference_requests
from .cli import cli_main
from .errors import DocumentError, PlannerError, ProfilerError, RanSliceError, TopologyError
from .io import (
    DocumentEnvelope,
    SliceRequest,
    emit_onboarding_bundle,
    parse_document,
    serialize_document,
)
from .model import Catalog, RadioConfig, RanNsst, SliceRequirements, SNssai, Sst
from .planner import PlannerConfig, SlicePlan, plan_slice, select_il_for_traffic, verify_plan
from .radio import ProfilerPolicy, build_ran_nsst, default_policy
from .topology import DeploymentArea, pop_latency, reference_area, select_rus
from .validate import Violation, validate_catalog

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "DeploymentArea",
    "DocumentEnvelope",
    "DocumentError",
    "PlannerConfig",
    "PlannerError",
    "ProfilerError",
    "ProfilerPolicy",
    "RadioConfig",
    "RanNsst",
    "RanSliceError",
    "SNssai",
    "SlicePlan",
    "SliceRequest",
    "SliceRequirements",
    "Sst",
    "TopologyError",
    "Violation",
    "build_ran_nsst",
    "builtin_catalog",
    "cli_main",
    "default_policy",
    "emit_onboarding_bundle",
    "parse_document",
    "plan_slice",
    "pop_latency",
    "reference_area",
    "reference_requests",
    "select_il_for_traffic",
    "select_rus",
    "serialize_document",
    "validate_catalog",
    "verify_plan",
]
