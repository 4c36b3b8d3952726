"""Error taxonomy shared across the package.

Every failure carries a stable machine-readable ``code`` so the CLI can
report it on stderr and callers can dispatch without string matching.
``stage`` names the planning step that raised, when relevant.
"""

from __future__ import annotations


class RanSliceError(Exception):
    def __init__(self, code: str, message: str, *, stage: str | None = None):
        super().__init__(message)
        self.code = code
        self.stage = stage

    def __str__(self) -> str:
        head = self.code if self.stage is None else f"{self.code} (stage {self.stage})"
        return f"{head}: {self.args[0]}"


class ProfilerError(RanSliceError):
    """Requirement-to-radio-parameter translation failed (UNSATISFIABLE_LATENCY, NO_MATCHING_5QI)."""


class TopologyError(RanSliceError):
    """Deployment-area query failed (UNKNOWN_REGION, UNREACHABLE, INVALID_TOPOLOGY)."""


class PlannerError(RanSliceError):
    """Planning failed (INSUFFICIENT_DU_CAPACITY, INFEASIBLE_LATENCY, NO_MATCHING_SUBSET, LOAD_EXCEEDS_SUBSET)."""


class DocumentError(RanSliceError):
    """Document parsing or emission failed (PARSE_ERROR, UNKNOWN_KIND, UNSUPPORTED_VERSION, DANGLING_PLAN_REFERENCE,
    UNSAFE_BUNDLE_NAME: a bundle file name that is not a plain file name)."""

    def __init__(
        self,
        code: str,
        message: str,
        *,
        line: int | None = None,
        column: int | None = None,
        path: str | None = None,
    ):
        super().__init__(code, message)
        self.line = line
        self.column = column
        self.path = path

    def __str__(self) -> str:
        where = ""
        if self.line is not None:
            where = f" at line {self.line}, column {self.column}"
        elif self.path:
            where = f" at {self.path}"
        return f"{self.code}: {self.args[0]}{where}"
