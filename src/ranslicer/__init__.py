"""RAN slice descriptor compiler and virtualized gNB deployment planner.

Importing the package runs none of its modules.  Each submodule is
registered in ``sys.modules`` as a deferred module whose code runs on its
first attribute read, so a CLI command compiles only the modules it uses;
the names in ``__all__`` resolve on first use (PEP 562).
"""

import sys
import threading
import types
from importlib.util import module_from_spec, spec_from_file_location
from os.path import join

__version__ = "0.1.0"

# The package's public names, each with the submodule it is read from.
_HOMES = {
    name: module
    for module, names in {
        "builtin": ("builtin_catalog", "reference_requests"),
        "cli": ("cli_main",),
        "errors": ("DocumentError", "PlannerError", "ProfilerError", "RanSliceError", "TopologyError"),
        "io": ("DocumentEnvelope", "SliceRequest", "emit_onboarding_bundle", "parse_document", "serialize_document"),
        "model": ("Catalog", "RadioConfig", "RanNsst", "SliceRequirements", "SNssai", "Sst"),
        "planner": ("PlannerConfig", "SlicePlan", "plan_slice", "select_il_for_traffic", "verify_plan"),
        "radio": ("ProfilerPolicy", "build_ran_nsst", "default_policy"),
        "topology": ("DeploymentArea", "pop_latency", "reference_area", "select_rus"),
        "validate": ("Violation", "validate_catalog"),
    }.items()
    for name in names
}
__all__ = sorted(_HOMES)

# One lock for every deferred module: a module's code imports others, so
# per-module locks could be taken in opposite orders by two threads.
_LOAD_LOCK = threading.RLock()
_running: set[types.ModuleType] = set()


class _Deferred(types.ModuleType):
    """A submodule whose code has not run yet.

    The first attribute read runs it under ``_LOAD_LOCK``; a thread that
    reads meanwhile waits for the whole module.  Reads from the running
    code itself (an import cycle) see the partial module, as a plain
    import would.  Once the code has run the class becomes
    ``types.ModuleType``, so later reads cost nothing extra.
    """

    def __getattribute__(self, name):
        with _LOAD_LOCK:
            if type(self) is _Deferred and self not in _running:
                _running.add(self)
                try:
                    types.ModuleType.__getattribute__(self, "__loader__").exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _running.discard(self)
        return types.ModuleType.__getattribute__(self, name)


for _name in sorted(set(_HOMES.values())):
    _spec = spec_from_file_location(f"{__name__}.{_name}", join(__path__[0], f"{_name}.py"))
    _module = module_from_spec(_spec)
    _module.__class__ = _Deferred
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *__all__})
