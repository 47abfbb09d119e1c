"""Production-traffic scenario harness (config-driven, seeded, open-loop).

See :mod:`.config` for the declarative scenario shape, :mod:`.workload` for
the seeded generators, :mod:`.failures` for the chaos seams and
:mod:`.driver` for the open-loop driver and SLO reporting.  Run scenarios
from the command line with ``python -m repro.traffic``.
"""

from .config import (
    ARRIVALS,
    DEFAULT_MIX,
    FAILURE_KINDS,
    KEY_LAYOUTS,
    REQUEST_CLASSES,
    FailureSpec,
    ScenarioConfig,
    preset,
)
from .driver import build_service, run_scenario, validate_slo_report
from .failures import InjectedFailure, inject
from .workload import (
    TrafficEvent,
    ZipfRanks,
    poisson_arrivals,
    ranked_keys,
    tenant_keys,
    tenant_schedule,
)

__all__ = [
    "ARRIVALS",
    "DEFAULT_MIX",
    "FAILURE_KINDS",
    "FailureSpec",
    "InjectedFailure",
    "KEY_LAYOUTS",
    "REQUEST_CLASSES",
    "ScenarioConfig",
    "TrafficEvent",
    "ZipfRanks",
    "build_service",
    "inject",
    "poisson_arrivals",
    "preset",
    "ranked_keys",
    "run_scenario",
    "tenant_keys",
    "tenant_schedule",
    "validate_slo_report",
]
