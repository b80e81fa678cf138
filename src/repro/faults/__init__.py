"""Fault injection and graceful degradation for the detection stack.

See FAULTS.md at the repository root for the injection-site map and the
degradation policy this package drives.
"""

from repro.faults.plan import (
    ANY_TARGET,
    DegradationEvent,
    FaultEvent,
    FaultPlan,
    FaultSite,
    FaultSpec,
)
from repro.faults.scenarios import SCENARIOS, get_scenario

__all__ = [
    "ANY_TARGET",
    "DegradationEvent",
    "FaultEvent",
    "FaultPlan",
    "FaultSite",
    "FaultSpec",
    "SCENARIOS",
    "get_scenario",
]
