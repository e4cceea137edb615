"""Deterministic simulator and verification harness for crash-fault-tolerant
dispersion of mobile robots on anonymous port-labelled graphs."""

from .arbitrary import ArbitraryCore, ArbitraryDispersion
from .engine import (
    CrashSchedule,
    Decision,
    LocalView,
    RobotState,
    SimResult,
    TraceEvent,
    WorldState,
    is_dispersed,
    run,
    step,
    trace_hash,
)
from .graph import PortGraph, build, complete, generate, path, random_connected, ring, star
from .rooted import RootedCore, RootedDispersion

__version__ = "0.1.0"

__all__ = [
    "ArbitraryCore",
    "ArbitraryDispersion",
    "CrashSchedule",
    "Decision",
    "LocalView",
    "PortGraph",
    "RobotState",
    "RootedCore",
    "RootedDispersion",
    "SimResult",
    "TraceEvent",
    "WorldState",
    "build",
    "complete",
    "generate",
    "is_dispersed",
    "path",
    "random_connected",
    "ring",
    "run",
    "star",
    "step",
    "trace_hash",
]
