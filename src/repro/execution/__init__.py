"""Execution engines: the LLVA interpreter and the native machine
simulator, sharing one memory model and the Section 3.3 exception model."""

from repro.execution.config import ConfigError, EngineConfig
from repro.execution.events import (
    ExecutionTrap,
    ExitRequest,
    TrapKind,
    UnwindSignal,
)
from repro.execution.fastpath import DecodeCache, FastInterpreter
from repro.execution.interpreter import (
    ExecutionResult,
    Interpreter,
    StepLimitExceeded,
)
from repro.execution.memory import Memory
from repro.execution.sanitizer import (
    FaultReport,
    SanitizedMemory,
    SanitizerFault,
    ShadowSanitizer,
)
from repro.execution.tier2 import CompiledUnit, Tier2Cache, Tier2Stats

__all__ = [
    "ConfigError",
    "EngineConfig",
    "ExecutionTrap",
    "ExitRequest",
    "TrapKind",
    "UnwindSignal",
    "ExecutionResult",
    "DecodeCache",
    "FastInterpreter",
    "Interpreter",
    "StepLimitExceeded",
    "Memory",
    "FaultReport",
    "SanitizedMemory",
    "SanitizerFault",
    "ShadowSanitizer",
    "CompiledUnit",
    "Tier2Cache",
    "Tier2Stats",
]
