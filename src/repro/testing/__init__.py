"""Test harnesses shipped with the library.

Currently one: :mod:`repro.testing.faults`, the deterministic
fault-injection harness behind the chaos suite — seeded injectors that
crash the attempt carrying a chosen pair, stall it past its deadline,
flip a byte of a spilled segment on disk, or cut a durable session at
one write boundary of its directory.  Lives in the
package (not ``tests/``) so downstream deployments can chaos-test their
own configurations with the same tools CI uses.
"""

from repro.testing.faults import (
    WRITE_BOUNDARIES,
    FaultHook,
    FaultInjector,
    FlippedByte,
    InjectedWorkerCrash,
    InjectedWriteCrash,
    WriteHook,
    compose,
    crash_on,
    cut_write,
    installed,
    stall_on,
)

__all__ = [
    "FaultHook",
    "FaultInjector",
    "FlippedByte",
    "InjectedWorkerCrash",
    "InjectedWriteCrash",
    "WRITE_BOUNDARIES",
    "WriteHook",
    "compose",
    "crash_on",
    "cut_write",
    "installed",
    "stall_on",
]
