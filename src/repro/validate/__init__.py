"""Simulation-integrity layer: invariants, lockstep oracle, fuzzing.

Three lines of defence against silent model corruption, switchable for
any run via ``GpuConfig.validate_enabled`` (invariants) or used directly
(oracle, fuzzer):

* :class:`InvariantChecker` / :class:`InvariantViolation` — per-cycle
  conservation audits (packet delivered exactly once, queue flit
  accounting, switch reserve/commit matching);
* :class:`LockstepOracle` / :func:`verify_equivalence` — the naive
  engine as ground truth for the active-set engine, with bisection to
  the first divergent (cycle, component);
* :func:`fuzz` / :func:`run_case` — randomized configs and workloads
  driven through both of the above (``python -m repro fuzz``).
"""

# The one package that imports its submodules eagerly: ``fuzz`` names
# both a submodule and the function it defines, and binding the function
# here keeps ``repro.validate.fuzz`` the function however the submodule
# is first imported.  ``.fuzz`` imports the other two submodules anyway,
# and only fuzz/oracle users and ``validate_enabled`` devices, which
# already hold the simulator, load this package.
from .invariants import InvariantChecker, InvariantViolation
from .oracle import Divergence, LockstepOracle, verify_equivalence
from .fuzz import FuzzCase, FuzzReport, fuzz, run_case

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "Divergence",
    "LockstepOracle",
    "verify_equivalence",
    "FuzzCase",
    "FuzzReport",
    "fuzz",
    "run_case",
]
