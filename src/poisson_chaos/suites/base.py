"""Case plumbing shared by the verification suites.

A suite is a named builder that turns a run configuration into a list
of cases; each case is a deferred computation producing two values to
compare (either may carry a standard error).  The runner times the
case, applies the comparison policy and emits one report row.

Seeds: every case derives its own 64-bit seed from the run seed and the
case's name, so results do not depend on which suites run or in which
order, and replicate i of a case always draws from stream i of that
case seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError
from ..estimation import (Estimate, McPlan, OracleBudget, TolerancePolicy,
                          compare)
from ..functionals import Exponential, Functional
from ..space import MeasureSpace


def derive_case_seed(run_seed: int, suite: str, case_id: str) -> int:
    key = (int(run_seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(f"{suite}/{case_id}".encode(), digest_size=8, key=key)
    return int.from_bytes(digest.digest(), "little")


@dataclass
class CasePayload:
    """What a case computed: two comparands plus how to judge them.

    ``tolerance`` and ``one_sided`` select the mode of
    :func:`~poisson_chaos.estimation.compare` that judges the case.
    """

    lhs: float | Estimate
    rhs: float | Estimate
    tolerance: float | None = None
    one_sided: bool = False
    replicates: int = 0


@dataclass
class Case:
    case_id: str
    identity: str
    run: Callable[[], CasePayload]


@dataclass
class CaseResult:
    suite: str
    case_id: str
    identity: str
    lhs: float
    rhs: float
    se_combined: float
    abs_diff: float
    tolerance: float
    verdict: str
    replicates: int
    seed: int
    wall_time_ms: int


@dataclass
class RunConfig:
    """Materialized configuration: spaces, pools and engine knobs."""

    spaces: dict[str, MeasureSpace]
    functionals: dict[str, Functional]
    kernels: dict
    replicates: int
    seed: int
    oracle_tol: float
    max_states: int
    policy: TolerancePolicy
    suites: list[str]


class SuiteContext:
    """Per-run services handed to every suite builder."""

    def __init__(self, config: RunConfig, suite: str):
        self.config = config
        self.suite = suite
        self.policy = config.policy
        self._budgets: dict = {}

    # -- resources ----------------------------------------------------------

    def space(self, name: str) -> MeasureSpace:
        try:
            return self.config.spaces[name]
        except KeyError:
            raise ConfigError(f"suite {self.suite!r} needs a space named {name!r}") from None

    def plan(self, case_id: str, replicates: int | None = None) -> McPlan:
        return McPlan(replicates or self.config.replicates,
                      derive_case_seed(self.config.seed, self.suite, case_id))

    def budget(self, space: MeasureSpace, growth=None, tol: float | None = None) -> OracleBudget:
        key = (space.cache_key(), id(growth), tol)
        if key not in self._budgets:
            self._budgets[key] = OracleBudget.for_space(
                space, tol if tol is not None else self.config.oracle_tol,
                growth=growth, max_states=self.config.max_states)
        return self._budgets[key]

    def exponentials(self, space: MeasureSpace | None = None,
                     small: bool = False) -> list[tuple[str, Exponential]]:
        """Exponential pool entries, name-sorted; optionally the small-v ones."""
        import numpy as np

        out = []
        for name in sorted(self.config.functionals):
            f = self.config.functionals[name]
            if not isinstance(f, Exponential):
                continue
            if space is not None and not f.space.same_as(space):
                continue
            if small:
                if f.space.total_mass > 1.0 + 1e-12:
                    continue
                if np.max(np.abs(np.exp(-f.v.values) - 1.0)) > 0.35:
                    continue
            out.append((name, f))
        return out


@dataclass
class SuiteSpec:
    name: str
    identities: tuple[str, ...]
    build: Callable[[SuiteContext], list[Case]]
    description: str = ""


def run_cases(suite: SuiteSpec, config: RunConfig) -> list[CaseResult]:
    ctx = SuiteContext(config, suite.name)
    results = []
    for case in suite.build(ctx):
        start = time.perf_counter()
        payload = case.run()
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        verdict = compare(payload.lhs, payload.rhs, config.policy,
                          tolerance=payload.tolerance, one_sided=payload.one_sided)
        results.append(CaseResult(
            suite=suite.name,
            case_id=case.case_id,
            identity=case.identity,
            lhs=verdict.lhs,
            rhs=verdict.rhs,
            se_combined=verdict.se_combined,
            abs_diff=verdict.diff,
            tolerance=verdict.tolerance,
            verdict="PASS" if verdict.passed else "FAIL",
            replicates=payload.replicates,
            seed=derive_case_seed(config.seed, suite.name, case.case_id),
            wall_time_ms=elapsed_ms,
        ))
    return results
