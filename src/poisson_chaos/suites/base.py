"""Case plumbing shared by the verification suites.

A suite is a named builder that turns a run configuration into a list
of cases; each case is a deferred computation producing two values to
compare (either may carry a standard error).  The runner times the
case, applies the comparison policy and emits one report row.

A builder registers each case with :meth:`SuiteContext.add`, which
derives the case's seed and Monte Carlo plan from the same case id the
report row shows and hands the plan to the case's callable; exact cases
ignore it.  Builders return ``ctx.cases``.  A row's ``replicates`` is
read off the :class:`~poisson_chaos.estimation.Estimate` sides of the
case's payload, so it is 0 for exact rows.

Seeds: every case derives its own 64-bit seed from the run seed and the
case's name, so results do not depend on which suites run or in which
order, and replicate i of a case always draws from stream i of that
case seed.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError
from ..estimation import (Estimate, McPlan, OracleBudget, PoissonEnumeration,
                          TolerancePolicy, compare)
from ..functionals import Exponential, Functional
from ..space import MeasureSpace

# polynomial growth envelope for the oracle budgets of count functionals
POLY4 = lambda n: (1.0 + n) ** 4  # noqa: E731
# outer replicates of the nested estimators, which run a node grid per replicate
NESTED_REPLICATE_CAP = 100_000
# Gauss-Legendre nodes of every semigroup-time integral over (0, 1)
T_NODES = 16


def derive_case_seed(run_seed: int, suite: str, case_id: str) -> int:
    key = (int(run_seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(f"{suite}/{case_id}".encode(), digest_size=8, key=key)
    return int.from_bytes(digest.digest(), "little")


@dataclass
class CasePayload:
    """What a case computed: two comparands plus how to judge them.

    ``tolerance`` and ``one_sided`` select the mode of
    :func:`~poisson_chaos.estimation.compare` that judges the case, and
    ``se`` is the standard error of ``lhs - rhs`` when both sides were
    estimated on the same draws (None takes them as independent).
    """

    lhs: float | Estimate
    rhs: float | Estimate
    tolerance: float | None = None
    one_sided: bool = False
    se: float | None = None


@dataclass
class Case:
    case_id: str
    identity: str
    run: Callable[[], CasePayload]


@dataclass
class CaseResult:
    """One report row.  A case that raised has verdict ``ERROR``, no
    comparands (``None`` in the float fields) and the exception in
    ``error``, which stays out of the report columns."""

    suite: str
    case_id: str
    identity: str
    lhs: float | None
    rhs: float | None
    se_combined: float | None
    abs_diff: float | None
    tolerance: float | None
    verdict: str
    replicates: int
    seed: int
    wall_time_ms: int
    error: str = ""


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
        self.cases: list[Case] = []
        self._budgets: dict = {}

    # -- cases --------------------------------------------------------------

    def case_seed(self, case_id: str) -> int:
        return derive_case_seed(self.config.seed, self.suite, case_id)

    def add(self, case_id: str, identity: str, run: Callable[[McPlan], CasePayload],
            replicates: int | None = None) -> None:
        """Register a case; ``run`` is called with the case's plan:
        ``replicates`` (the configured count by default) keyed by the case seed."""
        plan = McPlan(replicates or self.config.replicates, self.case_seed(case_id))
        self.cases.append(Case(case_id, identity, functools.partial(run, plan)))

    # -- resources ----------------------------------------------------------

    def space(self, name: str) -> MeasureSpace:
        try:
            return self.config.spaces[name]
        except KeyError:
            raise ConfigError(f"suite {self.suite!r} needs a space named {name!r}") from None

    def budget(self, space: MeasureSpace, growth=None, tol: float | None = None) -> OracleBudget:
        # the key holds the envelope itself: a freed one's id can be reused
        key = (space.cache_key(), growth, tol)
        if key not in self._budgets:
            self._budgets[key] = OracleBudget.for_space(
                space, tol if tol is not None else self.config.oracle_tol,
                growth=growth, max_states=self.config.max_states)
        return self._budgets[key]

    def enumeration(self, space: MeasureSpace, growth=POLY4,
                    tol: float | None = 1e-8) -> PoissonEnumeration:
        """The enumeration certified by :meth:`budget`, by default for
        count functionals of polynomial growth."""
        return PoissonEnumeration.get(space, self.budget(space, growth, tol))

    def missing(self, what: str, space: MeasureSpace | None = None) -> ConfigError:
        """The error for a pool entry this suite needs and the configuration
        lacks, naming the suite and the space's configuration name."""
        if space is not None:
            what += " on space " + next((repr(name) for name, s in self.config.spaces.items()
                                         if s.same_as(space)), repr(space))
        return ConfigError(f"suite {self.suite!r} needs {what}")

    def exponentials(self, space: MeasureSpace | None = None,
                     small: bool = False) -> list[tuple[str, Exponential]]:
        """Exponential pool entries (on ``space`` when given), name-sorted.

        Builders take the first entry on a space, so a suite reads the
        name-sorted first exponential there.  ``small`` keeps the entries
        with total mass <= 1 and every |e^{-v} - 1| <= 0.35, whose chaos
        series converge fast.  An empty selection is a :class:`ConfigError`
        naming the suite and the space, never a dropped or swapped case.
        """
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
                if np.max(np.abs(f.difference_factor())) > 0.35:
                    continue
            out.append((name, f))
        if not out:
            raise self.missing("a small exponential functional (total mass <= 1, every "
                               "|e^-v - 1| <= 0.35)" if small else "an exponential functional",
                               space)
        return out


@dataclass
class SuiteSpec:
    name: str
    identities: tuple[str, ...]
    build: Callable[[SuiteContext], list[Case]]
    description: str = ""


def run_cases(suite: SuiteSpec, config: RunConfig) -> list[CaseResult]:
    """Run and judge every case of the suite, one row per case.

    A case that raises becomes an ``ERROR`` row and the other cases
    still run; a configuration error ends the run.
    """
    ctx = SuiteContext(config, suite.name)
    results = []
    for case in suite.build(ctx):
        start = time.perf_counter()
        try:
            payload = case.run()
            verdict = compare(payload.lhs, payload.rhs, config.policy,
                              tolerance=payload.tolerance, one_sided=payload.one_sided,
                              se=payload.se)
            fields = dict(lhs=verdict.lhs, rhs=verdict.rhs,
                          se_combined=verdict.se_combined, abs_diff=verdict.diff,
                          tolerance=verdict.tolerance,
                          verdict="PASS" if verdict.passed else "FAIL",
                          replicates=max((side.replicates for side in (payload.lhs, payload.rhs)
                                          if isinstance(side, Estimate)), default=0))
        except ConfigError:
            raise
        except Exception as exc:  # one broken case must not abort the run
            fields = dict(lhs=None, rhs=None, se_combined=None, abs_diff=None,
                          tolerance=None, verdict="ERROR", replicates=0,
                          error=f"{type(exc).__name__}: {exc}")
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        results.append(CaseResult(
            suite=suite.name,
            case_id=case.case_id,
            identity=case.identity,
            seed=ctx.case_seed(case.case_id),
            wall_time_ms=elapsed_ms,
            **fields,
        ))
    return results
