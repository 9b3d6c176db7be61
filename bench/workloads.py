"""The four benchmark workloads: inputs from a seed, one timed execution each.

Three workloads drive the ``verify`` command line through
``poisson_chaos.cli.main`` with a generated configuration; together
they cover exactly the suites of ``verify all``.  ``library_dense``
calls the library API directly on a 4-atom space of total mass 16,
whose per-atom means (2 to 7) are far above those of the packaged
spaces (at most 1), and checks every result against a closed form.

Everything here runs inside one fresh interpreter started by
``child.py``; ``prepare`` is set-up, ``run`` is the timed part.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import re
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np

VERIFY_SUITES = {
    # nested thinning-semigroup Monte Carlo (16 nodes x 16 inner fields)
    "verify_nested": ["covariance", "mehler"],
    # single-level Monte Carlo: one uniform per atom per replicate
    "verify_flat": ["laplace", "mecke", "factorial_moments", "wi_isometry",
                    "fock_isometry", "fkg", "poincare", "ou_operators"],
    # exhaustive pathwise scans and kernel algebra, no sampling
    "verify_exact": ["product_formula", "chaos_reconstruction",
                     "malliavin_derivative", "duality", "skorohod_isometry"],
}
WORKLOADS = [*VERIFY_SUITES, "library_dense"]

# Replicate counts.  The verify workloads use the packaged default: at
# 2**16 and at 1e5 the heavy-tailed wi_isometry case mc_S2_m3_n3 fails on
# some seeds.  Every full size spans several batches of 2**15, so the
# thread pool is exercised.
SIZES = {
    "full": {"verify_replicates": 200_000, "dense_replicates": 1 << 18,
             "dense_tail_tol": 1e-10, "dense_chaos_order": 3},
    "smoke": {"verify_replicates": 512, "dense_replicates": 4096,
              "dense_tail_tol": 1e-6, "dense_chaos_order": 2},
}

DENSE_MASS = 16.0
DENSE_ATOMS = ("a", "b", "c", "d")
DENSE_MEAN_RANGE = (2.0, 7.0)
SEMIGROUP_TIMES = (0.25, 0.5, 0.75)


@dataclasses.dataclass
class Outcome:
    """What one timed execution produced."""

    cases: int
    passed: int
    errors: list[str]
    case_seconds: list[float]
    replicates: int
    digest: str
    enum_states: int


def _enum_states(pc) -> int:
    # enumeration tables this process built (the class-level cache)
    cache = getattr(pc.PoissonEnumeration, "_cache", {})
    return int(sum(len(e.counts) for e in cache.values()))


# ---------------------------------------------------------------------------
# verify workloads


class CaseGuard:
    """Times every suite case and turns a raised case into a FAIL row.

    ``verify`` aborts the whole run when a case raises; the guard lets
    the remaining cases run, and counts the cases each suite defines.
    """

    def __init__(self):
        self.cases = 0
        self.errors: list[str] = []
        self.seconds: list[float] = []

    def install(self, suites) -> None:
        for spec in suites.SUITES.values():
            spec.build = self._guard_build(spec.name, spec.build, suites.CasePayload)

    def _guard_build(self, suite: str, build, payload_type):
        def guarded(ctx):
            try:
                cases = build(ctx)
            except Exception as exc:  # keep the other suites running
                self.errors.append(f"{suite}: build raised {type(exc).__name__}: {exc}")
                self.cases += 1
                return []
            self.cases += len(cases)
            return [dataclasses.replace(c, run=self._guard_run(suite, c, payload_type))
                    for c in cases]

        return guarded

    def _guard_run(self, suite: str, case, payload_type):
        def run():
            start = perf_counter()
            try:
                return case.run()
            except Exception as exc:  # one case must not end the run
                self.errors.append(f"{suite}/{case.case_id}: {type(exc).__name__}: {exc}")
                return payload_type(lhs=math.nan, rhs=0.0)
            finally:
                self.seconds.append(perf_counter() - start)

        return run


class LoadTimer:
    """Time spent in ``load_config`` inside ``cli.main`` (set-up, not work)."""

    def __init__(self, cli):
        self.seconds = 0.0
        inner = cli.load_config

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start

        cli.load_config = timed


def stable_report_digest(text: str) -> str:
    """SHA-256 of a ``--timing`` CSV report with ``wall_time_ms`` zeroed,
    which is byte for byte the report written without ``--timing``."""
    lines = text.split("\n")
    body = [lines[0]] + [re.sub(r",\d+$", ",0", line) for line in lines[1:]]
    return hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()


class VerifyJob:
    def __init__(self, workload: str, seed: int, size: str, out: Path):
        import poisson_chaos.cli as cli
        import poisson_chaos.suites as suites

        self.cli = cli
        self.seed = seed
        self.replicates = SIZES[size]["verify_replicates"]
        self.guard = CaseGuard()
        self.guard.install(suites)
        self.load = LoadTimer(cli)
        document = json.loads((resources.files("poisson_chaos") / "data" / "default.json")
                              .read_text(encoding="utf-8"))
        document["suites"] = VERIFY_SUITES[workload]
        tag = f"{workload}-{seed}-{id(self)}"
        self.config_path = out / f"{tag}-config.json"
        self.config_path.write_text(json.dumps(document, indent=1), encoding="utf-8")
        self.report_path = out / f"{tag}-report.csv"

    @property
    def load_seconds(self) -> float:
        return self.load.seconds

    def setup_only(self) -> None:
        """The configuration load a ``verify`` invocation pays."""
        self.cli.load_config(str(self.config_path))
        self.config_path.unlink()

    def run(self) -> Outcome:
        argv = ["all", "--config", str(self.config_path), "--seed", str(self.seed),
                "--replicates", str(self.replicates), "--report", str(self.report_path),
                "--timing"]
        with redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code not in (0, 1):
            raise RuntimeError(f"verify exited with usage error {code}")
        outcome = self.outcome()
        self.config_path.unlink()
        self.report_path.unlink()
        return outcome

    def outcome(self) -> Outcome:
        import poisson_chaos as pc

        text = self.report_path.read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        return Outcome(
            cases=self.guard.cases,
            passed=sum(row["verdict"] == "PASS" for row in rows),
            errors=list(self.guard.errors),
            case_seconds=list(self.guard.seconds),
            replicates=sum(int(row["replicates"]) for row in rows),
            digest=stable_report_digest(text),
            enum_states=_enum_states(pc),
        )


# ---------------------------------------------------------------------------
# library_dense


def dense_document(seed: int) -> dict:
    """Configuration of the dense space and its functionals, from the seed."""
    rng = np.random.default_rng([seed, 0xD4])
    lo, hi = DENSE_MEAN_RANGE
    spare = DENSE_MASS - lo * len(DENSE_ATOMS)
    while True:
        weights = lo + spare * rng.dirichlet(np.full(len(DENSE_ATOMS), 6.0))
        if weights.max() <= hi:
            break
    v = rng.uniform(0.05, 0.35, len(DENSE_ATOMS))
    exponents = [(2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 2), (0, 1, 0, 0),
                 (0, 0, 1, 0)]
    coefs = rng.uniform(-1.0, 1.0, len(exponents))
    pair = rng.uniform(-0.5, 0.5, (len(DENSE_ATOMS),) * 2)
    line = rng.uniform(-1.0, 1.0, len(DENSE_ATOMS))
    return {
        "space": {"D4": dict(zip(DENSE_ATOMS, weights.tolist()))},
        "kernels": {
            "line": {"space": "D4", "values": line.tolist()},
            "pair": {"space": "D4", "values": ((pair + pair.T) / 2).tolist()},
        },
        "functionals": {
            "exp": {"kind": "exponential", "space": "D4", "v": v.tolist()},
            "poly": {"kind": "count_polynomial", "space": "D4",
                     "terms": [[float(c), list(e)] for c, e in zip(coefs, exponents)]},
        },
        "mc": {"seed": seed},
        "suites": [],
    }


class DenseJob:
    """Direct library calls, each checked with ``compare`` against a closed form."""

    def __init__(self, seed: int, size: str, out: Path):
        import poisson_chaos as pc
        import poisson_chaos.cli as cli
        from poisson_chaos.suites import derive_case_seed

        self.pc = pc
        self.sizes = SIZES[size]
        path = out / f"library_dense-{seed}-{id(self)}-config.json"
        path.write_text(json.dumps(dense_document(seed), indent=1), encoding="utf-8")
        config = cli.load_config(str(path))
        path.unlink()
        self.space = config.spaces["D4"]
        self.F = config.functionals["exp"]
        self.P = config.functionals["poly"]
        self.kernels = config.kernels
        self.pattern = pc.sample_poisson(self.space, pc.RngStream(seed, stream=1))
        self.plan_seed = lambda name: derive_case_seed(seed, "library_dense", name)

    # the configuration is loaded while preparing the inputs
    load_seconds = 0.0

    def setup_only(self) -> None:
        pass

    def _plan(self, name: str):
        return self.pc.McPlan(self.sizes["dense_replicates"], self.plan_seed(name))

    def _mean_zero(self, name: str, values_of):
        pc, space = self.pc, self.space
        plan = self._plan(name)

        def batch(streams, _start):
            return values_of(pc.sample_poisson_counts(space, plan.seed, streams))

        return pc.mc_estimate(plan, batch), 0.0

    def checks(self) -> list[tuple[str, object]]:
        """(name, thunk) pairs; a thunk returns (lhs, rhs[, policy])."""
        pc, space, F, P = self.pc, self.space, self.F, self.P
        budget = pc.OracleBudget.for_space(space, self.sizes["dense_tail_tol"])
        order = self.sizes["dense_chaos_order"]
        # truncating the law moves an expectation of |F| <= 1 by at most the
        # tail bound, and an order-n difference of F by at most 2^n times it
        exact = pc.TolerancePolicy(exact_tol=budget.tail_bound + 1e-9)
        chaos_tol = pc.TolerancePolicy(exact_tol=2**order * budget.tail_bound + 1e-9)
        out = [
            ("mc_exponential", lambda: (pc.mc_expectation(space, F, self._plan("mc_exp")),
                                        F.closed_form_mean())),
            ("mc_count_polynomial",
             lambda: (pc.mc_expectation(space, P, self._plan("mc_poly")),
                      P.closed_form_mean())),
            ("oracle_exponential",
             lambda: (pc.oracle_expectation(space, F, budget), F.closed_form_mean(), exact)),
            (f"chaos_order{order}",
             lambda: (pc.chaos_by_enumeration(F, order, budget).max_abs_difference(
                 pc.chaos_of_exponential(F, order)), 0.0, chaos_tol)),
        ]
        for s in SEMIGROUP_TIMES:
            for label, G in (("exponential", F), ("count_polynomial", P)):
                name = f"semigroup_{label}_s{s:g}"
                out.append((name, lambda G=G, s=s, name=name: (
                    pc.ou_semigroup_mc(G, s, self.pattern, self._plan(name)),
                    pc.semigroup_closed_form(G, s).evaluate(self.pattern))))
        for label in ("line", "pair"):
            g = self.kernels[label]
            out.append((f"wiener_ito_mean_zero_{label}", lambda g=g, label=label:
                        self._mean_zero(f"wi_{label}",
                                        lambda c: pc.wiener_ito_counts(space, g, c))))
        for label, G in (("exponential", F), ("count_polynomial", P)):
            out.append((f"ou_generator_mean_zero_{label}", lambda G=G, label=label:
                        self._mean_zero(f"ou_{label}",
                                        lambda c: pc.ou_generator_counts(G, c))))
        return out

    def run(self) -> Outcome:
        pc = self.pc
        passed, errors, seconds, lines = 0, [], [], []
        replicates = 0
        checks = self.checks()
        for name, thunk in checks:
            start = perf_counter()
            try:
                lhs, rhs, *policy = thunk()
                verdict = pc.compare(lhs, rhs, *policy)
            except Exception as exc:  # one failing call must not end the run
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
                lines.append(f"{name} ERROR")
                continue
            finally:
                seconds.append(perf_counter() - start)
            passed += verdict.passed
            replicates += lhs.replicates if isinstance(lhs, pc.Estimate) else 0
            lines.append(f"{name} {verdict.passed} {verdict.diff!r} {verdict.tolerance!r}")
        return Outcome(
            cases=len(checks),
            passed=passed,
            errors=errors,
            case_seconds=seconds,
            replicates=replicates,
            digest=hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
            enum_states=_enum_states(pc),
        )


def prepare(workload: str, seed: int, size: str, out: Path):
    """Build a workload's inputs; the returned job's ``run`` is the timed part."""
    if workload == "library_dense":
        return DenseJob(seed, size, out)
    return VerifyJob(workload, seed, size, out)
