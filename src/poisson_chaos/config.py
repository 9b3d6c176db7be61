"""Configuration loading and validation for the verification runner.

A configuration is a UTF-8 JSON document with the top-level keys
``space``, ``functionals``, ``kernels``, ``mc``, ``oracle``,
``tolerances`` and ``suites``.  Every referenced space must exist and
every kernel or functional literal must fit its space, checked at load
time.
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolationError
from .estimation import ENUMERATION_STATE_CAP, TolerancePolicy
from .functionals import CountPolynomial, Exponential, Functional, LinearCombo
from .space import Kernel, MeasureSpace
from .suites import RunConfig, suite_names

DEFAULT_CONFIG_RESOURCE = "default.json"


def _build_spaces(raw: dict) -> dict[str, MeasureSpace]:
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("'space' must map space names to atom-weight objects")
    spaces = {}
    for name, atoms in raw.items():
        if not isinstance(atoms, dict) or not atoms:
            raise ConfigError(f"space {name!r} must map atom ids to weights")
        try:
            spaces[name] = MeasureSpace(tuple(atoms.keys()),
                                        np.array(list(atoms.values()), dtype=float))
        except ContractViolationError as exc:
            raise ConfigError(f"space {name!r}: {exc}") from None
    return spaces


def _object(value, what: str) -> dict:
    """A JSON object; anything else is a :class:`ConfigError` naming it."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def _space_of(spaces: dict, entry, what: str) -> MeasureSpace:
    name = _object(entry, what).get("space")
    if name not in spaces:
        raise ConfigError(f"{what} references unknown space {name!r}")
    return spaces[name]


def _build_kernels(raw: dict, spaces: dict) -> dict[str, Kernel]:
    kernels = {}
    for name, entry in _object(raw, "'kernels'").items():
        space = _space_of(spaces, entry, f"kernel {name!r}")
        try:
            kernels[name] = Kernel(space, entry["values"])
        except (KeyError, ContractViolationError) as exc:
            raise ConfigError(f"kernel {name!r}: {exc}") from None
    return kernels


def _build_functionals(raw: dict, spaces: dict) -> dict[str, Functional]:
    functionals: dict[str, Functional] = {}
    for name, entry in _object(raw, "'functionals'").items():
        space = _space_of(spaces, entry, f"functional {name!r}")
        kind = entry.get("kind")
        try:
            if kind == "exponential":
                functionals[name] = Exponential(space, Kernel(space, entry["v"]))
            elif kind == "linear_combo":
                terms = [(float(coef), Exponential(space, Kernel(space, v)))
                         for coef, v in entry["terms"]]
                functionals[name] = LinearCombo(space, terms)
            elif kind == "count_polynomial":
                terms = [(float(coef), tuple(exps)) for coef, exps in entry["terms"]]
                functionals[name] = CountPolynomial(space, terms)
            else:
                raise ConfigError(f"functional {name!r} has unknown kind {kind!r}")
        except (KeyError, ContractViolationError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"functional {name!r}: {exc}") from None
    return functionals


def check_seed(seed, what: str = "mc.seed") -> int:
    """A run seed: an integer in [0, 2**64), the streams' key range."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise ConfigError(f"{what} must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _integer(value, what: str, lo: int, hi: int | None = None) -> int:
    """An integer (a bool, a float or a string is not) in [lo, hi]."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or (hi is not None and value > hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{what} must be an integer {bounds}, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A finite number (a bool or a string is not) as a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def parse_config(document: dict) -> RunConfig:
    spaces = _build_spaces(document.get("space", {}))
    kernels = _build_kernels(document.get("kernels", {}), spaces)
    functionals = _build_functionals(document.get("functionals", {}), spaces)
    mc = _object(document.get("mc", {}), "'mc'")
    oracle = _object(document.get("oracle", {}), "'oracle'")
    tol = _object(document.get("tolerances", {}), "'tolerances'")
    suites = document.get("suites", suite_names())
    if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
        raise ConfigError(f"'suites' must be a list of suite names, got {suites!r}")
    known = set(suite_names())
    for s in suites:
        if s not in known:
            raise ConfigError(f"unknown suite {s!r} in configuration")
    replicates = _integer(mc.get("replicates", 200_000), "mc.replicates", 1)
    # the enumeration itself refuses more than ENUMERATION_STATE_CAP states
    max_states = _integer(oracle.get("max_states", ENUMERATION_STATE_CAP),
                          "oracle.max_states", 1, ENUMERATION_STATE_CAP)
    oracle_tol = _number(oracle.get("tail_tol", 1e-10), "oracle.tail_tol")
    if not 0.0 < oracle_tol < 1.0:
        raise ConfigError(f"oracle.tail_tol must lie in (0, 1), got {oracle_tol!r}")
    policy = {}
    for key, default in (("z", 4.0), ("abs_tol", 1e-6), ("exact_tol", 1e-9)):
        policy[key] = _number(tol.get(key, default), f"tolerances.{key}")
        if policy[key] < 0.0:
            raise ConfigError(f"tolerances.{key} must be >= 0, got {policy[key]!r}")
    return RunConfig(
        spaces=spaces,
        functionals=functionals,
        kernels=kernels,
        replicates=replicates,
        seed=check_seed(mc.get("seed", 20260808)),
        oracle_tol=oracle_tol,
        max_states=max_states,
        policy=TolerancePolicy(**policy),
        suites=list(suites),
    )


def load_config(path: str | Path | None = None) -> RunConfig:
    """Load a configuration file.

    ``None`` or the literal name ``default`` selects the packaged
    default document.
    """
    if path is None or str(path) == "default":
        text = (resources.files("poisson_chaos") / "data" / DEFAULT_CONFIG_RESOURCE) \
            .read_text(encoding="utf-8")
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read configuration: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError("configuration root must be an object")
    return parse_config(document)
