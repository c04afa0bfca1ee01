"""Experiment configuration: one JSON-serializable dataclass plus flag overrides.

``_RULES`` maps each field to its one refusal rule, which returns the value to
store (a Python int; a list or tuple as a tuple) or raises DomainError naming
the field.  A str, a dict or a scalar is refused before it is iterated, and only
``lmax`` and ``quad_degree`` take None ("derive from jmax").
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace

from .errors import DomainError
from .heisenberg import Q
from .spectral import JMAX_VERIFIED


# Largest riesz-check grid (128^3 nodes).  semigroup_check's peak RSS grows by
# about 215 B per node over a 42 MiB base (97 MiB at 64^3, 233 MiB at 96^3 on a
# 2-core x86-64 VM, numpy 2.4), so the budget keeps it under 0.5 GiB.
GRID_NODE_BUDGET = 2**21

# Smallest ladder rung.  A bubble chart of radius R has the Jacobian
# Lambda_C * R^Q with Q = 4, and R^4 leaves the normal float range near
# R = 1.2e-77: rungs of 1e-78 and below gave all-NaN ladder rows.  The rows
# saturate (mass_gap exactly 0.0) by R = 1e-20, so no smaller rung says more.
RN_FLOOR = 1e-70


def _positive_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value) and value > 0


def _where(ok: bool, value, name: str, what: str):
    """The value itself if ok, else a DomainError naming the field."""
    if not ok:
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return value


def _count(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """An integer in [low, high] of any integral type (Python's or numpy's; a bool is none), as a Python int."""
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value <= high
    return int(_where(ok, value, name, f"an integer in [{low}, {high}]"))


def _sequence(value, name: str, low: int, high: float = math.inf) -> tuple:
    ok = isinstance(value, (list, tuple)) and low <= len(value) <= high
    return tuple(_where(ok, value, name, f"a list or tuple of length in [{low}, {high}]"))


def _grid_shape(value, name: str, budget: float = math.inf) -> tuple[int, ...]:
    """3 integers >= 8 per axis, with at most budget nodes in all."""
    shape = tuple(_count(n, f"{name} axis", 8) for n in _sequence(value, name, 3, 3))
    return _where(math.prod(shape) <= budget, shape, name, f"a grid of at most {budget} nodes")


def _half_widths(value, name: str) -> tuple:
    """The half-widths of x = y and of t: 2 finite positive numbers."""
    widths = _sequence(value, name, 2, 2)
    return tuple(_where(_positive_real(w), w, f"{name} entry", "finite and positive") for w in widths)


def _ladder(value, name: str) -> tuple[float, ...]:
    for r in _sequence(value, name, 2):
        _where(_positive_real(r) and r >= RN_FLOOR, r, f"{name} rung", f"finite and at least {RN_FLOOR:g}")
    ladder = tuple(float(r) for r in value)
    return _where(all(b < a for a, b in zip(ladder, ladder[1:])), ladder, name, "strictly decreasing")


_RULES = {
    "N": lambda v, name: _count(v, name, 1, 1),  # the group layer is written for H^1 only
    "k": lambda v, name: _where(_positive_real(v) and 2 * v < Q, v, name, f"a real number with 0 < 2k < Q = {Q}"),
    "jmax": lambda v, name: _count(v, name, 0, JMAX_VERIFIED),
    "lmax": lambda v, name: None if v is None else _count(v, name, 0, JMAX_VERIFIED),
    "quad_degree": lambda v, name: None if v is None else _count(v, name),
    "rn_ladder": _ladder,
    "seed": lambda v, name: _count(v, name, 0),
    "tol_scale": lambda v, name: _where(_positive_real(v), v, name, "a finite positive number"),
    "out_dir": lambda v, name: _where(isinstance(v, str), v, name, "a string"),
    "grid_shape": lambda v, name: _grid_shape(v, name, GRID_NODE_BUDGET),
    "grid_half_widths": _half_widths,
    "minimax_seeds": _count,
    "minimax_budget": _count,
    "flow_seeds": _count,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible run parameters shared by the command-line subcommands."""

    N: int = 1
    k: float = 1.0
    jmax: int = 8
    lmax: int | None = None
    quad_degree: int | None = None
    rn_ladder: tuple[float, ...] = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    seed: int = 0
    tol_scale: float = 1.0
    out_dir: str = "out"
    grid_shape: tuple[int, int, int] = (64, 64, 64)
    grid_half_widths: tuple[float, float] = (4.0, 8.0)
    minimax_seeds: int = 10
    minimax_budget: int = 300
    flow_seeds: int = 20

    def __post_init__(self):
        for name, rule in _RULES.items():
            object.__setattr__(self, name, rule(getattr(self, name), name))

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DomainError("a configuration file must hold one JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise DomainError(f"unknown configuration keys: {', '.join(unknown)}")
        return ExperimentConfig(**data)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        clean = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **clean) if clean else self

    def to_json(self) -> str:
        data = asdict(self)
        return json.dumps(data, indent=1, sort_keys=True)


def atomic_write(path: str, text: str) -> None:
    """Write text through a temp file and a rename, creating the directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
