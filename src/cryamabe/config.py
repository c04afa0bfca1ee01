"""Experiment configuration: one JSON-serializable dataclass plus flag overrides."""

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


def _integral(value) -> bool:
    """An integer of any integral type (Python's or numpy's); a bool is no integer."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _positive_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value) and value > 0


def _check_grid(shape, half_widths) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The riesz-check grid as tuples: 3 Python ints >= 8 per axis and 2 finite positive half-widths.

    The half-widths are those of x = y and of t.  Anything else raises
    DomainError; ``ExperimentConfig`` and ``riesz.semigroup_check`` share
    this rule.
    """
    try:
        shape, widths = tuple(shape), tuple(half_widths)
    except TypeError:
        raise DomainError(f"grid shape and half-widths must be sequences, got {shape!r} and {half_widths!r}") from None
    if len(shape) != 3 or not all(_integral(n) and n >= 8 for n in shape):
        raise DomainError(f"grid shape must be 3 integers >= 8, got {shape!r}")
    if len(widths) != 2 or not all(_positive_real(w) for w in widths):
        raise DomainError(f"grid half-widths must be 2 finite positive numbers, got {widths!r}")
    return tuple(int(n) for n in shape), widths


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
        if not _integral(self.N) or self.N != 1:
            raise DomainError(f"the runners support N = 1 only, got N={self.N!r}")
        for name in ("k", "tol_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a real number, got {value!r}")
        if not (0 < 2 * self.k < Q):
            raise DomainError(f"need 0 < 2k < Q = {Q}")
        if not _positive_real(self.tol_scale):
            raise DomainError(f"tol_scale must be finite and positive, got {self.tol_scale!r}")
        bounds = {"jmax": (0, JMAX_VERIFIED), "lmax": (0, JMAX_VERIFIED), "quad_degree": (1, math.inf)}
        bounds.update(dict.fromkeys(("minimax_seeds", "minimax_budget", "flow_seeds"), (1, math.inf)))
        bounds["seed"] = (0, math.inf)
        for name, (low, high) in bounds.items():
            value = getattr(self, name)
            if value is None:
                continue
            if not (_integral(value) and low <= value <= high):
                raise DomainError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.out_dir, str):
            raise DomainError(f"out_dir must be a string, got {self.out_dir!r}")
        shape, widths = _check_grid(self.grid_shape, self.grid_half_widths)
        if math.prod(shape) > GRID_NODE_BUDGET:
            raise DomainError(f"grid_shape must have at most {GRID_NODE_BUDGET} nodes, got {shape!r}")
        rungs = tuple(self.rn_ladder)
        if len(rungs) < 2 or not all(_positive_real(r) and r >= RN_FLOOR for r in rungs):
            raise DomainError(
                f"rn_ladder needs at least 2 rungs, each finite and at least {RN_FLOOR:g}, got {self.rn_ladder!r}"
            )
        ladder = tuple(float(r) for r in rungs)
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise DomainError("rn_ladder must decrease strictly")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "grid_shape", shape)
        object.__setattr__(self, "grid_half_widths", widths)
        object.__setattr__(self, "rn_ladder", ladder)

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DomainError("a configuration file must hold one JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise DomainError(f"unknown configuration keys: {', '.join(unknown)}")
        for key in ("rn_ladder", "grid_shape", "grid_half_widths"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
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
