"""Finite discrete distributions: families, iid sampling, analytic missing-mass moments.

Supports the simulation lab with the quantities that have closed forms under
iid sampling: E[G0] = sum_x g(p_x)(1-p_x)^n, the per-letter indicator-variance
sum, and power sums S_alpha = sum_x p_x^alpha.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .gfunction import GFunction

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over the alphabet {0, ..., K-1}; immutable."""

    probs: np.ndarray
    label: str = "explicit"

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("need a nonempty 1-D probability vector")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise InvalidInputError("probabilities must be finite and >= 0")
        if abs(arr.sum() - 1.0) > _SUM_TOL:
            raise InvalidInputError(
                f"probabilities sum to {arr.sum()!r}, not 1 within {_SUM_TOL}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return int(self.probs.size)


def uniform(k: int) -> DiscreteDistribution:
    if int(k) != k or k < 1:
        raise InvalidInputError("uniform requires integer K >= 1")
    k = int(k)
    return DiscreteDistribution(np.full(k, 1.0 / k), label=f"uniform:{k}")


def zipf(k: int, s: float) -> DiscreteDistribution:
    """p_i proportional to 1/i**s for i = 1..K."""
    if int(k) != k or k < 1:
        raise InvalidInputError("zipf requires integer K >= 1")
    if not (s > 0.0):
        raise InvalidInputError("zipf requires s > 0")
    w = 1.0 / np.arange(1, int(k) + 1, dtype=float) ** s
    return DiscreteDistribution(w / w.sum(), label=f"zipf:{int(k)}:{s:g}")


def geometric(k: int, q: float) -> DiscreteDistribution:
    """Truncated geometric: p_i proportional to q(1-q)**i for i = 0..K-1.

    The truncation discards tail mass (1-q)**K of the infinite version; the
    vector is renormalized, so the truncation error is only a shape statement.
    """
    if int(k) != k or k < 1:
        raise InvalidInputError("geometric requires integer K >= 1")
    if not (0.0 < q < 1.0):
        raise InvalidInputError("geometric requires q in (0, 1)")
    w = q * (1.0 - q) ** np.arange(int(k), dtype=float)
    return DiscreteDistribution(w / w.sum(), label=f"geometric:{int(k)}:{q:g}")


def explicit(vector, label: str = "explicit") -> DiscreteDistribution:
    return DiscreteDistribution(np.asarray(vector, dtype=float), label=label)


def make_family(kind: str, *params) -> DiscreteDistribution:
    """Dispatch on kind in {uniform, zipf, geometric, explicit}."""
    builders = {
        "uniform": uniform,
        "zipf": zipf,
        "geometric": geometric,
        "explicit": explicit,
    }
    if kind not in builders:
        raise InvalidInputError(f"unknown distribution family {kind!r}")
    return builders[kind](*params)


def from_file(path) -> DiscreteDistribution:
    """Explicit distribution from a JSON array or a one-probability-per-line CSV."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        values = json.loads(text)
    else:
        values = [float(line) for line in text.splitlines() if line.strip()]
    return explicit(values, label=f"explicit:{path.name}")


def sample(dist: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    """n iid draws as symbol indices, by inverse CDF on a cumulative table.

    Deterministic for a fixed seed.
    """
    if int(n) != n or n < 0:
        raise InvalidInputError("sample size must be an integer >= 0")
    cum = np.cumsum(dist.probs)
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(int(n))
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, dist.size - 1).astype(np.int64)


def power_sum(dist: DiscreteDistribution, alpha: float) -> float:
    """S_alpha = sum_x p_x**alpha over the positive entries."""
    if not (alpha > 0.0):
        raise InvalidInputError("power_sum requires alpha > 0")
    p = dist.probs[dist.probs > 0.0]
    return float(np.sum(p**alpha))


def _zero_hit_prob(p: np.ndarray, n: int) -> np.ndarray:
    """(1-p)^n elementwise via exp(n*log1p(-p)); stable for small p, large n."""
    out = np.zeros_like(p)
    inside = p < 1.0
    out[inside] = np.exp(n * np.log1p(-p[inside]))
    return out


def expected_missing(dist: DiscreteDistribution, n: int, g: GFunction) -> float:
    """E[G0] = sum_x g(p_x) (1-p_x)^n, zero-probability letters skipped."""
    if int(n) != n or n < 0:
        raise InvalidInputError("n must be an integer >= 0")
    p = dist.probs[dist.probs > 0.0]
    if p.size == 0:
        return 0.0
    gv = np.asarray(g.eval(p), dtype=float)
    if n == 0:
        return float(np.sum(gv))
    return float(np.sum(gv * _zero_hit_prob(p, int(n))))


def variance_sum_bound(dist: DiscreteDistribution, n: int, g: GFunction) -> float:
    """sum_x g(p_x)^2 (1-p_x)^n (1-(1-p_x)^n).

    Each term is the variance of g(p_x) I(F_x = 0); negative association of
    the indicators makes the sum an upper bound on Var(G0).
    """
    if int(n) != n or n < 0:
        raise InvalidInputError("n must be an integer >= 0")
    if n == 0:
        return 0.0
    p = dist.probs[dist.probs > 0.0]
    if p.size == 0:
        return 0.0
    gv = np.asarray(g.eval(p), dtype=float)
    qn = _zero_hit_prob(p, int(n))
    return float(np.sum(gv * gv * qn * (1.0 - qn)))
