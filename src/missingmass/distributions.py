"""Finite discrete distributions: families, iid sampling, analytic missing-mass moments.

Supports the simulation lab with the quantities that have closed forms under
iid sampling: E[G0] = sum_x g(p_x)(1-p_x)^n and the per-letter
indicator-variance sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InvalidInputError, require_int, require_real, require_real_array
from .gfunction import GFunction, format_descriptor, parse_descriptor

_SUM_TOL = 1e-12

#: Most forward steps a guide-table draw takes before binary search.
_MAX_GUIDE_STEPS = 4


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over the alphabet {0, ..., K-1}; immutable, and
    never the caller's array."""

    probs: np.ndarray
    label: str = "explicit"

    def __post_init__(self):
        arr = np.ascontiguousarray(require_real_array("probabilities", self.probs))
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("need a nonempty 1-D probability vector")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise InvalidInputError("probabilities must be finite and >= 0")
        if abs(arr.sum() - 1.0) > _SUM_TOL:
            raise InvalidInputError(
                f"probabilities sum to {arr.sum()!r}, not 1 within {_SUM_TOL}"
            )
        if arr is self.probs or not arr.flags.owndata:
            arr = arr.copy()  # the caller's array stays writeable
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return int(self.probs.size)


def uniform(k: int) -> DiscreteDistribution:
    k = require_int("K", k, 1)
    return DiscreteDistribution(np.full(k, 1.0 / k), label=format_descriptor("uniform", k))


def zipf(k: int, s: float) -> DiscreteDistribution:
    """p_i proportional to 1/i**s for i = 1..K."""
    k, s = require_int("K", k, 1), require_real("s", s)
    if not (s > 0.0):
        raise InvalidInputError("zipf requires s > 0")
    with np.errstate(over="ignore"):  # a weight whose i**s overflows is its limit 0
        w = 1.0 / np.arange(1, k + 1, dtype=float) ** s
    return DiscreteDistribution(w / w.sum(), label=format_descriptor("zipf", k, s))


def geometric(k: int, q: float) -> DiscreteDistribution:
    """Truncated geometric: p_i proportional to q(1-q)**i for i = 0..K-1.

    The truncation discards tail mass (1-q)**K of the infinite version; the
    vector is renormalized, so the truncation error is only a shape statement.
    """
    k, q = require_int("K", k, 1), require_real("q", q)
    if not (0.0 < q < 1.0):
        raise InvalidInputError("geometric requires q in (0, 1)")
    w = q * (1.0 - q) ** np.arange(k, dtype=float)
    return DiscreteDistribution(w / w.sum(), label=format_descriptor("geometric", k, q))


def explicit(vector, label: str = "explicit") -> DiscreteDistribution:
    return DiscreteDistribution(vector, label=label)


def from_file(path) -> DiscreteDistribution:
    """Explicit distribution from a JSON array or a one-probability-per-line CSV."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        values = (json.loads(text) if path.suffix.lower() == ".json"
                  else [float(line) for line in text.splitlines() if line.strip()])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed distribution file ({exc})")
    return explicit(values, label=f"explicit:{path.name}")


_GRAMMAR = {"uniform": (uniform, (int,)), "zipf": (zipf, (int, float)),
            "geometric": (geometric, (int, float)), "explicit": (from_file, (str,))}


def parse(text: str) -> DiscreteDistribution:
    """The distribution a descriptor names: uniform:K, zipf:K:S or
    geometric:K:Q, as their labels print them, or explicit:PATH."""
    return parse_descriptor(text, _GRAMMAR, "uniform:K, zipf:K:S, geometric:K:Q or explicit:PATH")


def _cdf_table(probs: np.ndarray) -> np.ndarray:
    """The letter table of inverse-CDF sampling: cumsum(probs) with every
    entry from the last positive-probability letter on set to inf.  The
    first i with table[i] > u (np.searchsorted, side="right") is the letter
    of u in [0, 1), never past that letter, even for a u >= cumsum(probs)[-1]
    that a sum a little below 1 leaves."""
    cum = np.cumsum(probs)
    cum[np.flatnonzero(probs)[-1]:] = np.inf
    return cum


def _inverse_cdf(probs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Letter lookup u -> i for uniforms u in [0, 1), by a guide table over
    the letter table cum = _cdf_table(probs) (Chen & Asau 1974; Devroye
    1986, III.2.4), for the Monte Carlo kernel's many draws per support:
    sample returns the same letters by binary search on cum.  With m = 4K
    buckets, a draw starts at guide[int(u*m)] and steps forward while
    cum[i] <= u.  guide[j] is the first i with cum[i] > e_j, for an edge e_j
    a few ulps below j/m: u*m may round up onto j from just below j/m, and
    starting at or before the letter of every such u keeps the lookup exact
    without a correction pass.  A draw still behind its letter after
    _MAX_GUIDE_STEPS steps (one in a run of atoms far below 1/m) is finished
    by binary search on the same table.  The returned function maps an array
    of uniforms to an intp array of letters of the same shape.
    """
    m = 4 * probs.size
    cum = _cdf_table(probs)
    # e_j = j * (1 - 2^-50)/m lies at least 2^-51 j/m below j/m, more than
    # the rounding of u*m can hide; for u < 1, u*m stays below m.
    guide = np.searchsorted(cum, np.arange(m) * ((1.0 - 2.0**-50) / m), side="right")

    def letters(u: np.ndarray) -> np.ndarray:
        flat = u.ravel()
        idx = guide[(flat * m).astype(np.intp)]
        ahead = np.flatnonzero(cum[idx] <= flat)
        for _ in range(_MAX_GUIDE_STEPS):
            if not ahead.size:
                break
            idx[ahead] += 1
            ahead = ahead[cum[idx[ahead]] <= flat[ahead]]
        else:
            idx[ahead] = np.searchsorted(cum, flat[ahead], side="right")
        return idx.reshape(u.shape)

    return letters


def sample(dist: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    """n iid draws as symbol indices, by inverse CDF on the cumulative table.

    Deterministic for a fixed seed.  Each uniform u maps by binary search
    on _cdf_table(probs) to its letter.  No guide table is built: one call
    draws too few letters to pay for it.  The Monte Carlo kernel's
    guide-table lookup (_inverse_cdf) returns the same letters.
    """
    n = require_int("sample size", n, 0)
    rng = np.random.Generator(np.random.PCG64(require_int("seed", seed, 0)))
    return np.searchsorted(_cdf_table(dist.probs), rng.random(n), side="right")


def _g_vector(dist: DiscreteDistribution, g: GFunction) -> np.ndarray:
    """g(p_x) aligned with the support; zero-probability letters contribute 0."""
    gv = np.zeros(dist.size, dtype=float)
    mask = dist.probs > 0.0
    gv[mask] = g.eval(dist.probs[mask])
    return gv


def _zero_hit_prob(p: np.ndarray, n: int) -> np.ndarray:
    """(1-p)^n elementwise via exp(n*log1p(-p)); stable for small p, large n.
    At p = 1 it is 0^n, which is 1 at n = 0."""
    n = require_int("n", n, 0)
    out = np.full_like(p, 0.0**n)
    inside = p < 1.0
    out[inside] = np.exp(n * np.log1p(-p[inside]))
    return out


def expected_missing(dist: DiscreteDistribution, n: int, g: GFunction) -> float:
    """E[G0] = sum_x g(p_x) (1-p_x)^n."""
    return float(np.sum(_zero_hit_prob(dist.probs, n) * _g_vector(dist, g)))


def variance_sum_bound(dist: DiscreteDistribution, n: int, g: GFunction) -> float:
    """sum_x g(p_x)^2 (1-p_x)^n (1-(1-p_x)^n).

    Each term is the variance of g(p_x) I(F_x = 0); negative association of
    the indicators makes the sum an upper bound on Var(G0).
    """
    qn = _zero_hit_prob(dist.probs, n)
    gv = _g_vector(dist, g)
    return float(np.sum(gv * gv * qn * (1.0 - qn)))
