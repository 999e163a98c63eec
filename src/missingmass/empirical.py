"""Sample profiles and realized missing/observed mass.

A profile is the sample size n and the frequency of frequencies
phi_l = #{x : F_x = l}, where F_x counts the occurrences of letter x.  The
estimators read nothing else.  The realized missing mass against a known
distribution is computed from the sample itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from .distributions import DiscreteDistribution
from .errors import InvalidInputError
from .gfunction import GFunction


@dataclass(frozen=True)
class SampleProfile:
    """n and phi {l: phi_l, l >= 1}.

    phi_0 is never stored: the number of unseen symbols is unknowable without
    the support.
    """

    n: int
    phi: Dict[int, int]

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 0:
            raise InvalidInputError("profile n must be an integer >= 0")
        for l, cnt in self.phi.items():
            if int(l) != l or l < 1 or int(cnt) != cnt or cnt < 0:
                raise InvalidInputError("phi must map integers l >= 1 to counts >= 0")
        if sum(l * c for l, c in self.phi.items()) != self.n:
            raise InvalidInputError(
                f"inconsistent profile: sum of l*phi_l != n = {self.n}"
            )


def profile_from_samples(seq) -> SampleProfile:
    """Profile of a symbol sequence (any hashable symbols; empty allowed)."""
    if isinstance(seq, np.ndarray):
        symbols, occ = np.unique(seq, return_counts=True)
        return profile_from_counts(dict(zip(symbols.tolist(), occ.tolist())))
    return profile_from_counts(Counter(seq))


def profile_from_counts(counts: Mapping) -> SampleProfile:
    """Profile from a {symbol: count} mapping; every count must be >= 1."""
    phi = Counter(counts.values())
    for cnt in phi:
        if int(cnt) != cnt or cnt < 1:
            sym = next(s for s, c in counts.items() if c == cnt)
            raise InvalidInputError(f"count for symbol {sym!r} must be >= 1")
    phi = {int(l): c for l, c in phi.items()}
    return SampleProfile(n=sum(l * c for l, c in phi.items()), phi=phi)


def profile_from_phi(phi: Mapping[int, int], n: int) -> SampleProfile:
    """Profile from a frequency-of-frequencies table; validates sum l*phi_l = n."""
    return SampleProfile(n=int(n), phi={int(l): int(c) for l, c in phi.items()})


def _seen_mask(dist: DiscreteDistribution, sample) -> np.ndarray:
    """Support letters that occur in sample (letter indices); a seen p_x = 0 is an error."""
    x = np.asarray(sample)
    seen = np.zeros(dist.size, dtype=bool)
    if x.size:
        if not np.issubdtype(x.dtype, np.integer):
            raise InvalidInputError("symbols must be integer indices into the support")
        if x.min() < 0 or x.max() >= dist.size:
            raise InvalidInputError(f"symbol out of support range [0, {dist.size})")
        seen[x] = True
    if np.any(seen & (dist.probs == 0.0)):
        raise InvalidInputError("sample contains a symbol with zero probability")
    return seen


def realized_missing(dist: DiscreteDistribution, sample, g: GFunction) -> float:
    """G0 = sum of g(p_x) over unseen letters x with p_x > 0."""
    mask = ~_seen_mask(dist, sample) & (dist.probs > 0.0)
    return float(np.sum(g.eval(dist.probs[mask]))) if mask.any() else 0.0


def realized_observed(dist: DiscreteDistribution, sample, g: GFunction) -> float:
    """G1+ = sum of g(p_x) over seen letters; G0 + G1+ = sum_x g(p_x)."""
    mask = _seen_mask(dist, sample)
    return float(np.sum(g.eval(dist.probs[mask]))) if mask.any() else 0.0
