"""Sample profiles and realized missing/observed mass.

A profile is the frequency of frequencies phi_l = #{x : F_x = l}, where F_x
counts the occurrences of letter x, and the sample size n = sum_l l phi_l it
implies.  The estimators read nothing else.  The realized missing mass
against a known distribution is computed from the sample itself, on the
g vector of distributions._g_vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from .distributions import DiscreteDistribution, _g_vector
from .errors import InvalidInputError
from .gfunction import GFunction


@dataclass(frozen=True)
class SampleProfile:
    """phi {l: phi_l, l >= 1} and the sample size n = sum_l l phi_l it implies.

    phi_0 is never stored: the number of unseen symbols is unknowable without
    the support.
    """

    phi: Dict[int, int]

    def __post_init__(self):
        for l, cnt in self.phi.items():
            if int(l) != l or l < 1 or int(cnt) != cnt or cnt < 0:
                raise InvalidInputError("phi must map integers l >= 1 to counts >= 0")

    @property
    def n(self) -> int:
        return sum(l * c for l, c in self.phi.items())


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
    return SampleProfile(phi={int(l): c for l, c in phi.items()})


def profile_from_phi(phi: Mapping[int, int]) -> SampleProfile:
    """Profile from a frequency-of-frequencies table; n is sum l*phi_l."""
    return SampleProfile(phi={int(l): int(c) for l, c in phi.items()})


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
    """G0 = sum of g(p_x) over unseen letters x."""
    unseen = ~_seen_mask(dist, sample)
    return float(np.sum(_g_vector(dist, g)[unseen]))


def realized_observed(dist: DiscreteDistribution, sample, g: GFunction) -> float:
    """G1+ = sum of g(p_x) over seen letters; G0 + G1+ = sum_x g(p_x)."""
    seen = _seen_mask(dist, sample)
    return float(np.sum(_g_vector(dist, g)[seen]))
