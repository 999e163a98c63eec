"""Sample profiles, the readers that build them from sample files, and
realized missing/observed mass.

A profile is the frequency of frequencies phi_l = #{x : F_x = l}, where F_x
counts the occurrences of letter x, and the sample size n = sum_l l phi_l it
implies.  The estimators read nothing else.  profile_from_lines counts the
lines of a token stream in numpy blocks, read_count_csv and read_phi_csv
read token,count and l,phi_l rows, and phi_csv writes l,phi_l rows.  The
realized missing mass against a known distribution is computed from the
sample itself, on the g vector of distributions._g_vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from .distributions import DiscreteDistribution, _g_vector
from .errors import InvalidInputError, require_int
from .gfunction import GFunction


@dataclass(frozen=True)
class SampleProfile:
    """phi {l: phi_l, l >= 1} and the sample size n = sum_l l phi_l it implies.

    phi_0 is never stored: the number of unseen symbols is unknowable without
    the support.  Each l and phi_l passes errors.require_int and is stored
    as an int.
    """

    phi: Dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "phi", {require_int("l", l, 1): require_int("phi_l", c, 0)
                                         for l, c in self.phi.items()})

    @property
    def n(self) -> int:
        return sum(l * c for l, c in self.phi.items())


def profile_from_samples(seq) -> SampleProfile:
    """Profile of a symbol sequence (any hashable symbols; empty allowed)."""
    if isinstance(seq, np.ndarray):
        return _profile_of_counts(np.unique(seq, return_counts=True)[1])
    return profile_from_counts(Counter(seq))


def profile_from_counts(counts: Mapping) -> SampleProfile:
    """Profile from a {symbol: count} mapping; every count must be an
    integer >= 1.  Each distinct count is checked once; a bad one is
    reported with a symbol that has it."""
    phi = Counter(counts.values())
    for cnt in phi:
        try:
            require_int("count", cnt, 1)
        except InvalidInputError as exc:
            sym = next(s for s, c in counts.items() if c is cnt or c == cnt)
            raise InvalidInputError(f"symbol {sym!r}: {exc}") from None
    return SampleProfile(phi=phi)


def profile_from_phi(phi: Mapping[int, int]) -> SampleProfile:
    """Profile from a frequency-of-frequencies table; n is sum l*phi_l."""
    return SampleProfile(phi=phi)


def _profile_of_counts(counts: np.ndarray) -> SampleProfile:
    """Profile of an array of per-symbol counts, each >= 1."""
    ls, phi = np.unique(counts, return_counts=True)
    return profile_from_phi(dict(zip(ls.tolist(), phi.tolist())))


def _not_utf8(path: str, exc: UnicodeDecodeError) -> InvalidInputError:
    return InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})")


#: Bytes profile_from_lines reads at a time.  The arrays of a 256 KiB block are
#: small enough for the allocator to reuse their memory from block to block;
#: 1 MiB blocks made about 4 times as many page faults on a file of 2e6 lines.
_BLOCK_BYTES = 1 << 18
#: Edge bytes of a line that str.strip may remove or that may start or end a
#: removable character: ASCII whitespace and every non-ASCII UTF-8 byte.
_STRIPPABLE = np.zeros(256, dtype=bool)
_STRIPPABLE[[9, 11, 12, 28, 29, 30, 31, 32]] = True
_STRIPPABLE[0x80:] = True
_MIX = np.uint64(0x9E3779B97F4A7C15)
#: Shifting the little-endian word at a line of L <= 7 bytes left by
#: _SHIFT[L] keeps just its L bytes, at the top, and clears the low byte for
#: L; numpy shifts by 64 to 0, so an empty line packs to 0.
_SHIFT = np.array([64 - 8 * L for L in range(8)], dtype=np.uint8)
#: Table key of the lines of 1 to 7 bytes, one packed word each.
_PACKED = 0


def _distinct_rows(keys: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the uint64 matrix keys, and the sum of counts over each.

    Rows are sorted by a mixed 64-bit hash; if two distinct rows share a hash,
    the rows themselves are sorted instead."""
    h = keys[:, 0]
    for k in range(1, keys.shape[1]):
        h = ((h ^ (h >> np.uint64(29))) * _MIX) ^ keys[:, k]
    # A one-word table (packed lines, lines of 8 bytes) is regrouped mostly
    # from parts that are each sorted, which a stable sort merges as runs.
    order = np.argsort(h, kind="stable" if keys.shape[1] == 1 else None)
    hs = h[order]
    same = hs[1:] == hs[:-1]
    if keys.shape[1] > 1 and (keys[order[:-1][same]] != keys[order[1:][same]]).any():
        order = np.lexsort(keys.T[::-1])
        rows = keys[order]
        same = (rows[1:] == rows[:-1]).all(axis=1)
    first = np.flatnonzero(np.concatenate(([True], ~same)))
    return keys[order[first]], np.add.reduceat(counts[order], first)


class _LineCounts:
    """Counts of distinct byte lines.  A line of 1 to 7 bytes is one uint64
    key in the _PACKED table: its bytes in the top bytes of a little-endian
    word, and its length in the low byte.  A longer line of L bytes is a row of
    ceil(L/8) little-endian uint64 words, zero padded, in the table for L.
    A table is regrouped into distinct rows whenever it doubles."""

    def __init__(self) -> None:
        self.parts: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self.grouped: Dict[int, int] = {}

    def add(self, data: bytes, weights: Optional[np.ndarray] = None) -> None:
        """Count the non-empty segments of data between line-end bytes
        (10 and 13); segment i counts weights[i] times (default once)."""
        buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.append(np.flatnonzero((buf == 10) | (buf == 13)), len(data))
        starts = np.concatenate(([0], ends[:-1] + 1))
        lens = ends - starts
        # words[s] is the 8 bytes from offset s on; data is padded with 8
        # zero bytes so that every word read is in range.
        padded = data + bytes(8)
        words = np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))
        long = lens >= 8
        if long.any():
            self._add_long(words, starts[long], lens[long],
                           None if weights is None else weights[long])
            lens[long] = 0  # so that a long line packs to key 0, as an empty one does
        keys = words[starts]
        keys <<= _SHIFT.take(lens)
        keys |= lens.view(np.uint64)
        # Free the block's arrays, so that a regroup of the packed table
        # does not add to them.
        del ends, starts, lens, long, padded, words
        if weights is None:
            keys.sort()
            first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            keys, counts = keys[first], np.diff(first, append=len(keys))
        else:
            rows, counts = _distinct_rows(keys[:, None], weights)
            keys = rows[:, 0]
        # Empty and long lines have key 0, so they sort first.
        skip = keys.searchsorted(np.uint64(1))
        if len(keys) > skip:
            self._merge(_PACKED, keys[skip:, None], counts[skip:])

    def _add_long(self, words: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                  weights: Optional[np.ndarray]) -> None:
        """Count the lines of 8 or more bytes at starts, one table per length."""
        order = np.argsort(lens)
        for group in np.split(order, np.flatnonzero(np.diff(lens[order])) + 1):
            L = int(lens[group[0]])
            width = -(-L // 8)
            keys = words[starts[group][:, None] + np.arange(0, 8 * width, 8)]
            if L % 8:
                keys[:, -1] &= np.uint64((1 << (8 * (L % 8))) - 1)
            counts = None if weights is None else weights[group]
            if counts is None and width == 1:
                # Sorting the words themselves is cheaper than sorting an
                # order: a file of 8-byte lines reads 2.4 times as fast.
                distinct, counts = np.unique(keys[:, 0], return_counts=True)
                keys = distinct[:, None]
            self._merge(L, keys, np.ones(len(keys), np.int64) if counts is None else counts)

    def _merge(self, L: int, keys: np.ndarray, counts: np.ndarray) -> None:
        parts = self.parts.setdefault(L, [])
        parts.append((keys, counts))
        if sum(len(k) for k, _ in parts) >= 2 * self.grouped.get(L, 0):
            self._regroup(L)

    def _regroup(self, L: int) -> None:
        parts = self.parts[L]
        keys, counts = _distinct_rows(np.concatenate([k for k, _ in parts]),
                                      np.concatenate([c for _, c in parts]))
        self.parts[L] = [(keys, counts)]
        self.grouped[L] = len(keys)

    def _tables(self) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """(L, distinct rows, their counts) for every length L."""
        for L, parts in self.parts.items():
            if len(parts) > 1:
                self._regroup(L)
        return [(L, *parts[0]) for L, parts in self.parts.items()]

    def stripped_counts(self) -> np.ndarray:
        """The count of each distinct non-blank line after str.strip."""
        # Only a line with a strippable edge byte can change under str.strip.
        stripped: List[bytes] = []
        weights: List[np.ndarray] = []
        for L, keys, counts in self._tables():
            # Row i holds its lens[i] bytes from raw[i, lo[i]] on.
            raw = keys.view(np.uint8)
            if L == _PACKED:
                lens = raw[:, 0].astype(np.intp)
                lo = 8 - lens
            else:
                lens = np.full(len(raw), L)
                lo = np.zeros(len(raw), np.intp)
            rows = np.arange(len(raw))
            edge = _STRIPPABLE[raw[rows, lo]] | _STRIPPABLE[raw[rows, lo + lens - 1]]
            if edge.any():
                stripped += [row[i:i + n].tobytes().decode("utf-8").strip().encode("utf-8")
                             for row, i, n in zip(raw[edge], lo[edge].tolist(),
                                                  lens[edge].tolist())]
                weights.append(counts[edge])
                self.parts[L] = [(keys[~edge], counts[~edge])]
        if stripped:
            self.add(b"\n".join(stripped), np.concatenate(weights))
        return np.concatenate([np.zeros(0, np.int64)] + [c for _, _, c in self._tables()])


def profile_from_lines(stream: BinaryIO) -> SampleProfile:
    """Profile of a binary stream of UTF-8 text with one token per line.

    Lines end in \\n, \\r\\n or \\r.  Leading and trailing Unicode whitespace
    (str.strip) is removed, and blank lines are ignored; a byte-order mark
    stays part of the first token.  The stream is read in blocks, and memory
    grows with the number of distinct tokens, not with the stream's length.
    Raises UnicodeDecodeError on bytes that are not UTF-8; a stream without
    tokens gives the empty profile.
    """
    lines = _LineCounts()
    pending: List[bytes] = []  # read since the last line end
    while True:
        chunk = stream.read(_BLOCK_BYTES)
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        if chunk and not cut:
            pending.append(chunk)
            continue
        # Blocks end on a line end, so each decodes alone.
        block, pending = b"".join(pending + [chunk[:cut]]), [chunk[cut:]]
        block.decode("utf-8")  # raises UnicodeDecodeError if it is not UTF-8
        lines.add(block)
        if not chunk:
            break
    return _profile_of_counts(lines.stripped_counts())


def _split_pair(line: str, path: str) -> Tuple[str, str]:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 2:
        raise InvalidInputError(f"{path}: expected two comma-separated fields, got {line!r}")
    return parts[0], parts[1]


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_pairs(path: str, key_cast: Callable[[str], Hashable]) -> Dict[Hashable, int]:
    """Rows of key,int with unique keys; a first non-blank row of two non-numbers is a header."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            rows = [line for line in map(str.strip, fh) if line]
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc)
    if rows and not any(map(_is_number, _split_pair(rows[0], path))):
        rows = rows[1:]
    pairs: Dict[Hashable, int] = {}
    for line in rows:
        key, val = _split_pair(line, path)
        try:
            key, count = key_cast(key), int(val)
        except ValueError:
            raise InvalidInputError(f"{path}: bad row {line!r}")
        if key in pairs:
            raise InvalidInputError(f"{path}: duplicate key {key!r}")
        pairs[key] = count
    return pairs


def read_count_csv(path: str) -> SampleProfile:
    """Lines of token,count; a leading header row is skipped."""
    counts = _read_pairs(path, str)
    if not counts:
        raise InvalidInputError(f"no counts found in {path}")
    return profile_from_counts(counts)


def read_phi_csv(path: str) -> SampleProfile:
    """Lines of l,phi_l; the sample size is sum l*phi_l."""
    return profile_from_phi(_read_pairs(path, int))


def phi_csv(profile: SampleProfile) -> str:
    """The profile as the l,phi_l rows, under a header, that read_phi_csv reads."""
    return "l,phi_l\n" + "".join(f"{l},{profile.phi[l]}\n" for l in sorted(profile.phi))


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
