"""Sample profiles, the readers that build them from sample files, and
realized missing/observed mass.

A profile is the frequency of frequencies phi_l = #{x : F_x = l}, where F_x
counts the occurrences of letter x, and the sample size n = sum_l l phi_l it
implies.  The estimators read nothing else.  profile_from_lines counts the
lines of a token stream in numpy blocks, each line as a row of 64-bit words
padded with the byte 0xFF, which UTF-8 text never holds, and it counts a
long stream on up to two threads, with the same profile on any number of
threads.  read_count_csv and read_phi_csv read token,count and l,phi_l
rows, and phi_csv writes l,phi_l rows.  The realized missing mass against a
known distribution is computed from the sample itself, on the g vector of
distributions._g_vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, Hashable, Iterator, List, Mapping, Optional, Tuple

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
#: small enough for the allocator to reuse their memory from block to block:
#: counted on one thread, 1 MiB blocks made about 4 times as many page faults
#: on a file of 2e6 lines.
_BLOCK_BYTES = 1 << 18
#: profile_from_lines counts a stream on threads once the stream holds
#: _THREAD_BYTES and the process, this stream included, has read three times
#: as many: a regular file's size decides at its first block, any other
#: stream at the block that reaches both.  Measured on files of the
#: benchmark's zipf tokens on 2 CPUs, a read on two threads took, against
#: one thread, 1.6 times as long at 1.1 MB, 1.15 at 4.4 MB, 0.75-1.10 at
#: 6.6-8.8 MB, 0.87-0.89 at 12-17 MB and 0.67-0.72 at 33 MB as the first
#: read of a fresh process; after a first read on one thread, 1.2-1.4 times
#: as long at 1.1 MB, about as long at 2.2 MB, and 0.89-0.93 at 4.4 MB and
#: 0.80-0.89 at 8.8 MB.  A process's first threaded blocks run slowly, so
#: threads pay on a short stream only once the process has read a lot.
_THREAD_BYTES = 4 << 20
#: Bytes that profile_from_lines has read in this process, up to where its
#: reads went to the threads.
_bytes_read = 0
#: Edge bytes of a line that str.strip may remove or that may start or end a
#: removable character: ASCII whitespace and every non-ASCII UTF-8 byte.
_STRIPPABLE = np.zeros(256, dtype=bool)
_STRIPPABLE[[9, 11, 12, 28, 29, 30, 31, 32]] = True
_STRIPPABLE[0x80:] = True
_MIX = np.uint64(0x9E3779B97F4A7C15)
#: _PAD[r] sets every byte of a little-endian word after its first r, so that
#: the word holding the last r bytes of a line reads 0xFF after them.
_PAD = np.array([(1 << 64) - (1 << (8 * r)) for r in range(9)], dtype=np.uint64)


def _distinct_rows(keys: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the uint64 matrix keys, and the sum of counts over each.

    Rows are sorted by a mixed 64-bit hash; if two distinct rows share a hash,
    the rows themselves are sorted instead.  A one-word row is its own hash."""
    h = keys[:, 0]
    for k in range(1, keys.shape[1]):
        h = ((h ^ (h >> np.uint64(29))) * _MIX) ^ keys[:, k]
    # A one-word table is regrouped mostly from parts that are each sorted,
    # which a stable sort merges as runs.
    order = np.argsort(h, kind="stable" if keys.shape[1] == 1 else None)
    h = h[order]
    same = h[1:] == h[:-1]
    if keys.shape[1] > 1 and (keys.take(order[:-1][same], axis=0)
                              != keys.take(order[1:][same], axis=0)).any():
        order = np.lexsort(keys.T[::-1])
        rows = keys.take(order, axis=0)
        same = (rows[1:] == rows[:-1]).all(axis=1)
    first = np.flatnonzero(np.concatenate(([True], ~same)))
    rows = h[first, None] if keys.shape[1] == 1 else keys.take(order[first], axis=0)
    return rows, np.add.reduceat(counts[order], first)


class _LineCounts:
    """Counts of distinct byte lines.  A line of L bytes is a row of
    W = ceil(L/8) little-endian uint64 words that hold its bytes, with the rest
    of the last word set to 0xFF; an empty line is the one word _PAD[0].  The
    lines are UTF-8, which never uses the byte 0xFF, so the padding marks where
    a line ends and rows of different lines differ.  Rows of W words are
    counted in the table for W, which is regrouped into distinct rows whenever
    it doubles."""

    def __init__(self) -> None:
        self.parts: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self.grouped: Dict[int, int] = {}
        # A threading.Lock that tables counting on several threads share, so
        # that only one regroups at a time: a regroup's arrays are as large as
        # its table.
        self.lock = None

    def add(self, data: bytes, weights: Optional[np.ndarray] = None) -> None:
        """Count the non-empty segments of data between line-end bytes
        (10 and 13); segment i counts weights[i] times (default once).
        The segments must be UTF-8."""
        buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.append(np.flatnonzero((buf == 10) | (buf == 13)), len(data))
        starts = np.concatenate(([0], ends[:-1] + 1))
        lens = np.subtract(ends, starts, out=ends)  # in place: an array less per block counted
        # words[s] is the 8 bytes from offset s on; data is padded with 8
        # bytes so that every word read is in range.
        padded = data + bytes(8)
        words = np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))
        wide = np.flatnonzero(lens > 8)
        if len(wide):
            widths = (lens[wide] + 7) >> 3
            for W in np.flatnonzero(np.bincount(widths)).tolist():
                at = wide[widths == W]
                keys = words[starts[at][:, None] + np.arange(0, 8 * W, 8)]
                keys[:, -1] |= _PAD.take(lens[at] - 8 * (W - 1))
                self._merge(W, *_distinct_rows(
                    keys, np.ones(len(at), np.int64) if weights is None else weights[at]))
            lens[wide] = 0  # so that a wider line becomes _PAD[0], as an empty one does
        keys = words[starts]
        keys |= _PAD.take(lens)
        # Free the block's arrays, so that a regroup of the one-word table
        # does not add to them.
        del ends, starts, lens, wide, padded, words
        if weights is None:
            keys.sort()
            first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            keys, counts = keys[first], np.diff(first, append=len(keys))
        else:
            rows, counts = _distinct_rows(keys[:, None], weights)
            keys = rows[:, 0]
        # Empty and wider lines are _PAD[0], the largest word, so they sort last.
        if len(keys) and keys[-1] == _PAD[0]:
            keys, counts = keys[:-1], counts[:-1]
        if len(keys):
            self._merge(1, keys[:, None], counts)

    def _merge(self, W: int, keys: np.ndarray, counts: np.ndarray) -> None:
        parts = self.parts.setdefault(W, [])
        parts.append((keys, counts))
        if sum(len(k) for k, _ in parts) >= 2 * self.grouped.get(W, 0):
            self._regroup(W)

    def _regroup(self, W: int) -> None:
        """Reduce the table for W to its distinct rows, after any other table
        that shares its lock has finished its regroup."""
        if self.lock is None:
            self._regroup_now(W)
        else:
            with self.lock:
                self._regroup_now(W)

    def _regroup_now(self, W: int) -> None:
        keys, counts = map(np.concatenate, zip(*self.parts[W]))
        self.parts[W].clear()  # so that the parts are freed before the regroup
        keys, counts = _distinct_rows(keys, counts)
        self.parts[W] = [(keys, counts)]
        self.grouped[W] = len(keys)

    def _tables(self) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """(W, distinct rows, their counts) for every width W."""
        for W, parts in self.parts.items():
            if len(parts) > 1:
                self._regroup(W)
        return [(W, *parts[0]) for W, parts in self.parts.items()]

    def stripped_counts(self) -> np.ndarray:
        """The count of each distinct non-blank line after str.strip."""
        # Only a line with a strippable edge byte can change under str.strip.
        stripped: List[bytes] = []
        weights: List[np.ndarray] = []
        for W, keys, counts in self._tables():
            # A last word that holds r bytes lies in [_PAD[r], _PAD[r - 1]): its
            # top 8 - r bytes are 0xFF and the byte below them is not.
            lens = 8 * (W - 1) + sum(keys[:, -1] < pad for pad in _PAD[:8])
            raw = keys.view(np.uint8)
            edge = _STRIPPABLE[raw[:, 0]] | _STRIPPABLE[raw[np.arange(len(raw)), lens - 1]]
            if edge.any():
                stripped += [row[:n].tobytes().decode("utf-8").strip().encode("utf-8")
                             for row, n in zip(raw[edge], lens[edge].tolist())]
                weights.append(counts[edge])
                self.parts[W] = [(keys[~edge], counts[~edge])]
        if stripped:
            self.add(b"\n".join(stripped), np.concatenate(weights))
        return np.concatenate([np.zeros(0, np.int64)] + [c for _, _, c in self._tables()])


def _workers() -> int:
    """Counting threads for profile_from_lines: min(2, CPUs this process may run on)."""
    import os
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _file_bytes_left(stream: BinaryIO) -> int:
    """Bytes from the position of stream to the end of its file, if it
    reads a regular file; 0 for any other stream."""
    import os
    import stat
    try:
        info = os.fstat(stream.fileno())
        return info.st_size - stream.tell() if stat.S_ISREG(info.st_mode) else 0
    except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
        return 0


def _blocks(stream: BinaryIO) -> Iterator[bytes]:
    """The blocks of stream, each cut at its last line end and checked as
    UTF-8; the last block, empty or not, ends the stream."""
    pending: List[bytes] = []  # read since the last line end
    while True:
        chunk = stream.read(_BLOCK_BYTES)
        lf = chunk.rfind(b"\n")
        cut = max(lf, chunk.rfind(b"\r", lf + 1)) + 1
        if chunk and not cut:
            pending.append(chunk)
            continue
        # Blocks end on a line end, so each decodes alone.
        block, pending = b"".join(pending + [memoryview(chunk)[:cut]]), [chunk[cut:]]
        block.decode("utf-8")  # raises UnicodeDecodeError if it is not UTF-8
        yield block
        if not chunk:
            return


def _count_on_threads(first: _LineCounts, blocks: Iterator[bytes],
                      workers: int) -> _LineCounts:
    """first, with blocks counted on workers threads, each in a table of its
    own, and every other table joined into first.  The tables share one lock,
    so that only one of them regroups at a time.  After a failure the threads
    take the blocks that remain but count none, so that the reading thread
    never waits on a full queue; every thread started has ended when this
    returns or raises."""
    import queue
    import threading
    tables = [first] + [_LineCounts() for _ in range(workers - 1)]
    lock = threading.Lock()
    for table in tables:
        table.lock = lock
    todo: queue.Queue = queue.Queue(workers)  # a waiting block per thread keeps each busy
    failed: List[Exception] = []

    def guarded(step: Callable, *args) -> None:
        """step(*args) unless a thread has failed; records what it raises."""
        if not failed:
            try:
                step(*args)
            except Exception as exc:  # raised again on the reading thread
                failed.append(exc)

    def count(table: _LineCounts) -> None:
        for block in iter(todo.get, None):
            guarded(table.add, block)
        guarded(table._tables)  # regroup while the other thread counts its last block

    started = []
    try:
        for table in tables:
            thread = threading.Thread(target=count, args=(table,))
            thread.start()
            started.append(thread)
        for block in blocks:
            if failed:
                break
            todo.put(block)
    finally:
        for _ in started:
            todo.put(None)
        for thread in started:
            thread.join()
    if failed:
        raise failed[0]
    for table in tables[1:]:
        for W, keys, counts in table._tables():
            first._merge(W, keys, counts)
    return first


def profile_from_lines(stream: BinaryIO) -> SampleProfile:
    """Profile of a binary stream of UTF-8 text with one token per line.

    Lines end in \\n, \\r\\n or \\r.  Leading and trailing Unicode whitespace
    (str.strip) is removed, and blank lines are ignored; a byte-order mark
    stays part of the first token.  The stream is read in blocks, and memory
    grows with the number of distinct tokens, not with the stream's length.
    Raises UnicodeDecodeError on bytes that are not UTF-8; a stream without
    tokens gives the empty profile.

    The calling thread reads, cuts and checks every block.  Once the
    process has read 12 MiB, this stream included, the blocks of a stream
    of 4 MiB or more are counted on two threads, if the process may run on
    two or more CPUs: each thread counts into a table of its own, and the
    tables are joined at the end, so the profile is the same on any number
    of threads.  A regular file's size decides before its first block; any
    other stream goes to the threads at the block that reaches both
    bounds (_THREAD_BYTES).  The second table and the blocks in flight cost
    memory: on the files measured, up to 1.3 times one thread's tracemalloc
    peak, and 6-67 MB more resident memory, most of it held by the counting
    threads' malloc arenas.  Every thread started has ended when this
    returns or raises.
    """
    global _bytes_read
    lines = _LineCounts()
    workers = _workers()
    blocks = _blocks(stream)
    before, size, read = _bytes_read, _file_bytes_left(stream), 0
    for block in blocks:
        read += len(block)
        known = max(size, read)
        if workers > 1 and known >= _THREAD_BYTES and before + known >= 3 * _THREAD_BYTES:
            import itertools
            lines = _count_on_threads(lines, itertools.chain([block], blocks), workers)
            break
        lines.add(block)
    _bytes_read = before + known
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
