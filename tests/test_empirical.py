import io
import itertools
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingmass import distributions as dm
from missingmass import empirical as emp
from missingmass import gfunction as gf
from missingmass.errors import InvalidInputError


def test_profile_from_samples_counter_oracle():
    seq = ["a", "b", "a", "c", "a", "b", "d"]
    prof = emp.profile_from_samples(seq)
    assert prof.n == 7
    assert prof.phi == {1: 2, 2: 1, 3: 1}
    assert prof == emp.profile_from_counts({"a": 3, "b": 2, "c": 1, "d": 1})


def test_profile_from_ndarray_matches_list_path():
    x = np.array([0, 0, 3, 2, 3, 3])
    a = emp.profile_from_samples(x)
    b = emp.profile_from_samples(list(int(v) for v in x))
    assert a.n == b.n == 6
    assert a.phi == b.phi == {1: 1, 2: 1, 3: 1}


def test_empty_sequence_gives_empty_profile():
    prof = emp.profile_from_samples([])
    assert prof.n == 0
    assert prof.phi == {}


def test_float_symbols_stay_distinct():
    # symbols are counted as given, not cast to int
    assert emp.profile_from_samples(np.array([0.2, 0.7])).phi == {1: 2}
    assert emp.profile_from_samples(np.array([0.2, 1.7, 1.7])).phi == {1: 1, 2: 1}


def test_profile_from_counts_rejects_nonpositive():
    with pytest.raises(InvalidInputError, match="'a'"):
        emp.profile_from_counts({"a": 0})
    with pytest.raises(InvalidInputError, match="'c'"):
        emp.profile_from_counts({"a": 1, "b": 4, "c": -2, "d": -2})


def test_profile_from_phi_derives_n():
    # n is sum l*phi_l; a table that disagrees with a given n is the CLI's
    # --n check (test_cli.py::test_estimate_inconsistent_phi_exits_2)
    prof = emp.profile_from_phi({1: 2, 2: 1, 3: 1})
    assert prof.n == 7
    assert prof == emp.profile_from_samples("abacabd")
    assert emp.profile_from_phi({}).n == 0
    assert emp.profile_from_phi({2: 0, 5: 3}).n == 15


def test_phi_rejects_bad_keys():
    with pytest.raises(InvalidInputError):
        emp.profile_from_phi({0: 1})
    with pytest.raises(InvalidInputError):
        emp.profile_from_phi({1: -1})


@pytest.mark.parametrize("phi", [{}, {1: 2, 2: 1, 3: 1}, {2: 0, 5: 3}, {10**6: 1, 1: 10**9}])
def test_read_phi_csv_reads_back_what_phi_csv_writes(phi, tmp_path):
    prof = emp.profile_from_phi(phi)
    path = tmp_path / "phi.csv"
    path.write_text(emp.phi_csv(prof), encoding="utf-8")
    back = emp.read_phi_csv(str(path))
    assert back == prof and back.n == prof.n


def test_phi_csv_writes_sorted_rows_under_a_header():
    assert emp.phi_csv(emp.profile_from_phi({3: 1, 1: 2})) == "l,phi_l\n1,2\n3,1\n"


_BASE = ([f"w{i}" for i in range(10)] + [f"token-{i:02d}-of-a-long-line" for i in range(10)]
         + ["x" * L for L in range(1, 20, 2)])
#: 50 tokens: 30 bare, short and long, and 20 with strippable edges that
#: strip to one of the bare ones.
_MEMORY_TOKENS = (_BASE + [" " + t for t in _BASE[:7]] + [t + "\u00a0" for t in _BASE[10:17]]
                  + ["\u3000" + t + "\t" for t in _BASE[20:26]])


def test_line_counts_memory_grows_with_distinct_lines():
    # The README's memory rule: each table holds at most twice as many rows as
    # the distinct lines it has seen, however many lines it has read.  A line
    # of L bytes is a row of ceil(L/8) words, in the table for that width.
    rng = np.random.default_rng(11)
    counter = emp._LineCounts()
    seen, everything = {}, []
    for _ in range(200):
        subset = rng.choice(len(_MEMORY_TOKENS), size=rng.integers(5, 26), replace=False)
        block = [_MEMORY_TOKENS[i] for i in rng.choice(subset, size=rng.integers(20, 200))]
        counter.add("".join(t + "\n" for t in block).encode())
        everything += block
        for raw in {t.encode() for t in block}:
            seen.setdefault(-(-len(raw) // 8), set()).add(raw)
        for W, parts in counter.parts.items():
            assert sum(len(keys) for keys, _ in parts) <= 2 * len(seen[W])
    oracle = Counter(map(str.strip, everything))
    assert sorted(counter.stripped_counts().tolist()) == sorted(oracle.values())


def _zipf_token_lines(tokens, seed):
    """tokens lines drawn as the benchmark's estimate_tokens file is: letter
    i of zipf(10^5, 1.1), written "w<i>"."""
    weights = 1.0 / np.arange(1, 100_001, dtype=float) ** 1.1
    cdf = np.cumsum(weights / weights.sum())
    idx = np.searchsorted(cdf, np.random.default_rng(seed).random(tokens), side="right")
    return "".join("w%d\n" % i for i in np.minimum(idx, 99_999).tolist()).encode()


@pytest.fixture(scope="module")
def zipf_file():
    """A file of 400 000 zipf lines (about 1.8 MB) and its phi."""
    data = _zipf_token_lines(400_000, seed=5)
    return data, Counter(Counter(data.split()).values())


# At 0 every block is counted on the threads; at three blocks, in a process
# that has read enough, the first blocks of the stream are counted on the
# calling thread and the rest on the threads.
@pytest.mark.parametrize("thread_bytes", [0, 3 * emp._BLOCK_BYTES])
def test_profile_from_lines_is_the_same_on_one_and_two_threads(monkeypatch, zipf_file,
                                                               thread_bytes):
    data, expected = zipf_file
    assert len(data) > thread_bytes + 2 * emp._BLOCK_BYTES
    monkeypatch.setattr(emp, "_THREAD_BYTES", thread_bytes)
    monkeypatch.setattr(emp, "_bytes_read", 2 * thread_bytes)
    before, start, started = threading.active_count(), threading.Thread.start, []

    def start_and_count(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_and_count)
    phi = {}
    for workers in (1, 2):
        monkeypatch.setattr(emp, "_workers", lambda: workers)
        phi[workers] = emp.profile_from_lines(io.BytesIO(data)).phi
        assert len(started) == (0 if workers == 1 else 2)
    assert phi[1] == phi[2] == expected
    assert threading.active_count() == before


def test_four_counting_threads_under_a_short_switch_interval_count_every_line(monkeypatch):
    # More threads than this host has CPUs, small blocks, and the interpreter
    # switching threads as often as it can: a lost block or a lost update to a
    # table would change phi.
    data = _zipf_token_lines(60_000, seed=7)
    monkeypatch.setattr(emp, "_THREAD_BYTES", 0)
    monkeypatch.setattr(emp, "_BLOCK_BYTES", 4096)
    monkeypatch.setattr(emp, "_workers", lambda: 4)
    interval, phi = sys.getswitchinterval(), []
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(
            target=lambda: phi.append(emp.profile_from_lines(io.BytesIO(data)).phi))
        reader.start()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert phi == [Counter(Counter(data.split()).values())]


def test_a_counting_thread_that_cannot_start_ends_the_read(monkeypatch):
    # The first thread starts and the second does not: the read raises, and
    # the first thread is ended, not left waiting for blocks.
    monkeypatch.setattr(emp, "_THREAD_BYTES", 0)
    monkeypatch.setattr(emp, "_workers", lambda: 2)
    before, start, starts = threading.active_count(), threading.Thread.start, itertools.count()

    def start_one(thread):
        if next(starts):
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_one)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        emp.profile_from_lines(io.BytesIO(b"a\nb\n"))
    assert threading.active_count() == before


@pytest.mark.parametrize("file_short, process_short, on_calling_thread", [
    (0, 0, False),  # the file and the process's reads reach the bounds
    (1, 0, True),   # the file is a byte short of _THREAD_BYTES
    (0, 1, True),   # the process's reads are a byte short of 3 _THREAD_BYTES
])
def test_a_file_goes_to_the_threads_from_its_first_block_or_not_at_all(
        tmp_path, monkeypatch, zipf_file, file_short, process_short, on_calling_thread):
    # A regular file's size decides before the first block, with the bytes
    # the process has read before it.
    data, expected = zipf_file
    path = tmp_path / "tokens.txt"
    path.write_bytes(data)
    before = 2 * len(data) - process_short
    monkeypatch.setattr(emp, "_workers", lambda: 2)
    monkeypatch.setattr(emp, "_THREAD_BYTES", len(data) + file_short)
    monkeypatch.setattr(emp, "_bytes_read", before)
    add, callers = emp._LineCounts.add, []

    def add_and_note(table, *args):
        callers.append(threading.current_thread() is threading.main_thread())
        add(table, *args)

    monkeypatch.setattr(emp._LineCounts, "add", add_and_note)
    with open(path, "rb") as fh:
        assert emp.profile_from_lines(fh).phi == expected
    assert len(callers) > 3 and set(callers) == {on_calling_thread}
    assert emp._bytes_read == before + len(data)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
@pytest.mark.parametrize("cpus, workers", [({0}, 1), ({0, 1}, 2), ({0, 1, 2, 3}, 2)])
def test_workers_follow_the_cpus_the_process_may_run_on(monkeypatch, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert emp._workers() == workers


def test_realized_split_two_point():
    d = dm.explicit([0.3, 0.7])
    x = np.array([1, 1, 1])
    g = gf.power(1.0)
    assert emp.realized_missing(d, x, g) == pytest.approx(0.3)
    assert emp.realized_observed(d, x, g) == pytest.approx(0.7)
    assert emp.realized_missing(d, np.array([], dtype=float), g) == pytest.approx(1.0)
    assert emp.realized_observed(d, [], g) == 0.0


@pytest.mark.parametrize("realized", [emp.realized_missing, emp.realized_observed])
def test_realized_rejects_non_integer_symbols(realized):
    with pytest.raises(InvalidInputError, match="integer"):
        realized(dm.uniform(3), np.array([0.0, 1.0]), gf.power(1.0))


def test_realized_rejects_out_of_range_symbols():
    d = dm.uniform(3)
    for x in (np.array([0, 5]), np.array([-1, 0])):
        for realized in (emp.realized_missing, emp.realized_observed):
            with pytest.raises(InvalidInputError):
                realized(d, x, gf.power(1.0))


def test_realized_rejects_seen_zero_probability_symbol():
    d = dm.explicit([0.5, 0.0, 0.5])
    for realized in (emp.realized_missing, emp.realized_observed):
        with pytest.raises(InvalidInputError):
            realized(d, np.array([1]), gf.power(1.0))


@given(seed=st.integers(min_value=0, max_value=10**6), n=st.integers(min_value=0, max_value=300))
@settings(max_examples=100, deadline=None)
def test_missing_plus_observed_is_total(seed, n):
    # G0 + G1+ equals sum_x g(p_x) for every realization
    d = dm.zipf(40, 1.0)
    g = gf.power(2.0)
    x = dm.sample(d, n, seed=seed)
    total = float(np.sum(np.asarray(g.eval(d.probs))))
    got = emp.realized_missing(d, x, g) + emp.realized_observed(d, x, g)
    assert abs(got - total) <= 1e-12


@given(seed=st.integers(min_value=0, max_value=10**6), n=st.integers(min_value=1, max_value=200))
@settings(max_examples=100, deadline=None)
def test_profile_invariants_from_random_samples(seed, n):
    d = dm.geometric(30, 0.25)
    x = dm.sample(d, n, seed=seed)
    prof = emp.profile_from_samples(x)
    assert prof.n == n
    assert sum(l * c for l, c in prof.phi.items()) == n
    assert sum(prof.phi.values()) == np.unique(x).size <= n
