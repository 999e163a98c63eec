import errno
import io
import itertools
import json
import math
import pathlib
import re
import shlex
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from missingmass import cli
from missingmass import empirical as emp
from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass import tail_bounds as tb
from missingmass.errors import InvalidInputError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_table(path):
    """Header and float matrix of a CSV the CLI wrote."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# parsers


def test_parse_eps_grid():
    np.testing.assert_allclose(cli.parse_eps_grid("0:0.2:0.1"), [0.0, 0.1, 0.2])
    np.testing.assert_allclose(cli.parse_eps_grid("0.05,0.1"), [0.05, 0.1])
    grid = cli.parse_eps_grid("0:0.7:0.05")
    assert grid.size == 15 and grid[-1] == pytest.approx(0.7)
    assert cli.parse_eps_grid(f"0:{cli.MAX_EPS_GRID_POINTS - 1}:1").size == cli.MAX_EPS_GRID_POINTS
    # b = a names the one point a, also where b + step/2 rounds to a
    assert cli.parse_eps_grid("5:5:1e-300").tolist() == [5.0]
    assert cli.parse_eps_grid("1e16:1e16:1").tolist() == [1e16]
    # a grid of more than one point is np.arange's, bit for bit
    for a, b, step in ((0.0, 0.7, 0.005), (0.01, 0.3, 0.05)):
        want = np.arange(a, b + 0.5 * step, step)
        assert cli.parse_eps_grid(f"{a}:{b}:{step}").tobytes() == want.tobytes()
    for bad in ("", "0:1", "0:1:0", "1:0:0.1", "-0.1,0.2", "a:b:c",
                "0:nan:0.1", "0:inf:0.1", "nan:1:0.1", "0:1:inf", "nan,0.1", "0.1,inf",
                f"0:{cli.MAX_EPS_GRID_POINTS}:1", "0:1:1e-300"):
        with pytest.raises(InvalidInputError):
            cli.parse_eps_grid(bad)


def test_parse_n_list():
    assert cli.parse_n_list("20,40,80") == [20, 40, 80]
    for bad in ("", "0", "10,x", "-5"):
        with pytest.raises(InvalidInputError):
            cli.parse_n_list(bad)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_tokens_json(tmp_path, capsys):
    f = tmp_path / "toks.txt"
    f.write_text("a\nb\na\nc\na\nb\nd\n")
    code, out, _ = run(capsys, "estimate", "--input", str(f), "--alpha", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7
    assert doc["phi"] == {"1": 2, "2": 1, "3": 1}
    assert doc["good_turing"] == pytest.approx(2.0 / 7.0)
    assert doc["generalized"]["estimate"] == pytest.approx(1.0 / math.comb(7, 2))
    assert doc["generalized"]["bias_bound"] == pytest.approx(8.0 / 49.0)


# Tokens, edge whitespace and line ends of token files: ASCII and Unicode
# whitespace (VT, FF, FS, US, NEL, NBSP, U+2028, U+3000), a BOM, NUL,
# non-ASCII letters, inner spaces and tokens of 9 and 17 bytes.
_TOKENS = ["", "a", "ab", "tok en", "x" * 9, "y" * 17, "\x00", "\u00e9", "\u65e5\u672c",
           "\ufeffa"]
_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\u0085", "\u00a0", "\u2028",
           "\u3000"]
_ENDS = ["\n", "\r", "\r\n"]
_TEXT_PIECES = [t.encode() for t in _TOKENS + _SPACES + _ENDS if t]
# Bytes that are not UTF-8: a stray byte, truncated sequences, a surrogate.
_BAD_PIECES = [b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80"]


def _text_mode_read(path):
    """The reader read_tokens replaces: text-mode lines, stripped and counted."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            counts = Counter(map(str.strip, fh))
    except UnicodeDecodeError as exc:
        return InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})")
    counts.pop("", None)
    if not counts:
        return InvalidInputError(f"no tokens found in {path}")
    return sum(counts.values()), dict(Counter(counts.values()))


def _check_against_text_mode(path, data):
    path.write_bytes(data)
    expected = _text_mode_read(str(path))
    if isinstance(expected, InvalidInputError):
        with pytest.raises(InvalidInputError) as err:
            cli.read_tokens(str(path))
        assert str(err.value) == str(expected)
    else:
        profile = cli.read_tokens(str(path))
        assert (profile.n, profile.phi) == expected


_LINES = st.lists(st.tuples(*map(st.sampled_from, (_SPACES, _TOKENS, _SPACES, _ENDS))),
                  max_size=30)
_BLOCK_SIZES = [1, 2, 3, 5, 8, 13, 64, 1 << 20]
# The reader tests run twice: as they are, where files this small are counted
# on the calling thread, and with _THREAD_BYTES at 0, where every block goes
# to the counting threads.  A tiny block costs a GIL hand-off between
# threads, so the threaded twins of the hypothesis tests draw fewer examples
# and no block under 5 bytes: the calling thread cuts the blocks as it does
# on one thread.
_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _given_lines(blocks):
    return given(lines=_LINES, final_end=st.booleans(), block=st.sampled_from(blocks),
                 mix=st.sampled_from([emp._MIX, np.uint64(0)]))


def _given_pieces(blocks):
    return given(pieces=st.lists(st.sampled_from(_TEXT_PIECES + _BAD_PIECES), max_size=40),
                 block=st.sampled_from(blocks))


def _check_lines(tmp_path, monkeypatch, lines, final_end, block, mix):
    # Small blocks make lines straddle block cuts; a zero mix makes every
    # row of two or more words with equal last words collide in the hash.
    monkeypatch.setattr(emp, "_BLOCK_BYTES", block)
    monkeypatch.setattr(emp, "_MIX", mix)
    text = "".join(map("".join, lines))
    if lines and not final_end:
        text = text[:-len(lines[-1][3])]
    _check_against_text_mode(tmp_path / "t.txt", text.encode())


@settings(max_examples=300, **_SETTINGS)
@_given_lines(_BLOCK_SIZES)
def test_read_tokens_matches_text_mode_reader(tmp_path, monkeypatch, lines, final_end,
                                              block, mix):
    _check_lines(tmp_path, monkeypatch, lines, final_end, block, mix)


@settings(max_examples=25, **_SETTINGS)
@_given_lines(_BLOCK_SIZES[3:])
def test_read_tokens_matches_text_mode_reader_threaded(tmp_path, monkeypatch, lines, final_end,
                                                       block, mix):
    monkeypatch.setattr(emp, "_THREAD_BYTES", 0)
    _check_lines(tmp_path, monkeypatch, lines, final_end, block, mix)


def _check_pieces(tmp_path, monkeypatch, pieces, block):
    monkeypatch.setattr(emp, "_BLOCK_BYTES", block)
    _check_against_text_mode(tmp_path / "t.txt", b"".join(pieces))


@settings(max_examples=200, **_SETTINGS)
@_given_pieces(_BLOCK_SIZES)
def test_read_tokens_utf8_error_matches_text_mode_reader(tmp_path, monkeypatch, pieces, block):
    _check_pieces(tmp_path, monkeypatch, pieces, block)


@settings(max_examples=20, **_SETTINGS)
@_given_pieces(_BLOCK_SIZES[3:])
def test_read_tokens_utf8_error_matches_text_mode_reader_threaded(tmp_path, monkeypatch, pieces,
                                                                  block):
    monkeypatch.setattr(emp, "_THREAD_BYTES", 0)
    _check_pieces(tmp_path, monkeypatch, pieces, block)


_BAD_BYTE_FILES = pytest.mark.parametrize("data", [
    b"ab\ncd\xe2\x82\nef\n", b"ab\ncd\xe2\x82", b"ab\r\n\xffcd\r\n", b"abc\xed\xa0\x80\n",
], ids=["truncated_before_newline", "truncated_at_eof", "stray_byte_after_crlf",
        "surrogate"])


@_BAD_BYTE_FILES
@pytest.mark.parametrize("block", range(1, 12))
def test_read_tokens_bad_byte_at_every_block_cut(tmp_path, monkeypatch, data, block):
    monkeypatch.setattr(emp, "_BLOCK_BYTES", block)
    _check_against_text_mode(tmp_path / "t.txt", data)


# The calling thread checks every block, as on one thread, so the threaded
# twin cuts at three block sizes, not at every one.
@_BAD_BYTE_FILES
@pytest.mark.parametrize("block", [1, 6, 11])
def test_read_tokens_bad_byte_at_every_block_cut_threaded(tmp_path, monkeypatch, data, block):
    monkeypatch.setattr(emp, "_THREAD_BYTES", 0)
    test_read_tokens_bad_byte_at_every_block_cut(tmp_path, monkeypatch, data, block)


def test_read_tokens_long_lines_and_hash_collisions(tmp_path, monkeypatch):
    # Rows of 3 words that differ only in their first word collide under a
    # zero mix; 100 of them, each twice, must still be told apart.
    lines = [f"{i:08d}-shared-suffix!" for i in range(100)] * 2
    path = tmp_path / "t.txt"
    path.write_text("\n".join(lines) + "\n  tail token  ")
    monkeypatch.setattr(emp, "_BLOCK_BYTES", 7)
    for mix in (emp._MIX, np.uint64(0)):
        monkeypatch.setattr(emp, "_MIX", mix)
        profile = cli.read_tokens(str(path))
        assert (profile.n, profile.phi) == (201, {2: 100, 1: 1})


_ROW_ENDS = pytest.mark.parametrize("end", _ENDS, ids=["lf", "cr", "crlf"])
_ROW_FILLS = pytest.mark.parametrize("fill", ["a", "\x00"], ids=["a", "nul"])


@pytest.mark.parametrize("block", [1, 7, 8, 9, 1 << 20])
@_ROW_ENDS
@_ROW_FILLS
def test_read_tokens_row_width_boundaries(tmp_path, monkeypatch, block, end, fill):
    # Tokens of 0-25 bytes cross every width boundary of a row up to four
    # words (8/9, 16/17, 24/25 bytes), bare or with a strippable edge of 1, 2
    # or 3 bytes; the token of L bytes comes 7(L + 1) times, so tokens that
    # merge change phi.
    monkeypatch.setattr(emp, "_BLOCK_BYTES", block)
    lines = []
    for L in range(26):
        token = fill * L
        lines += [token] * (L + 1)
        for edge in (" ", "\u00a0", "\u3000"):
            lines += [edge + token, token + edge] * (L + 1)
    data = "".join(t + end for t in lines).encode()
    _check_against_text_mode(tmp_path / "t.txt", data)
    profile = emp.profile_from_lines(io.BytesIO(data))
    assert (profile.n, profile.phi) == _text_mode_read(str(tmp_path / "t.txt"))


# Small blocks hand a few lines at a time from thread to thread, at 1.8-2.7
# times the cost of counting them inline (blocks of 1, 7 and 256 bytes), so
# the threaded twin cuts the 47-50 KB file every 256 bytes (about 190
# blocks) and not at all, and only with CRLF ends: the calling thread cuts
# the blocks as it does on one thread, so the other ends add nothing here.
@pytest.mark.parametrize("block", [256, 1 << 20])
@_ROW_FILLS
def test_read_tokens_row_width_boundaries_threaded(tmp_path, monkeypatch, block, fill):
    monkeypatch.setattr(emp, "_THREAD_BYTES", 0)
    test_read_tokens_row_width_boundaries(tmp_path, monkeypatch, block, "\r\n", fill)


@pytest.fixture
def six_blocks(tmp_path, monkeypatch):
    """A file of six default blocks of 8-byte lines, so that block k holds
    bytes [(k - 1) B, k B), read on two counting threads from its first block."""
    monkeypatch.setattr(emp, "_THREAD_BYTES", 0)
    monkeypatch.setattr(emp, "_workers", lambda: 2)
    path = tmp_path / "t.txt"
    path.write_bytes(b"".join(b"%07d\n" % (i % 9973) for i in range(6 * emp._BLOCK_BYTES // 8)))
    return path


def _run_joined(call):
    """call() in a thread named "reader", joined with a timeout, so that a
    deadlock fails the test (the thread is a daemon, so it does not hang the
    run); no thread may outlive the call."""
    before = threading.active_count()
    result = []
    runner = threading.Thread(target=lambda: result.append(call()), name="reader", daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the call did not return"
    assert threading.active_count() == before
    return result[0]


def test_failed_read_of_a_threaded_stream_exits_4(six_blocks, monkeypatch, capsys):
    class FailingFile:
        """A binary file whose 4th read raises OSError."""

        def __init__(self, path, mode):
            self.fh, self.reads = open(path, mode), 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size):
            self.reads += 1
            if self.reads == 4:
                raise OSError(errno.EIO, "Input/output error")
            return self.fh.read(size)

    monkeypatch.setattr(cli, "open", FailingFile, raising=False)
    code, out, err = _run_joined(lambda: run(capsys, "estimate", "--input", str(six_blocks)))
    assert (code, out, err) == (4, "", "i/o failure: [Errno 5] Input/output error\n")


def test_bad_byte_in_the_fifth_threaded_block_exits_2(six_blocks, monkeypatch, capsys):
    data = bytearray(six_blocks.read_bytes())
    data[4 * emp._BLOCK_BYTES + 100] = 0xFF
    six_blocks.write_bytes(bytes(data))
    code, out, err = _run_joined(lambda: run(capsys, "estimate", "--input", str(six_blocks)))
    monkeypatch.setattr(emp, "_workers", lambda: 1)
    assert run(capsys, "estimate", "--input", str(six_blocks)) == (code, out, err)
    expected = _text_mode_read(str(six_blocks))
    assert (code, out, err) == (2, "", f"error: {expected}\n")


@pytest.mark.parametrize("method", ["add", "_tables"])
def test_memory_error_in_a_counting_thread_exits_3(six_blocks, monkeypatch, capsys, method):
    # A MemoryError from a counting thread's third add, or from the regroup
    # it runs when the stream ends, reaches the reading thread.
    original, calls, raised_on = getattr(emp._LineCounts, method), itertools.count(1), []

    def failing(self, *args):
        thread = threading.current_thread().name
        if thread != "reader" and next(calls) == (3 if method == "add" else 1):
            raised_on.append(thread)
            raise MemoryError("injected")
        return original(self, *args)

    monkeypatch.setattr(emp._LineCounts, method, failing)
    code, out, err = _run_joined(lambda: run(capsys, "estimate", "--input", str(six_blocks)))
    assert (code, out, err) == (3, "", "out of memory: injected\n")
    assert len(raised_on) == 1


def test_estimate_blank_tokens_file_exits_2(tmp_path, capsys):
    f = tmp_path / "blank.txt"
    f.write_bytes(" \n\t\r\n\r\x0b\n\u3000\u00a0\n".encode())
    code, _, err = run(capsys, "estimate", "--input", str(f))
    assert code == 2
    assert f"no tokens found in {f}" in err


def test_estimate_counts_format(tmp_path, capsys):
    f = tmp_path / "counts.csv"
    f.write_text("token,count\nalpha,3\nbeta,2\ngamma,1\ndelta,1\n")
    code, out, _ = run(capsys, "estimate", "--input", str(f), "--format", "counts")
    assert code == 0
    assert json.loads(out)["good_turing"] == pytest.approx(2.0 / 7.0)


@pytest.mark.parametrize("text", [
    "\ntoken,count\nalpha,3\nbeta,2\ngamma,1\ndelta,1\n",
    "alpha,3\n\nbeta,2\ngamma,1\ndelta,1\n",
], ids=["blank_line_before_header", "no_header"])
def test_estimate_counts_header_rule(tmp_path, capsys, text):
    f = tmp_path / "counts.csv"
    f.write_text(text)
    code, out, err = run(capsys, "estimate", "--input", str(f), "--format", "counts")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["n"] == 7
    assert doc["good_turing"] == pytest.approx(2.0 / 7.0)


def test_estimate_phi_roundtrip(tmp_path, capsys):
    toks = tmp_path / "toks.txt"
    toks.write_text("x\ny\nx\nz\nx\ny\nw\n")
    phi_csv = tmp_path / "phi.csv"
    code, first, _ = run(capsys, "estimate", "--input", str(toks),
                         "--emit-phi", str(phi_csv))
    assert code == 0
    code, second, _ = run(capsys, "estimate", "--input", str(phi_csv),
                          "--format", "phi", "--n", "7")
    assert code == 0
    a, b = json.loads(first), json.loads(second)
    assert a["phi"] == b["phi"]
    assert a["good_turing"] == b["good_turing"]


def test_estimate_inconsistent_phi_exits_2(tmp_path, capsys):
    f = tmp_path / "phi.csv"
    f.write_text("l,phi_l\n1,2\n2,1\n")
    code, _, err = run(capsys, "estimate", "--input", str(f), "--format", "phi", "--n", "9")
    assert code == 2
    assert "inconsistent" in err


def test_estimate_phi_derives_n(tmp_path, capsys):
    # without --n the sample size is sum l*phi_l; a --n that agrees changes nothing
    f = tmp_path / "phi.csv"
    f.write_text("1,2\n3,1\n")
    code, out, _ = run(capsys, "estimate", "--input", str(f), "--format", "phi")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 5 and doc["good_turing"] == 2.0 / 5.0
    code, again, _ = run(capsys, "estimate", "--input", str(f), "--format", "phi", "--n", "5")
    assert code == 0 and again == out


def test_estimate_missing_file_exits_4(capsys):
    code, _, err = run(capsys, "estimate", "--input", "/nonexistent/toks.txt")
    assert code == 4
    assert "i/o" in err


def test_estimate_out_of_regime_exits_3(tmp_path, capsys):
    f = tmp_path / "toks.txt"
    f.write_text("a\nb\na\nc\na\nb\nd\n")
    code, _, err = run(capsys, "estimate", "--input", str(f),
                       "--alpha", "2", "--eps", "0.1")
    assert code == 3
    assert "regime" in err


def test_estimate_clamp(tmp_path, capsys):
    # n = 1 with one singleton gives phi_1/n = 1, the top of [0, 1]:
    # estimates need no clamp, and the retired --clamp flag is a usage error
    f = tmp_path / "toks.txt"
    f.write_text("solo\n")
    code, out, _ = run(capsys, "estimate", "--input", str(f))
    assert code == 0
    assert json.loads(out)["good_turing"] == 1.0
    assert run(capsys, "estimate", "--input", str(f), "--clamp")[0] == 2


def _finite_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def tokens_3000(tmp_path):
    f = tmp_path / "toks.txt"
    f.write_text("".join(f"tok{i % 500}\n" for i in range(3000)))
    return str(f)


def test_estimate_large_alpha_bias_bound(tokens_3000, capsys):
    # alpha^(alpha+1) / n^alpha is about 1.9e-146, though n^alpha overflows
    code, out, _ = run(capsys, "estimate", "--input", tokens_3000, "--alpha", "100")
    assert code == 0
    bias = _finite_json(out)["generalized"]["bias_bound"]
    assert bias == pytest.approx(math.exp(101 * math.log(100) - 100 * math.log(3000)),
                                 rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha", ["50", "87", "1000"])
def test_estimate_large_alpha_deviation_bounds(alpha, tokens_3000, capsys):
    # n^(2 alpha - 1) overflows in both closed-form tails, from alpha = 87 on
    # gamma_alpha too, and from alpha = 1026 on the right tail's constant a
    code, out, err = run(capsys, "estimate", "--input", tokens_3000, "--alpha", alpha,
                         "--eps", "0.1")
    assert code == 0, err
    dev = _finite_json(out)["deviation_bounds"]
    assert all(0.0 <= b <= 1.0 for b in dev["right"] + dev["left"])


def test_estimate_deviation_bounds(tmp_path, capsys):
    f = tmp_path / "toks.txt"
    f.write_text("".join(f"tok{i}\n" for i in range(30)))
    code, out, _ = run(capsys, "estimate", "--input", str(f), "--eps", "0.05,0.2")
    assert code == 0
    doc = json.loads(out)
    dev = doc["deviation_bounds"]
    assert dev["eps"] == [0.05, 0.2]
    assert dev["g"] == "power:1"
    assert dev["right"][0] == tb.curve("right_corollary", 30, gf.power(1.0), [0.05])["bound"][0]
    assert dev["left"][1] == tb.curve("left_corollary", 30, gf.power(1.0), [0.2])["bound"][0]


# ---------------------------------------------------------------------------
# fig1 / bounds / ustar


def test_fig1_writes_reference_curves(tmp_path, capsys):
    code, out, _ = run(capsys, "fig1", "--outdir", str(tmp_path))
    assert code == 0
    for n in (20, 100, 1000):
        header, data = read_table(tmp_path / f"tail_curves_n{n}.csv")
        assert header == ["eps", "subgauss", "r2", "r5"]
        assert data.shape == (15, 4)
        np.testing.assert_allclose(data[:, 0], np.arange(15) * 0.05, atol=1e-12)
        np.testing.assert_allclose(data[:, 1], np.minimum(1.0, np.exp(-n * data[:, 0] ** 2)), rtol=1e-12)


def test_fig1_outdir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code, _, _ = run(capsys, "fig1")
    assert code == 0
    assert (tmp_path / "tail_curves_n20.csv").exists()


def test_fig1_relative_outdir_resolves_against_the_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "base"))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "fig1", "--outdir", "rel")
    assert code == 0
    want = tmp_path / "base" / "rel"
    assert out.splitlines() == [str(want / f"tail_curves_n{n}.csv") for n in (20, 100, 1000)]
    assert all((want / f"tail_curves_n{n}.csv").exists() for n in (20, 100, 1000))
    assert not (tmp_path / "rel").exists()


def test_bounds_csv_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "b.csv"
    code, _, _ = run(capsys, "bounds", "--family", "ssg", "--g", "power:1",
                     "--n", "50", "--eps-grid", "0:0.3:0.05", "--path", str(out_path))
    assert code == 0
    header, data = read_table(out_path)
    assert header == ["eps", "bound", "exponent"]
    curve = tb.curve("ssg", 50, gf.power(1.0), data[:, 0])
    np.testing.assert_allclose(data[:, 1], curve["bound"], rtol=1e-14)
    np.testing.assert_allclose(data[:, 2], curve["exponent"], rtol=1e-14)


def test_bounds_json_format(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "subgauss", "--g", "power:1",
                       "--n", "20", "--eps-grid", "0.1,0.2", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "subgauss"
    assert doc["columns"] == ["eps", "bound", "exponent"]
    assert doc["rows"][0][1] == pytest.approx(math.exp(-20 * 0.01))


@pytest.mark.parametrize("alpha", ["0.5", "0.01"])
@pytest.mark.parametrize("family", ["subgauss", "theorem2", "left_u2", "left_corollary",
                                    "right_corollary", "ssg", "subgamma", "poly:2", "poly:5"])
def test_bounds_rejects_small_power(family, alpha, capsys):
    # every family bounds g with g(p)/p bounded, subgauss and left_u2 included
    code, out, err = run(capsys, "bounds", "--family", family, "--g", f"power:{alpha}",
                         "--n", "50", "--eps-grid", "0.1,0.2")
    assert code == 2
    assert out == "" and "unbounded near 0" in err


@pytest.mark.parametrize("g", ["power:2", "power:1.5", "entropy:64", "entropy:2"])
def test_subgauss_bounds_only_the_missing_mass(g, capsys):
    # simulation exceeds exp(-n eps^2) for entropy g, so no other g gets it
    code, out, err = run(capsys, "bounds", "--family", "subgauss", "--g", g,
                         "--n", "100", "--eps-grid", "0.2")
    assert (code, out) == (3, "") and "power:1 only" in err


@pytest.mark.parametrize("family,g", [("left_corollary", "power:1e308"),
                                      ("right_corollary", "power:1e306"),
                                      ("theorem2", "power:1.0000000000000002e300")])
def test_bounds_reject_power_alpha_past_its_cap(family, g, capsys):
    # the closed-form tails printed NaN here; alpha > 1e300 is refused up front
    code, out, err = run(capsys, "bounds", "--family", family, "--g", g,
                         "--n", "100", "--eps-grid", "0.1")
    assert (code, out) == (2, "") and "alpha <= 1e300" in err


@pytest.mark.parametrize("family", ["theorem2", "left_u2", "left_corollary", "right_corollary"])
@pytest.mark.parametrize("n", ["3", "20", "100", "10000", "100000000"])
def test_bounds_at_the_largest_power_alpha_are_never_nan(family, n, capsys):
    code, out, err = run(capsys, "bounds", "--family", family, "--g", "power:1e300",
                         "--n", n, "--eps-grid", "0,0.1,1,1e308")
    if code == 3:  # right_corollary needs n > 1 + b1^2 = 5
        assert (family, n) == ("right_corollary", "3")
        return
    assert code == 0, err
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 4 and not np.isnan(rows).any()


def test_json_meta_echoes_descriptors_exactly(capsys):
    code, out, err = run(capsys, "bounds", "--family", "theorem2", "--g", "power:1.23456789",
                         "--n", "100", "--eps-grid", "0.1", "--out", "json")
    assert code == 0, err
    assert json.loads(out)["g"] == "power:1.23456789"
    code, out, err = run(capsys, "simulate", "--task", "tail", "--g", "power:1",
                         "--dist", "zipf:50:1.23456789", "--n-list", "20",
                         "--trials", "1000", "--eps-grid", "0.1", "--out", "json")
    assert code == 0, err
    assert json.loads(out)["dist"] == "zipf:50:1.23456789"


@pytest.mark.parametrize("spelling,canonical", [("poly:1_0", "poly:10"), ("poly:+2", "poly:2"),
                                                ("poly:\u0662", "poly:2"), ("poly:02", "poly:2")])
def test_json_meta_prints_the_canonical_family(spelling, canonical, capsys):
    # every spelling int() reads names the same family, and meta prints it as
    # the table does, as it prints g and dist
    args = ("--g", "power:1", "--n", "50", "--eps-grid", "0.1,0.3")
    outputs = []
    for family in (spelling, canonical):
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, "bounds", "--family", family, *args, "--out", fmt)
            assert code == 0, err
            outputs.append(out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]
    assert json.loads(outputs[1])["family"] == canonical


def test_bounds_regime_exit(capsys):
    code, _, err = run(capsys, "bounds", "--family", "ssg", "--g", "power:1",
                       "--n", "2", "--eps-grid", "0.1,0.2")
    assert code == 3


@pytest.mark.parametrize("g,n", [("power:1", "3"), ("power:2", "30"), ("entropy:64", "30")])
@pytest.mark.parametrize("family", ["subgauss", "theorem2", "left_u2", "left_corollary",
                                    "right_corollary", "ssg", "subgamma", "poly:1", "poly:2"])
def test_bounds_at_huge_eps_are_zero_never_nan(family, g, n, capsys):
    # eps/c overflows in the Gamma-type exponents, and A*eps in the printed
    # right tails: inf, as on the others; subgauss bounds power:1 only
    code, out, err = run(capsys, "bounds", "--family", family, "--g", g,
                         "--n", n, "--eps-grid", "1e308,1e300")
    if family == "subgauss" and g != "power:1":
        assert (code, out) == (3, "") and "power:1 only" in err
        return
    assert code == 0, err
    lines = out.splitlines()
    assert lines[:2] == ["eps,bound,exponent", "1e+308,0,inf"]
    eps, bound, exponent = (float(x) for x in lines[2].split(","))
    assert (eps, bound) == (1e300, 0.0) and exponent > 1e299


@pytest.mark.parametrize("family", ["ssg", "subgamma", "poly:2", "right_corollary"])
def test_bounds_where_four_alpha_squared_overflows(family, capsys):
    # alpha = 1e160: 4 alpha^2/(alpha-1)^2 overflows, 2 alpha/(alpha-1) does
    # not; the spec families then meet a v below the normal doubles
    code, out, err = run(capsys, "bounds", "--family", family, "--g", "power:1e160",
                         "--n", "100", "--eps-grid", "0.1")
    if family == "right_corollary":
        assert code == 0, err
        assert out.splitlines()[1].startswith("0.1,1,")
    else:
        assert code == 5
        assert "v is not a normal double" in err


def test_sub_gamma_exponent_stays_finite_where_its_square_overflows(capsys):
    # x = c*eps/v is about 1e301 here: finite, but x*x is not
    rows = {}
    for family in ("ssg", "subgamma"):
        code, out, err = run(capsys, "bounds", "--family", family, "--g", "power:1",
                             "--n", "3", "--eps-grid", "1e300")
        assert code == 0, err
        rows[family] = out.splitlines()[1]
    assert rows["subgamma"] == rows["ssg"] == "1e+300,0,3.33333333333333e+300"
    # here x is finite but 1 + 2x is not: the exponent overflows, never NaN
    code, out, err = run(capsys, "bounds", "--family", "subgamma", "--g", "entropy:64",
                         "--n", "3", "--eps-grid", "1e308")
    assert code == 0, err
    assert out.splitlines()[1] == "1e+308,0,inf"


def test_gamma_type_exponents_stay_finite_where_the_ratio_overflows(capsys):
    # c*eps/v overflows at power:2, n = 100, but eps/c does not: the order-1
    # families print the finite limit eps/c, as the poly:2 pole does
    rows = set()
    for family in ("ssg", "subgamma", "poly:2"):
        code, out, err = run(capsys, "bounds", "--family", family, "--g", "power:2",
                             "--n", "100", "--eps-grid", "1e305")
        assert code == 0, err
        rows.add(out.splitlines()[1])
    assert rows == {"1e+305,0,1.9391385703095e+307"}


def test_csv_row_in_one_step_matches_per_value_formatting():
    rows = [[0.1, np.float64(1.0) / 3.0, 7, np.int64(-3)],
            [math.inf, -0.0, 5e-324, -math.inf],
            [1e308, np.float32(0.1), 2.5e-310, math.nan]]
    oracle = "a,b,c,d\n" + "".join(
        ",".join("%.15g" % float(v) for v in row) + "\n" for row in rows)
    assert cli._table(["a", "b", "c", "d"], rows, "csv") == oracle


@pytest.mark.parametrize("argv,exponent", [
    ("--family ssg --g power:1 --n 3 --eps-grid 1e308", "inf"),
    # alpha = 2000 at n = 6: the second term of the closed form is about e^1387
    ("--family right_corollary --g power:2000 --n 6 --eps-grid 0.1", "-inf"),
])
def test_bounds_json_is_strict_at_infinite_exponents(argv, exponent, capsys):
    code, out, err = run(capsys, "bounds", *argv.split(), "--out", "json")
    assert code == 0, err
    (row,) = _finite_json(out)["rows"]
    assert row[2] == exponent
    assert row[1] == (0.0 if exponent == "inf" else 1.0)


#: simulate --task tail bound column -> the bounds --family that prints it.
_TAIL_COLUMN_FAMILIES = {
    "right_subgauss_519": "theorem2",
    "left_subgauss_519": "theorem2",
    "left_exact_u2": "left_u2",
    "right_poly_r2": "poly:2",
    "left_corollary": "left_corollary",
    "right_corollary": "right_corollary",
}


@pytest.mark.parametrize("n", ["20", "100"])
@pytest.mark.parametrize("g", ["power:1", "power:2", "entropy:64"])
def test_bounds_families_reproduce_tail_columns(g, n, capsys):
    grid = "0.01:0.3:0.05"
    code, out, err = run(capsys, "simulate", "--task", "tail", "--g", g, "--dist", "uniform:10",
                         "--n-list", n, "--trials", "1000", "--eps-grid", grid, "--out", "json")
    assert code == 0, err
    doc = _finite_json(out)
    columns = [list(col) for col in zip(*doc["rows"])]
    table = dict(zip(doc["columns"], columns))
    assert set(_TAIL_COLUMN_FAMILIES) <= set(table)
    for name, family in _TAIL_COLUMN_FAMILIES.items():
        code, out, err = run(capsys, "bounds", "--family", family, "--g", g, "--n", n,
                             "--eps-grid", grid, "--out", "json")
        assert code == 0, err
        rows = _finite_json(out)["rows"]
        assert [r[0] for r in rows] == table["eps"]
        assert [r[1] for r in rows] == table[name], name


def test_parser_built_once_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    args = ("bounds", "--family", "poly:2", "--g", "power:1", "--n", "50",
            "--eps-grid", "0.1,0.2")
    code, csv_out, _ = run(capsys, *args)
    assert code == 0 and csv_out.startswith("eps,bound,exponent\n")
    code, json_out, _ = run(capsys, *args, "--out", "json")
    assert code == 0 and json.loads(json_out)["columns"] == ["eps", "bound", "exponent"]
    code, filed, _ = run(capsys, *args, "--path", str(tmp_path / "b.csv"))
    assert code == 0 and filed == ""
    assert cli.main(["bounds", "--family", "poly:2", "--g", "power:1"]) == 2  # no --n
    assert cli.main(["nosuchcommand"]) == 2
    capsys.readouterr()
    # no --out and no --path: CSV on stdout again
    assert run(capsys, *args) == (0, csv_out, "")
    assert (tmp_path / "b.csv").read_text(encoding="utf-8") == csv_out


@pytest.mark.parametrize("family,n", [("poly:2", 702), ("poly:2", 10000),
                                      ("poly:5", 143), ("poly:5", 10000)])
def test_bounds_near_pole_cells(family, n, capsys):
    # power:2 cells whose Chernoff root lies next to the pole 1/c
    code, out, err = run(capsys, "bounds", "--family", family, "--g", "power:2",
                         "--n", str(n), "--eps-grid", "0:0.7:0.005")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "eps,bound,exponent"
    bound = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert bound.size == 141
    assert np.all((bound >= 0.0) & (bound <= 1.0))
    assert np.all(np.diff(bound) <= 0.0)


@pytest.mark.parametrize("family,g,n", [
    ("poly:133", "power:1", 3), ("poly:169", "power:1", 10),
    ("poly:120", "power:2", 1000), ("poly:170", "entropy:64", 100),
])
def test_high_filter_orders_exit_0_or_5(family, g, n, capsys):
    # v ~ 4e-164 (s^2 underflows in the Newton solve) or c^(R-1) underflows
    code, _, err = run(capsys, "bounds", "--family", family, "--g", g,
                       "--n", str(n), "--eps-grid", "0.1,0.3")
    assert code in (0, 5), err
    if code == 5:
        assert err.startswith("numerical failure:")


@pytest.mark.parametrize("R", range(164, 171))
def test_high_filter_orders_where_u_star_underflows_exit_0(R, capsys):
    # power:2, n = 1000: u*_(R+1) is subnormal or 0 from R = 164 on (log u*_165
    # = -743.8), but v is normal; the bound is the one that order 163 has reached
    bounds = []
    for family in ("poly:163", f"poly:{R}"):
        code, out, err = run(capsys, "bounds", "--family", family, "--g", "power:2",
                             "--n", "1000", "--eps-grid", "0.1,0.3")
        assert code == 0, err
        bounds.append([float(line.split(",")[1]) for line in out.splitlines()[1:]])
    assert bounds[1] == pytest.approx(bounds[0], rel=1e-12, abs=0)


def test_high_filter_order_with_zero_coefficients_gives_a_bound(capsys):
    # 39 of the 119 a_r underflow to 0 and l^(r-2) overflows: 0 * inf was NaN
    code, out, err = run(capsys, "bounds", "--family", "poly:120", "--g", "power:2",
                         "--n", "1000", "--eps-grid", "0.1,0.3")
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(r[1]) for r in rows] == pytest.approx([2.53013630061465e-87,
                                                         1.61140353742407e-260], rel=1e-9, abs=0)


def test_numerical_failure_exits_5(capsys, monkeypatch):
    # NaN derivatives: the solve's own residual check fails inside curve
    monkeypatch.setattr(tb, "_filter_derivs", lambda a, v, c, s: (math.nan, math.nan))
    code, _, err = run(capsys, "bounds", "--family", "poly:2", "--g", "power:1",
                       "--n", "50", "--eps-grid", "0.1")
    assert code == 5
    assert err.startswith("numerical failure:")


@pytest.mark.parametrize("command", [
    "bounds --family subgamma --g power:2e154 --n 20 --eps-grid 0.1",
    "simulate --task dirichlet --alpha 1 --c 1e300 --n-list 20 --trials 0",
], ids=["scale_parameter", "dirichlet_huge_support"])
def test_overflow_exits_5(command, capsys):
    code, out, err = run(capsys, *shlex.split(command))
    assert code == 5
    assert out == ""
    assert err.startswith("numerical failure:") and err.count("\n") == 1


@pytest.mark.parametrize("alpha,want", [(99, 1.7696023154867586e-46), (100, 1.2264161151994913e-46)])
def test_dirichlet_prior_variance_where_a5_overflows(alpha, want, capsys):
    # A5 alone passes the double range here; T is the 50-digit mpmath value
    code, out, err = run(capsys, "simulate", "--task", "dirichlet", "--alpha", str(alpha),
                         "--c", "1", "--n-list", "20", "--trials", "0")
    assert code == 0, err
    assert out.splitlines()[0] == "n,variance"
    n, variance = out.splitlines()[1].split(",")
    assert n == "20" and float(variance) == pytest.approx(want, rel=1e-13, abs=0)


def test_dirichlet_at_two_letters_exits_0(capsys):
    # k = round(c n^2) = 2: A4 = 0, and T = k A1 (A2 - A3) = 5/192
    code, out, err = run(capsys, "simulate", "--task", "dirichlet", "--alpha", "1",
                         "--c", "0.5", "--n-list", "2", "--trials", "0")
    assert (code, err) == (0, "")
    assert out == "n,variance\n2,0.0260416666666667\n"


def test_dirichlet_cancellation_exits_5(capsys):
    # at c = 1e10 the two terms of the closed form cancel to rounding noise,
    # which at n = 200 comes out as a negative variance, -4.485e-15
    code, out, err = run(capsys, "simulate", "--task", "dirichlet", "--alpha", "1",
                         "--c", "1e10", "--n-list", "20,200", "--trials", "0")
    assert code == 5
    assert out == ""
    assert err.startswith("numerical failure:") and "cancel" in err


def test_ustar_json(capsys):
    code, out, _ = run(capsys, "ustar", "--g", "power:1", "--n", "20", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.012562256919262382, rel=1e-10)
    assert 0.0 < doc["argmax"] < 1.0
    assert doc["n"] == 20 and doc["r"] == 2


def test_ustar_underflowed_on_whole_grid_exits_5(capsys):
    # u*_r underflows to 0: only its log is known, so no value is printed
    code, out, err = run(capsys, "ustar", "--g", "power:1", "--n", "20",
                         "--r", "1000000000000000")
    assert code == 5
    assert out == ""
    assert err.startswith("numerical failure:") and "underflows to 0" in err


def test_argparse_errors_exit_2(capsys):
    assert cli.main(["ustar", "--g", "power:1", "--n", "20"]) == 2  # missing --r
    assert cli.main(["ustar", "--g", "power:1", "--n", "20", "--r", "2",
                     "--tol", "1e-9"]) == 2
    assert cli.main(["nosuchcommand"]) == 2
    capsys.readouterr()


_TAIL_ON_FILE = "simulate --task tail --g power:1 --dist explicit:{f} --n-list 5 --trials 1000"


@pytest.mark.parametrize("command,name,data", [
    ("bounds --family subgauss --g power:1 --n 0 --eps-grid 0.1", None, None),
    ("simulate --task dirichlet --alpha 1 --c inf --n-list 20 --trials 0", None, None),
    (_TAIL_ON_FILE, "p.json", b"[0.5, 0.5"),
    (_TAIL_ON_FILE, "p.json", b'{"p": 1}'),
    (_TAIL_ON_FILE, "p.json", b'["0.5", "0.5"]'),
    (_TAIL_ON_FILE, "p.csv", b"0.5\nx\n"),
    (_TAIL_ON_FILE, "p.csv", b"\xff0.5\n0.5\n"),
    ("estimate --input {f}", "t.txt", b"a\n\xff\n"),
    ("estimate --input {f} --format counts", "c.csv", b"a,1\n\xff,2\n"),
    ("bounds --family subgauss --g power:1 --n 10 --eps-grid 0:1e9:1e-9", None, None),
    ("bounds --family poly:171 --g power:1 --n 10 --eps-grid 0.1", None, None),
    ("bounds --family poly:100000 --g power:1 --n 10 --eps-grid 0.1", None, None),
    ("estimate --input {f} --format counts", "c.csv", b"a,2.5\nb,3\n"),
    ("simulate --task tail --g power:1 --dist uniform:10 --n-list 5 --trials 1000 --seed -1",
     None, None),
    ("simulate --task risk --g power:1 --dist uniform:10 --n-list 5 --trials 200 --seed -1",
     None, None),
    ("simulate --task dirichlet --alpha 1 --n-list 5 --trials 200 --seed -1", None, None),
    ("simulate --task dirichlet --alpha 1 --n-list 5 --trials -1", None, None),
], ids=["n_zero", "dirichlet_c_inf", "dist_json", "dist_json_object",
        "dist_json_quoted_numbers", "dist_csv", "dist_non_utf8", "tokens_non_utf8", "counts_non_utf8",
        "eps_grid_too_long", "poly_order_171", "poly_order_huge",
        "counts_fractional_first_row", "seed_negative_tail", "seed_negative_risk",
        "seed_negative_dirichlet", "trials_negative_dirichlet"])
def test_bad_input_exits_2(command, name, data, tmp_path, capsys):
    if name is not None:
        (tmp_path / name).write_bytes(data)
        command = command.format(f=tmp_path / name)
    code, _, err = run(capsys, *shlex.split(command))
    assert code == 2
    assert err.startswith("error:")


_COUNTS = "estimate --input {f} --format counts"
_PHI = "estimate --input {f} --format phi"
_TAIL_ON = "simulate --task tail --g power:1 --n-list 20 --trials 1000 --dist "


@pytest.mark.parametrize("command,data,code,message", [
    ("simulate --task risk --estimator generalized --g entropy:64 --dist uniform:64 "
     "--n-list 20 --trials 100", None, 2, "error: generalized estimator needs --alpha"),
    ("simulate --task dirichlet --n-list 10 --trials 100", None, 2,
     "error: --task dirichlet requires --alpha"),
    ("simulate --task dirichlet --alpha 1 --n-list 10 --trials 50", None, 2,
     "error: trials must be an integer >= 100, got 50"),
    ("simulate --task risk --g power:3 --dist uniform:10 --n-list 2 --trials 100", None, 3,
     "out of regime: n = 2 < alpha = 3"),
    ("bounds --family right_corollary --g power:1 --n 2 --eps-grid 0.1", None, 3,
     "out of regime: m0 right tail needs n >= 3"),
    ("bounds --family right_corollary --g entropy:64 --n 2 --eps-grid 0.1", None, 3,
     "out of regime: entropy right tail needs n >= 3"),
    (_COUNTS, b"k,c\na,1\na,2\n", 2, "duplicate key 'a'"),
    (_COUNTS, b"a,1,2\n", 2, "expected two comma-separated fields, got 'a,1,2'"),
    (_COUNTS, b"key,count\n", 2, "no counts found in"),
    (_PHI, b"l,phi_l\n", 2, "no sample found in"),
    (_PHI, b"l,phi_l\n1,0\n", 2, "no sample found in"),
    (_TAIL_ON + "uniform:0", None, 2, "error: K must be an integer >= 1, got 0"),
    (_TAIL_ON + "zipf:0:1", None, 2, "error: K must be an integer >= 1, got 0"),
    (_TAIL_ON + "zipf:10:0", None, 2, "error: zipf requires s > 0"),
    (_TAIL_ON + "geometric:0:0.5", None, 2, "error: K must be an integer >= 1, got 0"),
    (_TAIL_ON + "geometric:5:1.5", None, 2, "error: geometric requires q in (0, 1)"),
    ("bounds --family theorem2 --g power:1 --n 20 --eps-grid 0:1.7976931348623157e308:1e308",
     None, 2, "error: grid spec '0:1.7976931348623157e308:1e308': b + step/2 is past"),
], ids=["generalized_without_alpha", "dirichlet_without_alpha", "dirichlet_few_trials",
        "risk_n_below_alpha", "m0_right_tail_n2", "entropy_right_tail_n2",
        "counts_duplicate_key", "counts_three_fields", "counts_header_only",
        "phi_header_only", "phi_sums_to_zero",
        "uniform_k0", "zipf_k0", "zipf_s0", "geometric_k0", "geometric_q_above_1",
        "eps_grid_end_overflows"])
def test_input_and_regime_exits(command, data, code, message, tmp_path, capsys):
    if data is not None:
        (tmp_path / "c.csv").write_bytes(data)
        command = command.format(f=tmp_path / "c.csv")
    got, out, err = run(capsys, *shlex.split(command))
    assert (got, out) == (code, "")
    assert message in err


def test_simulate_risk_runs_the_plugin_estimator(capsys):
    code, out, err = run(capsys, "simulate", "--task", "risk", "--estimator", "plugin",
                         "--g", "power:1", "--dist", "uniform:10", "--n-list", "20",
                         "--trials", "100", "--out", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["estimator"] == "plugin"
    assert doc["columns"] == ["n", "trials", "mse", "se"] and len(doc["rows"]) == 1


@pytest.mark.parametrize("command", [
    "simulate --task tail --g power:1 --dist nope:3 --n-list 20",
    "simulate --task risk --dist uniform:10 --n-list 20",
], ids=["bad_dist", "risk_without_g"])
def test_simulate_bad_input_leaves_path_alone(command, tmp_path, capsys):
    kept = tmp_path / "keep.csv"
    kept.write_bytes(b"n,mse\n1,2\n")
    code, _, _ = run(capsys, *shlex.split(command), "--path", str(kept))
    assert code == 2
    assert kept.read_bytes() == b"n,mse\n1,2\n"
    fresh = tmp_path / "fresh.csv"
    code, _, _ = run(capsys, *shlex.split(command), "--path", str(fresh))
    assert code == 2
    assert not fresh.exists()


def test_estimate_failure_writes_no_phi(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("a\nb\nb\n")
    phi = tmp_path / "phi.csv"
    code, _, _ = run(capsys, "estimate", "--input", str(f), "--alpha", "5",
                     "--eps", "0.1", "--emit-phi", str(phi))
    assert code == 3
    assert not phi.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_dirichlet_decreasing(capsys):
    code, out, _ = run(capsys, "simulate", "--task", "dirichlet", "--alpha", "1",
                       "--c", "1", "--n-list", "20,40,80", "--trials", "0")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0] == "n,variance"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(vals) == 3
    assert vals[2] < vals[1] < vals[0]


def test_simulate_risk_seed_and_thread_determinism(tmp_path, capsys):
    args = ("simulate", "--task", "risk", "--g", "power:1", "--dist", "uniform:30",
            "--n-list", "10,20", "--trials", "300", "--seed", "3")
    code, a, _ = run(capsys, *args, "--threads", "1")
    assert code == 0
    code, b, _ = run(capsys, *args, "--threads", "4")
    assert code == 0
    assert a == b


def test_simulate_risk_json_meta(capsys):
    code, out, _ = run(capsys, "simulate", "--task", "risk", "--g", "power:2",
                       "--dist", "uniform:15", "--n-list", "10,20,40",
                       "--trials", "300", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["estimator"] == "generalized:2"
    assert doc["columns"] == ["n", "trials", "mse", "se"]
    assert "slope" in doc and len(doc["rows"]) == 3


def test_simulate_risk_json_reports_rate_for_three_sizes(capsys):
    code, out, _ = run(capsys, "simulate", "--task", "risk", "--g", "power:1",
                       "--dist", "uniform:20", "--n-list", "10,20,40",
                       "--estimator", "goodturing", "--trials", "300", "--seed", "2",
                       "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert math.isfinite(doc["slope"])
    assert (doc["slope"], doc["intercept"]) == rl.rate_fit(
        [(n, mse) for n, _, mse, _ in doc["rows"]])
    assert doc["estimator"] == "good_turing"
    assert doc["dist"] == "uniform:20"


def test_simulate_risk_json_has_no_rate_below_three_sizes(capsys):
    code, out, _ = run(capsys, "simulate", "--task", "risk", "--g", "power:1",
                       "--dist", "uniform:20", "--n-list", "10,20", "--trials", "300",
                       "--out", "json")
    assert code == 0
    assert "slope" not in json.loads(out)


# Each asks for an array of at least 10^15 elements, beyond any 48-bit
# address space, so numpy refuses it before touching memory: with a
# MemoryError at 10^15, and with a ValueError at 2^60 and 10^20, sizes it
# cannot address.
@pytest.mark.parametrize("command", [
    "--task tail --g power:1 --dist uniform:10 --n-list 1000000000000000 --trials 1000",
    "--task tail --g power:1 --dist uniform:10 --n-list 5 --trials 1000000000000000",
    "--task tail --g power:1 --dist uniform:1000000000000000 --n-list 5 --trials 1000",
    "--task dirichlet --alpha 1 --n-list 1000000000000000 --trials 0",
    "--task risk --g power:1 --dist uniform:10 --n-list 1152921504606846976 --trials 100",
    "--task tail --g power:1 --dist uniform:10 --n-list 100000000000000000000 --trials 1000",
    "--task tail --g power:1 --dist uniform:10 --n-list 5 --trials 100000000000000000000",
    "--task tail --g power:1 --dist uniform:100000000000000000000 --n-list 5 --trials 1000",
    "--task tail --g power:1 --dist geometric:1152921504606846976:0.5 --n-list 5 --trials 1000",
    "--task dirichlet --alpha 100000000000000000000 --n-list 5 --trials 100",
], ids=["n", "trials", "support", "dirichlet_n", "risk_n_2e60", "n_1e20", "trials_1e20",
        "support_1e20", "geometric_support_2e60", "dirichlet_alpha_1e20"])
def test_simulate_unallocatable_array_exits_3(command, tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, "simulate", *command.split(), "--path", str(out_path))
    assert code == 3 and out == ""
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_simulate_tail_columns(capsys):
    code, out, _ = run(capsys, "simulate", "--task", "tail", "--g", "power:1",
                       "--dist", "uniform:25", "--n-list", "15",
                       "--trials", "1500", "--eps-grid", "0.05,0.2")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["n", "eps", "right_freq", "right_se", "left_freq", "left_se"]
    assert "right_poly_r2" in header and "left_exact_u2" in header
    assert len(lines) == 3


def test_simulate_requires_dist_for_risk(capsys):
    code, _, _ = run(capsys, "simulate", "--task", "risk", "--g", "power:1",
                     "--n-list", "10", "--trials", "300")
    assert code == 2


def test_simulate_entropy_needs_compatible_support(capsys):
    # zipf:200:1 puts mass below 1/64, outside the declared entropy domain
    code, _, err = run(capsys, "simulate", "--task", "tail", "--g", "entropy:64",
                       "--dist", "zipf:200:1", "--n-list", "20", "--trials", "1000")
    assert code == 2
    assert "entropy" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--task", "tail", "--dist", "uniform:10", "--n-list", "20", "--trials", "1000"),
    ("bounds", "--family", "poly:2", "--n", "20", "--eps-grid", "0.1"),
])
def test_entropy_floor_past_the_double_range_exits_2(capsys, argv):
    # 1/k underflows past 2**1022: simulate used to exit 5 and bounds 0
    code, _, err = run(capsys, *argv, "--g", f"entropy:{10**400}")
    assert code == 2
    assert "k_floor" in err


def test_readme_command_lines_parse():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"## Command line\n+```bash\n(.*?)```", readme.read_text(), re.S)
    lines = [line for line in block.group(1).splitlines() if line.startswith("missingmass ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_quick_example_runs():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"Quick example:\n+```python\n(.*?)```", readme.read_text(), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_readme_family_table_matches_the_table():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"\| family \| tails \| g \| exponent .*?\n\|[- |]+\|\n((?:\|.*\|\n)+)",
                      readme.read_text())
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:4]]
            for line in block.group(1).splitlines()]
    assert rows == [[f.name, ", ".join(f.tails), f.g or "any"] for f in tb.FAMILIES]


def test_family_help_and_error_name_every_family(capsys):
    code, out, _ = run(capsys, "bounds", "--help")
    assert code == 0
    code, _, err = run(capsys, "bounds", "--family", "nope", "--g", "power:1", "--n", "20",
                       "--eps-grid", "0.1")
    assert code == 2
    for family in tb.FAMILIES:
        assert family.name in " ".join(out.split()) and family.name in err


# ---------------------------------------------------------------------------
# hostile arguments: every command ends in a documented exit code


#: A valid command of each kind; each example swaps one to three of its
#: options for a hostile value, or drops them.
_VALID = {
    "bounds": {"--family": "poly:2", "--g": "power:1", "--n": "20", "--eps-grid": "0.1,0.2"},
    "ustar": {"--g": "power:1", "--n": "20", "--r": "2"},
    "simulate tail": {"--task": "tail", "--g": "power:1", "--dist": "uniform:10",
                      "--n-list": "5", "--trials": "1000", "--seed": "0", "--eps-grid": "0.1"},
    "simulate risk": {"--task": "risk", "--g": "power:1", "--dist": "uniform:10",
                      "--n-list": "5,10,20", "--trials": "200", "--seed": "0",
                      "--estimator": "generalized", "--alpha": "1"},
    "simulate dirichlet": {"--task": "dirichlet", "--alpha": "1", "--c": "1", "--n-list": "5",
                           "--trials": "200", "--seed": "0"},
    "estimate": {"--input": "toks.txt", "--alpha": "2", "--eps": "0.1,0.2"},
}
#: Values no option should accept silently.  The 10^15 sizes ask for arrays
#: beyond any 48-bit address space, which numpy refuses before touching
#: memory (MemoryError), and the 2^60 and 10^20 sizes for arrays it cannot
#: address at all (its "array is too big" and "Maximum allowed ..."
#: ValueErrors), so no example does more than a few MB of work.
_HOSTILE = ["-1", "0", "nan", "inf", "1e400", "", "x", "1000000000000000",
            "1152921504606846976", "100000000000000000000"]
_POOLS = {
    "--g": ["power:1", "power:2", "entropy:64", "power:", "power:x", "power:nan", "power:-1",
            "power:1e400", "power:1000000000000000", "entropy:0", "entropy:x",
            "entropy:1000000000000000", "nope:1", "power:1:2"],
    "--dist": ["zipf:10:1", "geometric:10:0.5", "uniform:-1", "uniform:1000000000000000",
               "zipf:10:nan", "zipf:10:inf", "zipf:10", "geometric:10:1e400",
               "geometric:1000000000000000:0.5", "uniform:100000000000000000000",
               "geometric:1152921504606846976:0.5", "explicit:", "explicit:missing.json",
               "nope:3", "uniform"],
    "--family": ["subgauss", "theorem2", "left_u2", "left_corollary", "right_corollary",
                 "ssg", "subgamma", "poly:5", "poly:171", "poly:1000000000000000",
                 "poly:", "poly:x", "poly:-1", "nope"],
    "--eps-grid": ["0:0.3:0.1", "0:1:1e-15", "0:1e400:1", "1:0:0.1", "a:b:c", "0,-1", ":",
                   "1,,2"],
    "--alpha": ["87", "1000", "2000"],
    "--n-list": ["5,10", "5,,10", "5,-1", "5,1000000000000000"],
    "--task": ["risk", "tail", "dirichlet", "x"],
    "--estimator": ["auto", "goodturing", "plugin", "x"],
}
_POOLS["--eps"] = _POOLS["--eps-grid"]


def _mutants(command):
    base = _VALID[command]

    def build(picks):
        args = dict(base)
        for opt, value in picks:
            if value is None:
                del args[opt]
            else:
                args[opt] = value
        return command.split()[:1] + [a for kv in args.items() for a in kv]

    def values(opts):
        return st.tuples(*[st.tuples(st.just(o), st.sampled_from(
            _HOSTILE + _POOLS.get(o, []) + [None])) for o in opts])

    opts = st.lists(st.sampled_from(sorted(base)), min_size=1, max_size=3, unique=True)
    return opts.flatmap(values).map(build)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(sorted(_VALID)).flatmap(_mutants))
def test_cli_never_raises_on_hostile_arguments(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toks.txt").write_text("".join(f"tok{i % 500}\n" for i in range(3000)))
    assert cli.main(argv) in (0, 2, 3, 4, 5)
    capsys.readouterr()
