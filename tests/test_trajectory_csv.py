"""The trajectory CSV writer: '%.17g' text from array arithmetic, its output
against goldens written by the per-row '%' formatter it replaced, output
errors, and the memory of the formatted text."""

import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscphase import _csv, cli
from oscphase.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.dirname(os.path.dirname(cli.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


def assert_g17(values):
    """Every slot of _csv._g17_slots, NULs dropped, is '%.17g' % (v + 0.0)."""
    x = np.asarray(values, dtype=float).ravel()
    slots = _csv._g17_slots(x)
    lines = np.hstack((slots, np.full((x.size, 1), ord("\n"), np.uint8))).ravel()
    got = lines[lines != 0].tobytes()
    want = b"".join(b"%.17g\n" % (v + 0.0) for v in x.tolist())
    if got != want:
        bad = [(v, w) for v, w, g in zip(x.tolist(), want.split(b"\n"), got.split(b"\n")) if w != g]
        pytest.fail("first mismatches (value, %%.17g): %r" % bad[:5])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_g17_matches_percent_format(values):
    assert_g17(values)


def test_g17_powers_of_ten_and_neighbours():
    powers = np.array([float("1e%d" % e) for e in range(-6, 19)])
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    near += [np.nextafter(v, w) for v, w in ((near[1], 0.0), (near[2], np.inf))]
    assert_g17(np.concatenate(near + [-v for v in near]))


def test_g17_rounds_ties_half_even():
    rng = np.random.default_rng(13)
    d = rng.integers(10**16, 10**17, 20_000)
    assert_g17([(d + 0.5) / 10**s for s in range(4)])
    # exact ties: N / 2^q whose decimal expansion has 18 digits, the last a 5
    ties = []
    for q in range(2, 60):
        lo, hi = -(-(10**17) // 5**q), min(10**18 // 5**q, 2**53)
        if lo < hi:
            n = rng.integers(lo, hi, 500) | 1
            ties.append(n[n < hi] / 2.0**q)
    assert_g17(np.concatenate(ties))


def test_g17_fast_domain_edges():
    edges = np.array([1e-4, 1e17])
    assert_g17(np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), -edges]))


def test_g17_subnormals_and_signed_zeros():
    tiny = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0])
    assert_g17(np.concatenate([tiny, -tiny]))
    assert _csv._g17_slots(np.array([-0.0]))[0].tobytes().rstrip(b"\0") == b"0"


def test_g17_random_doubles_across_all_exponents():
    rng = np.random.default_rng(2024)
    # every exponent, subnormals, inf and nan, then mostly the fixed-notation range
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    spread = 10.0 ** rng.uniform(-6, 19, 800_000) * rng.choice([-1.0, 1.0], 800_000)
    assert_g17(np.concatenate([bits, spread]))


@pytest.mark.parametrize("mode", ["open", "cyclic"])
@pytest.mark.parametrize(
    "argv, golden",
    [
        # t >= 1e17 prints in exponent notation, phi up to 1e16 in fixed
        (["--n-max", "4", "--t-max", "1e19", "--dt", "1e18", "--omega", "1e-3", "--mass", "1e3"], "huge_t"),
        # subnormal Im<E> and phi
        (["--n-max", "4", "--t-max", "1", "--dt", "0.25", "--omega", "1e-310"], "subnormal"),
        # Re<E> from 1.6e-7 up, below the fixed-notation range
        (["--n-max", "4", "--t-max", "10", "--dt", "0.785398"], "quarter_turn"),
    ],
)
def test_trajectory_matches_golden(argv, golden, mode, tmp_path):
    # written by the per-row '%.17g' formatter; both modes give the same bytes here
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--mode", mode, *argv, "--out", str(out)]) == 0
    with open(os.path.join(DATA, "trajectory_%s.csv" % golden), "rb") as fh:
        assert out.read_bytes() == fh.read()


LONG_STATE = (
    "0,0,0,+ : (0.31-0.52j) ; 1,0,0,+ : (0.44+0.12j) ; 2,0,0,+ : (-0.27+0.35j) ; 3,0,0,+ : (0.18-0.09j) ; "
    "0,3,-2,+ : (0.62+0.05j) ; 1,3,-2,+ : (-0.33-0.41j) ; 2,3,-2,+ : (0.21+0.27j) ; "
    "0,6,5,+ : (0.15+0.48j) ; 1,6,5,+ : (0.39-0.22j)"
)


@pytest.mark.parametrize(
    "mode, branch, sha256",
    [
        ("open", "+", "bd715847752b97338003f710ff6809231dffb972734bf3ed3b3af77c7a0233fb"),
        ("cyclic", "-", "c8fc37b6a4d527fdd6254005f9bd680ade95e0c6f377bf15d55c3233021f9205"),
    ],
)
def test_long_trajectory_matches_golden_digest(mode, branch, sha256, tmp_path):
    # 100,001 rows shaped like the benchmark's trajectory_long, three chains on
    # one branch; the digests are of the per-row '%.17g' formatter's output
    out = tmp_path / "long.csv"
    state = LONG_STATE.replace("+ :", branch + " :")
    argv = ["trajectory", "--n-max", "12", "--t-max", "1000", "--dt", "0.01", "--mode", mode, "--state", state]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


COMMANDS = [
    ["verify", "--n-max", "0"],
    ["trajectory", "--n-max", "4", "--t-max", "1"],
    ["spectrum", "--n-max", "2"],
    ["unitarity-scan", "--n-max-list", "0,2"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_unwritable_output_exits_two(argv, tmp_path, capsys):
    missing = tmp_path / "missing" / "out.txt"
    assert main(argv + ["--out", str(missing)]) == 2
    assert capsys.readouterr().err == "output error: %s: No such file or directory\n" % missing
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "output error: %s: Is a directory\n" % tmp_path


def test_closed_stdout_pipe_exits_two():
    # about 13 MB of CSV, far more than a pipe buffers, so writes reach the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "oscphase", "trajectory", "--t-max", "1000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
    )
    assert proc.stdout.readline().decode().rstrip("\n") == cli.CSV_HEADER
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == "output error: stdout: Broken pipe\n"


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_stdout_pipe_without_reader_exits_two(argv):
    # output smaller than the stdout buffer reaches the pipe at the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        cmd = [sys.executable, "-m", "oscphase", *argv]
        run = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, env=ENV, timeout=300)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (2, b"output error: stdout: Broken pipe\n")


def test_trajectory_text_stays_chunk_sized(tmp_path):
    # tracemalloc peak of a 200,001-row trajectory written to a file, after a
    # warm-up run: 15.46 MB with the per-row formatter (n_max 4, numpy 2.4,
    # Python 3.11, x86-64 Linux), nearly all of it the trajectory's columns.
    # Text formatted for more than a chunk of rows at a time would exceed it.
    code = textwrap.dedent(
        """
        import sys, tracemalloc
        from oscphase.cli import main
        argv = ["trajectory", "--n-max", "4", "--t-max", "2000", "--dt", "0.01", "--out", sys.argv[1]]
        assert main(argv) == 0
        tracemalloc.start()
        assert main(argv) == 0
        print(tracemalloc.get_traced_memory()[1])
        """
    )
    out = tmp_path / "traj.csv"
    run = subprocess.run([sys.executable, "-c", code, str(out)], env=ENV, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert out.read_bytes().count(b"\n") == 200_002
    assert int(run.stdout) < (15.46 + 1.0) * 1e6
