import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from oscphase import (
    OscParams,
    build_basis,
    build_phase_operators,
    build_spherical,
    cartesian_operators,
    phase_trajectory,
)
from oscphase import cli
from oscphase.cli import (
    CSV_HEADER,
    ConfigError,
    RunConfig,
    load_config,
    main,
    parse_state,
)


def run_cli(argv):
    return main(argv)


def test_verify_small_passes(capsys):
    assert run_cli(["verify", "--n-max", "2"]) == 0
    outp = capsys.readouterr().out
    lines = outp.strip().splitlines()
    assert all(ln.startswith(("PASS ", "FAIL ", "# summary")) for ln in lines)
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert "failed=0" in lines[-1]
    # one line per check plus the trailing summary
    assert len([ln for ln in lines if ln.startswith("PASS")]) >= 20


def test_verify_report_fields(capsys):
    run_cli(["verify", "--n-max", "0"])
    first = capsys.readouterr().out.splitlines()[0]
    for field in ("name=", 'law="', "mode=", "window=", "residual=", "tol="):
        assert field in first


def test_trajectory_row_count_and_header(tmp_path):
    out = tmp_path / "traj.csv"
    code = run_cli(
        ["trajectory", "--n-max", "4", "--t-max", "1.0", "--dt", "0.01", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 102  # header + 101 samples
    row = lines[1].split(",")
    assert len(row) == 9
    assert row[7] in ("+", "-")
    assert row[8] in ("(+)", "(-)")


def test_trajectory_default_grid_length(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["trajectory", "--n-max", "4", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1002  # t_max=10, dt=0.01


def test_trajectory_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["trajectory", "--n-max", "4", "--t-max", "0.5", "--dt", "0.05"]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trajectory_explicit_state(tmp_path):
    out = tmp_path / "traj.csv"
    code = run_cli(
        [
            "trajectory",
            "--n-max",
            "6",
            "--state",
            "0,2,1,+ : 0.6 ; 1,2,1,+ : 0.8j",
            "--t-max",
            "0.2",
            "--dt",
            "0.05",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    first = out.read_text().splitlines()[1].split(",")
    assert abs(float(first[3]) - 0.48) < 1e-12  # |conj(0.6) * 0.8j * 1|


def test_trajectory_coarse_grid_is_exact(tmp_path):
    # dt = 2 at w = 1 turns arg<E> by 4 rad a step, which nearest-branch
    # unwrapping would alias; the closed form needs no unwrapping
    out = tmp_path / "coarse.csv"
    assert run_cli(["trajectory", "--dt", "2", "--t-max", "8", "--out", str(out)]) == 0
    rows = np.array([ln.split(",")[:6] for ln in out.read_text().splitlines()[1:]], dtype=float)
    t, phi, tau = rows[:, 0], rows[:, 4], rows[:, 5]
    assert list(t) == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert np.abs(tau - t).max() < 1e-12
    assert np.abs(phi + t).max() < 1e-12


def test_trajectory_chunks_match_row_formatting(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
    out = tmp_path / "chunked.csv"
    # real amplitudes start phi at 0, so tau(0) = -0.0 must print as 0
    state = "0,1,1,- : 0.6 ; 1,1,1,- : 0.8"
    argv = ["trajectory", "--n-max", "5", "--t-max", "3.0", "--dt", "0.1", "--state", state]
    assert run_cli(argv + ["--out", str(out)]) == 0
    params = OscParams()
    basis = build_basis(5)
    ops = cartesian_operators(basis, params)
    pset = build_phase_operators(build_spherical(basis, params, ops), params, "open", ops)
    traj = phase_trajectory(parse_state(state), np.arange(31) * 0.1, params, pset)
    want = [CSV_HEADER]
    for k in range(traj.t.size):
        e = complex(traj.exp_plus[k])
        floats = (traj.t[k], e.real, e.imag, abs(e), traj.phi[k], traj.tau[k])
        labels = [str(traj.j[k]), str(traj.sigma[k]), traj.branch]
        want.append(",".join([cli._fmt(v) for v in floats] + labels))
    assert out.read_text() == "\n".join(want) + "\n"


def test_phase_undefined_exits_one(capsys):
    code = run_cli(["trajectory", "--n-max", "4", "--state", "0,0,0,+ : 1"])
    assert code == 1
    assert "phase undefined" in capsys.readouterr().err


def test_state_window_violation_exits_two(capsys):
    code = run_cli(["trajectory", "--n-max", "4", "--state", "1,1,0,+ : 1"])
    assert code == 2
    assert "window" in capsys.readouterr().err


def test_state_parse_errors():
    with pytest.raises(ConfigError):
        parse_state("0,0,0 : 1")
    with pytest.raises(ConfigError):
        parse_state("0,0,0,? : 1")
    with pytest.raises(ConfigError):
        parse_state("0,0,0,+ ; 1")
    with pytest.raises(ConfigError):
        parse_state("")
    spec = parse_state("0,0,0,-1 : 1 ; 1,0,0,- : 2j")
    assert spec.terms[0][1] == -1
    assert spec.terms[1][2] == 2j


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 3\nomega = 2.0  # rad/s\nmode = cyclic\n")
    loaded = load_config(str(cfg))
    assert loaded.n_max == 3
    assert loaded.omega == 2.0
    assert loaded.mode == "cyclic"
    # the flag wins over the file; spectrum reads no mode key
    cfg.write_text("n_max = 3\nomega = 2.0  # rad/s\n")
    assert run_cli(["spectrum", "--config", str(cfg), "--n-max", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2


def test_config_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_max = 2\nwat = 5\n")
    assert run_cli(["verify", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err
    bad.write_text("just some words\n")
    assert run_cli(["verify", "--config", str(bad)]) == 2
    assert run_cli(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_config_byte_not_utf8_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"n_max = 2\n# caf\xe9\nmass = 1.0\n")
    assert run_cli(["spectrum", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == "config error: %s:2: byte 0xe9 is not UTF-8 text\n" % bad


def test_verify_unwritable_out_fails_before_checks(tmp_path, capsys, monkeypatch):
    def no_checks(*args):
        raise AssertionError("run_all_checks called for an unwritable --out")

    monkeypatch.setattr(cli, "run_all_checks", no_checks)
    missing = tmp_path / "missing" / "verify.txt"
    assert run_cli(["verify", "--n-max", "2", "--out", str(missing)]) == 2
    assert capsys.readouterr().err == "output error: %s: No such file or directory\n" % missing


def test_config_mode_key_only_for_trajectory(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cases = [(command, "mode = cyclic") for command in ("verify", "spectrum", "unitarity-scan")]
    cases += [("verify", "state = not a state"), ("verify", "n_max_list = 3,4"), ("spectrum", "t_max = 5")]
    cases += [("unitarity-scan", "dt = 0.5"), ("trajectory", "n_max_list = 2")]
    for command, line in cases:
        key = line.split(" = ")[0]
        cfg.write_text("n_max = 1\n%s\n" % line)
        assert run_cli([command, "--config", str(cfg)]) == 2
        owner = "unitarity-scan" if key == "n_max_list" else "trajectory"
        assert "run.cfg:2: key '%s' applies only to %s" % (key, owner) in capsys.readouterr().err
    modes = []
    build = cli.build_model
    monkeypatch.setattr(cli, "build_model", lambda n_max, params, m: modes.append(m) or build(n_max, params, m))
    cfg.write_text("n_max = 4\nmode = cyclic\nt_max = 0.1\n")
    assert run_cli(["trajectory", "--config", str(cfg)]) == 0
    assert modes == [("cyclic",)]


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(mode="diagonal").validate()
    with pytest.raises(ConfigError):
        RunConfig(dt=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(mass=-1.0).validate()


def test_spectrum_format(capsys):
    assert run_cli(["spectrum", "--n-max", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N=0 E_over_omega=1.5 multiplicity=1 l=[0]"
    assert out[2] == "N=2 E_over_omega=3.5 multiplicity=6 l=[0,2]"


def test_unitarity_scan(capsys):
    assert run_cli(["unitarity-scan", "--n-max-list", "0,2,4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n_max,open_defect,open_defect_interior,cyclic_defect"
    assert len(out) == 4
    row = out[2].split(",")
    assert row[0] == "2"
    assert float(row[1]) == 1.0  # open-end defect has unit norm
    assert float(row[2]) < 1e-12
    assert float(row[3]) < 1e-12


def test_verify_cyclic_flag(capsys):
    # verify always checks both modes, so it takes no --mode flag
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--n-max", "2", "--mode", "cyclic"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "--dt", "nan"],
        ["trajectory", "--t-max", "inf"],
        ["trajectory", "--mass", "nan"],
        ["verify", "--omega", "inf"],
        ["unitarity-scan", "--n-max-list", "2,x"],
        ["unitarity-scan", "--n-max-list", "2,-1"],
        ["trajectory", "--dt", "1e-300"],
        ["trajectory", "--t-max", "1e308", "--dt", "1e-300"],
        ["trajectory", "--state", "0,0,0,+ : nan"],
        ["trajectory", "--state", "0,0,0,+ : 1 ; 1,0,0,+ : inf"],
    ],
)
def test_bad_numbers_exit_two(argv, capsys, monkeypatch):
    # rejected before any build
    monkeypatch.setattr(cli, "build_model", None, raising=False)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if "--state" in argv:
        assert "state term" in err and "is not finite" in err


def _verify_subprocess(args, **env_extra):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env_extra)
    argv = [sys.executable, "-W", "error", "-m", "oscphase", "verify", *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "extreme",
    [
        "--omega 1e-200",
        "--omega 1e300",
        "--omega 1e155 --mass 1e-155",
        "--omega 1e200 --mass 1e-300",
    ],
)
def test_verify_extreme_parameters_exit_two_without_traceback(extreme):
    # omega^2 or M omega^2 not finite, or underflowed to zero (omega 1e-200),
    # is a config error, caught before any build
    run = _verify_subprocess(["--n-max", "2", *extreme.split()])
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("config error: ")
    assert "must be finite and nonzero" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("extreme", ["--mass 1e-300", "--mass 1e300"])
def test_verify_extreme_mass_passes(extreme):
    # the column map does not depend on M, so only M w^2 must stay finite
    run = _verify_subprocess(["--n-max", "2", *extreme.split()])
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert " failed=0 " in run.stdout.splitlines()[-1]


def test_verify_tiny_omega_huge_mass_fails_checks(capsys):
    # omega^2 is subnormal but finite: the build runs and some checks fail,
    # without a warning from the tau(t) fit over t ~ 1e160 (from n_max 4 on)
    for n_max in ("2", "4"):
        assert run_cli(["verify", "--n-max", n_max, "--omega", "1e-160", "--mass", "1e160"]) == 1
        out, err = capsys.readouterr()
        assert "\nFAIL name=" in "\n" + out
        assert err == ""


def test_verify_output_does_not_depend_on_blas_threads():
    # build_spherical and to_spherical sum in an order that no BLAS thread count sets
    runs = [_verify_subprocess(["--n-max", "18"], OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def test_trajectory_beyond_winding_range_exits_two(capsys):
    # |phi| reaches 2e19 > pi 2^53, where the winding index no longer fits the cells
    assert run_cli(["trajectory", "--t-max", "1e20", "--dt", "2e19"]) == 2
    assert capsys.readouterr().err.startswith("config error: phi = ")


@pytest.mark.parametrize("scale", ["1e308", "1e-200"])
def test_trajectory_amplitude_scale(scale, tmp_path):
    # the normalized state, and so every CSV byte, does not depend on the
    # scale of the amplitudes, even where their squares overflow or underflow
    common = ["trajectory", "--n-max", "6", "--t-max", "3", "--dt", "0.1"]
    want, got = tmp_path / "unit.csv", tmp_path / "scaled.csv"
    assert run_cli(common + ["--state", "0,0,0,+ : 1 ; 1,0,0,+ : 1", "--out", str(want)]) == 0
    state = "0,0,0,+ : %s ; 1,0,0,+ : %s" % (scale, scale)
    assert run_cli(common + ["--state", state, "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_zero_state_exits_two(capsys):
    assert run_cli(["trajectory", "--state", "0,0,0,+ : 0 ; 1,0,0,- : 0"]) == 2
    assert "state has zero norm" in capsys.readouterr().err


def test_empty_n_max_list_exits_two(tmp_path, capsys):
    # an empty list is an error, not a scan of the default n_max
    assert run_cli(["unitarity-scan", "--n-max-list", ","]) == 2
    assert "--n-max-list: has no entries" in capsys.readouterr().err
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("n_max_list =\n")
    assert run_cli(["unitarity-scan", "--config", str(cfg)]) == 2
    assert "scan.cfg:1: bad value for n_max_list: has no entries" in capsys.readouterr().err


def test_label_commands_load_no_sparse_stack(tmp_path):
    # trajectory and spectrum read labels alone and must not pay the import
    # of scipy.sparse, which costs more than numpy's, nor hashlib's OpenSSL (the basis
    # keys are plain text); verify builds sparse operators, and scipy.sparse imports hashlib
    code = textwrap.dedent(
        """
        import sys
        from oscphase.cli import main
        out = sys.argv[1]
        for mode in ("open", "cyclic"):
            assert main(["trajectory", "--n-max", "6", "--t-max", "1", "--mode", mode, "--out", out]) == 0
        assert main(["spectrum", "--out", out]) == 0
        assert "scipy.sparse._base" not in sys.modules, "scipy.sparse was loaded"
        assert "hashlib" not in sys.modules, "hashlib was loaded"
        assert main(["verify", "--n-max", "2", "--out", out]) == 0
        assert "scipy.sparse._base" in sys.modules
        """
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env, check=True, timeout=300)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--n-max", "8"], "verify_n_max_8.txt"),
        (["--n-max", "4", "--mass", "1.5", "--omega", "0.75"], "verify_n_max_4_mass_1.5_omega_0.75.txt"),
    ],
)
def test_verify_output_matches_golden(argv, golden, capsys):
    # every byte of the report, residual digits included, is pinned
    path = os.path.join(os.path.dirname(__file__), "data", golden)
    with open(path) as fh:
        want = fh.read()
    assert run_cli(["verify", *argv]) == 0
    assert capsys.readouterr().out == want
