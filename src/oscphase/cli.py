"""Command line front end.

Subcommands:
  verify          run the full identity suite, one PASS/FAIL line per check
  trajectory      export a phase/time trajectory as CSV
  spectrum        print shell energies, multiplicities and angular content
  unitarity-scan  defect norms of the phase exponential across truncations

Options may come from flags or from a config file of `key = value` lines
(`#` starts a comment). Flags win over the file. Exit codes: 0 success,
1 failed check or undefined phase, 2 bad configuration, a numerical
failure of the build, or an output that cannot be opened or written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

from .checks import run_all_checks
from .evolution import PhaseUndefined, StateSpec, phase_trajectory
from .fock import OscParams, masked_norm, op_norm_1
from .phase3d import SingularNormalization, build_model, doubled_identity
from .spherical import DegenerateSplitFailure, degeneracy_table

DEFAULT_STATE = "0,0,0,+ : 0.7071067811865476 ; 1,0,0,+ : 0.7071067811865476"

CSV_HEADER = "t,re_exp_plus,im_exp_plus,abs_exp_plus,phi_unwound,tau,j,sigma,branch"
CSV_CHUNK_ROWS = 1024  # rows per write: bounds the memory of the formatted text
# Largest trajectory grid, t_max/dt + 1 rows: the columns and temporaries peak at 69
# bytes a row (tracemalloc, 1,000,001 rows), the CSV text at one chunk: under 1 GB.
MAX_TRAJECTORY_ROWS = 10_000_000
# Config keys that only some subcommands read; the others reject them, as
# their parsers reject the matching flags.
COMMAND_KEYS = {
    "mode": ("trajectory",),
    "state": ("trajectory",),
    "t_max": ("trajectory",),
    "dt": ("trajectory",),
    "n_max_list": ("unitarity-scan",),
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    n_max: int = 8
    mass: float = 1.0
    omega: float = 1.0
    mode: str = "open"
    state: str | None = None
    t_max: float = 10.0
    dt: float = 0.01
    out: str | None = None
    n_max_list: tuple[int, ...] = ()

    def validate(self) -> "RunConfig":
        if self.n_max < 0 or any(n < 0 for n in self.n_max_list):
            raise ConfigError("n_max and n_max_list entries must be >= 0")
        if not all(math.isfinite(x) for x in (self.mass, self.omega, self.t_max, self.dt)):
            raise ConfigError("mass, omega, t_max and dt must be finite")
        if self.mass <= 0 or self.omega <= 0:
            raise ConfigError("mass and omega must be positive")
        if self.mode not in ("open", "cyclic"):
            raise ConfigError("mode must be 'open' or 'cyclic', got %r" % self.mode)
        if self.dt <= 0 or self.t_max < 0:
            raise ConfigError("need dt > 0 and t_max >= 0")
        return self


def _coerce(name: str, text: str):
    text = text.strip()
    if name == "n_max":
        return int(text)
    if name in ("mass", "omega", "t_max", "dt"):
        return float(text)
    if name == "n_max_list":
        sizes = tuple(int(tok) for tok in text.split(",") if tok.strip())
        if not sizes:
            raise ValueError("has no entries")
        return sizes
    if name in ("mode", "state", "out"):
        return text
    raise KeyError(name)


def load_config(path: str, command: str | None = None) -> RunConfig:
    """Read a config file; with a command, reject keys that command does not read."""
    valid = {f.name for f in fields(RunConfig)}
    overrides = {}
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()  # at \n, \r and \r\n, as text mode splits
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError("%s:%d: byte 0x%02x is not UTF-8 text" % (path, lineno, raw[exc.start])) from exc
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value', got %r" % (path, lineno, raw.rstrip()))
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in valid:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        if command is not None and key in COMMAND_KEYS and command not in COMMAND_KEYS[key]:
            raise ConfigError(
                "%s:%d: key %r applies only to %s" % (path, lineno, key, ", ".join(COMMAND_KEYS[key]))
            )
        try:
            overrides[key] = _coerce(key, value)
        except (ValueError, KeyError) as exc:
            raise ConfigError("%s:%d: bad value for %s: %s" % (path, lineno, key, exc)) from exc
    return replace(RunConfig(), **overrides)


def parse_state(text: str) -> StateSpec:
    """Parse 'n,l,m,sigma : amplitude ; ...' into a state description."""
    terms = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise ConfigError("state term %r needs 'labels : amplitude'" % piece)
        labels, _, amp_text = piece.partition(":")
        toks = [tok.strip() for tok in labels.split(",")]
        if len(toks) != 4:
            raise ConfigError("state term %r needs n,l,m,sigma" % piece)
        try:
            n, l, m = int(toks[0]), int(toks[1]), int(toks[2])
        except ValueError as exc:
            raise ConfigError("state term %r: %s" % (piece, exc)) from exc
        sigma_tok = toks[3]
        if sigma_tok in ("+", "+1"):
            lam = +1
        elif sigma_tok in ("-", "-1"):
            lam = -1
        else:
            raise ConfigError("state term %r: branch must be one of + - +1 -1" % piece)
        try:
            amp = complex(amp_text.strip().replace(" ", ""))
        except ValueError as exc:
            raise ConfigError("state term %r: bad amplitude: %s" % (piece, exc)) from exc
        terms.append(((n, l, m), lam, amp))
    if not terms:
        raise ConfigError("state %r has no terms" % text)
    try:
        return StateSpec.of(terms)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # + 0.0 folds -0.0 into 0.0


class OutputError(Exception):
    pass


@contextmanager
def _output(cfg: RunConfig):
    """The stream to write to; OutputError when it cannot be opened or written."""
    try:
        with nullcontext(sys.stdout) if cfg.out is None else open(cfg.out, "w") as stream:
            yield stream
            stream.flush()  # a closed pipe shows here, not at shutdown
    except OSError as exc:
        if cfg.out is None and isinstance(exc, BrokenPipeError):  # flush the rest to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OutputError("%s: %s" % ("stdout" if cfg.out is None else cfg.out, exc.strerror or exc)) from exc


def cmd_verify(cfg: RunConfig) -> int:
    # the normalization bracket holds w^2 and the potential-energy check M w^2 (spring_constant)
    w2 = cfg.omega * cfg.omega
    if not all(math.isfinite(x) and x != 0.0 for x in (w2, cfg.mass * w2)):
        raise ConfigError("omega^2 and mass * omega^2 must be finite and nonzero, got omega=%r mass=%r" % (cfg.omega, cfg.mass))
    failed = 0
    with _output(cfg) as stream:  # opened first: an unwritable --out fails before any build
        reports = run_all_checks(cfg.n_max, OscParams(cfg.mass, cfg.omega))
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            failed += 0 if rep.passed else 1
            stream.write(
                '%s name=%s law="%s" mode=%s window=%d residual=%.3e tol=%.3e\n'
                % (status, rep.name, rep.law, rep.mode, rep.window, rep.residual, rep.tolerance)
            )
        stream.write(
            "# summary: checks=%d passed=%d failed=%d n_max=%d mass=%s omega=%s\n"
            % (len(reports), len(reports) - failed, failed, cfg.n_max, _fmt(cfg.mass), _fmt(cfg.omega))
        )
    return 1 if failed else 0


def cmd_trajectory(cfg: RunConfig) -> int:
    n_steps = cfg.t_max / cfg.dt  # overflows to inf for e.g. 1e308 / 1e-300
    if not math.isfinite(n_steps) or round(n_steps) + 1 > MAX_TRAJECTORY_ROWS:
        raise ConfigError(
            "t_max/dt + 1 = %.17g trajectory rows exceeds the limit of %d" % (n_steps + 1, MAX_TRAJECTORY_ROWS)
        )
    params = OscParams(cfg.mass, cfg.omega)
    spec = parse_state(cfg.state if cfg.state is not None else DEFAULT_STATE)
    for (label, lam, amp) in spec.terms:
        if label.shell > cfg.n_max:
            raise ConfigError(
                "state label (%d,%d,%d) needs 2n+l <= n_max=%d" % (label.n, label.l, label.m, cfg.n_max)
            )
    pset = build_model(cfg.n_max, params, (cfg.mode,)).psets[cfg.mode]
    try:  # the grid is handed over, not held: the trajectory's t is the one copy
        traj = phase_trajectory(spec, np.arange(int(round(n_steps)) + 1) * cfg.dt, params, pset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    from ._csv import write_trajectory  # compiled only where a CSV is written
    with _output(cfg) as stream:
        stream.write(CSV_HEADER + "\n")
        write_trajectory(stream, traj, CSV_CHUNK_ROWS)
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    sph = build_model(cfg.n_max, OscParams(cfg.mass, cfg.omega)).sph
    with _output(cfg) as stream:
        for shell, e_over_w, mult, lvals in degeneracy_table(sph):
            stream.write(
                "N=%d E_over_omega=%s multiplicity=%d l=[%s]\n"
                % (shell, _fmt(e_over_w), mult, ",".join(str(l) for l in lvals))
            )
    return 0


def cmd_unitarity_scan(cfg: RunConfig) -> int:
    sizes = cfg.n_max_list or (cfg.n_max,)
    params = OscParams(cfg.mass, cfg.omega)
    rows = []
    for n_max in sizes:
        psets = build_model(n_max, params, ("open", "cyclic")).psets
        open_pset, cyc_pset = psets["open"], psets["cyclic"]
        ident = doubled_identity(open_pset.doubled)
        open_gap = open_pset.exp_minus @ open_pset.exp_plus - ident
        open_interior = masked_norm(open_gap, cols=open_pset.doubled.interior)
        cyc_defect = op_norm_1(cyc_pset.exp_minus @ cyc_pset.exp_plus - ident)
        rows.append((n_max, op_norm_1(open_gap), open_interior, cyc_defect))
    with _output(cfg) as stream:
        stream.write("n_max,open_defect,open_defect_interior,cyclic_defect\n")
        for n_max, a, b, c in rows:
            stream.write("%d,%s,%s,%s\n" % (n_max, _fmt(a), _fmt(b), _fmt(c)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscphase",
        description="Phase and time operator toolkit for the truncated isotropic oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "run every operator identity check"),
        ("trajectory", "export phase expectation trajectory as CSV"),
        ("spectrum", "print the shell degeneracy table"),
        ("unitarity-scan", "defect norms across truncation sizes"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file of key = value lines")
        p.add_argument("--n-max", type=int, dest="n_max", help="shell cutoff (default 8)")
        p.add_argument("--mass", type=float, help="oscillator mass (default 1.0)")
        p.add_argument("--omega", type=float, help="angular frequency (default 1.0)")
        p.add_argument("--out", help="output path (default stdout)")
        if name == "trajectory":
            p.add_argument("--mode", choices=("open", "cyclic"), help="chain closure mode")
            p.add_argument("--state", help="terms 'n,l,m,sigma : amplitude ; ...'")
            p.add_argument("--t-max", type=float, dest="t_max", help="final time (default 10)")
            p.add_argument("--dt", type=float, help="time step (default 0.01)")
        if name == "unitarity-scan":
            p.add_argument(
                "--n-max-list",
                dest="n_max_list",
                help="comma separated shell cutoffs, e.g. 2,4,8",
            )
    return parser


def _merge(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config, args.command) if args.config else RunConfig()
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name == "n_max_list" and isinstance(value, str):
            try:
                value = _coerce("n_max_list", value)
            except ValueError as exc:
                raise ConfigError("bad value for --n-max-list: %s" % exc) from exc
        overrides[f.name] = value
    return replace(cfg, **overrides).validate()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "trajectory": cmd_trajectory,
        "spectrum": cmd_spectrum,
        "unitarity-scan": cmd_unitarity_scan,
    }
    try:
        cfg = _merge(args)
        return handlers[args.command](cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except PhaseUndefined as exc:
        print("phase undefined: %s" % exc, file=sys.stderr)
        return 1
    except (DegenerateSplitFailure, SingularNormalization) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except OutputError as exc:
        print("output error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
