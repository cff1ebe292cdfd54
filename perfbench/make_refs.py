"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/make_refs.py

Runs `oscphase verify` and `oscphase unitarity-scan` from the checkout's
src/ for every (mass, omega) pair in workloads.PARAMS, at both scales,
and writes perfbench/refs.json:

  verify  per n_max, the (name, mode, tolerance) of every check; every
          check must pass for every pair, and the list must not depend
          on the pair
  ladder  per pair, the unitarity-scan defects of every ladder n_max

Run it only at the commit that defines the benchmark: the references are
what later commits are checked against.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oscphase.cli  # noqa: E402

from verdicts import LADDER_HEADER, REFS_PATH, VERIFY_LINE, params_key  # noqa: E402
from workloads import PARAMS, SCALES  # noqa: E402


def run_cli(args) -> str:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "out.txt"
        rc = oscphase.cli.main(args + ["--out", str(out)])
        text = out.read_text()
    if rc != 0:
        sys.exit("oscphase %s exited %d:\n%s" % (" ".join(args), rc, text))
    return text


def verify_checks(n_max, mass, omega):
    text = run_cli(["verify", "--n-max", str(n_max), "--mass", repr(mass), "--omega", repr(omega)])
    checks = []
    for line in text.splitlines()[:-1]:
        status, name, _law, mode, _window, _residual, tol = VERIFY_LINE.match(line).groups()
        if status != "PASS":
            sys.exit("not a reference: %s" % line)
        checks.append([name, mode, float(tol)])
    return checks


def main():
    refs = {"verify": {}, "ladder": {}}
    ladder = sorted({n for size in SCALES.values() for n in size["ladder"]})
    for mass, omega in PARAMS:
        for n_max in sorted({size["verify_n_max"] for size in SCALES.values()}):
            checks = verify_checks(n_max, mass, omega)
            if refs["verify"].setdefault(str(n_max), checks) != checks:
                sys.exit("the verify check list depends on (mass, omega)")
            print("verify n_max=%d mass=%r omega=%r: %d checks pass" % (n_max, mass, omega, len(checks)))
        text = run_cli(
            ["unitarity-scan", "--n-max-list", ",".join(map(str, ladder)), "--mass", repr(mass), "--omega", repr(omega)]
        )
        lines = text.splitlines()
        if lines[0] != LADDER_HEADER:
            sys.exit("unexpected unitarity-scan header %r" % lines[0])
        refs["ladder"][params_key(mass, omega)] = {
            row.split(",")[0]: [float(x) for x in row.split(",")[1:]] for row in lines[1:]
        }
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print("wrote", REFS_PATH)


if __name__ == "__main__":
    main()
