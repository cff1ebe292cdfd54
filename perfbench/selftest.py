"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

1. Runs every workload through run.py at the tiny scale, traced and
   untraced, and requires a correct result that carries every metric of
   BENCHMARK.json with its unit.
2. Produces real outputs of each workload at the tiny scale, requires
   the checks to pass them, then corrupts each output in turn and
   requires the corruption to count as a failed operation.
3. Requires the tracer to wrap a function in every module that imported
   it, and to put the originals back.

Exits 0 when everything holds; the first failure raises.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import verdicts
import worker
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def check_metrics_emitted():
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7"]
            cmd += ["--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            expect(proc.returncode == 0, "%s exited %d: %s" % (cmd, proc.returncode, proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], result)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
            wanted = BENCH["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            expect(sorted(got) == sorted(m["name"] for m in wanted), "metric names differ: %s" % sorted(got))
            for m in wanted:
                expect(got[m["name"]]["unit"] == m["unit"], "unit of %s" % m["name"])
                expect(isinstance(got[m["name"]]["value"], (int, float)), "value of %s" % m["name"])
            print("ok  %s trace=%d: %d metrics, %d operations" % (workload, trace, len(got), result["attempted"]))


def _failed(checker, pass_dir, record):
    attempted, failed, problems = checker.check(record, pass_dir)
    return failed


def _edit(path: Path, old: str, new: str):
    text = path.read_text()
    expect(old in text, "%r not in %s" % (old, path.name))
    path.write_text(text.replace(old, new, 1))


def check_corruption_counts(tmp: Path):
    worker._import_package()
    refs = verdicts.load_refs()
    for workload in WORKLOADS:
        inputs = make_inputs(workload, 3, "tiny")
        pass_dir = tmp / workload
        pass_dir.mkdir()
        record, artifacts = worker.PASSES[workload](inputs, pass_dir)
        worker.save_artifacts(artifacts, pass_dir)
        checker = verdicts.Checker(workload, inputs, refs)
        expect(_failed(checker, pass_dir, record) == 0, "%s: clean output failed" % workload)

        if workload == "verify_large":
            out = pass_dir / "verify.txt"
            clean = out.read_text()
            _edit(out, "PASS name=", "FAIL name=")
            expect(_failed(checker, pass_dir, record) == 1, "verify: a FAIL line was not counted")
            out.write_text(clean)
            _edit(out, "tol=1.000e-12", "tol=1.000e-06")
            expect(_failed(checker, pass_dir, record) == 1, "verify: a loosened tolerance was not counted")
            out.write_text("".join(clean.splitlines(True)[1:]))
            expect(_failed(checker, pass_dir, record) >= 1, "verify: a missing check was not counted")
        elif workload == "trajectory_long":
            out = pass_dir / "trajectory.csv"
            clean = out.read_text()
            lines = clean.splitlines(True)
            fields = lines[5].split(",")
            fields[1] = repr(float(fields[1]) + 1e-7)
            out.write_text("".join(lines[:5] + [",".join(fields)] + lines[6:]))
            expect(_failed(checker, pass_dir, record) == 1, "trajectory: a perturbed value was not counted")
            fields = lines[5].split(",")
            fields[7] = "+" if fields[7] == "-" else "-"
            out.write_text("".join(lines[:5] + [",".join(fields)] + lines[6:]))
            expect(_failed(checker, pass_dir, record) == 1, "trajectory: a wrong winding was not counted")
            out.write_text("".join(lines[:-1]))
            expect(_failed(checker, pass_dir, record) == 1, "trajectory: a missing row was not counted")
        else:
            out = pass_dir / "ladder.csv"
            clean = out.read_text()
            _edit(out, "\n2,1,", "\n2,0.5,")
            expect(_failed(checker, pass_dir, record) == 1, "ladder: a wrong defect was not counted")
            out.write_text(clean)
            npz_path = pass_dir / "roundtrip.npz"
            arrays = dict(np.load(npz_path))
            arrays["loaded_data"] = arrays["loaded_data"].copy()
            arrays["loaded_data"][0] += 1e-15
            np.savez(npz_path, **arrays)
            expect(_failed(checker, pass_dir, record) == 1, "ladder: an inexact round trip was not counted")
            worker.save_artifacts(artifacts, pass_dir)
            phase_path = pass_dir / "time_operator.npy"
            t = np.load(phase_path)
            t[0, 1] += 1e-6  # breaks both Hermiticity and exp(2i phi) = E
            np.save(phase_path, t)
            expect(_failed(checker, pass_dir, record) == 1, "ladder: a wrong time operator was not counted")
        print("ok  %s: clean output passes, corrupted outputs count as failed" % workload)


def check_tracer():
    from spans import Tracer

    import oscphase.checks
    import oscphase.spherical

    original = oscphase.spherical.to_spherical
    tracer = Tracer(worker.layer_modules())
    tracer.install()
    try:
        wrapped = oscphase.spherical.to_spherical
        expect(wrapped is not original, "to_spherical was not wrapped")
        for module in (oscphase.checks, oscphase.phase3d, oscphase):
            expect(module.to_spherical is wrapped, "%s keeps the unwrapped to_spherical" % module.__name__)
    finally:
        tracer.uninstall()
    expect(oscphase.spherical.to_spherical is original, "to_spherical was not restored")
    expect(oscphase.checks.to_spherical is original, "checks.to_spherical was not restored")
    print("ok  tracer wraps every binding and restores them")


def main():
    check_metrics_emitted()
    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
        check_corruption_counts(Path(tmp))
    check_tracer()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
