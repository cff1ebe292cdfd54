"""The workload process: import the package, warm up, run timed passes.

    python3 perfbench/worker.py SPEC.json [--setup-only]

SPEC.json is written by run.py. It holds the workload's inputs, the
tiny inputs used for the warm-up, the number of seconds to measure, the
trace flag and the work directory. Each pass writes its outputs under
WORKDIR/passN; worker.json in the work directory records what the
harness needs to check and report. With --setup-only the process stops
after the warm-up, so the harness can time set-up on its own.

The package is imported from the checkout's src/ directory and nothing
else: a process that finds no src/oscphase there exits with code 2.
"""

import os

# Pin BLAS before numpy loads: with more threads the timings spread widely.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gzip
import importlib
import importlib.util
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MIN_PASSES = 3
LAYERS = ("fock", "spherical", "phase3d", "kernels", "evolution", "checks", "cli", "serialize")

oscphase = None  # imported by main() from the checkout's src/


def _import_package():
    global oscphase
    sys.path.insert(0, str(SRC))
    try:
        import oscphase
        import oscphase.cli
    except ImportError as exc:
        print("perfbench worker: cannot import oscphase from %s: %s" % (SRC, exc), file=sys.stderr)
        sys.exit(2)
    if Path(oscphase.__file__).resolve().parent != (SRC / "oscphase").resolve():
        print("perfbench worker: oscphase came from %s, not %s" % (oscphase.__file__, SRC), file=sys.stderr)
        sys.exit(2)


# -- one pass of each workload ---------------------------------------------
# Each returns (record, artifacts): record goes into worker.json, artifacts
# are written to the pass directory after the clock has stopped.


def _cli(args, out):
    return oscphase.cli.main([str(a) for a in args] + ["--out", str(out)])


def _param_args(inp):
    return ["--mass", repr(inp["mass"]), "--omega", repr(inp["omega"])]


def pass_verify(inp, out_dir):
    rc = _cli(["verify", "--n-max", inp["n_max"], *_param_args(inp)], out_dir / "verify.txt")
    return {"rc": rc, "outputs": ["verify.txt"]}, {}


def pass_trajectory(inp, out_dir):
    args = ["trajectory", "--n-max", inp["n_max"], *_param_args(inp)]
    args += ["--t-max", repr(inp["t_max"]), "--dt", repr(inp["dt"]), "--state", inp["state"]]
    rc = _cli(args, out_dir / "trajectory.csv")
    return {"rc": rc, "outputs": ["trajectory.csv"]}, {}


def pass_ladder(inp, out_dir):
    ladder = ",".join(str(n) for n in inp["ladder"])
    rc = _cli(["unitarity-scan", "--n-max-list", ladder, *_param_args(inp)], out_dir / "ladder.csv")
    params = oscphase.OscParams(inp["mass"], inp["omega"])
    basis = oscphase.build_basis(inp["time_operator_n_max"])
    ops = oscphase.cartesian_operators(basis, params)
    sph = oscphase.build_spherical(basis, params, ops)
    cyclic = oscphase.build_phase_operators(sph, params, "cyclic", ops)
    time_op = cyclic.time_operator()
    path = out_dir / "exp_plus.txt"
    oscphase.save_operator(path, cyclic.exp_plus)
    loaded = oscphase.load_operator(path, cyclic.doubled)
    artifacts = {"time_operator": time_op, "exp_plus": cyclic.exp_plus, "loaded": loaded}
    return {"rc": rc, "outputs": ["ladder.csv"]}, artifacts


PASSES = {
    "verify_large": pass_verify,
    "trajectory_long": pass_trajectory,
    "cyclic_ladder": pass_ladder,
}


def save_artifacts(artifacts, out_dir):
    if "time_operator" in artifacts:
        t = artifacts["time_operator"]
        dense = t.toarray() if hasattr(t, "toarray") else np.asarray(t)
        np.save(out_dir / "time_operator.npy", dense)
    if "exp_plus" in artifacts:
        arrays = {}
        for tag in ("exp_plus", "loaded"):
            op = artifacts[tag]
            m = op.matrix.tocsr()
            arrays.update(
                {
                    tag + "_data": m.data,
                    tag + "_indices": m.indices,
                    tag + "_indptr": m.indptr,
                    tag + "_meta": np.array([*m.shape, op.window, op.lo, op.hi]),
                }
            )
        np.savez(out_dir / "roundtrip.npz", **arrays)


# -- counts taken at layer boundaries while tracing -----------------------


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _probe_spherical(counts, a, result):
    _add(counts, "spherical.dim", result.dim)


def _probe_phase_set(counts, a, result):
    _add(counts, "phase3d.exp_plus.nnz", result.exp_plus.matrix.nnz)


def _probe_kernel(counts, a, result):
    # Nominal work of the sweep per time step, computed from array sizes:
    # 8 real flops per stored entry (complex multiply-add) plus 15 per basis
    # state (phase product and the conjugate dot product); 20 bytes per
    # stored entry (complex value and int32 index) plus 72 per basis state
    # (energy read, psi written and read twice, A psi written).
    steps = len(a["times"])
    dim = len(a["amps0"])
    nnz = a["op_csr"].nnz
    _add(counts, "kernels.steps", steps)
    _add(counts, "kernels.flops_computed", steps * (8 * nnz + 15 * dim))
    _add(counts, "kernels.bytes_computed", steps * (20 * nnz + 72 * dim))


def _probe_save(counts, a, result):
    _add(counts, "serialize.bytes", os.path.getsize(a["path"]))


def _probe_checks(counts, a, result):
    _add(counts, "checks.count", len(result))
    headroom = [
        math.log10(r.tolerance / r.residual) for r in result if r.residual > 0 and r.tolerance > 0
    ]
    if headroom:
        counts["checks.min_headroom"] = min(counts.get("checks.min_headroom", math.inf), min(headroom))


PROBES = {
    "spherical.build_spherical": _probe_spherical,
    "phase3d.build_phase_operators": _probe_phase_set,
    "kernels.trajectory_expectations": _probe_kernel,
    "serialize.save_operator": _probe_save,
    "checks.run_all_checks": _probe_checks,
}


def layer_modules():
    mods = []
    for name in LAYERS:
        try:
            mods.append(importlib.import_module("oscphase." + name))
        except ModuleNotFoundError:
            pass  # a layer that a later change removed: its spans read as absent
    return mods


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def run_pass(workload, inp, out_dir, tracer=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        record, artifacts = PASSES[workload](inp, out_dir)
    except Exception:  # the pass is one attempted operation set; report, go on
        record, artifacts = {"error": traceback.format_exc()}, {}
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    record["wall_s"] = wall
    record["traced"] = tracer is not None
    record["bytes_out"] = sum(
        (out_dir / name).stat().st_size for name in record.get("outputs", ()) if (out_dir / name).exists()
    )
    save_artifacts(artifacts, out_dir)
    return record


def main(argv):
    spec = json.loads(Path(argv[0]).read_text())
    _import_package()
    workload = spec["workload"]
    workdir = Path(spec["workdir"])
    run_pass(workload, spec["warmup_inputs"], workdir / "warmup")
    if "--setup-only" in argv:
        return 0

    tracer = Tracer(layer_modules(), PROBES) if spec["trace"] else None
    passes, layers, counts, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, so the two
        # walls that give the tracing overhead come from the same process.
        traced = tracer is not None and len(passes) % 2 == 1
        record = run_pass(workload, spec["inputs"], workdir / ("pass%d" % len(passes)), tracer if traced else None)
        passes.append(record)
        if traced:
            layers.append(tracer.summary())
            counts.append(dict(tracer.counts))
            spans.append(tracer.spans())
        # Start another pass only if it should end nearer to the budget than
        # stopping now would; keep three passes for a median in any case.
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= spec["seconds"] and len(passes) >= MIN_PASSES:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
        "layers": layers,
        "counts": counts,
        "found": sorted(tracer.found) if tracer else [],
        "probe_errors": tracer.probe_errors if tracer else [],
    }
    (workdir / "worker.json").write_text(json.dumps(result))
    if spans:
        with gzip.open(spec["spans_path"], "wt") as fh:
            json.dump({"columns": ["name", "parent", "start", "end"], "passes": spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
