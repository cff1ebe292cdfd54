"""oscphase benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads, their metrics and the
metrics' bounds are listed in BENCHMARK.json; perfbench/README.md says
what each one measures and why.

One run does this:
  1. draws the workload's inputs from the seed (workloads.py);
  2. times set-up several times: a fresh interpreter that imports the
     package from src/ and runs the workload once at a tiny size;
  3. starts one workload process (worker.py), BLAS pinned to one thread,
     that repeats the workload until --seconds have passed; with
     --trace 1 every other pass runs under the span tracer (spans.py);
  4. checks every pass's outputs (verdicts.py);
  5. prints a few '#' lines for people, then, as the last line, one JSON
     object: correct, attempted, failed, and the metrics (end-to-end with
     --trace 0, per-layer with --trace 1).

The full record of the run, with the environment and every pass, goes to
perfbench/results/. Exits 2 without a result when the checkout has no
src/oscphase or the workload process fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from verdicts import Checker, load_refs
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 150
# Per-layer metrics that worker.PROBES count at layer boundaries.
COUNTS = {
    "spherical.dim",
    "phase3d.exp_plus.nnz",
    "kernels.steps",
    "kernels.flops_computed",
    "kernels.bytes_computed",
    "serialize.bytes",
    "checks.count",
    "checks.min_headroom",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def time_setup(spec_path: Path) -> float:
    """Seconds from starting a fresh interpreter to the end of its warm-up."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(spec_path), "--setup-only"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up run exited %d:\n%s" % (proc.returncode, proc.stderr))
    return elapsed


def run_worker(spec_path: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(spec_path)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("workload process exited %d:\n%s" % (proc.returncode, proc.stderr))


def percentile_note(values) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    q = 100 * (n - 10) // n if n > 10 else 0
    rank = -(-q * n // 100)  # nearest rank of the q-th percentile
    if rank < 1:
        return "no percentile has ten samples beyond it at n=%d" % n
    return "p%d=%.4f s with %d samples beyond it" % (q, sorted(values)[rank - 1], n - rank)


def layer_metrics(per_layer, worker, attempted, failed):
    """Every per-layer metric of BENCHMARK.json, from the traced passes."""
    traced = [p for p in worker["passes"] if p["traced"]]
    untraced = [p for p in worker["passes"] if not p["traced"]]
    layers, counts = worker["layers"], worker["counts"]
    found = set(worker["found"])
    values, absent = {}, []
    for metric in per_layer:
        name = metric["name"]
        if name == "failed_frac":
            value = failed / attempted
        elif name == "trace.overhead_s":
            value = _median([p["wall_s"] for p in traced]) - _median([p["wall_s"] for p in untraced])
        elif name == "cli.bytes_out":
            value = _median([p["bytes_out"] for p in traced])
        elif name in COUNTS:
            value = _median([c.get(name, 0) for c in counts])
        else:
            key, _, stat = name.rpartition(".")
            if key in found:
                value = _median([layer.get(key, {}).get(stat, 0) for layer in layers])
            elif "." not in key:  # a whole layer, e.g. cli.self_s
                value = _median(
                    [sum(rec[stat] for k, rec in layer.items() if k.startswith(key + ".")) for layer in layers]
                )
            else:
                value = 0
                absent.append(name)
        values[name] = {"value": value, "unit": metric["unit"]}
    return values, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one oscphase benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oscphase" / "__init__.py").is_file():
        print("perfbench: no src/oscphase under %s; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = make_inputs(args.workload, args.seed, args.scale)
    RESULTS.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = Path(tempfile.mkdtemp(prefix=tag + "-", dir=RESULTS))
    try:
        spec = {
            "workload": args.workload,
            "inputs": inputs,
            "warmup_inputs": make_inputs(args.workload, args.seed, "tiny"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workdir": str(workdir),
            "spans_path": str(RESULTS / (tag + "-spans.json.gz")),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        setups = [time_setup(spec_path) for _ in range(SETUP_RUNS)]
        run_worker(spec_path)
        worker = json.loads((workdir / "worker.json").read_text())

        checker = Checker(args.workload, inputs, load_refs())
        attempted = failed = 0
        problems = []
        for k, record in enumerate(worker["passes"]):
            a, f, notes = checker.check(record, workdir / ("pass%d" % k))
            attempted += a
            failed += f
            problems += ["pass %d: %s" % (k, note) for note in notes]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [p["wall_s"] for p in worker["passes"] if not p["traced"]]
    if args.trace:
        metrics, absent = layer_metrics(bench["per_layer"], worker, attempted, failed)
    else:
        absent = []
        measured = {
            "wall_s": _median(walls),
            "peak_rss_mb": worker["peak_rss_mb"],
            "setup_s": _median(setups),
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    env = worker["environment"]
    record = {
        "args": vars(args),
        "inputs": inputs,
        "environment": env,
        "setup_s": setups,
        "passes": worker["passes"],
        "problems": problems,
        "absent": absent,
        "probe_errors": worker["probe_errors"],
        "metrics": metrics,
    }
    (RESULTS / (tag + ".json")).write_text(json.dumps(record, indent=1))

    quartiles = statistics.quantiles(walls, n=4)  # the worker makes at least two untraced passes
    print("# %s seed=%d mass=%r omega=%r" % (args.workload, args.seed, inputs["mass"], inputs["omega"]))
    print(
        "# untraced passes n=%d median=%.4f s q1=%.4f q3=%.4f max=%.4f; %s"
        % (len(walls), _median(walls), quartiles[0], quartiles[2], max(walls), percentile_note(walls))
    )
    print(
        "# python %s numpy %s scipy %s blas %s threads=%s nproc=%s numba=%s"
        % (env["python"], env["numpy"], env["scipy"], env["blas"], env["blas_threads"], env["nproc"], env["numba"])
    )
    if absent:
        print("# absent spans (reported as 0): %s" % ", ".join(absent))
    for note in problems[:10]:
        print("# FAILED %s" % note.splitlines()[-1])
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
