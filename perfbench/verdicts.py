"""Output checks: how many operations of a pass attempted and failed.

The references are invariants and data recorded at the commit that
defined the benchmark (refs.json, written by make_refs.py). Residual
digits and entries of the phase matrix are never compared byte for byte;
values are compared within the package's pinned tolerances, copied here
so that a change to the package cannot loosen the benchmark's checks.

Operations per pass:
  verify_large     each of the reference check lines
  trajectory_long  the whole CSV, one operation
  cyclic_ladder    each unitarity-scan row, the time operator, the round trip
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
from scipy import sparse

from workloads import expected_exp_plus0

# oscphase.checks at the commit that defined the benchmark
TOL_UNITARY = 1e-12
TOL_ROTATION = 1e-10
TOL_SLOPE = 1e-9

CSV_HEADER = "t,re_exp_plus,im_exp_plus,abs_exp_plus,phi_unwound,tau,j,sigma,branch"
LADDER_HEADER = "n_max,open_defect,open_defect_interior,cyclic_defect"
VERIFY_LINE = re.compile(
    r'^(PASS|FAIL) name=(\S+) law="(.*)" mode=(\S+) window=(-?\d+) residual=(\S+) tol=(\S+)$'
)
REFS_PATH = Path(__file__).resolve().parent / "refs.json"


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def params_key(mass: float, omega: float) -> str:
    return "%r,%r" % (mass, omega)


class Checker:
    """Checks the passes of one run.

    Passes of one process usually write identical bytes; a verdict is
    computed once per distinct set of output files and reused.
    """

    def __init__(self, workload: str, inputs: dict, refs: dict):
        self.workload = workload
        self.inputs = inputs
        self.refs = refs
        self._verdicts = {}

    def operations(self) -> int:
        """Operations attempted in one pass."""
        if self.workload == "verify_large":
            return len(self.refs["verify"][str(self.inputs["n_max"])])
        if self.workload == "trajectory_long":
            return 1
        return len(self.inputs["ladder"]) + 2

    def check(self, record: dict, pass_dir: Path):
        """(attempted, failed, problems) for one pass."""
        n = self.operations()
        if "error" in record:
            return n, n, [record["error"]]
        digest = hashlib.sha256(repr(record["rc"]).encode())
        for path in sorted(pass_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        key = digest.hexdigest()
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check(record["rc"], pass_dir, n)
            except (OSError, ValueError) as exc:
                self._verdicts[key] = (n, n, ["unreadable output: %r" % exc])
        return self._verdicts[key]

    def _check(self, rc, pass_dir, n):
        inputs = self.inputs
        if self.workload == "verify_large":
            text = (pass_dir / "verify.txt").read_text()
            return verify_counts(text, self.refs["verify"][str(inputs["n_max"])], inputs["n_max"])
        if self.workload == "trajectory_long":
            problems = [] if rc == 0 else ["trajectory exited %r" % rc]
            problems += trajectory_problems((pass_dir / "trajectory.csv").read_text(), inputs)
            return n, int(bool(problems)), problems[:5]
        ref_rows = self.refs["ladder"][params_key(inputs["mass"], inputs["omega"])]
        problems = ladder_problems((pass_dir / "ladder.csv").read_text(), inputs["ladder"], ref_rows)
        failed = len(problems)
        npz = np.load(pass_dir / "roundtrip.npz")
        saved, loaded = _operator(npz, "exp_plus"), _operator(npz, "loaded")
        if not roundtrip_exact(saved, loaded):
            failed += 1
            problems.append("save/load round trip is not exact")
        bad = phase_problems(-inputs["omega"] * np.load(pass_dir / "time_operator.npy"), saved[0])
        if bad:
            failed += 1
            problems += bad
        return n, min(failed, n), problems[:5]


def verify_counts(text: str, ref: list, n_max: int):
    """Each reference check must appear once, PASS, with its pinned tolerance."""
    seen = {}
    extra = 0
    summary = None
    for line in text.splitlines():
        if line.startswith("# summary:"):
            summary = line
            continue
        m = VERIFY_LINE.match(line)
        if m is None:
            extra += 1
            continue
        status, name, _law, mode, _window, residual, tol = m.groups()
        seen.setdefault((name, mode), []).append((status, float(residual), float(tol)))
    problems = []
    failed = 0
    for name, mode, ref_tol in ref:
        got = seen.pop((name, mode), [])
        if len(got) != 1:
            problems.append("check %s/%s appears %d times" % (name, mode, len(got)))
        else:
            status, residual, tol = got[0]
            if status != "PASS" or not residual <= tol:
                problems.append("check %s/%s: %s residual=%g tol=%g" % (name, mode, status, residual, tol))
            elif tol != ref_tol:
                problems.append("check %s/%s: tolerance %g, pinned %g" % (name, mode, tol, ref_tol))
            else:
                continue
        failed += 1
    extra += sum(len(v) for v in seen.values())
    if extra:
        problems.append("%d unexpected output lines" % extra)
    attempted = len(ref) + extra
    failed += extra
    want = "# summary: checks=%d passed=%d failed=0 n_max=%d " % (len(ref), len(ref), n_max)
    if summary is None or not summary.startswith(want):
        problems.append("summary line %r does not start with %r" % (summary, want))
        failed = attempted  # an inconsistent summary discredits the whole output
    return attempted, failed, problems[:5]


def ladder_problems(text: str, ladder, ref_rows: dict) -> list:
    """One problem per ladder row that is missing or off its reference."""
    lines = text.splitlines()
    if not lines or lines[0] != LADDER_HEADER:
        return ["bad ladder header %r" % (lines[:1],)] * len(ladder)
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    for k, n_max in enumerate(ladder):
        if k >= len(rows) or len(rows[k]) != 4 or rows[k][0] != str(n_max):
            problems.append("ladder row %d: expected n_max=%d, got %r" % (k, n_max, rows[k:k + 1]))
            continue
        got = np.array([float(x) for x in rows[k][1:]])
        want = np.array(ref_rows[str(n_max)])
        if not np.all(np.abs(got - want) <= TOL_UNITARY):
            problems.append("ladder n_max=%d: defects %s, reference %s" % (n_max, got, want))
    if len(rows) > len(ladder):
        problems.append("%d extra ladder rows" % (len(rows) - len(ladder)))
    return problems


def _operator(npz, tag):
    shape0, shape1, window, lo, hi = (int(x) for x in npz[tag + "_meta"])
    m = sparse.csr_matrix(
        (npz[tag + "_data"], npz[tag + "_indices"], npz[tag + "_indptr"]), shape=(shape0, shape1)
    )
    return m, (window, lo, hi)


def roundtrip_exact(saved, loaded) -> bool:
    (a, meta_a), (b, meta_b) = saved, loaded
    return meta_a == meta_b and a.shape == b.shape and (a != b).nnz == 0


def phase_problems(phase: np.ndarray, exp_plus) -> list:
    """The phase must be Hermitian and exp(2i phase) must equal E, entrywise to 1e-12.

    On the -1 eigenspace of E the phase depends on the basis LAPACK picks,
    so only these invariants are compared, never its entries.
    """
    e = exp_plus.toarray()
    if phase.shape != e.shape:
        return ["phase has shape %s, E has %s" % (phase.shape, e.shape)]
    problems = []
    herm = np.abs(phase - phase.conj().T).max()
    if not herm <= TOL_UNITARY:
        problems.append("phase is not Hermitian: max |phi - phi^H| = %.3e" % herm)
    evals, evecs = np.linalg.eigh(0.5 * (phase + phase.conj().T))
    rebuilt = (evecs * np.exp(2j * evals)) @ evecs.conj().T
    resid = np.abs(rebuilt - e).max()
    if not resid <= TOL_UNITARY:
        problems.append("exp(2i phi) differs from E by %.3e" % resid)
    return problems


def trajectory_problems(text: str, inputs: dict) -> list:
    """Compare the CSV with the rigid rotation of <E> that the chain action implies.

    A single-copy state has <E>(t) = <E>(0) exp(-2i lam w t), so the
    unwound phase is phi(t) = arg<E>(0)/2 - lam w t and tau = -phi/w.
    Integer and label columns must match exactly, except that a row whose
    reference phase lies within the tolerance of a winding-cell boundary
    may sit in either neighbouring cell.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        return ["bad trajectory header %r" % (lines[:1],)]
    steps = int(round(inputs["t_max"] / inputs["dt"]))
    if len(lines) != steps + 2:
        return ["trajectory has %d rows, expected %d" % (len(lines) - 1, steps + 1)]
    fields = [line.split(",") for line in lines[1:]]
    if any(len(f) != 9 for f in fields):
        return ["trajectory row with the wrong number of fields"]
    cols = list(zip(*fields))
    try:
        t, re_e, im_e, abs_e, phi, tau = (np.array(c, dtype=float) for c in cols[:6])
        j = np.array(cols[6], dtype=np.int64)
    except ValueError as exc:
        return ["unparsable trajectory value: %s" % exc]
    sigma, branch = np.array(cols[7]), np.array(cols[8])

    terms = inputs["terms"]
    lam = terms[0][3]
    omega = inputs["omega"]
    e0 = expected_exp_plus0(terms)
    t_ref = np.arange(steps + 1) * inputs["dt"]
    e_ref = e0 * np.exp(-2j * lam * omega * t_ref)
    phi_ref = 0.5 * np.angle(e0) - lam * omega * t_ref
    tol_phase = TOL_SLOPE * np.maximum(1.0, omega * t_ref)

    problems = []

    def close(name, got, want, tol):
        bad = ~(np.abs(got - want) <= tol)
        if bad.any():
            k = int(np.argmax(bad))
            problems.append("%s off at row %d: %r vs %r" % (name, k, got[k], want[k]))

    close("t", t, t_ref, TOL_SLOPE * np.maximum(1.0, t_ref))
    close("re_exp_plus", re_e, e_ref.real, TOL_ROTATION)
    close("im_exp_plus", im_e, e_ref.imag, TOL_ROTATION)
    close("abs_exp_plus", abs_e, np.full_like(t_ref, abs(e0)), TOL_ROTATION)
    close("phi_unwound", phi, phi_ref, tol_phase)
    close("tau", tau, -phi_ref / omega, tol_phase / omega)

    want_branch = "(+)" if lam > 0 else "(-)"
    if not np.all(branch == want_branch):
        problems.append("branch column is not %s throughout" % want_branch)
    if not np.all((sigma == "+") | (sigma == "-")):
        problems.append("sigma column holds a value other than + or -")
    # Cell k is k pi < phi <= (k + 1) pi; (j, sigma) names it per branch.
    if lam > 0:
        k = np.where(sigma == "-", -2 * j, -2 * j - 1)
    else:
        k = np.where(sigma == "+", 2 * j, 2 * j - 1)
    k_lo = np.ceil((phi_ref - tol_phase) / np.pi) - 1
    k_hi = np.ceil((phi_ref + tol_phase) / np.pi) - 1
    bad = (k < k_lo) | (k > k_hi)
    if bad.any():
        r = int(np.argmax(bad))
        problems.append("winding (j=%d, sigma=%s) wrong at row %d" % (j[r], sigma[r], r))
    return problems
