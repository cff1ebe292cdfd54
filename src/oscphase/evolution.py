"""Time evolution and phase-expectation trajectories on the doubled space.

The Hamiltonian is diagonal over the doubled spherical labels with
eigenvalue w (N + 3/2), N = 2n + l, on both copies, so propagation is a
diagonal phase multiplication and every expectation is a short Fourier
series over shell displacements D of the operator,

    <psi(t)| A |psi(t)> = sum_D C_D exp(i D w t).

For a state supported on a single copy the phase exponential has one
component, D = -2 on H_+ and D = +2 on H_-, so its expectation rotates
rigidly,

    <exp(2i phase)>(t) = <exp(2i phase)>(0) exp(-2 i w t)   on H_+,

with the opposite rotation on H_-. Half the continuous argument of that
expectation is the unwound phase phi(t) = (arg C + D w t) / 2, exact on
any grid; tau = -phi / w then advances with slope +1 (H_+) or -1 (H_-).
The winding bookkeeping (j, sigma) labels which pi-wide cell of the real
line phi currently occupies; the cells tile the line exactly, one full
period stepping j by one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import OscParams
from .phase3d import DoubledBasis, PhaseOperatorSet
from .spherical import SphericalLabel

PHASE_MODULUS_TOL = 1e-8
MAX_RAW_STEP = np.pi / 2
# Past |phi| = pi 2^53 the cell index k exceeds 2^53, where floats no longer
# hold every integer, so the cells (k pi, (k+1) pi] stop tiling the line.
MAX_WINDING_PHI = math.pi * 2.0**53


class PhaseUndefined(Exception):
    """Phase expectation too small to carry a well-defined argument."""


class UnwrapAmbiguity(Exception):
    """The sampling grid cannot support unambiguous phase unwrapping."""


@dataclass(frozen=True)
class StateSpec:
    """Superposition given as ((label, lam, amplitude), ...) terms.

    lam = +1 places the term in H_+, lam = -1 in H_-. Amplitudes are
    normalized at assembly time.
    """

    terms: tuple

    @classmethod
    def of(cls, terms) -> "StateSpec":
        out = []
        for label, lam, amp in terms:
            if not isinstance(label, SphericalLabel):
                label = SphericalLabel(*label)
            if lam not in (+1, -1):
                raise ValueError("lam must be +1 or -1")
            if not cmath.isfinite(amp):
                sign = "+" if lam > 0 else "-"
                raise ValueError(f"state term {label.n},{label.l},{label.m},{sign}: amplitude {amp!r} is not finite")
            out.append((label, int(lam), complex(amp)))
        return cls(tuple(out))

    def branch_lambda(self) -> int:
        lams = {lam for _, lam, amp in self.terms if amp != 0}
        if not lams:
            raise ValueError("state has zero norm")
        if len(lams) != 1:
            raise ValueError("state must live in a single copy for phase trajectories")
        return lams.pop()

    @property
    def branch(self) -> str:
        return "(+)" if self.branch_lambda() > 0 else "(-)"


@dataclass(frozen=True)
class WindingState:
    j: int
    sigma: str
    branch: str


def energies(doubled: DoubledBasis, params: OscParams) -> np.ndarray:
    """Diagonal Hamiltonian over the doubled labels, identical on both copies."""
    single = params.omega * (doubled.spherical.shells + 1.5)
    return np.concatenate([single, single])


def state_vector(spec: StateSpec, doubled: DoubledBasis) -> np.ndarray:
    """The normalized vector of spec over the doubled labels.

    The amplitudes are first scaled by a power of two, which is exact, so
    that their largest real or imaginary part lies in [1/2, 1): the sum of
    squares then neither overflows near the float maximum nor underflows
    for tiny amplitudes, and the normalized vector is the same bits at
    any scale that needs neither.
    """
    top = max((max(abs(amp.real), abs(amp.imag)) for _, _, amp in spec.terms), default=0.0)
    shift = -math.frexp(top)[1]
    vec = np.zeros(doubled.dim, dtype=np.complex128)
    for label, lam, amp in spec.terms:
        if label not in doubled.spherical.index:
            raise ValueError(f"label {label} is not in the truncated basis")
        vec[doubled.index(label, lam)] += complex(math.ldexp(amp.real, shift), math.ldexp(amp.imag, shift))
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError("state has zero norm")
    return vec / norm


def propagate(spec: StateSpec, t: float, params: OscParams, doubled: DoubledBasis) -> np.ndarray:
    """State vector at time t under the diagonal propagator exp(-i E t)."""
    vec = state_vector(spec, doubled)
    return vec * np.exp(-1j * energies(doubled, params) * t)


def _wrap_pi(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _winding_columns(phi: np.ndarray, branch: str) -> tuple[np.ndarray, np.ndarray]:
    """(j, sigma) arrays of the winding cells holding each phi on one branch; ValueError past MAX_WINDING_PHI."""
    beyond = np.flatnonzero(np.abs(phi) >= MAX_WINDING_PHI)
    if beyond.size:
        raise ValueError(f"phi = {float(phi[beyond[0]])!r} is beyond the winding cells' range |phi| < pi 2^53")
    k = np.ceil(phi / np.pi) - 1  # unique k with k pi < phi <= (k+1) pi
    # the division can misplace phi by one cell right at a boundary
    # (a subnormal phi underflows the quotient to zero, for instance);
    # snap k against the same products winding_interval uses
    k = (k - (phi <= k * np.pi) + (phi > (k + 1) * np.pi)).astype(np.int64)
    odd = k % 2
    half = (k + odd) // 2
    if branch == "(+)":
        return -half, np.where(odd == 1, "+", "-")
    return half, np.where(odd == 1, "-", "+")


def _cell_from_winding(j, sigma, branch: str):
    if branch == "(+)":
        return -2 * j - (sigma != "-")
    return 2 * j - (sigma != "+")


def classify_winding(phi: float, branch: str) -> WindingState:
    """Locate phi in the pi-wide half-open winding cells of one branch.

    Branch (+): cell (j, -) is -2j pi < phi <= pi - 2j pi and cell (j, +)
    is -pi - 2j pi < phi <= -2j pi. Branch (-) mirrors the layout with
    cells advancing toward positive phi. The cells tile the real line
    for |phi| < pi 2^53; beyond it this raises ValueError.
    """
    if branch not in ("(+)", "(-)"):
        raise ValueError("branch must be '(+)' or '(-)'")
    if not math.isfinite(phi):
        raise ValueError("phi must be finite, got %r" % phi)
    j, sigma = _winding_columns(np.array([float(phi)]), branch)
    return WindingState(j=int(j[0]), sigma=str(sigma[0]), branch=branch)


def winding_interval(j, sigma, branch: str) -> tuple:
    """Half-open cell (low, high] for the given winding label; j and sigma
    may also be arrays, which give arrays of bounds.

    Adjacent cells share the exact float boundary k * math.pi, so the
    cells tile the line with no gaps or overlaps at the float level.
    """
    k = _cell_from_winding(j, sigma, branch)
    return (k * math.pi, (k + 1) * math.pi)


def spectral_components(shells, amps, rows, cols, vals) -> tuple[np.ndarray, np.ndarray]:
    """Shell displacements D and coefficients C_D of <psi(t)| A |psi(t)>.

    A is given by its stored entries A[rows[k], cols[k]] = vals[k]. With
    psi(t) = exp(-i w (shells + 3/2) t) amps, the expectation equals
    sum_D C_D exp(i D w t); C_D sums conj(a_i) A_ij a_j over the entries
    with shells[i] - shells[j] = D, in entry order, in one O(nnz) pass.
    """
    shells = np.asarray(shells, dtype=np.int64)
    amps = np.asarray(amps, dtype=np.complex128)
    weights = np.conj(amps[rows]) * vals * amps[cols]
    deltas, which = np.unique(shells[rows] - shells[cols], return_inverse=True)
    coeffs = np.bincount(which, weights.real) + 1j * np.bincount(which, weights.imag)
    return deltas, coeffs


def expectation_series(deltas, coeffs, omega: float, t_grid) -> np.ndarray:
    """sum_D C_D exp(i D w t) at every t of the grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.zeros(t_grid.shape, dtype=np.complex128)
    for delta, c in zip(deltas, coeffs):
        out += c * np.exp(1j * (delta * omega) * t_grid)
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Columns of a phase trajectory, one entry per grid time t: the
    expectation exp_plus of the phase exponential (exp_minus is its
    conjugate), the unwound phase phi, tau = -phi / w, and the winding
    label (j, sigma) of each phi on the branch."""

    t: np.ndarray
    exp_plus: np.ndarray
    phi: np.ndarray
    tau: np.ndarray
    j: np.ndarray
    sigma: np.ndarray
    branch: str


def phase_trajectory(
    spec: StateSpec, t_grid, params: OscParams, pset: PhaseOperatorSet
) -> Trajectory:
    """Expectation of the phase exponential along a time grid.

    The state must live in one copy and inside the trajectory window
    (every supported label needs 2n + l <= n_max - 2, where the phase
    exponential is exact). There the expectation has the single spectral
    component C exp(i D w t), and phi(t) = (arg C + D w t) / 2 with
    arg C in (-pi, pi]: exact on any grid, however coarse.

    A 1D float64 t_grid is not copied: the trajectory's t is the caller's
    array, and a later write to it shows in t.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be a nonempty 1D array of finite times")
    branch = spec.branch
    doubled = pset.doubled
    for label, _lam, amp in spec.terms:
        if amp != 0 and label.shell > doubled.n_max - 2:
            raise ValueError(
                f"label {label} sits outside the trajectory window (2n+l <= n_max-2)"
            )
    vec = state_vector(spec, doubled)
    rows, cols = pset.exp_entries  # every stored entry of E is 1
    deltas, coeffs = spectral_components(doubled.shells, vec, rows, cols, np.ones(rows.size, dtype=np.complex128))
    exp_plus = expectation_series(deltas, coeffs, params.omega, t_grid)

    if abs(exp_plus[0]) < PHASE_MODULUS_TOL:
        raise PhaseUndefined(
            f"|<exp(2i phase)>(0)| = {abs(exp_plus[0]):.3e} for state {spec.terms!r}"
        )
    live = np.flatnonzero(np.abs(coeffs) >= PHASE_MODULUS_TOL)
    if live.size != 1:
        comps = ", ".join(f"D={deltas[k]}: {coeffs[k]:.3e}" for k in live)
        raise UnwrapAmbiguity(
            f"<exp(2i phase)>(t) has {live.size} spectral components ({comps}); "
            "its phase has no single rotation to unwind"
        )
    delta, c = deltas[live[0]], coeffs[live[0]]
    phi = 0.5 * (np.angle(c) + (delta * params.omega) * t_grid)
    j, sigma = _winding_columns(phi, branch)
    return Trajectory(
        t=t_grid, exp_plus=exp_plus, phi=phi, tau=-phi / params.omega, j=j, sigma=sigma, branch=branch
    )


@dataclass(frozen=True)
class TauFit:
    slope: float
    intercept: float
    max_residual: float


def tau_law_check(traj: Trajectory) -> TauFit:
    """Least-squares line through tau(t); raises on unusable grids.

    A single point leaves the slope undefined, and any step that moves
    the raw argument of exp_plus by pi/2 or more makes the unwrapping
    ambiguous; both raise UnwrapAmbiguity.
    """
    if traj.t.size < 2:
        raise UnwrapAmbiguity("at least two grid points are needed for a slope")
    steps = np.abs(_wrap_pi(np.diff(np.angle(traj.exp_plus))))
    if np.any(steps >= MAX_RAW_STEP):
        raise UnwrapAmbiguity(
            f"raw argument step {steps.max():.3f} rad >= pi/2; refine the grid"
        )
    ts, taus = traj.t, traj.tau
    # polyfit squares its abscissae: fit on t / 2^e in [-1, 1], an exact
    # rescaling that leaves every fit with a representable t^2 unchanged
    _, e = np.frexp(np.abs(ts).max())
    slope, intercept = np.polyfit(np.ldexp(ts, -e), taus, 1)
    slope = np.ldexp(slope, -e)
    resid = np.abs(taus - (slope * ts + intercept)).max()
    return TauFit(slope=float(slope), intercept=float(intercept), max_residual=float(resid))


@dataclass(frozen=True)
class HalfPeriodReport:
    entries: tuple
    ok: bool


def half_period_advance_check(
    spec: StateSpec, params: OscParams, pset: PhaseOperatorSet, periods: int = 4
) -> HalfPeriodReport:
    """Track winding labels across half periods of T0 = 2 pi / w.

    Every half period sigma flips, and j steps by one whenever sigma
    returns to '-': (j,-) -> (j,+) -> (j+1,-). The same pattern holds on
    both branches. Entries are (t, phi, observed, expected) with expected
    None on the starting row.
    """
    steps_per_half = 32
    t0 = 2.0 * np.pi / params.omega
    dt = 0.5 * t0 / steps_per_half
    n_half = 2 * periods
    grid = np.arange(n_half * steps_per_half + 1) * dt
    traj = phase_trajectory(spec, grid, params, pset)
    entries = []
    ok = True
    prev = None
    for k in range(0, grid.size, steps_per_half):
        observed = WindingState(j=int(traj.j[k]), sigma=str(traj.sigma[k]), branch=traj.branch)
        if prev is None:
            expected = None
        elif prev.sigma == "-":
            expected = WindingState(j=prev.j, sigma="+", branch=prev.branch)
        else:
            expected = WindingState(j=prev.j + 1, sigma="-", branch=prev.branch)
        if expected is not None and observed != expected:
            ok = False
        entries.append((float(traj.t[k]), float(traj.phi[k]), observed, expected))
        prev = observed
    return HalfPeriodReport(entries=tuple(entries), ok=ok)
