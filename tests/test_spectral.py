import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import oscphase
from oscphase import (
    StateSpec,
    UnwrapAmbiguity,
    classify_winding,
    expectation_series,
    phase_trajectory,
    spectral_components,
    state_vector,
    winding_interval,
)

TWO_LEVEL = [((0, 0, 0), +1, 1 / np.sqrt(2)), ((1, 0, 0), +1, 1 / np.sqrt(2))]


def random_problem(dim=40, n_times=37, seed=7):
    rng = np.random.default_rng(seed)
    shells = rng.integers(0, 9, dim)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    dense = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    dense[rng.random((dim, dim)) < 0.8] = 0.0
    op = sparse.csr_matrix(dense)
    times = np.linspace(0.0, 5.0, n_times)
    return shells, amps, op, times


def reference_sweep(e, amps, op, times):
    out = np.empty(times.size, dtype=np.complex128)
    for k, t in enumerate(times):
        psi = amps * np.exp(-1j * e * t)
        out[k] = np.vdot(psi, op @ psi)
    return out


def entries(op):
    """(rows, cols, vals) of the stored entries of a sparse matrix, in CSR order."""
    coo = op.tocoo()
    return coo.row, coo.col, coo.data


def spectral_sweep(shells, amps, op, times, omega):
    deltas, coeffs = spectral_components(shells, amps, *entries(op))
    return expectation_series(deltas, coeffs, omega, times)


@pytest.mark.parametrize("omega", [1.0, 0.73])
def test_spectral_matches_reference(omega):
    shells, amps, op, times = random_problem()
    want = reference_sweep(omega * (shells + 1.5), amps, op, times)
    assert np.abs(spectral_sweep(shells, amps, op, times, omega) - want).max() < 1e-12


def test_spectral_matches_reference_on_long_grid():
    shells, amps, op, times = random_problem(dim=12, n_times=301, seed=3)
    want = reference_sweep(shells + 1.5, amps, op, times)
    assert np.abs(spectral_sweep(shells, amps, op, times, 1.0) - want).max() < 1e-12


def test_components_group_by_shell_displacement():
    shells, amps, op, _ = random_problem(dim=25, seed=5)
    deltas, coeffs = spectral_components(shells, amps, *entries(op))
    dense = op.toarray()
    assert np.array_equal(deltas, np.unique(np.subtract.outer(shells, shells)[dense != 0]))
    for delta, c in zip(deltas, coeffs):
        mask = np.subtract.outer(shells, shells) == delta
        assert abs(c - np.vdot(amps, np.where(mask, dense, 0.0) @ amps)) < 1e-13


@pytest.mark.parametrize("mode", ["open", "cyclic"])
def test_multi_component_operators_on_two_copy_state(mode, pset6_open, pset6_cyclic):
    pset = pset6_open if mode == "open" else pset6_cyclic
    doubled = pset.doubled
    rng = np.random.default_rng(11)
    amps = rng.normal(size=doubled.dim) + 1j * rng.normal(size=doubled.dim)
    amps /= np.linalg.norm(amps)
    times = np.linspace(0.0, 7.0, 53)
    omega = 1.3
    e = omega * (doubled.shells + 1.5)
    for op in (pset.cos2, pset.exp_plus):
        got = spectral_sweep(doubled.shells, amps, op.matrix, times, omega)
        assert np.abs(got - reference_sweep(e, amps, op.matrix, times)).max() < 1e-12
    # the vacuum link between the copies (and the wrap in cyclic mode)
    # adds a static D = 0 component to the two chain rotations
    deltas, coeffs = spectral_components(doubled.shells, amps, *entries(pset.cos2.matrix))
    assert list(deltas[np.abs(coeffs) > 1e-8]) == [-2, 0, 2]


@pytest.mark.parametrize("mode", ["open", "cyclic"])
@pytest.mark.parametrize("lam", [+1, -1])
def test_single_copy_state_has_one_component(mode, lam, pset6_open, pset6_cyclic):
    pset = pset6_open if mode == "open" else pset6_cyclic
    spec = StateSpec.of([(lab, lam, amp) for lab, _, amp in TWO_LEVEL])
    vec = state_vector(spec, pset.doubled)
    deltas, coeffs = spectral_components(pset.doubled.shells, vec, *entries(pset.exp_plus.matrix))
    assert list(deltas[coeffs != 0]) == [-2 * lam]
    assert abs(coeffs[deltas == -2 * lam][0] - 0.5) < 1e-14


@pytest.mark.parametrize("mode", ["open", "cyclic"])
def test_entry_arrays_match_matrix_route(mode, params):
    # phase_trajectory reads E's stored entries from the index arrays of a
    # fresh set, with no matrix built; the sums must match the matrix's bitwise
    pset = oscphase.build_model(8, params, (mode,)).psets[mode]
    rows, cols = pset.exp_entries
    rng = np.random.default_rng(3)
    amps = rng.normal(size=pset.doubled.dim) + 1j * rng.normal(size=pset.doubled.dim)
    got = spectral_components(pset.doubled.shells, amps, rows, cols, np.ones(rows.size, dtype=np.complex128))
    assert "exp_plus" not in vars(pset)
    want = spectral_components(pset.doubled.shells, amps, *entries(pset.exp_plus.matrix))
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


def test_multi_component_series_rejected(pset6_open, params):
    # a stand-in set whose "exponential" E + E+ rotates both ways on H_+
    rows, cols, _ = entries(pset6_open.cos2.matrix)
    fake = SimpleNamespace(doubled=pset6_open.doubled, exp_entries=(rows, cols))
    with pytest.raises(UnwrapAmbiguity, match="2 spectral components.*D=-2.*D=2"):
        phase_trajectory(StateSpec.of(TWO_LEVEL), [0.0, 0.1], params, fake)


def test_nonfinite_grid_rejected(pset6_open, params):
    with pytest.raises(ValueError):
        phase_trajectory(StateSpec.of(TWO_LEVEL), [0.0, np.nan], params, pset6_open)


def test_trajectory_rows_match_columns(pset6_open, params):
    spec = StateSpec.of(
        [((0, 0, 0), -1, 0.6), ((1, 0, 0), -1, 0.8j), ((2, 0, 0), -1, 0.3)]
    )
    t = np.linspace(0.0, 20.0, 401)
    traj = phase_trajectory(spec, t, params, pset6_open)
    assert all(col.shape == t.shape for col in (traj.exp_plus, traj.phi, traj.tau, traj.j, traj.sigma))
    assert np.array_equal(traj.t, t) and traj.branch == "(-)"
    assert np.array_equal(traj.tau, -traj.phi / params.omega)
    for k in range(t.size):
        ws = classify_winding(float(traj.phi[k]), "(-)")
        assert (ws.j, ws.sigma) == (traj.j[k], traj.sigma[k])


def test_trajectory_t_is_the_callers_float_grid(pset6_open, params):
    # one copy of the grid: a float64 array is kept, as the docstring says,
    # and any other grid is converted into an array of the trajectory's own
    t = np.linspace(0.0, 1.0, 11)
    assert phase_trajectory(StateSpec.of(TWO_LEVEL), t, params, pset6_open).t is t
    grid = [0.0, 0.1]
    traj = phase_trajectory(StateSpec.of(TWO_LEVEL), grid, params, pset6_open)
    grid[1] = 5.0
    assert traj.t.tolist() == [0.0, 0.1]


@pytest.mark.parametrize("branch", ["(+)", "(-)"])
def test_winding_columns_on_cell_boundaries(branch):
    # exact boundaries k pi and the subnormals beside zero land in the
    # cell winding_interval reports for them
    phis = [k * np.pi for k in range(-6, 7)] + [5e-324, -5e-324, 0.0, np.nextafter(np.pi, 4.0)]
    for phi in phis:
        ws = classify_winding(phi, branch)
        lo, hi = winding_interval(ws.j, ws.sigma, branch)
        assert lo < phi <= hi
    with pytest.raises(ValueError):
        classify_winding(float("nan"), branch)


def test_import_pulls_in_no_numba():
    src = os.path.dirname(os.path.dirname(oscphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import oscphase, sys; assert 'numba' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
