import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscphase import (
    OscParams,
    PhaseUndefined,
    StateSpec,
    UnwrapAmbiguity,
    WindingState,
    build_model,
    classify_winding,
    energies,
    half_period_advance_check,
    phase_trajectory,
    propagate,
    state_vector,
    tau_law_check,
    winding_interval,
)
from oscphase.checks import BRUTE_CHUNK, brute_expectations

TWO_LEVEL = [((0, 0, 0), +1, 1 / np.sqrt(2)), ((1, 0, 0), +1, 1 / np.sqrt(2))]


def test_propagator_period(pset6_open, params):
    spec = StateSpec.of(TWO_LEVEL)
    t0 = 2.0 * np.pi / params.omega
    v0 = state_vector(spec, pset6_open.doubled)
    v1 = propagate(spec, t0, params, pset6_open.doubled)
    assert np.abs(v1 + v0).max() < 1e-10  # U(T0) = -1


def test_energies_identical_on_both_copies(pset6_open, params):
    e = energies(pset6_open.doubled, params)
    d = pset6_open.doubled.dim_single
    assert np.array_equal(e[:d], e[d:])
    assert e[0] == 1.5 * params.omega


def test_two_level_rotation_law(pset6_open, params):
    spec = StateSpec.of(TWO_LEVEL)
    t = np.linspace(0.0, 3.0, 61)
    pts = phase_trajectory(spec, t, params, pset6_open)
    for k, e in enumerate(pts.exp_plus):
        want = 0.5 * np.exp(-2j * params.omega * t[k])
        assert abs(e - want) < 1e-12


def test_tau_slopes(pset6_open, params):
    t = np.linspace(0.0, 4.0, 81)
    fit = tau_law_check(phase_trajectory(StateSpec.of(TWO_LEVEL), t, params, pset6_open))
    assert abs(fit.slope - 1.0) < 1e-9
    assert fit.max_residual < 1e-9
    mirrored = [(lab, -1, amp) for lab, lam, amp in TWO_LEVEL]
    fit = tau_law_check(phase_trajectory(StateSpec.of(mirrored), t, params, pset6_open))
    assert abs(fit.slope + 1.0) < 1e-9


def test_phase_undefined_for_single_level(pset6_open, params):
    spec = StateSpec.of([((0, 0, 0), +1, 1.0)])
    with pytest.raises(PhaseUndefined):
        phase_trajectory(spec, [0.0, 0.1], params, pset6_open)


def test_unwrap_ambiguity_cases(pset6_open, params):
    pts = phase_trajectory(StateSpec.of(TWO_LEVEL), [0.0], params, pset6_open)
    with pytest.raises(UnwrapAmbiguity):
        tau_law_check(pts)
    # dt = 1 at w = 1 moves the raw argument by 2 rad > pi/2 per step
    pts = phase_trajectory(StateSpec.of(TWO_LEVEL), [0.0, 1.0, 2.0], params, pset6_open)
    with pytest.raises(UnwrapAmbiguity):
        tau_law_check(pts)


def test_mixed_branch_rejected(pset6_open, params):
    spec = StateSpec.of([((0, 0, 0), +1, 0.5), ((1, 0, 0), -1, 0.5)])
    with pytest.raises(ValueError):
        phase_trajectory(spec, [0.0, 0.1], params, pset6_open)


def test_state_outside_window_rejected(pset6_open, params):
    # shell 5 fits the n_max = 6 basis but not the trajectory window
    spec = StateSpec.of([((1, 3, 0), +1, 1.0), ((0, 0, 0), +1, 1.0)])
    with pytest.raises(ValueError):
        phase_trajectory(spec, [0.0, 0.1], params, pset6_open)


def test_state_vector_errors(pset6_open):
    with pytest.raises(ValueError):
        state_vector(StateSpec.of([((0, 0, 0), +1, 0.0)]), pset6_open.doubled)
    with pytest.raises(ValueError):
        state_vector(StateSpec.of([((0, 9, 0), +1, 1.0)]), pset6_open.doubled)
    with pytest.raises(ValueError):
        StateSpec.of([((0, 0, 0), 2, 1.0)])
    with pytest.raises(ValueError, match="state term 1,0,0,-: amplitude .*nan.* is not finite"):
        StateSpec.of([((0, 0, 0), -1, 1.0), ((1, 0, 0), -1, complex(0.0, np.nan))])


def test_classify_winding_frozen_examples():
    assert classify_winding(0.5, "(+)") == WindingState(0, "-", "(+)")
    assert classify_winding(-0.5, "(+)") == WindingState(0, "+", "(+)")
    assert classify_winding(0.5 - 2 * np.pi, "(+)") == WindingState(1, "-", "(+)")
    assert classify_winding(0.5, "(-)") == WindingState(0, "+", "(-)")
    assert classify_winding(-0.5, "(-)") == WindingState(0, "-", "(-)")
    assert classify_winding(0.5 + 2 * np.pi, "(-)") == WindingState(1, "+", "(-)")
    with pytest.raises(ValueError):
        classify_winding(0.0, "up")
    # the cells tile only while |phi| < pi 2^53, about 2.83e16
    assert classify_winding(2.8e16, "(+)").j < 0
    with pytest.raises(ValueError, match="phi = 3e"):
        classify_winding(3e16, "(+)")


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    branch=st.sampled_from(["(+)", "(-)"]),
)
def test_winding_cells_tile_property(phi, branch):
    ws = classify_winding(phi, branch)
    lo, hi = winding_interval(ws.j, ws.sigma, branch)
    assert lo < phi <= hi
    assert abs((hi - lo) - np.pi) < 1e-12
    # neighbours do not also claim phi
    for j in (ws.j - 1, ws.j, ws.j + 1):
        for sigma in ("-", "+"):
            if (j, sigma) == (ws.j, ws.sigma):
                continue
            lo, hi = winding_interval(j, sigma, branch)
            assert not (lo < phi <= hi)


def test_half_period_advance(pset6_open, params):
    spec = StateSpec.of(
        [((0, 0, 0), +1, 1 / np.sqrt(2)), ((1, 0, 0), +1, np.exp(1j) / np.sqrt(2))]
    )
    report = half_period_advance_check(spec, params, pset6_open, periods=2)
    assert report.ok
    observed = [entry[2] for entry in report.entries]
    assert observed[0] == WindingState(0, "-", "(+)")
    assert observed[1] == WindingState(0, "+", "(+)")
    assert observed[2] == WindingState(1, "-", "(+)")
    assert len(report.entries) == 5


def test_branch_strings():
    spec = StateSpec.of([((0, 0, 0), -1, 1.0)])
    assert spec.branch == "(-)"
    assert spec.branch_lambda() == -1


@pytest.mark.parametrize("n_max", [8, 18])
@pytest.mark.parametrize("lam", [+1, -1])
def test_brute_expectations_match_single_time_propagation(n_max, lam):
    # verify's chunked block products give, bit for bit, the expectations
    # of one propagate call and one matrix-vector product per grid time
    params = OscParams(1.5, 0.75)
    pset = build_model(n_max, params, ("open",)).psets["open"]
    spec = StateSpec.of([((0, 0, 0), lam, 1 / np.sqrt(2)), ((1, 0, 0), lam, 1 / np.sqrt(2))])
    grid = np.linspace(0.0, 2.0 * np.pi / params.omega, 129)  # 8 full chunks and one of a single time
    assert len(grid) % BRUTE_CHUNK == 1
    e = pset.exp_plus.matrix
    want = np.array([np.vdot(p, e @ p) for p in (propagate(spec, t, params, pset.doubled) for t in grid)])
    assert brute_expectations(pset.exp_plus, spec, grid, params).tobytes() == want.tobytes()
