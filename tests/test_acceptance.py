"""Acceptance gate: ten criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the printed lines; the
assertions behind them are the gate. Criteria marked with an explicit
truncation build their own operator stacks at that size.
"""

import numpy as np

from oscphase import (
    AXES,
    OscParams,
    SphericalLabel,
    StateSpec,
    build_basis,
    build_phase_operators,
    build_spherical,
    cartesian_operators,
    classify_winding,
    commutator,
    degeneracy_table,
    half_period_advance_check,
    identity,
    inverse_shift_residuals,
    normalization_bracket,
    op_norm_1,
    phase_trajectory,
    radial_shift_pair,
    reconstruction_residuals,
    residual_on_window,
    tau_law_check,
    to_spherical,
    winding_interval,
)
from oscphase.cli import main as cli_main


def _gate(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_spectrum_and_degeneracy():
    """Shells up to N = 12: energies, multiplicities, l content at 1e-10."""
    params = OscParams()
    basis = build_basis(12)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    worst = 0.0
    ok = True
    for shell, e_over_w, mult, lvals in degeneracy_table(sph):
        ok &= mult == (shell + 1) * (shell + 2) // 2
        ok &= lvals == list(range(shell % 2, shell + 1, 2))
        ok &= e_over_w == shell + 1.5
    energies = params.omega * (sph.shells + 1.5)
    u = sph.column_map().toarray()
    worst = float(np.abs(ops.h.matrix @ u - u * energies[None, :]).max())
    lsq = np.array([lab.l * (lab.l + 1) for lab in sph.labels], dtype=float)
    worst = max(worst, float(np.abs(ops.l2.matrix @ u - u * lsq[None, :]).max()))
    ok &= worst <= 1e-10
    _gate("criterion-01 spectrum", ok, f"eigen residual {worst:.3e} <= 1e-10, table exact")


def test_criterion_02_commutators_across_sizes():
    """[H,V], [H,V2], [L,V], [H,L] residuals < 1e-12 relative."""
    eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
    worst = 0.0
    for n_max in (8, 14, 20):
        for mass, omega in ((1.0, 1.0), (2.0, 0.5)):
            basis = build_basis(n_max)
            ops = cartesian_operators(basis, OscParams(mass, omega))
            vscale = max(op_norm_1(ops.v[ax]) for ax in AXES)
            for ax in AXES:
                c = commutator(ops.h, ops.v[ax]) + omega * ops.v[ax]
                worst = max(worst, residual_on_window(c) / vscale)
            c = commutator(ops.h, ops.v2) + 2.0 * omega * ops.v2
            worst = max(worst, residual_on_window(c) / max(op_norm_1(ops.v2), 1.0))
            for k in AXES:
                for l in AXES:
                    if k == l:
                        expected = 0.0 * ops.v[l]
                    elif (k, l) in eps:
                        expected = 1j * ops.v[eps[(k, l)]]
                    else:
                        expected = -1j * ops.v[eps[(l, k)]]
                    c = commutator(ops.l[k], ops.v[l]) - expected
                    worst = max(worst, residual_on_window(c) / vscale)
            for ax in AXES:
                c = commutator(ops.h, ops.l[ax])
                worst = max(
                    worst, residual_on_window(c) / (op_norm_1(ops.h) * max(op_norm_1(ops.l[ax]), 1.0))
                )
    ok = worst < 1e-12
    _gate("criterion-02 commutators", ok, f"worst relative residual {worst:.3e} < 1e-12")


def test_criterion_03_shift_action_and_isometry():
    """S steps chains down with unit coefficient; defect only on n = 0."""
    params = OscParams()
    basis = build_basis(8)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    down, up = radial_shift_pair(
        sph, params, normalization_bracket(sph, params, ops), to_spherical(ops.v2, sph)
    )
    dense = down.toarray()
    coeff_err = 0.0
    vacuum_norm = 0.0
    for (l, m), idxs in sph.chains.items():
        vacuum_norm = max(vacuum_norm, float(np.linalg.norm(dense[:, idxs[0]])))
        for n in range(1, len(idxs)):
            col = dense[:, idxs[n]].copy()
            coeff_err = max(coeff_err, abs(col[idxs[n - 1]] - 1.0))
            col[idxs[n - 1]] = 0.0
            coeff_err = max(coeff_err, float(np.abs(col).max()))
    ident = identity(sph)
    vac_diag = np.array([1.0 if lab.n == 0 else 0.0 for lab in sph.labels])
    iso = (up @ down - ident).toarray() + np.diag(vac_diag)
    iso_err = float(np.abs(iso).max())
    ok = coeff_err <= 1e-10 and vacuum_norm < 1e-12 and iso_err < 1e-12
    _gate(
        "criterion-03 radial shift",
        ok,
        f"coefficient error {coeff_err:.3e} <= 1e-10, S|0> norm {vacuum_norm:.3e}, "
        f"isometry defect {iso_err:.3e}",
    )


def test_criterion_04_normalization_at_14():
    """Bracket eigenvalues and chain elements against closed forms, n_max = 14."""
    params = OscParams()
    basis = build_basis(14)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    # oracle first: w^2 (2n+2)(2n+2l+3) straight from the labels
    w = params.omega
    expect = np.array(
        [w**2 * (2 * lab.n + 2) * (2 * lab.n + 2 * lab.l + 3) for lab in sph.labels]
    )
    diag = normalization_bracket(sph, params, ops)
    rel = float(np.abs(diag - expect).max() / expect.max())
    v2s = to_spherical(ops.v2, sph).toarray()
    elem_err = 0.0
    for (l, m), idxs in sph.chains.items():
        for n in range(1, len(idxs)):
            want = 2.0 * params.mass * w * np.sqrt(2.0 * n * (2.0 * n + 2 * l + 1))
            got = v2s[idxs[n - 1], idxs[n]]
            elem_err = max(elem_err, abs(got - want) / want)
    ok = rel <= 1e-10 and elem_err <= 1e-10
    _gate(
        "criterion-04 normalization",
        ok,
        f"bracket vs closed form {rel:.3e}, chain elements {elem_err:.3e} (tol 1e-10)",
    )


def test_criterion_05_unitarity_and_defect_support():
    """Cyclic exponential unitary at 1e-12; open defect only on chain ends."""
    params = OscParams()
    basis = build_basis(8)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    cyc = build_phase_operators(sph, params, "cyclic", ops)
    from oscphase import doubled_identity

    ident = doubled_identity(cyc.doubled)
    cyc_err = max(
        op_norm_1(cyc.exp_minus @ cyc.exp_plus - ident),
        op_norm_1(cyc.exp_plus @ cyc.exp_minus - ident),
    )
    opn = build_phase_operators(sph, params, "open", ops)
    left = (opn.exp_minus @ opn.exp_plus - ident).toarray()
    right = (opn.exp_plus @ opn.exp_minus - ident).toarray()
    supp_err = max(
        float(np.abs(left + opn.chain_end_projector(-1).toarray()).max()),
        float(np.abs(right + opn.chain_end_projector(+1).toarray()).max()),
    )
    ok = cyc_err < 1e-12 and supp_err < 1e-12
    _gate(
        "criterion-05 unitarity",
        ok,
        f"cyclic defect {cyc_err:.3e} < 1e-12, open defect off-ends {supp_err:.3e}",
    )


def test_criterion_06_reconstruction_at_12():
    """Both printed operator orders rebuild V2 on the interior, n_max = 12."""
    params = OscParams()
    basis = build_basis(12)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    v2 = to_spherical(ops.v2, sph)
    worst = 0.0
    for mode in ("open", "cyclic"):
        pset = build_phase_operators(sph, params, mode, ops)
        res = reconstruction_residuals(pset, v2)
        worst = max(worst, res["lowering"], res["raising"])
        inv = inverse_shift_residuals(pset)
        worst = max(worst, inv["down"], inv["up"])
    ok = worst < 1e-10
    _gate("criterion-06 reconstruction", ok, f"worst interior residual {worst:.3e} < 1e-10")


def test_criterion_07_sandwiched_commutator_pairs():
    """100 seeded state pairs per branch: the +-2w law at 1e-11."""
    params = OscParams()
    basis = build_basis(8)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    pset = build_phase_operators(sph, params, "open", ops)
    d = pset.doubled
    h_d = d.embed(to_spherical(ops.h, sph)).matrix
    e2 = pset.exp_plus.matrix
    law = h_d @ e2 - e2 @ h_d + 2.0 * params.omega * e2
    rng = np.random.default_rng(20260817)
    w = params.omega
    worst = 0.0
    for lam, sign in ((+1, +1.0), (-1, -1.0)):
        sl = d.branch_slice(lam)
        for _ in range(100):
            chi = np.zeros(d.dim, dtype=np.complex128)
            psi = np.zeros(d.dim, dtype=np.complex128)
            chi[sl] = rng.normal(size=d.dim_single) + 1j * rng.normal(size=d.dim_single)
            psi[sl] = rng.normal(size=d.dim_single) + 1j * rng.normal(size=d.dim_single)
            chi /= np.linalg.norm(chi)
            psi /= np.linalg.norm(psi)
            # on H_- the law flips sign: [H,E] = +2wE there
            val = np.vdot(chi, law @ psi) - (1.0 - sign) * 2.0 * w * np.vdot(chi, e2 @ psi)
            worst = max(worst, abs(val) / (2.0 * w))
    ok = worst < 1e-11
    _gate("criterion-07 sandwiched law", ok, f"worst over 200 pairs {worst:.3e} < 1e-11")


def test_criterion_08_two_level_evolution():
    """Rigid rotation of the expectation and unit tau slopes on both copies."""
    params = OscParams()
    basis = build_basis(6)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    pset = build_phase_operators(sph, params, "open", ops)
    t = np.linspace(0.0, 10.0 / params.omega, 257)
    worst_mod = worst_arg = worst_slope = 0.0
    for lam, sign in ((+1, +1.0), (-1, -1.0)):
        spec = StateSpec.of([((0, 0, 0), lam, 1 / np.sqrt(2)), ((1, 0, 0), lam, 1 / np.sqrt(2))])
        pts = phase_trajectory(spec, t, params, pset)
        vals = pts.exp_plus
        worst_mod = max(worst_mod, float(np.abs(np.abs(vals) - 0.5).max()))
        phis = pts.phi
        worst_arg = max(worst_arg, float(np.abs(phis - (phis[0] - sign * params.omega * t)).max()))
        fit = tau_law_check(pts)
        worst_slope = max(worst_slope, abs(fit.slope - sign))
    ok = worst_mod < 1e-10 and worst_arg < 1e-10 and worst_slope < 1e-9
    _gate(
        "criterion-08 evolution",
        ok,
        f"modulus {worst_mod:.3e}, phase {worst_arg:.3e} < 1e-10, slope error {worst_slope:.3e} < 1e-9",
    )


def test_criterion_09_winding_advancement_and_tiling():
    """Half-period ladder over four periods plus exact cell tiling."""
    params = OscParams()
    basis = build_basis(6)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    pset = build_phase_operators(sph, params, "open", ops)
    spec = StateSpec.of(
        [((0, 0, 0), +1, 1 / np.sqrt(2)), ((1, 0, 0), +1, np.exp(1j) / np.sqrt(2))]
    )
    report = half_period_advance_check(spec, params, pset, periods=4)
    transitions = len(report.entries) - 1
    tile_ok = True
    for branch in ("(+)", "(-)"):
        for phi in np.arange(-12.0, 12.0, 0.171):
            ws = classify_winding(float(phi), branch)
            lo, hi = winding_interval(ws.j, ws.sigma, branch)
            tile_ok &= lo < phi <= hi
            claims = 0
            for j in range(ws.j - 2, ws.j + 3):
                for sigma in ("-", "+"):
                    lo, hi = winding_interval(j, sigma, branch)
                    claims += int(lo < phi <= hi)
            tile_ok &= claims == 1
    ok = report.ok and transitions == 8 and tile_ok
    _gate(
        "criterion-09 winding",
        ok,
        f"{transitions} half-period transitions all ok={report.ok}, tiling exact={tile_ok}",
    )


def test_criterion_10_deterministic_outputs(tmp_path):
    """verify and trajectory rerun byte-identically."""
    pairs = []
    for stem, argv in (
        ("verify", ["verify", "--n-max", "4"]),
        (
            "traj",
            ["trajectory", "--n-max", "4", "--t-max", "2.0", "--dt", "0.02"],
        ),
    ):
        a = tmp_path / f"{stem}_a.txt"
        b = tmp_path / f"{stem}_b.txt"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    ok = all(pairs)
    _gate("criterion-10 determinism", ok, f"verify identical={pairs[0]}, trajectory identical={pairs[1]}")
