"""Verification suite: every operator identity as a reported check.

Each check measures a residual in the max-column-sum norm, restricted to
the validity window of the composite operator involved, and compares it
against a pinned tolerance. Relative residuals are taken against the
natural scale of the identity (the norm of its right-hand side).
Structural checks (label content, multiplicities) report the number of
mismatches as the residual with tolerance zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    StateSpec,
    _winding_columns,
    energies,
    half_period_advance_check,
    phase_trajectory,
    state_vector,
    tau_law_check,
    winding_interval,
)
from .fock import (
    AXES,
    OperatorMatrix,
    OscParams,
    commutator,
    diagonal,
    hamiltonian,
    identity,
    masked_norm,
    op_norm_1,
    residual_on_window,
    vector_ladder_squared,
)
from .phase1d import (
    Chain1D,
    NumberBasis1D,
    doubled_shift_1d,
    edge_projectors,
    hamiltonian_1d,
    number_shift_pair,
)
from .phase3d import (
    Model,
    build_model,
    doubled_identity,
    inverse_shift_residuals,
    normalization_bracket,
    projector_phase_exponential,
    radial_shift_pair,
    reconstruction_residuals,
)
from .spherical import degeneracy_table, to_spherical  # noqa: F401  (perfbench/selftest.py expects the name here)

TOL_REL_IDENTITY = 1e-12
TOL_EIGEN = 1e-10
TOL_SHIFT = 1e-10
TOL_UNITARY = 1e-12
TOL_RECONSTRUCTION = 1e-10
TOL_SANDWICH = 1e-11
TOL_ROTATION = 1e-10
TOL_SLOPE = 1e-9
BRUTE_CHUNK = 16  # grid times per block product: bounds the (dim, chunk) blocks


@dataclass(frozen=True)
class CheckReport:
    name: str
    law: str
    mode: str
    window: int
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _rel(value: float, scale: float) -> float:
    return value / max(scale, 1e-300)


def _comm_residual(a, b, expected=None, scale=None) -> tuple[float, int]:
    """Relative windowed residual of [a, b] - expected (expected may be None)."""
    c = commutator(a, b)
    if expected is not None:
        c = c - expected
        if scale is None:
            scale = op_norm_1(expected)
    if scale is None:
        scale = op_norm_1(a) * max(op_norm_1(b), 1.0)
    return _rel(residual_on_window(c), scale), c.window


def run_all_checks(n_max: int = 8, params: OscParams | None = None) -> list[CheckReport]:
    params = params or OscParams()
    ctx = build_model(n_max, params, ("open", "cyclic"))
    # the paper's routes to S and E, against which the label-built ones are checked
    s_route, _ = radial_shift_pair(ctx.sph, params, normalization_bracket(ctx.eigenbasis, params, ctx.ops), ctx.v2)
    open_set = ctx.psets["open"]
    d = open_set.doubled
    e_route = projector_phase_exponential(open_set, d.embed(s_route))
    # both modes share the doubled basis, sign, exchange and shift, so the
    # embedded H and the E-free superselection terms are formed once
    h_d = d.embed(ctx.h)
    sign, exch = open_set.sign, open_set.exchange
    structure = max(
        op_norm_1(commutator(sign, h_d)),
        op_norm_1(commutator(sign, open_set.down)),
        op_norm_1(exch @ exch - doubled_identity(d)),
        op_norm_1(exch @ sign + sign @ exch),
    )
    reports: list[CheckReport] = []
    reports += _fock_checks(ctx)
    reports += _spherical_checks(ctx)
    reports += _phase1d_checks(ctx)
    for mode in ("open", "cyclic"):
        reports += _phase3d_checks(ctx, mode, s_route, e_route, h_d, structure)
    reports += _evolution_checks(ctx)
    return reports


# -- fock ---------------------------------------------------------------------


def _fock_checks(ctx: Model) -> list[CheckReport]:
    ops, params = ctx.ops, ctx.ops.params
    w = params.omega
    ident = identity(ctx.basis)
    out = []

    worst = 0.0
    for ax in AXES:
        r, win = _comm_residual(ops.a[ax], ops.adag[ax], ident, scale=1.0)
        worst = max(worst, r)
    out.append(
        CheckReport("ladder_canonical", "[a_j, a_j+] = 1", "-", win, worst, TOL_REL_IDENTITY)
    )

    worst = 0.0
    for ax in AXES:
        for jx in AXES:
            expected = (1j if ax == jx else 0.0) * ident
            r, win = _comm_residual(ops.r[ax], ops.p[jx], expected, scale=1.0)
            worst = max(worst, r)
    out.append(
        CheckReport("position_momentum", "[r_j, p_k] = i delta_jk", "-", win, worst, TOL_REL_IDENTITY)
    )

    quad = None
    for ax in AXES:
        term = (1.0 / (2.0 * params.mass)) * (ops.p[ax] @ ops.p[ax]) + (
            0.5 * params.spring_constant
        ) * (ops.r[ax] @ ops.r[ax])
        quad = term if quad is None else quad + term
    diff = quad - ops.h
    out.append(
        CheckReport(
            "hamiltonian_quadratic",
            "H = p^2/2M + k r^2/2",
            "-",
            diff.window,
            _rel(residual_on_window(diff), op_norm_1(ops.h)),
            TOL_REL_IDENTITY,
        )
    )

    worst = 0.0
    for ax in AXES:
        r, win = _comm_residual(ops.h, ops.v[ax], (-w) * ops.v[ax])
        worst = max(worst, r)
    out.append(
        CheckReport("lowering_vector_commutator", "[H, V_j] = -w V_j", "-", win, worst, TOL_REL_IDENTITY)
    )

    worst = 0.0
    for ax in AXES:
        vd = ops.v[ax].adjoint()
        r, win = _comm_residual(ops.h, vd, w * vd)
        worst = max(worst, r)
    out.append(
        CheckReport("raising_vector_commutator", "[H, V_j+] = +w V_j+", "-", win, worst, TOL_REL_IDENTITY)
    )

    r, win = _comm_residual(ops.h, ops.v2, (-2.0 * w) * ops.v2)
    out.append(
        CheckReport("shell_square_commutator", "[H, V2] = -2w V2", "-", win, r, TOL_REL_IDENTITY)
    )
    v2d = ops.v2.adjoint()
    r, win = _comm_residual(ops.h, v2d, (2.0 * w) * v2d)
    out.append(
        CheckReport("shell_square_adjoint_commutator", "[H, V2+] = +2w V2+", "-", win, r, TOL_REL_IDENTITY)
    )

    eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
    scale = max(op_norm_1(ops.v[ax]) for ax in AXES)
    worst = 0.0
    for k in AXES:
        for l in AXES:
            if k == l:
                expected = 0.0 * ops.v[l]
            elif (k, l) in eps:
                expected = 1j * ops.v[eps[(k, l)]]
            else:
                expected = -1j * ops.v[eps[(l, k)]]
            c = commutator(ops.l[k], ops.v[l]) - expected
            worst = max(worst, _rel(residual_on_window(c), scale))
            win = c.window
    out.append(
        CheckReport(
            "angular_vector_commutator", "[L_k, V_l] = i eps_klm V_m", "-", win, worst, TOL_REL_IDENTITY
        )
    )

    worst = 0.0
    for k in AXES:
        c = commutator(ops.l[k], ops.v2)
        worst = max(worst, _rel(residual_on_window(c), op_norm_1(ops.v2)))
        win = c.window
    out.append(
        CheckReport("angular_shell_square", "[L_k, V2] = 0", "-", win, worst, TOL_REL_IDENTITY)
    )

    worst = 0.0
    for op in [*(ops.l[ax] for ax in AXES), ops.l2]:
        c = commutator(ops.h, op)
        worst = max(worst, _rel(residual_on_window(c), max(op_norm_1(op), 1.0) * op_norm_1(ops.h)))
        win = c.window
    c = commutator(ops.l2, ops.l["z"])
    worst = max(worst, _rel(residual_on_window(c), max(op_norm_1(ops.l2), 1.0) * max(op_norm_1(ops.l["z"]), 1.0)))
    out.append(
        CheckReport("shell_preserving_commutants", "[H, L_k] = [H, L2] = [L2, L_z] = 0", "-", win, worst, TOL_REL_IDENTITY)
    )

    route = None
    for ax in AXES:
        comp = ops.p[ax] - (1j * params.mass * w) * ops.r[ax]
        term = comp @ comp
        route = term if route is None else route + term
    scale = max(op_norm_1(ops.v2), params.mass * w)
    out.append(
        CheckReport(
            "shell_square_route",
            "sum_j (p_j - iMw r_j)^2 = -2Mw sum_j a_j a_j (entrywise)",
            "-",
            ctx.sph.n_max,
            _rel(op_norm_1(ops.v2 - route), scale),
            TOL_REL_IDENTITY,
        )
    )

    alt = OscParams(2.0 * params.mass, 0.5 * params.omega)
    h_res = _rel(op_norm_1(2.0 * hamiltonian(ctx.basis, alt) - ops.h), op_norm_1(ops.h))
    v2_res = _rel(op_norm_1(vector_ladder_squared(ctx.basis, alt) - ops.v2), op_norm_1(ops.v2)) if ops.v2.nnz else 0.0
    out.append(
        CheckReport(
            "parameter_scaling",
            "H linear in w, M-free; V2 proportional to Mw",
            "-",
            ctx.sph.n_max,
            max(h_res, v2_res),
            TOL_REL_IDENTITY,
        )
    )
    return out


# -- spherical ----------------------------------------------------------------


def _spherical_checks(ctx: Model) -> list[CheckReport]:
    # build_spherical raises unless each shell's L^2 and L_z content matches the labels
    sph, ops, params = ctx.eigenbasis, ctx.ops, ctx.ops.params
    out = []

    # both residuals are measured once, while build_spherical validates U
    out.append(
        CheckReport("column_map_unitary", "U+ U = 1", "-", sph.n_max, sph.unitary_defect, TOL_UNITARY)
    )
    out.append(
        CheckReport(
            "simultaneous_eigenvectors",
            "H|nlm> = w(2n+l+3/2)|nlm>, L2|nlm> = l(l+1)|nlm>, Lz|nlm> = m|nlm>",
            "-",
            sph.n_max,
            sph.eigen_residual,
            TOL_EIGEN,
        )
    )

    mismatches = 0
    for shell, e_over_w, mult, lvals in degeneracy_table(sph):
        if mult != (shell + 1) * (shell + 2) // 2:
            mismatches += 1
        if lvals != list(range(shell % 2, shell + 1, 2)):
            mismatches += 1
        if e_over_w != shell + 1.5:
            mismatches += 1
    out.append(
        CheckReport(
            "shell_content",
            "multiplicity (N+1)(N+2)/2 with l in {N, N-2, ...}",
            "-",
            sph.n_max,
            float(mismatches),
            0.0,
        )
    )

    v2 = ctx.v2.matrix
    lower, upper = sph.links
    scale = max(op_norm_1(ops.v2), 1.0)
    vals = np.asarray(v2[lower, upper]).ravel() if len(lower) else np.zeros(0, dtype=np.complex128)
    n, l = sph.radial[upper], sph.orbital[upper]
    want = 2.0 * params.mass * params.omega * np.sqrt(2.0 * n * (2.0 * n + 2 * l + 1))
    # chain phase convention makes the element real positive
    dev = np.max([np.abs(np.abs(vals) - want), np.abs(vals.imag), np.maximum(-vals.real, 0.0)], axis=0)
    elem_worst = max(0.0, float((dev / want).max(initial=0.0)))
    coo = v2.tocoo()
    # int64 keys: scipy stores int32 indices, and dim^2 passes 2^31 from n_max 64 on
    off_links = ~np.isin(coo.row.astype(np.int64) * sph.dim + coo.col, lower * sph.dim + upper)
    stray = np.abs(coo.data[off_links]).max(initial=0.0)
    out.append(
        CheckReport(
            "partial_wave_preservation",
            "V2 maps (n,l,m) only to (n-1,l,m)",
            "-",
            sph.n_max,
            _rel(float(stray), scale),
            TOL_REL_IDENTITY,
        )
    )
    out.append(
        CheckReport(
            "shell_square_normalization",
            "<n-1,l,m|V2|n,l,m> = 2Mw sqrt(2n(2n+2l+1)), real positive",
            "-",
            sph.n_max,
            elem_worst,
            TOL_EIGEN,
        )
    )
    return out


# -- 1d -----------------------------------------------------------------------


def _phase1d_checks(ctx: Model) -> list[CheckReport]:
    out = []
    nb = NumberBasis1D(ctx.sph.n_max)
    down, up = number_shift_pair(nb)
    ident = identity(nb)
    dd = down @ up - ident
    out.append(
        CheckReport(
            "shift_isometry_1d",
            "E E+ = 1 (windowed); E+ E = 1 - |0><0|",
            "-",
            dd.window,
            max(
                residual_on_window(dd),
                op_norm_1(up @ down - ident + diagonal(nb, nb.shells == 0)),
            ),
            TOL_UNITARY,
        )
    )

    for mode in ("open", "cyclic"):
        chain = Chain1D(ctx.sph.n_max, mode)
        shift = doubled_shift_1d(chain)
        ident = identity(chain)
        p_left, p_right = edge_projectors(chain)
        if mode == "open":
            resid = max(
                op_norm_1(shift.adjoint() @ shift - ident + p_left),
                op_norm_1(shift @ shift.adjoint() - ident + p_right),
            )
            law = "E+ E = 1 - P_edge, E E+ = 1 - P_edge' (edges only)"
        else:
            resid = max(
                op_norm_1(shift.adjoint() @ shift - ident),
                op_norm_1(shift @ shift.adjoint() - ident),
            )
            law = "E unitary on the closed chain"
        out.append(CheckReport("doubled_chain_1d", law, mode, chain.n_max, resid, TOL_UNITARY))

        h = hamiltonian_1d(chain, ctx.ops.params.omega)
        plus = np.arange(chain.dim) > chain.n_max  # positions of |n, +>
        law_op = commutator(h, shift) + ctx.ops.params.omega * shift
        out.append(
            CheckReport(
                "commutator_law_1d",
                "<chi+|[H,E]|psi+> = -w <chi+|E|psi+>",
                mode,
                chain.n_max,
                _rel(masked_norm(law_op, plus, plus), ctx.ops.params.omega * max(op_norm_1(shift), 1.0)),
                TOL_SANDWICH,
            )
        )
    return out


# -- 3d phase -----------------------------------------------------------------


def _phase3d_checks(
    ctx: Model, mode: str, s_route: OperatorMatrix, e_route: OperatorMatrix, h_d: OperatorMatrix, structure: float
) -> list[CheckReport]:
    """Checks of one mode's phase set; s_route and e_route are the paper's
    routes to S and the open E, which the label-built ones must match. h_d
    is H embedded on both copies, and structure the largest of the
    superselection residuals that do not involve E."""
    pset = ctx.psets[mode]
    params = ctx.ops.params
    sph = ctx.sph
    d = pset.doubled
    out = []

    if mode == "open":
        s = pset.down_single
        out.append(
            CheckReport(
                "radial_shift_action",
                "S|n,l,m> = |n-1,l,m>, S|0,l,m> = 0",
                "-",
                s.window,
                float(abs(s_route.matrix - s.matrix).max()),
                TOL_SHIFT,
            )
        )

        ident_s = identity(sph)
        vac = diagonal(sph, sph.radial == 0)
        top = diagonal(sph, sph.shells > sph.n_max - 2)  # the chain tops
        s_up = pset.up_single
        resid = max(
            op_norm_1(s_up @ s - ident_s + vac),
            op_norm_1(s @ s_up - ident_s + top),
        )
        out.append(
            CheckReport(
                "radial_shift_isometry",
                "S+ S = 1 - P_{n=0}; S S+ = 1 - P_top",
                "-",
                sph.n_max,
                resid,
                TOL_UNITARY,
            )
        )

        w = params.omega
        r1, win1 = _comm_residual(ctx.h, s, (-2.0 * w) * s)
        s_adj = s.adjoint()
        r2, win2 = _comm_residual(ctx.h, s_adj, (2.0 * w) * s_adj)
        out.append(
            CheckReport(
                "radial_shift_commutator",
                "[H, S] = -2w S and [H, S+] = +2w S+",
                "-",
                min(win1, win2),
                max(r1, r2),
                TOL_REL_IDENTITY,
            )
        )

    e2 = pset.exp_plus
    if mode == "cyclic":
        e_route = e_route + pset.exchange @ pset.chain_end_projector(-1)
    out.append(
        CheckReport(
            "phase_exponential_form",
            "projector formula matches the chain dyadic expansion entrywise",
            mode,
            e2.window,
            float(abs(e2.matrix - e_route.matrix).max()),
            TOL_UNITARY,
        )
    )

    ident = doubled_identity(d)
    if mode == "open":
        ends_minus = pset.chain_end_projector(-1)
        ends_plus = pset.chain_end_projector(+1)
        resid = max(
            op_norm_1(pset.exp_minus @ e2 - ident + ends_minus),
            op_norm_1(e2 @ pset.exp_minus - ident + ends_plus),
        )
        law = "E+ E = 1 - P_ends(-), E E+ = 1 - P_ends(+)"
    else:
        resid = max(
            op_norm_1(pset.exp_minus @ e2 - ident),
            op_norm_1(e2 @ pset.exp_minus - ident),
        )
        law = "E+ E = E E+ = 1 (cyclic closure)"
    out.append(CheckReport("phase_exponential_unitarity", law, mode, d.n_max, resid, TOL_UNITARY))

    if mode == "cyclic":
        # zeros are permutation entries already, so only the stored ones can deviate
        mags = abs(e2.matrix)
        dev = max(
            float(np.minimum(mags.data, np.abs(mags.data - 1.0)).max(initial=0.0)),
            float(np.abs(mags.sum(axis=0) - 1.0).max()),
            float(np.abs(mags.sum(axis=1) - 1.0).max()),
        )
        out.append(
            CheckReport(
                "cyclic_permutation",
                "cyclic exponential is a permutation matrix",
                mode,
                d.n_max,
                float(dev),
                TOL_UNITARY,
            )
        )

    inv = inverse_shift_residuals(pset)
    out.append(
        CheckReport(
            "shift_from_exponential",
            "S = (1+I)/2 E + (1-I)/2 E+; S+ = E+ (1+I)/2 + E (1-I)/2",
            mode,
            d.n_max - 2,
            max(inv["down"], inv["up"]),
            TOL_UNITARY,
        )
    )

    herm = max(
        op_norm_1(pset.cos2 - pset.cos2.adjoint()),
        op_norm_1(pset.sin2 - pset.sin2.adjoint()),
    )
    pyth = pset.cos2 @ pset.cos2 + pset.sin2 @ pset.sin2 - ident
    if mode == "cyclic":
        pyth_res = op_norm_1(pyth)
    else:
        pyth_res = masked_norm(pyth, cols=d.interior)  # away from both copies' chain ends
    out.append(
        CheckReport(
            "trig_pair",
            "cos, sin Hermitian; cos^2 + sin^2 = 1 away from open ends",
            mode,
            d.n_max,
            max(herm, pyth_res),
            TOL_UNITARY,
        )
    )

    vacua = np.array([idxs[0] for idxs in sph.chains.values() if mode == "open" or len(idxs) >= 2], dtype=np.int64)
    links = np.asarray(pset.cos2.matrix[vacua, vacua + d.dim_single]).ravel() if len(vacua) else np.zeros(0)
    out.append(
        CheckReport(
            "vacuum_link_element",
            "<0,l,m,+|cos|0,l,m,-> = 1/2",
            mode,
            d.n_max,
            float(np.abs(links - 0.5).max(initial=0.0)),
            TOL_UNITARY,
        )
    )

    rec = reconstruction_residuals(pset, ctx.v2)
    for name, key, law in (
        ("reconstruction_lowering", "lowering", "V2 = 2M B^(1/2) (cos + i I sin), prefactor left"),
        ("reconstruction_raising", "raising", "V2+ = (cos - i sin I) 2M B^(1/2), prefactor right"),
        ("reconstruction_sign_left", "raising_sign_left_no_vacuum",
         "V2+ = (cos - i I sin) 2M B^(1/2) away from the vacuum link"),
    ):
        out.append(CheckReport(name, law, mode, d.n_max - 2, rec[key], TOL_RECONSTRUCTION))

    w = params.omega
    plus, minus = d.branch_mask(+1), d.branch_mask(-1)
    scale = 2.0 * w * max(op_norm_1(e2), 1.0)
    comm_e, comm_e_adj = commutator(h_d, e2), commutator(h_d, pset.exp_minus)
    resid = max(
        _rel(masked_norm(comm_e + (2.0 * w) * e2, plus, plus), scale),
        _rel(masked_norm(comm_e_adj - (2.0 * w) * pset.exp_minus, plus, plus), scale),
    )
    out.append(
        CheckReport(
            "commutator_law_plus",
            "<chi+|[H,E]|psi+> = -2w <chi+|E|psi+> (and +2w for E+)",
            mode,
            d.n_max,
            resid,
            TOL_SANDWICH,
        )
    )
    resid = max(
        _rel(masked_norm(comm_e - (2.0 * w) * e2, minus, minus), scale),
        _rel(masked_norm(comm_e_adj + (2.0 * w) * pset.exp_minus, minus, minus), scale),
    )
    out.append(
        CheckReport(
            "commutator_law_minus",
            "sign-flipped commutator law on H_-",
            mode,
            d.n_max,
            resid,
            TOL_SANDWICH,
        )
    )

    resid = max(structure, abs(op_norm_1(commutator(pset.sign, e2)) - 2.0))
    out.append(
        CheckReport(
            "superselection_structure",
            "[I,H] = [I,S] = 0, X^2 = 1, XI = -IX, |[I,E]| = 2 (vacuum link)",
            mode,
            d.n_max,
            resid,
            TOL_UNITARY,
        )
    )
    return out


# -- evolution ----------------------------------------------------------------


def brute_expectations(op: OperatorMatrix, spec: StateSpec, t_grid, params: OscParams) -> np.ndarray:
    """<psi(t)| op |psi(t)> at each grid time by propagating the state and
    multiplying by op on the rows and columns of the state's support only:
    one sparse product per block of BRUTE_CHUNK states psi(0) exp(-iEt), exp
    taken once per level of H. Entries off the support add exact zeros, so
    psi(t) and op psi(t) are bit for bit those of one propagate and one
    matrix-vector product per time. np.vdot over the support then gives the
    whole-basis np.vdot's bits where at most one term is nonzero, as for
    verify's two-label states; with more, BLAS may add them in another order."""
    vec = state_vector(spec, op.basis)
    support = np.flatnonzero(vec)
    block = op.matrix[support][:, support]
    rates, level = np.unique(-1j * energies(op.basis, params)[support], return_inverse=True)
    out = []
    for start in range(0, len(t_grid), BRUTE_CHUNK):
        psis = vec[support, None] * np.exp(rates[:, None] * t_grid[start : start + BRUTE_CHUNK])[level]
        out += map(np.vdot, psis.T.copy(), (block @ psis).T.copy())
    return np.array(out, dtype=np.complex128)


def _evolution_checks(ctx: Model) -> list[CheckReport]:
    out = []
    phis = np.concatenate(
        [
            np.arange(-4.0 * np.pi, 4.0 * np.pi, 0.37),
            np.array([0.0, np.pi, -np.pi, 0.5, -0.5, 0.5 - 2 * np.pi]),
            np.pi * np.arange(-3, 4) + 1e-9,
            np.pi * np.arange(-3, 4) - 1e-9,
        ]
    )
    mismatch = 0
    for branch in ("(+)", "(-)"):
        j, sigma = _winding_columns(phis, branch)
        lo, hi = winding_interval(j, sigma, branch)
        mismatch += np.count_nonzero(~((lo < phis) & (phis <= hi)))
        # of the cells of labels j - 2 .. j + 2, either sigma, exactly one holds phi
        hits = 0
        for sig in ("-", "+"):
            low, high = winding_interval(j[:, None] + np.arange(-2, 3), sig, branch)
            hits = hits + ((low < phis[:, None]) & (phis[:, None] <= high)).sum(axis=1)
        mismatch += np.count_nonzero(hits != 1)
    out.append(
        CheckReport(
            "winding_cells_tile",
            "pi-wide half-open cells tile the real line, one label per phi",
            "-",
            ctx.sph.n_max,
            float(mismatch),
            0.0,
        )
    )

    if ctx.sph.n_max < 4:
        return out

    params = ctx.ops.params
    w = params.omega
    pset = ctx.psets["open"]
    t_grid = np.linspace(0.0, 2.0 * np.pi / w, 129)

    for lam, sign, tag in ((+1, +1.0, "plus"), (-1, -1.0, "minus")):
        spec = StateSpec.of(
            [((0, 0, 0), lam, 1 / np.sqrt(2)), ((1, 0, 0), lam, 1 / np.sqrt(2))]
        )
        points = phase_trajectory(spec, t_grid, params, pset)
        # the law is tested on brute-force expectations of the propagated
        # state, which phase_trajectory's spectral values must also match
        brute = brute_expectations(pset.exp_plus, spec, t_grid, params)
        rot = brute * np.exp(sign * 2j * w * t_grid)
        out.append(
            CheckReport(
                "expectation_rotation_" + tag,
                "<E>(t) = <E>(0) exp(-2iwt) on H_+ (conjugate rate on H_-)",
                "open",
                pset.exp_plus.window,
                float(max(np.abs(rot - brute[0]).max(), np.abs(points.exp_plus - brute).max())),
                TOL_ROTATION,
            )
        )
        fit = tau_law_check(points)
        out.append(
            CheckReport(
                "time_expectation_slope_" + tag,
                "tau(t) = tau(0) + t on H_+ (tau(0) - t on H_-)",
                "open",
                pset.exp_plus.window,
                max(abs(fit.slope - sign), fit.max_residual),
                TOL_SLOPE,
            )
        )

    # phase-offset amplitude puts phi(0) = 0.5, safely inside its cell;
    # a real pair would start exactly on a cell boundary
    spec = StateSpec.of(
        [((0, 0, 0), +1, 1 / np.sqrt(2)), ((1, 0, 0), +1, np.exp(1j) / np.sqrt(2))]
    )
    report = half_period_advance_check(spec, params, pset, periods=2)
    out.append(
        CheckReport(
            "half_period_advance",
            "(j,-) -> (j,+) -> (j+1,-) every half period",
            "open",
            pset.exp_plus.window,
            0.0 if report.ok else 1.0,
            0.0,
        )
    )

    doubled = pset.doubled
    phases = np.exp(-1j * energies(doubled, params) * (2.0 * np.pi / w))
    out.append(
        CheckReport(
            "propagator_period",
            "U(2 pi / w) = -1 on every doubled label",
            "-",
            ctx.sph.n_max,
            float(np.abs(phases + 1.0).max()),
            TOL_ROTATION,
        )
    )
    return out
