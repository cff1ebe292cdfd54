from functools import cached_property

import numpy as np
import pytest
from scipy.linalg import expm, null_space, schur

from oscphase import (
    DegenerateSplitFailure,
    OperatorMatrix,
    OscParams,
    SingularNormalization,
    SphericalLabel,
    build_basis,
    build_model,
    build_phase_operators,
    build_spherical,
    cartesian_operators,
    doubled_identity,
    identity,
    inverse_shift_residuals,
    normalization_bracket,
    op_norm_1,
    projector_phase_exponential,
    radial_shift_pair,
    reconstruction_residuals,
    to_spherical,
)


def test_normalization_bracket_matches_label_formula(sph6, params, ops6):
    # independent oracle: eigenvalue w^2 (2n+2)(2n+2l+3) from the labels
    diag = normalization_bracket(sph6, params, ops6)
    w = params.omega
    expect = np.array(
        [w**2 * (2 * lab.n + 2) * (2 * lab.n + 2 * lab.l + 3) for lab in sph6.labels],
        dtype=float,
    )
    assert np.abs(diag - expect).max() < 1e-10 * expect.max()


def test_singular_normalization_names_the_label(basis6, params, sph6):
    # B - 100 w^2 is negative on every label; the first in label order is named
    bad = cartesian_operators(basis6, params)
    bad.l2 = bad.l2 + 100.0 * identity(basis6)
    with pytest.raises(SingularNormalization) as exc:
        normalization_bracket(sph6, params, bad)
    assert str(exc.value) == "nonpositive normalization eigenvalue -9.400e+01 at (n=0, l=0, m=0)"


def test_normalization_bracket_guards(basis6, params, ops6, sph6):
    bad = cartesian_operators(basis6, params)
    eye = np.eye(basis6.dim)
    # pushing L^2 up makes the bracket nonpositive on the ground state
    bad.l2 = OperatorMatrix(bad.l2.matrix + 100.0 * eye, basis6, bad.l2.window, 0, 0)
    with pytest.raises(SingularNormalization):
        normalization_bracket(sph6, params, bad)
    # a non-shell-preserving perturbation breaks diagonality instead
    bad = cartesian_operators(basis6, params)
    bad.l2 = bad.l2 + 1e-3 * bad.a["x"]
    with pytest.raises(DegenerateSplitFailure):
        normalization_bracket(sph6, params, bad)


def test_radial_shift_unit_coefficient(sph6, params, ops6):
    down, up = radial_shift_pair(
        sph6, params, normalization_bracket(sph6, params, ops6), to_spherical(ops6.v2, sph6)
    )
    dense = down.toarray()
    for (l, m), idxs in sph6.chains.items():
        assert np.abs(dense[:, idxs[0]]).max() < 1e-14  # chain bottom dies
        for n in range(1, len(idxs)):
            col = dense[:, idxs[n]].copy()
            assert abs(col[idxs[n - 1]] - 1.0) < 1e-13
            col[idxs[n - 1]] = 0.0
            assert np.abs(col).max() == 0.0  # exact zeros off the chain


def _route_exponentials(model):
    """The projector formula from the paper's route to S, per mode (the cyclic one with its wrap)."""
    sph, params = model.sph, model.ops.params
    norm_diag = normalization_bracket(model.eigenbasis, params, model.ops)
    down, _ = radial_shift_pair(sph, params, norm_diag, model.v2)
    opn, cyc = model.psets["open"], model.psets["cyclic"]
    route = projector_phase_exponential(opn, opn.doubled.embed(down))
    return {"open": route, "cyclic": route + cyc.exchange @ cyc.chain_end_projector(-1)}


def test_phase_exponential_matches_dyadic(params):
    # the label-built chain dyadic against the paper's projector formula
    model = build_model(6, params, ("open", "cyclic"))
    for mode, route in _route_exponentials(model).items():
        e2 = model.psets[mode].exp_plus
        assert np.abs((e2.matrix - route.matrix).toarray()).max() < 1e-13


@pytest.mark.parametrize("n_max", [0, 1, 6])
def test_exponential_window_matches_projector_formula(n_max, params):
    model = build_model(n_max, params, ("open", "cyclic"))
    for mode, route in _route_exponentials(model).items():
        e2 = model.psets[mode].exp_plus
        assert (e2.window, e2.lo, e2.hi) == (route.window, route.lo, route.hi)


def _chain_step(sph, row, col, cyclic):
    """Whether E may map doubled state col to row: one step left along its (l, m) chain."""
    dim = sph.dim
    (a, lam_a), (b, lam_b) = [(sph.labels[k % dim], 1 if k < dim else -1) for k in (row, col)]
    if (a.l, a.m) != (b.l, b.m):
        return False
    top = (sph.n_max - b.l) // 2
    return {
        (1, 1): a.n == b.n - 1,
        (1, -1): a.n == b.n == 0,
        (-1, -1): a.n == b.n + 1,
        (-1, 1): cyclic and a.n == b.n == top,
    }[(lam_b, lam_a)]


@pytest.mark.parametrize("n_max", [0, 1, 6])
def test_phase_set_stores_only_unit_chain_entries(n_max, params):
    model = build_model(n_max, params, ("open", "cyclic"))
    sph = model.sph
    links = sum(len(idxs) - 1 for idxs in sph.chains.values())
    chains = len(sph.chains)
    for mode in ("open", "cyclic"):
        pset = model.psets[mode]
        down, e2 = pset.down_single.matrix.tocoo(), pset.exp_plus.matrix.tocoo()
        assert (down.data == 1.0).all() and (e2.data == 1.0).all()
        assert down.nnz == links
        for i, j in zip(down.row, down.col):
            lo, up = sph.labels[i], sph.labels[j]
            assert (lo.n, lo.l, lo.m) == (up.n - 1, up.l, up.m)
        assert e2.nnz == 2 * links + chains + (chains if mode == "cyclic" else 0)
        assert all(_chain_step(sph, i, j, mode == "cyclic") for i, j in zip(e2.row, e2.col))


def test_phase_exponential_chain_action(pset6_open):
    d = pset6_open.doubled
    e2 = pset6_open.exp_plus.toarray()
    lab = SphericalLabel(1, 1, 0)
    below = SphericalLabel(0, 1, 0)
    col = e2[:, d.index(lab, +1)]
    assert abs(col[d.index(below, +1)] - 1.0) < 1e-13
    # vacuum link: |0,l,m,+> crosses to |0,l,m,->
    col = e2[:, d.index(below, +1)]
    assert abs(col[d.index(below, -1)] - 1.0) < 1e-13
    # minus copy walks upward
    col = e2[:, d.index(below, -1)]
    assert abs(col[d.index(lab, -1)] - 1.0) < 1e-13


def test_open_defect_sits_on_chain_ends(pset6_open):
    pset = pset6_open
    ident = doubled_identity(pset.doubled)
    defect = (pset.exp_minus @ pset.exp_plus - ident).toarray()
    ends = pset.chain_end_projector(-1).toarray()
    assert np.abs(defect + ends).max() < 1e-13
    defect = (pset.exp_plus @ pset.exp_minus - ident).toarray()
    ends = pset.chain_end_projector(+1).toarray()
    assert np.abs(defect + ends).max() < 1e-13


def test_cyclic_exponential_is_unitary_permutation(pset6_cyclic):
    pset = pset6_cyclic
    ident = doubled_identity(pset.doubled)
    assert op_norm_1(pset.exp_minus @ pset.exp_plus - ident) < 1e-13
    assert op_norm_1(pset.exp_plus @ pset.exp_minus - ident) < 1e-13
    dense = np.abs(pset.exp_plus.toarray())
    assert np.abs(np.minimum(dense, np.abs(dense - 1.0))).max() < 1e-13


def test_inverse_formulae(pset6_open, pset6_cyclic):
    for pset in (pset6_open, pset6_cyclic):
        res = inverse_shift_residuals(pset)
        assert res["down"] < 1e-12
        assert res["up"] < 1e-12


def test_cos_vacuum_link_is_half(pset6_open):
    d = pset6_open.doubled
    cos = pset6_open.cos2.toarray()
    lab = SphericalLabel(0, 2, -1)
    assert abs(cos[d.index(lab, +1), d.index(lab, -1)] - 0.5) < 1e-14


def test_reconstruction_residuals_small(pset6_open, sph6, ops6):
    res = reconstruction_residuals(pset6_open, to_spherical(ops6.v2, sph6))
    assert res["lowering"] < 1e-10
    assert res["raising"] < 1e-10
    assert res["raising_sign_left_no_vacuum"] < 1e-10


def test_reconstruction_element_frozen(pset6_open, sph6, params, ops6):
    # the reconstructed operator reproduces <1,0,0|V2|2,0,0> = 2Mw sqrt(20)
    pset = pset6_open
    d = pset.doubled
    rhs = 2.0 * params.mass * (
        d.embed(pset.sqrt_norm) @ (pset.cos2 + 1j * (pset.sign @ pset.sin2))
    )
    dense = rhs.toarray()
    i = d.index(SphericalLabel(1, 0, 0), +1)
    j = d.index(SphericalLabel(2, 0, 0), +1)
    want = 2.0 * params.mass * params.omega * np.sqrt(20.0)
    assert abs(dense[i, j] - want) < 1e-10 * want
    # and annihilates the vacuum column on the plus copy
    col = dense[:, d.index(SphericalLabel(0, 0, 0), +1)]
    assert np.abs(col).max() < 1e-10


def test_sign_left_variant_fails_on_vacuum_link(pset6_open, ops6):
    """The raising line with the sign operator left of the sine picks up a
    spurious cross-branch term on the vacuum columns; excluding them it
    matches. This pins down why the adjoint-consistent order is used."""
    pset = pset6_open
    d = pset.doubled
    two_m = 2.0 * pset.params.mass
    from oscphase.spherical import to_spherical

    v2d_adj = d.embed(to_spherical(ops6.v2, pset.spherical)).adjoint()
    literal = (pset.cos2 - 1j * (pset.sign @ pset.sin2)) @ (
        two_m * d.embed(pset.sqrt_norm)
    )
    diff = (v2d_adj - literal) @ pset.interior_projector()
    vac_cols = [d.index(lab, lam) for lab in pset.spherical.labels if lab.n == 0 for lam in (+1, -1)]
    dense = diff.toarray()
    assert np.abs(dense[:, vac_cols]).max() > 1.0  # genuinely wrong there
    dense[:, vac_cols] = 0.0
    assert np.abs(dense).max() < 1e-10  # correct elsewhere


def test_superselection_norm_exactly_two(pset6_open, pset6_cyclic):
    from oscphase import commutator

    for pset in (pset6_open, pset6_cyclic):
        assert abs(op_norm_1(commutator(pset.sign, pset.exp_plus)) - 2.0) < 1e-14
        assert op_norm_1(commutator(pset.sign, pset.down)) == 0.0


def test_hermitian_phase_round_trip():
    params = OscParams()
    basis = build_basis(4)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    pset = build_phase_operators(sph, params, "cyclic", ops)
    phase = pset.hermitian_phase().toarray()
    assert np.abs(phase - phase.conj().T).max() < 1e-12
    rebuilt = expm(2j * phase)
    assert np.abs(rebuilt - pset.exp_plus.toarray()).max() < 1e-10
    t_op = pset.time_operator().toarray()
    assert np.abs(t_op + phase / params.omega).max() == 0.0


def _schur_phase(e):
    """Reference phase from a dense complex Schur form; arbitrary on the -1 eigenspace."""
    t, q = schur(e, output="complex")
    return (q * (0.5 * np.angle(np.diag(t)))[None, :]) @ q.conj().T


def test_hermitian_phase_per_cycle(pset6_cyclic):
    pset = pset6_cyclic
    phase = pset.hermitian_phase().toarray()
    e = pset.exp_plus.toarray()
    assert np.abs(phase - phase.conj().T).max() == 0.0
    evals, evecs = np.linalg.eigh(phase)
    assert np.abs((evecs * np.exp(2j * evals)) @ evecs.conj().T - e).max() < 1e-12
    assert evals.min() > -np.pi / 2 + 1e-6 and evals.max() <= np.pi / 2 + 1e-12
    minus_one = null_space(e + np.eye(len(e)))
    assert minus_one.shape[1] == len(pset.spherical.chains)  # one per cycle
    assert np.abs(phase @ minus_one - (np.pi / 2) * minus_one).max() < 1e-12
    off = np.eye(len(e)) - minus_one @ minus_one.conj().T
    assert np.abs((phase - _schur_phase(e)) @ off).max() < 1e-12


def test_hermitian_phase_is_block_sparse_and_deterministic(sph6, params, ops6):
    a = build_phase_operators(sph6, params, "cyclic", ops6).hermitian_phase()
    b = build_phase_operators(sph6, params, "cyclic", ops6).hermitian_phase()
    for attr in ("data", "indices", "indptr"):
        assert getattr(a.matrix, attr).tobytes() == getattr(b.matrix, attr).tobytes()
    cycle_of = np.empty(2 * sph6.dim, dtype=np.int64)
    lengths = []
    for k, idxs in enumerate(sph6.chains.values()):
        cycle_of[idxs] = k
        cycle_of[np.array(idxs) + sph6.dim] = k
        lengths.append(2 * len(idxs))
    coo = a.matrix.tocoo()
    assert (cycle_of[coo.row] == cycle_of[coo.col]).all()
    assert a.nnz == sum(n * n for n in lengths)


def test_hermitian_phase_requires_cyclic(pset6_open):
    with pytest.raises(ValueError):
        pset6_open.hermitian_phase()


def test_smallest_space_open_mode():
    # n_max = 0: one chain of depth one; E is exactly the vacuum link
    params = OscParams()
    basis = build_basis(0)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    pset = build_phase_operators(sph, params, "open", ops)
    e2 = pset.exp_plus.toarray()
    expect = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.abs(e2 - expect).max() == 0.0
    assert pset.down_single.nnz == 0
    cyc = build_phase_operators(sph, params, "cyclic", ops)
    dense = cyc.exp_plus.toarray()
    assert np.abs(dense - np.array([[0.0, 1.0], [1.0, 0.0]])).max() == 0.0


def test_mode_validation(sph6, params, ops6):
    with pytest.raises(ValueError):
        build_phase_operators(sph6, params, "sideways", ops6)


@pytest.fixture
def build_calls(monkeypatch):
    """Counts of the build stages and transforms, through every module binding."""
    import oscphase
    import oscphase.checks
    import oscphase.cli
    import oscphase.fock
    import oscphase.phase3d
    import oscphase.spherical

    counted = {
        "to_spherical": to_spherical,
        "normalization_bracket": normalization_bracket,
        "cartesian_operators": cartesian_operators,
        "build_spherical": build_spherical,
    }
    calls = dict.fromkeys(counted, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in counted.items():
        wrapper = counting(name, fn)
        for module in (oscphase, oscphase.checks, oscphase.cli, oscphase.fock, oscphase.phase3d, oscphase.spherical):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_build_stage_runs_once(build_calls, params, tmp_path):
    from oscphase import run_all_checks
    from oscphase.cli import main

    none = dict.fromkeys(build_calls, 0)
    # verify builds the operators and U once, transforms H and V2 and
    # evaluates the bracket for the paper's routes
    run_all_checks(6)
    assert build_calls == {**none, "to_spherical": 3, "normalization_bracket": 1, "cartesian_operators": 1, "build_spherical": 1}
    # the phase sets are built from the labels alone
    basis = build_basis(6)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    build_calls.update(none)
    build_phase_operators(sph, params, "cyclic", ops)
    assert build_calls == none
    out = str(tmp_path / "out")
    for argv in (
        ["trajectory", "--n-max", "4", "--t-max", "0.1", "--mode", "cyclic"],
        ["unitarity-scan", "--n-max-list", "0,2,4"],
        ["spectrum", "--n-max", "6"],
    ):
        assert main(argv + ["--out", out]) == 0
        assert build_calls == none


def test_cyclic_set_agrees_with_open_off_the_wrap(params):
    model = build_model(4, params, ("open", "cyclic"))
    opn, cyc = model.psets["open"], model.psets["cyclic"]
    assert (opn.mode, cyc.mode) == ("open", "cyclic")
    assert np.array_equal(cyc.norm_diag, opn.norm_diag)
    for field in ("down", "up", "sqrt_norm", "sign", "exchange"):
        assert abs(getattr(cyc, field).matrix - getattr(opn, field).matrix).max() == 0.0
    # the cyclic entries are the open ones plus the wrap |top,+><top,-|, in CSR order
    d = opn.doubled
    tops = np.flatnonzero(model.sph.shells > d.n_max - 2)
    rows, cols = (np.concatenate(pair) for pair in zip(opn.exp_entries, (tops, tops + d.dim_single)))
    order = np.lexsort((cols, rows))
    assert np.array_equal(cyc.exp_entries[0], rows[order])
    assert np.array_equal(cyc.exp_entries[1], cols[order])


def _built(pset) -> set:
    """The names of the phase-set fields built so far."""
    fields = {name for name, attr in vars(type(pset)).items() if isinstance(attr, cached_property)}
    return fields & set(vars(pset))


def test_commands_build_only_the_fields_they_read(params, monkeypatch, tmp_path):
    from oscphase import cli

    sets = []

    def recording(*args):
        model = build_model(*args)
        sets.extend(model.psets.values())
        return model

    monkeypatch.setattr(cli, "build_model", recording)
    out = str(tmp_path / "out")
    for mode in ("open", "cyclic"):
        assert cli.main(["trajectory", "--n-max", "6", "--t-max", "1", "--mode", mode, "--out", out]) == 0
    assert len(sets) == 2 and all(_built(p) == set() for p in sets)
    sets.clear()
    assert cli.main(["unitarity-scan", "--n-max-list", "0,2,6", "--out", out]) == 0
    assert len(sets) == 6 and all(_built(p) == {"exp_plus", "exp_minus"} for p in sets)


@pytest.mark.parametrize("field", ["exp_minus", "cos2", "sin2"])
def test_cyclic_set_does_not_inherit_the_open_exponential(field, params):
    psets = build_model(6, params, ("open", "cyclic")).psets
    opn, cyc = psets["open"], psets["cyclic"]
    opened = getattr(opn, field)
    assert _built(cyc) == set()
    fresh = build_model(6, params, ("cyclic",)).psets["cyclic"]
    assert getattr(cyc, field) is not opened
    assert abs(getattr(cyc, field).matrix - getattr(fresh, field).matrix).max() == 0.0
    assert abs(getattr(cyc, field).matrix - opened.matrix).max() > 0.0  # the wrap entries


def test_model_builds_the_spherical_labels_once(params, monkeypatch):
    from oscphase import spherical

    inits = []
    original = spherical.SphericalBasis.__init__
    monkeypatch.setattr(spherical.SphericalBasis, "__init__", lambda self, cart: inits.append(cart) or original(self, cart))
    model = build_model(4, params, ("open",))
    eig = model.eigenbasis
    assert len(inits) == 1
    assert eig.labels is model.sph.labels and eig.index is model.sph.index and eig.links is model.sph.links
    assert model.sph.u is None and eig.column_map() is eig.u
    alone = build_spherical(model.basis, params, model.ops)
    assert len(inits) == 2 and alone.labels == eig.labels and (alone.u != eig.u).nnz == 0
