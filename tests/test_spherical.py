import copy
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

import oscphase
from oscphase import (
    DegenerateSplitFailure,
    OperatorMatrix,
    OscParams,
    SphericalBasis,
    SphericalLabel,
    build_basis,
    build_spherical,
    cartesian_operators,
    degeneracy_table,
    spherical_labels,
    to_spherical,
)
from oscphase.spherical import _validate


def test_label_shell_arithmetic():
    assert SphericalLabel(2, 1, 0).shell == 5
    assert SphericalLabel(0, 4, -3).shell == 4


def test_degeneracy_table_frozen(sph6):
    rows = degeneracy_table(sph6)
    assert rows[0] == (0, 1.5, 1, [0])
    assert rows[1] == (1, 2.5, 3, [1])
    assert rows[2] == (2, 3.5, 6, [0, 2])
    assert rows[4] == (4, 5.5, 15, [0, 2, 4])
    assert rows[5] == (5, 6.5, 21, [1, 3, 5])


@pytest.mark.parametrize("n_max", range(13))
def test_degeneracy_table_matches_per_shell_scan(n_max):
    # the one-pass table against its definition: rescan the labels per shell
    sph = SphericalBasis(build_basis(n_max))
    want = []
    for shell in range(n_max + 1):
        labs = [lab for lab in sph.labels if lab.shell == shell]
        want.append((shell, shell + 1.5, len(labs), sorted({lab.l for lab in labs})))
    got = degeneracy_table(sph)
    assert got == want
    assert [tuple(map(type, row)) for row in got] == [(int, float, int, list)] * (n_max + 1)
    assert all(type(l) is int for row in got for l in row[3])


def test_shell_three_content(sph6):
    labs = [lab for lab in sph6.labels if lab.shell == 3]
    assert len(labs) == 10
    assert {(lab.n, lab.l) for lab in labs} == {(1, 1), (0, 3)}


def test_column_map_diagonalizes(sph6, ops6, params):
    h_s = to_spherical(ops6.h, sph6).toarray()
    expect = params.omega * (sph6.shells + 1.5)
    assert np.abs(h_s - np.diag(expect)).max() < 1e-12
    l2_s = to_spherical(ops6.l2, sph6).toarray()
    expect = np.array([lab.l * (lab.l + 1) for lab in sph6.labels], dtype=float)
    assert np.abs(l2_s - np.diag(expect)).max() < 1e-12


def test_chain_elements_frozen(sph6, ops6, params):
    """<n-1,l,m|V2|n,l,m> = 2Mw sqrt(2n(2n+2l+1)), real positive."""
    v2s = to_spherical(ops6.v2, sph6).toarray()
    cases = [
        # (n, l, m, expected element out of |n,l,m>)
        (1, 0, 0, 2.0 * np.sqrt(6.0)),
        (1, 2, 1, 2.0 * np.sqrt(14.0)),
        (2, 0, 0, 2.0 * np.sqrt(20.0)),
        (1, 4, -2, 2.0 * np.sqrt(22.0)),
    ]
    for n, l, m, want in cases:
        i = sph6.index[SphericalLabel(n - 1, l, m)]
        j = sph6.index[SphericalLabel(n, l, m)]
        got = v2s[i, j]
        assert abs(got - want) < 1e-12 * want
        assert abs(np.imag(got)) < 1e-13


def test_chain_partial_wave_exact_zeros(sph6, ops6):
    # built chainwise, V2 in the spherical basis touches nothing else
    v2s = to_spherical(ops6.v2, sph6).toarray()
    for (l, m), idxs in sph6.chains.items():
        for pos, j in enumerate(idxs):
            col = v2s[:, j].copy()
            if pos > 0:
                col[idxs[pos - 1]] = 0.0
            assert np.abs(col).max() < 1e-12


def test_chains_cover_every_label(sph6):
    covered = sorted(i for idxs in sph6.chains.values() for i in idxs)
    assert covered == list(range(sph6.dim))
    for (l, m), idxs in sph6.chains.items():
        ns = [sph6.labels[i].n for i in idxs]
        assert ns == list(range(len(idxs)))


def test_build_is_deterministic(basis6, params, ops6):
    a = build_spherical(basis6, params, ops6)
    b = build_spherical(basis6, params, ops6)
    assert a.labels == b.labels
    assert _bytes(a.column_map()) == _bytes(b.column_map())


def _bytes(u):
    return u.data.tobytes(), u.indices.tobytes(), u.indptr.tobytes()


def test_column_map_does_not_depend_on_mass_or_omega():
    # the chains are raised by the dimensionless -a+.a+, not by V2+ ~ M w
    basis = build_basis(8)
    maps = []
    for mass, omega in ((1.0, 1.0), (1e200, 1.0), (1e-300, 1.0), (1.0, 1e-100)):
        params = OscParams(mass, omega)
        maps.append(_bytes(build_spherical(basis, params, cartesian_operators(basis, params)).column_map()))
    assert maps[1:] == maps[:1] * 3


def _blocks(basis, sph):
    """(N, m) of every Cartesian state and of every label."""
    return (
        list(zip(basis.shells.tolist(), (basis.quanta[:, 0] - basis.quanta[:, 1]).tolist())),
        [(lab.shell, lab.m) for lab in sph.labels],
    )


def _cartesian_operator_list(ops):
    named = [("h", ops.h), ("l2", ops.l2), ("v2", ops.v2)]
    for ax in ("x", "y", "z"):
        named += [(f"{kind}_{ax}", getattr(ops, kind)[ax]) for kind in ("a", "adag", "r", "p", "l", "v")]
    return named


@pytest.mark.parametrize("n_max", [0, 1, 6])
def test_block_transform_matches_dense_reference(n_max):
    params = OscParams(1.3, 0.7)
    basis = build_basis(n_max)
    ops = cartesian_operators(basis, params)
    sph = build_spherical(basis, params, ops)
    dense_u = sph.column_map().toarray()
    assert np.abs(dense_u.conj().T @ dense_u - np.eye(basis.dim)).max() < 1e-12
    cart_blocks, label_blocks = _blocks(basis, sph)
    # U lies in (N, m) blocks of size (N - |m|)//2 + 1, each holding as many states as labels
    rows, cols = np.nonzero(dense_u)
    assert all(cart_blocks[r] == label_blocks[c] for r, c in zip(rows, cols))
    sizes = {}
    for block in cart_blocks:
        sizes[block] = sizes.get(block, 0) + 1
    assert sizes == {(n, m): (n - abs(m)) // 2 + 1 for n in range(n_max + 1) for m in range(-n, n + 1)}
    assert sorted(label_blocks) == sorted(cart_blocks)
    for name, op in _cartesian_operator_list(ops):
        ref = dense_u.conj().T @ (op.toarray() @ dense_u)
        got = to_spherical(op, sph)
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(got.toarray() - ref).max() <= 1e-13 * scale, name
        # stored entries only on the (N, m) block pairs where the operator has entries
        src = op.matrix.tocoo()
        admissible = {(cart_blocks[r], cart_blocks[c]) for r, c in zip(src.row, src.col)}
        out = got.matrix.tocoo()
        assert {(label_blocks[r], label_blocks[c]) for r, c in zip(out.row, out.col)} <= admissible, name


def test_window_metadata_carries_over(sph6, ops6):
    moved = to_spherical(ops6.v2, sph6)
    assert moved.window == ops6.v2.window
    assert (moved.lo, moved.hi) == (ops6.v2.lo, ops6.v2.hi)


def test_degenerate_split_failure_on_perturbed_operator(basis6, params, ops6):
    # shifting L^2 by 1e-3 moves every eigenvalue off l(l+1), from shell 0 on
    bad = cartesian_operators(basis6, params)
    eye = np.eye(basis6.dim)
    bad.l2 = OperatorMatrix(bad.l2.matrix + 1e-3 * eye, basis6, bad.l2.window, 0, 0)
    with pytest.raises(DegenerateSplitFailure, match=r"shell 0: L\^2 eigenvector residual 1\.000e-03"):
        build_spherical(basis6, params, bad)


@pytest.mark.parametrize("scale", [1.001, np.nan])
def test_validate_names_the_shell_of_a_non_unitary_block(sph6, params, ops6, scale):
    sph = copy.copy(sph6)
    sph.u = sph6.column_map() @ sparse.diags(np.where(sph6.shells == 3, scale, 1.0))
    with pytest.raises(DegenerateSplitFailure, match=r"shell 3: unitary defect .* at \(n=1, l=1, m=-1\)"):
        _validate(sph, ops6, params)


def test_build_calls_no_eigensolver(basis6, params, ops6, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_spherical called a dense eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    sph = build_spherical(basis6, params, ops6)
    assert sph.eigen_residual <= 1e-13


@pytest.mark.parametrize("n_max", [8, 18])
def test_column_map_keeps_z_parity_zeros(n_max):
    # z -> -z multiplies |n+,n-,nz> by (-1)^nz and |n,l,m> by (-1)^(l+m), so
    # U has no entry, not even roundoff, between states of opposite parity
    model = oscphase.build_model(n_max, OscParams())
    basis, sph = model.basis, model.eigenbasis
    parity = (sph.orbital + np.array([lab.m for lab in sph.labels])) % 2
    u = sph.column_map().tocoo()
    assert np.array_equal(basis.quanta[u.row, 2] % 2, parity[u.col])
    # nor between states of different m = n+ - n-, which also fixes the
    # parity, since nz = N - n+ - n- = l + m mod 2
    m_cart, m_label = basis.quanta[:, 0] - basis.quanta[:, 1], np.array([lab.m for lab in sph.labels])
    assert np.array_equal(m_cart[u.row], m_label[u.col])
    assert np.array_equal(basis.shells[u.row], sph.shells[u.col])
    # so U stores at most the (N, m) blocks, (N - |m|)//2 + 1 square
    bound = sum(((n - abs(m)) // 2 + 1) ** 2 for n in range(n_max + 1) for m in range(-n, n + 1))
    assert u.nnz <= bound
    if n_max == 18:
        assert bound == 6700
    # and the operators transformed by U couple only labels of equal m
    for op in (model.h, model.v2):
        moved = op.matrix.tocoo()
        assert np.array_equal(m_label[moved.row], m_label[moved.col])
        assert np.array_equal(parity[moved.row], parity[moved.col])


def test_n_max_zero_and_one():
    for n_max in (0, 1):
        basis = build_basis(n_max)
        params = OscParams()
        sph = build_spherical(basis, params, cartesian_operators(basis, params))
        assert sph.dim == basis.dim
        assert all(lab.n == 0 for lab in sph.labels)


@pytest.mark.parametrize("mass,omega", [(1.0, 1.0), (1.3, 0.7)])
def test_label_basis_matches_diagonalized_basis(mass, omega):
    params = OscParams(mass, omega)
    for n_max in range(13):
        # brute force: every (n, l, m) with 2n + l <= n_max, sorted by (shell, l, m)
        brute = sorted(
            (SphericalLabel(n, l, m) for n in range(n_max + 1) for l in range(n_max + 1 - 2 * n) for m in range(-l, l + 1)),
            key=lambda lab: (lab.shell, lab.l, lab.m),
        )
        assert spherical_labels(n_max) == brute
        basis = build_basis(n_max)
        built = build_spherical(basis, params, cartesian_operators(basis, params))
        labels = SphericalBasis(basis)
        assert labels.u is None
        assert labels.labels == built.labels
        assert labels.key == built.key
        assert labels.chains == built.chains
        assert all(np.array_equal(a, b) for a, b in zip(labels.links, built.links))
        for idxs in labels.chains.values():
            assert [labels.labels[i].n for i in idxs] == list(range(len(idxs)))


def test_label_basis_has_no_column_map(basis6, ops6):
    labels = SphericalBasis(basis6)
    with pytest.raises(ValueError, match="labels only"):
        to_spherical(ops6.h, labels)
    with pytest.raises(ValueError, match="labels only"):
        labels.column_map()


def test_column_map_unitary_to_working_precision():
    # after the polar step over the (N, m) blocks
    basis, params = build_basis(18), OscParams()
    sph = build_spherical(basis, params, cartesian_operators(basis, params))
    u = sph.column_map()
    assert abs(u.conj().T @ u - sparse.identity(basis.dim)).max() <= 1e-15
    assert sph.unitary_defect <= 1e-15


def test_every_check_passes_at_n_max_28():
    # radial_shift_commutator, the check with the least headroom, reads about
    # 2.7e-14 here against 1e-12
    src = os.path.dirname(os.path.dirname(oscphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from oscphase import run_all_checks\n"
        "reports = run_all_checks(28)\n"
        "print(len(reports), [r.name for r in reports if not r.passed])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "55 []"
