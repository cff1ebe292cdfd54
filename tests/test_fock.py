import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import oscphase.fock
from oscphase import (
    AXES,
    DoubledBasis,
    OperatorMatrix,
    OscParams,
    SphericalBasis,
    build_basis,
    cartesian_operators,
    commutator,
    diagonal,
    identity,
    ladder,
    masked_norm,
    op_norm_1,
    residual_on_window,
)


def brute_force_dim(n_max):
    count = 0
    for nx in range(n_max + 1):
        for ny in range(n_max + 1):
            for nz in range(n_max + 1):
                if nx + ny + nz <= n_max:
                    count += 1
    return count


@pytest.mark.parametrize("n_max,expected", [(0, 1), (2, 10), (20, 1771)])
def test_dimension_formula(n_max, expected):
    basis = build_basis(n_max)
    assert basis.dim == expected
    assert basis.dim == brute_force_dim(n_max)
    assert basis.dim == (n_max + 1) * (n_max + 2) * (n_max + 3) // 6


def test_graded_lex_order():
    basis = build_basis(2)
    assert basis.states[0] == (0, 0, 0)
    assert basis.states[1:4] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    shells = [sum(s) for s in basis.states]
    assert shells == sorted(shells)
    assert basis.index[(0, 1, 1)] == basis.states.index((0, 1, 1))


def test_params_validation():
    with pytest.raises(ValueError):
        OscParams(mass=0.0)
    with pytest.raises(ValueError):
        OscParams(omega=-1.0)
    assert OscParams(2.0, 3.0).spring_constant == 18.0


def test_ladder_matrix_elements(basis6, ops6):
    # the basis states are |n+, n-, nz>: a_+ |2,0,0> = sqrt(2) |1,0,0>,
    # a_+^+ raises it with sqrt(3), and a_x = (a_+ + a_-)/sqrt(2) halves the norm
    vec = np.zeros(basis6.dim)
    vec[basis6.index[(2, 0, 0)]] = 1.0
    expect = np.zeros(basis6.dim)
    expect[basis6.index[(1, 0, 0)]] = np.sqrt(2.0)
    assert np.abs(ladder(basis6, "+") @ vec - expect).max() < 1e-15
    assert np.abs(ops6.a["x"] @ vec - expect / np.sqrt(2.0)).max() < 1e-15
    assert np.abs(ops6.a["y"] @ vec - 1j * expect / np.sqrt(2.0)).max() < 1e-15

    up = ladder(basis6, "+").adjoint() @ vec
    expect = np.zeros(basis6.dim)
    expect[basis6.index[(3, 0, 0)]] = np.sqrt(3.0)
    assert np.abs(up - expect).max() < 1e-15
    expect[basis6.index[(2, 1, 0)]] = 1.0  # from a_-^+
    assert np.abs(ops6.adag["x"] @ vec - expect / np.sqrt(2.0)).max() < 1e-15


def test_circular_quanta_carry_m(basis6, ops6):
    # L_z = n+ - n- is diagonal in the circular basis
    lz = ops6.l["z"].toarray()
    m = basis6.quanta[:, 0] - basis6.quanta[:, 1]
    assert np.abs(lz - np.diag(m)).max() < 1e-14
    assert np.count_nonzero(lz - np.diag(np.diag(lz))) == 0


def test_canonical_commutators(basis6, ops6):
    ident = identity(basis6)
    for ax in AXES:
        c = commutator(ops6.a[ax], ops6.adag[ax]) - ident
        assert residual_on_window(c) < 1e-14
    c = commutator(ops6.r["x"], ops6.p["x"]) - 1j * ident
    assert residual_on_window(c) < 1e-14
    # cross-axis commutators vanish on the window but NOT at the cut
    # boundary, where the dropped intermediate shell breaks them
    cross = commutator(ops6.r["x"], ops6.p["y"])
    assert cross.window == basis6.n_max - 2
    assert residual_on_window(cross) < 1e-14
    assert op_norm_1(cross) > 1.0


@pytest.mark.parametrize("window", [-1, 0, 3, 6, 9, None])  # n_max // 2, n_max, n_max + 3 at n_max 6
@pytest.mark.parametrize("kind", ["cross_commutator", "empty"])
def test_residual_on_window_matches_shell_projector(basis6, ops6, kind, window):
    # the masked column sums equal the 1-norm of the operator times the
    # projector onto shells <= window, bit for bit
    if kind == "empty":
        op = OperatorMatrix(np.zeros((basis6.dim, basis6.dim)), basis6, basis6.n_max)
        assert op.nnz == 0
    else:
        op = commutator(ops6.r["x"], ops6.p["y"])  # nonzero at the cut, window n_max - 2
    w = op.window if window is None else window
    projector = sparse.diags((basis6.shells <= w).astype(np.complex128), format="csr")
    assert residual_on_window(op, window) == op_norm_1(op.matrix @ projector)


def test_hamiltonian_diagonal_oracle():
    # E(nx,ny,nz) = w (nx+ny+nz + 3/2); frozen for M=2, w=3
    basis = build_basis(3)
    params = OscParams(2.0, 3.0)
    ops = cartesian_operators(basis, params)
    diag = np.real(np.diag(ops.h.toarray()))
    assert abs(diag[basis.index[(0, 0, 0)]] - 4.5) < 1e-14
    assert abs(diag[basis.index[(1, 1, 0)]] - 10.5) < 1e-14
    expect = 3.0 * (basis.shells + 1.5)
    assert np.abs(diag - expect).max() < 1e-13
    off = ops.h.toarray() - np.diag(diag)
    assert np.abs(off).max() == 0.0


def test_hamiltonian_from_quadratic_route():
    basis = build_basis(5)
    params = OscParams(2.0, 3.0)
    ops = cartesian_operators(basis, params)
    quad = None
    for ax in AXES:
        term = (1.0 / (2.0 * params.mass)) * (ops.p[ax] @ ops.p[ax]) + (
            0.5 * params.spring_constant
        ) * (ops.r[ax] @ ops.r[ax])
        quad = term if quad is None else quad + term
    diff = quad - ops.h
    assert diff.window == 3  # p and r displace by one shell each
    assert residual_on_window(diff) < 1e-13 * op_norm_1(ops.h)


def test_angular_momentum_shell_two_spectrum(basis6, ops6):
    # L^2 on the 6-dim shell 2 block has eigenvalues {0} + {6 five-fold}
    sel = np.nonzero(basis6.shells == 2)[0]
    block = ops6.l2.matrix[np.ix_(sel, sel)].toarray()
    evals = np.sort(np.linalg.eigvalsh(block))
    assert np.abs(evals - np.array([0.0, 6.0, 6.0, 6.0, 6.0, 6.0])).max() < 1e-12


def test_angular_momentum_commutes_exactly(basis6, ops6):
    # shell-preserving operators: the truncated commutators vanish fully
    for ax in AXES:
        assert op_norm_1(commutator(ops6.h, ops6.l[ax])) < 1e-12
    assert op_norm_1(commutator(ops6.h, ops6.l2)) < 1e-12
    assert op_norm_1(commutator(ops6.l2, ops6.l["z"])) < 1e-12


def test_angular_momentum_algebra(basis6, ops6):
    c = commutator(ops6.l["x"], ops6.l["y"]) - 1j * ops6.l["z"]
    assert residual_on_window(c) < 1e-12


def test_vector_ladder_reduction(basis6, params, ops6):
    # p - iMw r equals -i sqrt(2Mw) a entrywise
    for ax in AXES:
        built = ops6.p[ax] - (1j * params.mass * params.omega) * ops6.r[ax]
        assert op_norm_1(built - ops6.v[ax]) < 1e-13 * op_norm_1(ops6.v[ax])
        assert ops6.v[ax].window == basis6.n_max
        assert (ops6.v[ax].lo, ops6.v[ax].hi) == (-1, -1)


def test_vector_ladder_square_lowers_two_shells(basis6, ops6):
    dense = ops6.v2.toarray()
    rows, cols = np.nonzero(np.abs(dense) > 1e-12)
    assert np.all(basis6.shells[rows] == basis6.shells[cols] - 2)


def test_scaling_in_mass_and_frequency():
    basis = build_basis(4)
    base = cartesian_operators(basis, OscParams(1.0, 1.0))
    alt = cartesian_operators(basis, OscParams(2.0, 0.5))
    # H depends only on w; V2 only on the product M w
    assert op_norm_1(2.0 * alt.h - base.h) < 1e-14 * op_norm_1(base.h)
    assert op_norm_1(alt.v2 - base.v2) < 1e-14 * op_norm_1(base.v2)


def test_window_against_larger_truncation():
    """Operators agree with a larger-truncation build on their stated window."""
    params = OscParams(1.3, 0.7)
    small = build_basis(4)
    big = build_basis(7)
    ops_s = cartesian_operators(small, params)
    ops_b = cartesian_operators(big, params)
    embed = np.array([big.index[s] for s in small.states])

    pairs = [
        (ops_s.a["y"], ops_b.a["y"]),
        (ops_s.p["z"], ops_b.p["z"]),
        (ops_s.r["x"], ops_b.r["x"]),
        (ops_s.l["z"], ops_b.l["z"]),
        (ops_s.l2, ops_b.l2),
        (ops_s.v2, ops_b.v2),
        (ops_s.h, ops_b.h),
        (ops_s.a["x"] @ ops_s.adag["x"], ops_b.a["x"] @ ops_b.adag["x"]),
        (ops_s.p["x"] @ ops_s.p["x"], ops_b.p["x"] @ ops_b.p["x"]),
    ]
    for op_small, op_big in pairs:
        a = op_small.toarray()
        b = op_big.toarray()[np.ix_(embed, embed)]
        cols = np.nonzero(small.shells <= op_small.window)[0]
        assert np.abs(a[:, cols] - b[:, cols]).max() < 1e-12


_ELEMENTARY = [f"{kind}_{ax}" for kind in ("a", "adag", "r", "p", "l") for ax in AXES] + ["l2", "v2", "h"]


@functools.cache
def _ops_at(n_max):
    return cartesian_operators(build_basis(n_max), OscParams(1.3, 0.7))


def _compose(ops, names, joins):
    """names[0] joins names[1] joins names[2] ..., evaluated left to right."""
    terms = []
    for name in names:
        kind, _, ax = name.partition("_")
        terms.append(getattr(ops, kind)[ax] if ax else getattr(ops, kind))
    out = terms[0]
    for term, join in zip(terms[1:], joins):
        out = out @ term if join == "@" else out + term
    return out


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(min_value=4, max_value=6),
    names=st.lists(st.sampled_from(_ELEMENTARY), min_size=2, max_size=3),
    joins=st.lists(st.sampled_from(["@", "+"]), min_size=2, max_size=2),
)
def test_window_property_of_compositions(n_max, names, joins):
    """Products and sums act on their declared window as in an n_max + 3 build."""
    small = _compose(_ops_at(n_max), names, joins)
    big = _compose(_ops_at(n_max + 3), names, joins)
    # graded-lex order makes the small basis the first states of the big one;
    # on the window the big image must also stay on the small basis
    cols = np.flatnonzero(small.basis.shells <= small.window)
    want = big.toarray()[:, cols]
    got = np.zeros_like(want)
    got[: small.basis.dim] = small.toarray()[:, cols]
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


def test_window_algebra_bookkeeping(basis6, ops6):
    n = basis6.n_max
    assert ops6.a["x"].window == n
    assert ops6.adag["x"].window == n - 1
    prod = ops6.a["x"] @ ops6.adag["x"]
    assert prod.window == n - 1
    assert (prod.lo, prod.hi) == (0, 0)
    rev = ops6.adag["x"] @ ops6.a["x"]
    assert rev.window == n
    tot = prod + rev
    assert tot.window == n - 1
    adj = ops6.v2.adjoint()
    assert (adj.lo, adj.hi) == (2, 2)
    assert adj.window == n - 2


def test_basis_mismatch_rejected(basis6, ops6):
    other = cartesian_operators(build_basis(3), OscParams())
    with pytest.raises(ValueError):
        _ = ops6.h @ other.h
    with pytest.raises(ValueError):
        OperatorMatrix(np.eye(4), basis6, 6)


def test_negative_n_max_rejected():
    with pytest.raises(ValueError):
        build_basis(-1)


def _loop_ladder(basis, k):
    """Reference circular annihilation operator a_+, a_- or a_z (k = 0, 1, 2),
    one basis state |n+, n-, nz> at a time."""
    dense = np.zeros((basis.dim, basis.dim))
    for j, s in enumerate(basis.states):
        if s[k]:
            t = list(s)
            t[k] -= 1
            dense[basis.index[tuple(t)], j] = np.sqrt(s[k])
    return dense


@pytest.mark.parametrize("n_max", range(10))
def test_ladder_matches_state_loop(n_max):
    basis = build_basis(n_max)
    plus, minus, z = (_loop_ladder(basis, k) for k in range(3))
    for ax, want in (("+", plus), ("-", minus), ("z", z)):
        a = ladder(basis, ax)
        assert np.array_equal(a.toarray(), want)
        assert np.all(np.count_nonzero(want, axis=0) <= 1)  # one entry per column
    want = {"x": (plus + minus) * (1.0 / np.sqrt(2.0)), "y": (plus - minus) * (1j / np.sqrt(2.0)), "z": z}
    for ax in AXES:
        a = ladder(basis, ax)
        assert np.array_equal(a.toarray(), want[ax])
        assert (a.window, a.lo, a.hi) == (n_max, -1, -1)


def test_operators_share_three_ladders(monkeypatch):
    calls = []
    original = oscphase.fock.ladder

    def counting(basis, axis):
        calls.append(axis)
        return original(basis, axis)

    monkeypatch.setattr(oscphase.fock, "ladder", counting)
    cartesian_operators(build_basis(4), OscParams())
    assert sorted(calls) == ["x", "y", "z"]


def _reference_column_sums(a) -> np.ndarray:
    # the definition the CSR-array sums must match bit for bit; abs() sums
    # duplicates in place, so it gets a copy
    return np.asarray(abs(a.copy()).sum(axis=0)).ravel()


def _norm_cases(dim):
    rng = np.random.default_rng(7)
    vals = rng.normal(size=6) + 1j * rng.normal(size=6)
    rows, cols = np.array([0, 0, 3, 3, 3, dim - 1]), np.array([5, 2, 1, 1, 7, 2])
    yield "explicit_zeros", sparse.csr_matrix((np.array([0.0, 1.5, 0.0, -2.0, 0.0, 1j]), (rows, cols + 1)), shape=(dim, dim))
    # row 0 lists columns 5, 2; row 3 lists 7, 1
    unsorted = sparse.csr_matrix((vals[:4], np.array([5, 2, 7, 1]), np.array([0, 2, 2, 2, 4] + [4] * (dim - 4))), shape=(dim, dim))
    assert not unsorted.has_sorted_indices
    yield "unsorted", unsorted
    dup = sparse.csr_matrix((vals, np.array([2, 2, 1, 1, 1, 2]), np.array([0, 2, 2, 2, 5] + [5] * (dim - 5) + [6])), shape=(dim, dim))
    yield "duplicates", dup
    # at most two entries a column, where CSC's own column sums add in row order too
    yield "csc", sparse.csc_matrix((vals, (rows, cols)), shape=(dim, dim))
    yield "coo", sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    yield "real_csr", sparse.csr_matrix((vals.real, (rows, cols)), shape=(dim, dim))
    yield "empty", sparse.csr_matrix((dim, dim), dtype=np.complex128)


@pytest.mark.parametrize("case", [name for name, _ in _norm_cases(10)])
def test_norms_bit_equal_column_abs_sums(case):
    basis = build_basis(2)  # dim 10
    a = dict(_norm_cases(basis.dim))[case]
    ref = _reference_column_sums(a)
    assert op_norm_1(a.copy()) == float(ref.max())
    op = OperatorMatrix(a.copy(), basis, basis.n_max)
    assert op_norm_1(op) == float(ref.max())
    for window in (-3, -1, 0, 1, 2, None):
        keep = basis.shells <= (op.window if window is None else window)
        assert residual_on_window(op, window) == float(ref[keep].max(initial=0.0))
    assert residual_on_window(op, -1) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        max_size=40,
    ),
    fmt=st.sampled_from(["csr", "csc", "coo"]),
    window=st.integers(-2, 3),
)
def test_norms_bit_equal_on_random_matrices(entries, fmt, window):
    # duplicates, zeros and any storage order, as the raw triplets give them
    basis = build_basis(2)
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    vals = np.array([complex(e[2], e[3]) for e in entries], dtype=np.complex128)
    a = sparse.coo_matrix((vals, (rows, cols)), shape=(10, 10)).asformat(fmt)
    # the sums run in row order, as over the canonical CSR the operators
    # store; CSC's own sum(axis=0) adds a column's first entry to numpy's
    # pairwise sum of the rest, which can differ in the last bit
    ref = _reference_column_sums(a.tocsr())
    if fmt != "csc":
        assert np.array_equal(ref, _reference_column_sums(a))
    assert op_norm_1(a.copy()) == float(ref.max())
    keep = basis.shells <= window
    assert residual_on_window(OperatorMatrix(a.copy(), basis, basis.n_max), window) == float(ref[keep].max(initial=0.0))


MASK = st.none() | st.lists(st.booleans(), min_size=10, max_size=10).map(np.array)


@settings(max_examples=80, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        max_size=40,
    ),
    rows=MASK,
    cols=MASK,
)
@example(entries=[], rows=None, cols=None)  # no stored entries
@example(entries=[(1, 2, 0.0, 0.0), (3, 2, 1.0, -2.0)], rows=np.zeros(10, bool), cols=None)
@example(entries=[(0, 0, 0.0, 0.0), (4, 4, 2.5, 0.0)], rows=None, cols=np.zeros(10, bool))
@example(entries=[(0, 0, 0.0, 0.0), (0, 4, -0.0, 3.0), (4, 0, 1.5, 0.5)], rows=np.arange(10) < 5, cols=np.arange(10) % 2 == 0)
def test_masked_norm_bit_equal_projector_sandwich(entries, rows, cols):
    # op_norm_1 of scipy's product P_r @ A @ P_c, with the 0/1 diagonal
    # projectors stored as fock.diagonal stores them, is the masked norm;
    # explicit zeros (a zero value stays stored) and empty masks included
    basis = build_basis(2)
    vals = np.array([complex(e[2], e[3]) for e in entries], dtype=np.complex128)
    coo = sparse.coo_matrix((vals, ([e[0] for e in entries], [e[1] for e in entries])), shape=(10, 10))
    a = OperatorMatrix(coo, basis, basis.n_max)

    def projector(mask):
        keep = np.ones(10, bool) if mask is None else mask
        return sparse.csr_matrix((np.ones(keep.sum(), np.complex128), np.flatnonzero(keep), np.r_[0, np.cumsum(keep)]), shape=(10, 10))

    want = op_norm_1(projector(rows) @ a.matrix @ projector(cols))
    assert masked_norm(a, rows, cols) == want
    assert masked_norm(a.matrix, rows, cols) == want


def test_operator_algebra_keeps_canonical_csr(basis6, ops6):
    # a product is canonicalised once; a canonical complex CSR is kept, not copied
    prod = ops6.a["x"] @ ops6.adag["y"]
    assert prod.matrix.has_canonical_format and prod.matrix.dtype == np.complex128
    assert OperatorMatrix(prod.matrix, basis6, prod.window).matrix is prod.matrix
    diff = ops6.r["x"] - ops6.p["x"]
    want = ops6.r["x"] + (-1.0) * ops6.p["x"]
    assert (diff.window, diff.lo, diff.hi) == (want.window, want.lo, want.hi)
    assert np.array_equal(diff.toarray(), want.toarray())


def test_diagonal_stores_only_nonzero_entries():
    basis = build_basis(2)
    values = np.array([0.0, 1.0, -0.0, 2.5j, 0, 0, 3.0, 0, 0, -1.0])
    op = oscphase.fock.diagonal(basis, values)
    assert op.nnz == 4 and op.matrix.has_canonical_format
    assert np.array_equal(op.toarray(), np.diag(values.astype(np.complex128)))
    assert np.array_equal(op.toarray(), sparse.diags(values.astype(np.complex128)).toarray())


def test_run_all_checks_construction_counts(monkeypatch):
    # the fixed per-operator overhead of verify, counted rather than timed:
    # OperatorMatrix objects and scipy compressed (CSR/CSC) matrices built
    from scipy.sparse import _compressed

    from oscphase.checks import run_all_checks

    counts = {"op": 0, "cs": 0}
    op_init, cs_init = OperatorMatrix.__init__, _compressed._cs_matrix.__init__

    def counting_op(self, *args, **kwargs):
        counts["op"] += 1
        op_init(self, *args, **kwargs)

    def counting_cs(self, *args, **kwargs):
        counts["cs"] += 1
        cs_init(self, *args, **kwargs)

    monkeypatch.setattr(OperatorMatrix, "__init__", counting_op)
    monkeypatch.setattr(_compressed._cs_matrix, "__init__", counting_cs)
    run_all_checks(4)
    assert counts["op"] <= 598
    assert counts["cs"] <= 141


# zeros (signed too) often, so that stored zeros and exact cancellations come up
VALUE = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3)
ENTRIES = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), VALUE, VALUE), max_size=25)


def _scipy_csr(entries):
    """The triplets as a canonical complex CSR, stored zeros kept, duplicates added, by scipy alone."""
    vals = np.array([complex(e[2], e[3]) for e in entries], dtype=np.complex128)
    coo = sparse.coo_matrix((vals, ([e[0] for e in entries], [e[1] for e in entries])), shape=(10, 10))
    m = sparse.csr_matrix(coo, dtype=np.complex128)
    m.sum_duplicates()
    return m


@settings(max_examples=150, deadline=None)
@given(shared=ENTRIES, own_a=ENTRIES, own_b=ENTRIES, alpha=st.sampled_from([0.0, -1.0, 0.5, 1j, 0.25 - 2j]))
@example(shared=[], own_a=[], own_b=[], alpha=1.0)  # no stored entries
@example(shared=[(0, 1, 1.0, -2.0), (3, 3, 0.0, 0.0), (9, 0, -0.0, 4.0)], own_a=[], own_b=[], alpha=2.0)  # a - b = 0
@example(shared=[(2, 2, 1.5, 0.0)], own_a=[(0, 5, 0.0, 0.0), (4, 1, 2.0, 1.0)], own_b=[(5, 4, 0.0, -3.0)], alpha=0.0)
def test_algebra_bit_equal_scipy_operators(shared, own_a, own_b, alpha):
    # each operation's arrays are those of scipy's public operator on the
    # same operands followed by sum_duplicates(); this is also the test that
    # fails if scipy changes the compiled routines the algebra calls
    sph = SphericalBasis(build_basis(2))  # dim 10, and embeddable in its doubled basis
    ra, rb = _scipy_csr(shared + own_a), _scipy_csr(shared + own_b)
    a, b = OperatorMatrix(ra.copy(), sph, sph.n_max), OperatorMatrix(rb.copy(), sph, sph.n_max)
    on_diagonal = ra.diagonal()
    cases = [
        (a @ b, ra @ rb),
        (a + b, ra + rb),
        (a - b, ra - rb),
        (alpha * a, ra * alpha),
        (a.adjoint(), ra.conj().T.tocsr()),
        (DoubledBasis(sph).embed(a), sparse.block_diag((ra, ra), format="csr")),
        (diagonal(sph, on_diagonal), sparse.csr_matrix(np.diag(on_diagonal))),
        (identity(sph), sparse.csr_matrix(np.eye(10, dtype=np.complex128))),
    ]
    for got, want in cases:
        want.sum_duplicates()
        assert got.matrix.has_canonical_format and got.matrix.dtype == np.complex128
        for arrays in (got, got.matrix):
            for attr in ("data", "indices", "indptr"):
                assert getattr(arrays, attr).tobytes() == getattr(want, attr).tobytes(), attr
