"""Truncated Fock space of the 3D isotropic harmonic oscillator.

The basis is the set of number states |n+, n-, nz> of the circular quanta
a_+- = (a_x -+ i a_y)/sqrt(2) and a_z, with n+ + n- + nz <= n_max, ordered
graded-lexicographically: first by total quanta N = n+ + n- + nz, then by
the tuple (n+, n-, nz). L_z = n+ - n- is diagonal in it, so every state
has a definite m. The Cartesian ladders a_x = (a_+ + a_-)/sqrt(2) and
a_y = i(a_+ - a_-)/sqrt(2) are formed from the circular ones. Units use
hbar = 1 throughout.

Every operator is stored as a canonical complex CSR matrix together with
a validity window: the largest shell W such that the truncated matrix,
applied to any vector supported on shells N <= W, acts exactly like the
untruncated operator. Compositions propagate the window automatically,
so derived identities always know on which block they are trustworthy.
Norms are column sums of |A| over the CSR arrays, in row order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ._lazy import sparse


@dataclass(frozen=True)
class OscParams:
    """Oscillator mass and angular frequency (hbar = 1)."""

    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if not (self.mass > 0.0 and self.omega > 0.0):
            raise ValueError("mass and omega must be positive")

    @property
    def spring_constant(self) -> float:
        return self.mass * self.omega**2


class Basis3D:
    """Ordered number basis {|n+,n-,nz> : n+ + n- + nz <= n_max}.

    Attributes
    ----------
    states : list of (n+, n-, nz) tuples in graded-lexicographic order.
    index : dict mapping state tuple to its position.
    quanta : (dim, 3) int array of the states.
    shells : int array, total quanta of each basis state.
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.n_max = int(n_max)
        self.states = states = [
            (p, q, shell - p - q)
            for shell in range(n_max + 1)
            for p in range(shell + 1)
            for q in range(shell + 1 - p)
        ]
        self.index = {s: i for i, s in enumerate(states)}
        self.quanta = np.array(states, dtype=np.int64).reshape(-1, 3)
        self.shells = self.quanta.sum(axis=1)
        self.dim = len(states)
        self.key = f"cart3d/v2/n_max={self.n_max}/circular"

    @staticmethod
    def position(p, q, shell):
        """Index of |p, q, shell - p - q> in graded-lex order, in closed form:
        shell N starts at N(N+1)(N+2)/6, then p(N+1) - p(p-1)/2 + q within it."""
        return shell * (shell + 1) * (shell + 2) // 6 + p * (shell + 1) - p * (p - 1) // 2 + q

    def __repr__(self):
        return f"Basis3D(n_max={self.n_max}, dim={self.dim})"


def build_basis(n_max: int) -> Basis3D:
    """Enumerate the truncated basis. dim = (N+1)(N+2)(N+3)/6 for N = n_max."""
    return Basis3D(n_max)


class OperatorMatrix:
    """Sparse complex operator with truncation metadata.

    matrix : complex128 CSR with sorted, unique indices. A result that is
        one already (a product, sum or difference) is stored as it is.
    window : largest shell W such that action on any vector supported on
        shells N <= W equals the untruncated action. A negative window
        means no shell is certified.
    lo, hi : bounds on the shell displacement of the untruncated operator
        (for the annihilation operator lo = hi = -1, for position -1, +1).

    Composition rules (B applied first in A @ B):
        window(A @ B) = min(window(B), window(A) - hi(B))
        window(A + B) = min(window(A), window(B))
        window(A†)    = min(window(A) + lo(A), n_max + lo(A))
    The adjoint rule can be conservative for composite operators; callers
    that know better (for example when the matrix has been verified to be
    a pure shift) may promote via :meth:`with_window`.
    """

    __slots__ = ("matrix", "basis", "window", "lo", "hi")

    def __init__(self, matrix, basis, window: int, lo: int = 0, hi: int = 0):
        m = _canonical_csr(matrix)
        if m.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {m.shape} does not match basis dim {basis.dim}")
        self.matrix = m
        self.basis = basis
        self.window = min(int(window), basis.n_max)
        self.lo = int(lo)
        self.hi = int(hi)

    # -- algebra -----------------------------------------------------------

    def _check_compat(self, other: "OperatorMatrix"):
        if self.basis.key != other.basis.key:
            raise ValueError("operator bases differ")

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            self._check_compat(other)
            w = min(other.window, self.window - other.hi)
            return OperatorMatrix(
                self.matrix @ other.matrix,
                self.basis,
                window=w,
                lo=self.lo + other.lo,
                hi=self.hi + other.hi,
            )
        return self.matrix @ other

    def _entrywise(self, other: "OperatorMatrix", op) -> "OperatorMatrix":
        self._check_compat(other)
        return OperatorMatrix(
            op(self.matrix, other.matrix),
            self.basis,
            window=min(self.window, other.window),
            lo=min(self.lo, other.lo),
            hi=max(self.hi, other.hi),
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._entrywise(other, operator.sub)

    def __mul__(self, alpha) -> "OperatorMatrix":
        return OperatorMatrix(self.matrix * alpha, self.basis, self.window, self.lo, self.hi)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return (-1.0) * self

    def adjoint(self) -> "OperatorMatrix":
        n_max = self.basis.n_max
        w = min(self.window + self.lo, n_max + self.lo, n_max)
        m = self.matrix.T.tocsr()  # a new CSR with its own data, conjugated in place
        np.conjugate(m.data, out=m.data)
        return OperatorMatrix(m, self.basis, window=w, lo=-self.hi, hi=-self.lo)

    def with_window(self, window: int, lo: int, hi: int) -> "OperatorMatrix":
        """Re-declare metadata after an external verification justified it."""
        return OperatorMatrix(self.matrix, self.basis, window, lo, hi)

    # -- convenience -------------------------------------------------------

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def __repr__(self):
        return (
            f"OperatorMatrix(dim={self.basis.dim}, nnz={self.nnz}, "
            f"window={self.window}, lo={self.lo}, hi={self.hi})"
        )


def _canonical_csr(matrix):
    """matrix as a complex CSR with sorted, unique indices; one that already is one is kept, not copied."""
    if not (isinstance(matrix, sparse.csr_matrix) and matrix.dtype == np.complex128):
        matrix = sparse.csr_matrix(matrix, dtype=np.complex128)
    if not matrix.has_canonical_format:
        matrix.sum_duplicates()
    return matrix


def _column_abs_sums(m) -> np.ndarray:
    """Column sums of |A| over a canonical CSR's stored entries, added in row order as abs(A).sum(axis=0) does."""
    return np.bincount(m.indices, np.abs(m.data), minlength=m.shape[1])


def diagonal(basis, values) -> OperatorMatrix:
    """The diagonal operator with the given entries, one per basis state, zeros
    not stored; it keeps every shell, so it is exact on all of them."""
    values = np.asarray(values, dtype=np.complex128)
    stored = values != 0
    m = sparse.csr_matrix((values[stored], np.flatnonzero(stored), np.r_[0, np.cumsum(stored)]), shape=(basis.dim,) * 2)
    return OperatorMatrix(m, basis, basis.n_max, 0, 0)


def identity(basis) -> OperatorMatrix:
    return diagonal(basis, np.ones(basis.dim))


def op_norm_1(a) -> float:
    """Operator norm induced by the vector 1-norm: max column abs sum.

    a is an OperatorMatrix or a scipy sparse matrix.
    """
    return float(_column_abs_sums(a.matrix if isinstance(a, OperatorMatrix) else _canonical_csr(a)).max())


def masked_norm(a, rows=None, cols=None) -> float:
    """op_norm_1(P_rows @ a @ P_cols), bit for bit, for the 0/1 diagonal
    projectors of the boolean masks rows and cols (None keeps every state),
    without forming the products: the column abs sums of the stored entries
    in kept rows, added in row order as the product's are, at kept columns.

    a is an OperatorMatrix or a canonical CSR matrix.
    """
    m = a.matrix if isinstance(a, OperatorMatrix) else a
    if rows is None:
        sums = _column_abs_sums(m)
    else:
        kept = np.repeat(rows, np.diff(m.indptr))
        sums = np.bincount(m.indices[kept], np.abs(m.data[kept]), minlength=m.shape[1])
    return float((sums if cols is None else sums[cols]).max(initial=0.0))


def residual_on_window(op: OperatorMatrix, window: int | None = None) -> float:
    """1-norm of the operator restricted to inputs on shells <= window
    (defaults to its own window): the largest column abs sum over the
    columns of those shells."""
    return masked_norm(op, cols=op.basis.shells <= (op.window if window is None else window))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return a @ b - b @ a


# -- elementary operators ---------------------------------------------------

AXES = ("x", "y", "z")
_QUANTUM = {"+": 0, "-": 1, "z": 2}


def ladder(basis: Basis3D, axis: str) -> OperatorMatrix:
    """Annihilation operator for a circular axis ("+", "-", "z") or a
    Cartesian one ("x", "y").

    a_k|..n_k..> = sqrt(n_k)|..n_k-1..> for k in (+, -, z), one entry per
    column at the lowered state's Basis3D.position. a_x = (a_+ + a_-)/sqrt(2)
    and a_y = i(a_+ - a_-)/sqrt(2). Pure lowering, so the truncated matrix
    is exact on every shell.
    """
    if axis not in ("x", "y"):
        return _circular_ladder(basis, _QUANTUM[axis])
    plus, minus = _circular_ladder(basis, 0), _circular_ladder(basis, 1)
    return (plus + minus) * (1.0 / np.sqrt(2.0)) if axis == "x" else (plus - minus) * (1j / np.sqrt(2.0))


def _circular_ladder(basis: Basis3D, k: int) -> OperatorMatrix:
    cols = np.flatnonzero(basis.quanta[:, k])
    low = basis.quanta[cols]
    low[:, k] -= 1
    rows = basis.position(low[:, 0], low[:, 1], low.sum(axis=1))
    m = sparse.coo_matrix((np.sqrt(basis.quanta[cols, k]), (rows, cols)), shape=(basis.dim, basis.dim))
    return OperatorMatrix(m, basis, window=basis.n_max, lo=-1, hi=-1)


def _position(a: OperatorMatrix, params: OscParams) -> OperatorMatrix:
    return (a + a.adjoint()) * (1.0 / np.sqrt(2.0 * params.mass * params.omega))


def _momentum(a: OperatorMatrix, params: OscParams) -> OperatorMatrix:
    return (a.adjoint() - a) * (1j * np.sqrt(params.mass * params.omega / 2.0))


def hamiltonian(basis: Basis3D, params: OscParams) -> OperatorMatrix:
    """H = w (N + 3/2), diagonal in the number basis, exact on every shell."""
    return diagonal(basis, params.omega * (basis.shells + 1.5))


def _angular_momentum(a: dict[str, OperatorMatrix], axis: str) -> OperatorMatrix:
    k = AXES.index(axis)
    ai, aj = a[AXES[(k + 1) % 3]], a[AXES[(k + 2) % 3]]
    return 1j * (aj.adjoint() @ ai - ai.adjoint() @ aj)


def _dot_square(comps) -> OperatorMatrix:
    total = comps[0] @ comps[0]
    for c in comps[1:]:
        total = total + c @ c
    return total


def _vector_ladder(a: OperatorMatrix, r: OperatorMatrix, p: OperatorMatrix, params: OscParams):
    m = p - (1j * params.mass * params.omega) * r
    ref = (-1j * np.sqrt(2.0 * params.mass * params.omega)) * a
    scale = max(op_norm_1(ref), 1.0)
    if op_norm_1(m - ref) > 1e-13 * scale:
        raise AssertionError("p - i M w r does not reduce to the scaled lowering operator")
    return ref.with_window(a.basis.n_max, -1, -1)


def vector_ladder_squared(basis: Basis3D, params: OscParams) -> OperatorMatrix:
    """Dot square of the vector ladder; lowers total quanta by exactly 2.

    Commutes with every L_k, so it preserves (l, m) and steps the radial
    quantum number down by one inside each partial wave.
    """
    a = [ladder(basis, ax) for ax in AXES]
    return _dot_square([_vector_ladder(x, _position(x, params), _momentum(x, params), params) for x in a])


class CartesianOperators:
    """The elementary operators over one basis and parameter set, all
    derived from the three ladders a_x, a_y, a_z."""

    def __init__(self, basis: Basis3D, params: OscParams):
        self.basis = basis
        self.params = params
        self.a = {ax: ladder(basis, ax) for ax in AXES}
        self.adag = {ax: self.a[ax].adjoint() for ax in AXES}
        self.r = {ax: _position(self.a[ax], params) for ax in AXES}
        self.p = {ax: _momentum(self.a[ax], params) for ax in AXES}
        self.h = hamiltonian(basis, params)
        self.l = {ax: _angular_momentum(self.a, ax) for ax in AXES}
        self.l2 = _dot_square([self.l[ax] for ax in AXES])
        self.v = {ax: _vector_ladder(self.a[ax], self.r[ax], self.p[ax], params) for ax in AXES}
        self.v2 = _dot_square([self.v[ax] for ax in AXES])


def cartesian_operators(basis: Basis3D, params: OscParams) -> CartesianOperators:
    return CartesianOperators(basis, params)
