"""Unitary phase exponential for the 3D oscillator on a doubled space.

The radial shift S steps |n, l, m> down to |n-1, l, m> with coefficient
exactly one. It is an isometry whose defect lives on the radial ground
states, so, as in 1D, the space is doubled into H = H_+ (+) H_- and the
two copies are glued at their n = 0 states. Per partial wave (l, m) the
doubled states form one chain

    ... |1,lm,-> <- |0,lm,-> <- |0,lm,+> <- |1,lm,+> <- ...

and the phase exponential shifts it one step left. All operators here
are exactly block diagonal in (l, m) by construction.

The phase set is built from the labels alone: S has unit entries on the
chain links, the shift normalization B = (H + w)^2 - w^2 (L^2 + 1/4) is
diagonal with eigenvalue w^2 (2n+2) (2n+2l+3) > 0 on |n, l, m>, and the
phase exponential is the chain dyadic. The paper's routes to them are
kept as the references verify checks against: normalization_bracket
evaluates B from the Cartesian operators, radial_shift_pair divides the
shell-lowering square V2 by B^(1/2), and projector_phase_exponential
assembles E from the projector formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lazy import sparse
from .fock import Basis3D, CartesianOperators, OperatorMatrix, OscParams, build_basis
from .fock import cartesian_operators, diagonal, identity, op_norm_1
from .spherical import DegenerateSplitFailure, SphericalBasis, build_spherical, to_spherical

NORM_OFFDIAG_TOL = 1e-10


class SingularNormalization(Exception):
    """The shift normalization operator lost positivity."""


class DoubledBasis:
    """H_+ (+) H_- over the spherical labels.

    Index i < dim_single is (labels[i], +1); index i + dim_single is
    (labels[i], -1).
    """

    def __init__(self, sph: SphericalBasis):
        self.spherical = sph
        self.dim_single = sph.dim
        self.dim = 2 * sph.dim
        self.n_max = sph.n_max
        self.shells = np.concatenate([sph.shells, sph.shells])
        self.key = f"doubled/v1/{sph.key}"

    def index(self, label, lam: int) -> int:
        base = self.spherical.index[label]
        return base if lam > 0 else base + self.dim_single

    def branch_slice(self, lam: int) -> slice:
        return slice(0, self.dim_single) if lam > 0 else slice(self.dim_single, self.dim)

    def embed(self, op: OperatorMatrix) -> OperatorMatrix:
        """Block-diagonal action of a single-copy operator on both copies."""
        if op.basis.key != self.spherical.key:
            raise ValueError("operator is not over the underlying spherical basis")
        m = sparse.block_diag((op.matrix, op.matrix), format="csr")
        return OperatorMatrix(m, self, window=op.window, lo=op.lo, hi=op.hi)


def _unit_entries(basis, rows, cols, window: int, lo: int, hi: int) -> OperatorMatrix:
    """An operator whose stored entries are exactly 1, at (rows[k], cols[k])."""
    mat = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(basis.dim, basis.dim))
    return OperatorMatrix(mat, basis, window, lo, hi)


def sign_operator(doubled: DoubledBasis) -> OperatorMatrix:
    """Diagonal +1 on H_+, -1 on H_-."""
    return diagonal(doubled, np.repeat([1.0, -1.0], doubled.dim_single))


def exchange_operator(doubled: DoubledBasis) -> OperatorMatrix:
    """Swap of the two copies; squares to the identity, anticommutes with the sign."""
    cols = np.arange(doubled.dim)
    return _unit_entries(doubled, np.roll(cols, doubled.dim_single), cols, doubled.n_max, 0, 0)


def doubled_identity(doubled: DoubledBasis) -> OperatorMatrix:
    return identity(doubled)


def normalization_bracket(sph: SphericalBasis, params: OscParams, ops) -> np.ndarray:
    """Diagonal of (H + w)^2 - w^2 (L^2 + 1/4) in the spherical basis.

    Validates that the transformed matrix really is diagonal (relative
    off-diagonal below 1e-10) and strictly positive.
    """
    w = params.omega
    h_shift = ops.h + w * identity(sph.cart)
    bracket = h_shift @ h_shift - (w * w) * (ops.l2 + 0.25 * identity(sph.cart))
    b_sph = to_spherical(bracket, sph)
    on_diag = b_sph.matrix.diagonal()
    diag = np.real(on_diag)
    off = b_sph - diagonal(sph, on_diag)
    scale = max(np.abs(diag).max(), 1.0)
    if op_norm_1(off) > NORM_OFFDIAG_TOL * scale:
        raise DegenerateSplitFailure("normalization bracket is not diagonal in this basis")
    if (bad := np.flatnonzero(diag <= 0.0)).size:
        lab = sph.labels[bad[0]]
        raise SingularNormalization(f"nonpositive normalization eigenvalue {diag[bad[0]]:.3e} at (n={lab.n}, l={lab.l}, m={lab.m})")
    return diag


def radial_shift_pair(sph: SphericalBasis, params: OscParams, norm_diag: np.ndarray, v2: OperatorMatrix):
    """Normalized radial shift S = (1/2M) B^(-1/2) V2 and its adjoint.

    norm_diag is the diagonal of B from normalization_bracket and v2 the
    shell-lowering square V2 over the spherical labels. Built chain by
    chain, so matrix elements between different (l, m) are exact zeros.
    S|n,l,m> = |n-1,l,m> with coefficient one (up to roundoff) and
    S|0,l,m> = 0. This is the paper's route to the S that PhaseOperatorSet
    builds from the labels; verify compares the two.
    """
    rows, cols = sph.links
    elements = np.asarray(v2.matrix[rows, cols]).ravel() if len(rows) else np.zeros(0)
    vals = elements / (2.0 * params.mass * np.sqrt(norm_diag[rows]))
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(sph.dim, sph.dim))
    down = OperatorMatrix(mat, sph, window=sph.n_max, lo=-2, hi=-2)
    return down, down.adjoint()


def _row_major(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (row, col) positions in the order a CSR matrix stores them."""
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


class PhaseOperatorSet:
    """Doubled-space phase operators for one truncation and edge mode.

    Fields: down/up (radial shift pair embedded on both copies) and
    down_single/up_single (on one copy), sign, exchange, exp_plus/exp_minus
    (the unitary phase exponential and its adjoint), cos2/sin2 and sqrt_norm
    (B^(1/2) over the single copy), all built from the spherical labels on
    first read. norm_diag (the diagonal of B) and exp_entries, the (rows,
    cols) of the stored entries of exp_plus in CSR order, each equal to 1,
    are arrays built with the set. mode "open" stops each chain at its
    tops; "cyclic" closes it with the wrap |top,+><top,-| (Pegg-Barnett).
    A set never changes a field once built; two threads reading an
    unbuilt field at once may each build it, with equal results.
    """

    def __init__(self, sph: SphericalBasis, params: OscParams, mode: str = "open"):
        if mode not in ("open", "cyclic"):
            raise ValueError("mode must be 'open' or 'cyclic'")
        self.spherical = sph
        self.params = params
        self.mode = mode
        self.doubled = d = DoubledBasis(sph)
        n, l = sph.radial, sph.orbital
        w = params.omega
        self.norm_diag = (w * w) * ((2.0 * n + 2) * (2.0 * n + 2 * l + 3))
        # the chain dyadic: down the plus copy, across the vacuum link, up the minus copy
        lower, upper = sph.links
        bottoms, single = np.flatnonzero(sph.radial == 0), d.dim_single
        rows = [lower, upper + single, bottoms + single]
        cols = [upper, lower + single, bottoms]
        if mode == "cyclic":
            tops = np.flatnonzero(sph.shells > d.n_max - 2)  # chain tops: 2n + l >= n_max - 1
            rows.append(tops)
            cols.append(tops + single)
        self.exp_entries = _row_major(np.concatenate(rows), np.concatenate(cols))

    down_single = cached_property(lambda self: _unit_entries(self.spherical, *self.spherical.links, self.spherical.n_max, -2, -2))
    up_single = cached_property(lambda self: self.down_single.adjoint())
    down = cached_property(lambda self: self.doubled.embed(self.down_single))
    up = cached_property(lambda self: self.doubled.embed(self.up_single))
    sign = cached_property(lambda self: sign_operator(self.doubled))
    exchange = cached_property(lambda self: exchange_operator(self.doubled))

    sqrt_norm = cached_property(lambda self: diagonal(self.spherical, np.sqrt(self.norm_diag)))

    @cached_property
    def exp_plus(self) -> OperatorMatrix:
        # (window, lo, hi) as the projector formula composes them
        d = self.doubled
        return _unit_entries(d, *self.exp_entries, d.n_max - 2, -2, 2)

    @cached_property
    def exp_minus(self) -> OperatorMatrix:
        # The adjoint rule is conservative for this composite; the defect
        # columns of the adjoint sit on the plus-branch chain tops, shells
        # >= n_max - 1, so the mirror window n_max - 2 is justified.
        return self.exp_plus.adjoint().with_window(self.doubled.n_max - 2, -2, 2)

    cos2 = cached_property(lambda self: 0.5 * (self.exp_plus + self.exp_minus))
    sin2 = cached_property(lambda self: (-0.5j) * (self.exp_plus - self.exp_minus))

    # -- projectors ----------------------------------------------------------

    def vacuum_projector(self) -> OperatorMatrix:
        """Projector onto the n = 0 states of both copies."""
        return diagonal(self.doubled, np.tile(self.spherical.radial == 0, 2))

    def chain_end_projector(self, lam: int) -> OperatorMatrix:
        """Projector onto the chain-top states, shell 2n + l >= n_max - 1, of one branch."""
        d = self.doubled
        diag = np.zeros(d.dim)
        diag[d.branch_slice(lam)] = d.spherical.shells > d.n_max - 2
        return diagonal(d, diag)

    def interior_projector(self) -> OperatorMatrix:
        """Projector onto doubled states with shell 2n + l <= n_max - 2."""
        d = self.doubled
        return diagonal(d, d.shells <= d.n_max - 2)

    def branch_projector(self, lam: int) -> OperatorMatrix:
        d = self.doubled
        diag = np.zeros(d.dim)
        diag[d.branch_slice(lam)] = 1.0
        return diagonal(d, diag)

    # -- explicit phase (cyclic only) ----------------------------------------

    def hermitian_phase(self) -> OperatorMatrix:
        """Hermitian phase Phi with exp(2i Phi) equal to the exponential.

        Only the cyclic closure makes the exponential unitary, so only
        there does a Hermitian phase exist. Per (l, m) the cyclic E steps
        the cycle top+ -> ... -> 0+ -> 0- -> ... -> top- -> top+ of
        length L, with the L-th roots of unity as eigenvalues (the
        Pegg-Barnett construction), so Phi is a sum of L x L circulants
        and couples no two cycles. Eigenphases take the branch
        (-pi/2, pi/2]; the -1 eigenvalue, present on every cycle, maps to
        +pi/2. Phi depends on the truncation through every L, so no shell
        is certified (window -1).
        """
        if self.mode != "cyclic":
            raise ValueError("a Hermitian phase exists only in cyclic mode")
        d = self.doubled
        circulants: dict[int, np.ndarray] = {}
        rows, cols, vals = [], [], []
        for idxs in self.spherical.chains.values():
            cycle = np.array(idxs[::-1] + [i + d.dim_single for i in idxs])
            length = len(cycle)
            if length not in circulants:
                circulants[length] = _cycle_phase(length)
            rows.append(np.repeat(cycle, length))
            cols.append(np.tile(cycle, length))
            vals.append(circulants[length].ravel())
        mat = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(d.dim, d.dim)
        )
        return OperatorMatrix(mat, d, -1, -d.n_max, d.n_max)

    def time_operator(self) -> OperatorMatrix:
        """T = -phase / w, cyclic mode only."""
        phase = self.hermitian_phase()
        m = phase.matrix.copy()
        m.data = -m.data / self.params.omega
        return OperatorMatrix(m, phase.basis, phase.window, phase.lo, phase.hi)


def _cycle_phase(length: int) -> np.ndarray:
    """The Hermitian phase on one cycle of even length L, as an L x L circulant.

    With the cycle's states c_0..c_{L-1} in the order E steps them,
    Phi[c_j, c_k] = f[(j - k) mod L], where
        f[s] = sum_p phi_p exp(2 pi i p s / L) / L,  phi_p = -pi p / L folded into (-pi/2, pi/2],
             = pi/(2L) (-1)^s - (2 pi i / L^2) sum_{0<p<L/2} p sin(2 pi p s / L).
    The imaginary part is filled in for 0 < s < L/2 and mirrored with
    opposite sign, so Phi is exactly Hermitian.
    """
    half = length // 2
    p = np.arange(1, half)
    turns = np.outer(p, p) % length  # reduced so every sine argument lies in [0, 2 pi)
    part = (-2.0 * np.pi / length**2) * (np.sin((2.0 * np.pi / length) * turns) * p).sum(axis=1)
    imag = np.zeros(length)
    imag[1:half] = part
    imag[half + 1 :] = -part[::-1]
    f = (np.pi / (2.0 * length)) * (-1.0) ** np.arange(length) + 1j * imag
    j = np.arange(length)
    return f[np.subtract.outer(j, j) % length]


def build_phase_operators(
    sph: SphericalBasis, params: OscParams, mode: str, ops: CartesianOperators
) -> PhaseOperatorSet:
    """The phase set of one mode. ops is accepted and unused: the set is
    built from the spherical labels."""
    return PhaseOperatorSet(sph, params, mode)


@dataclass(frozen=True)
class Model:
    """One truncation: the Cartesian basis, the spherical labels (sph) and a
    phase set per requested mode (psets[mode]). The Cartesian operators, the
    basis with its closed-form column map and the operators it transforms,
    which only verify reads, are each built once, on first use."""

    basis: Basis3D
    params: OscParams
    sph: SphericalBasis
    psets: dict[str, PhaseOperatorSet]

    @cached_property
    def ops(self) -> CartesianOperators:
        return cartesian_operators(self.basis, self.params)

    @cached_property
    def eigenbasis(self) -> SphericalBasis:
        """The spherical basis with the column map U, by build_spherical on the label tables of sph."""
        return build_spherical(self.basis, self.params, self.ops, labels=self.sph)

    @cached_property
    def h(self) -> OperatorMatrix:
        """The Hamiltonian over the spherical labels, transformed on first use."""
        return to_spherical(self.ops.h, self.eigenbasis)

    @cached_property
    def v2(self) -> OperatorMatrix:
        """The shell-lowering square V2 over the spherical labels, transformed on first use."""
        return to_spherical(self.ops.v2, self.eigenbasis)


def build_model(n_max: int, params: OscParams, modes=()) -> Model:
    """Build a truncation from its labels: basis, spherical labels, phase sets.

    modes lists the edge modes to build phase sets for ("open",
    "cyclic"), each with its own constructor.
    """
    basis = build_basis(n_max)
    sph = SphericalBasis(basis)
    return Model(basis, params, sph, {mode: PhaseOperatorSet(sph, params, mode) for mode in modes})


def projector_phase_exponential(pset: PhaseOperatorSet, down: OperatorMatrix) -> OperatorMatrix:
    """The paper's projector formula for the open phase exponential,

        E = P+ S + P- S+ + X (1 - S+ S) P+,   P+- = (1 +- I) / 2,

    from a radial shift S embedded on both copies, with the sign I and the
    exchange X of pset. verify compares it entrywise with the chain dyadic
    that pset holds; the cyclic exponential adds the wrap X P_ends(-).
    """
    ident = doubled_identity(pset.doubled)
    p_plus = 0.5 * (ident + pset.sign)
    up = down.adjoint()
    vac = ident - up @ down
    return p_plus @ down + (0.5 * (ident - pset.sign)) @ up + (pset.exchange @ vac @ p_plus)


def inverse_shift_residuals(pset: PhaseOperatorSet) -> dict:
    """Residuals of recovering the shift pair from the phase exponential.

    down = (1+I)/2 E + (1-I)/2 E† and up = E† (1+I)/2 + E (1-I)/2 hold
    exactly away from the truncated chain tops, so the residuals are
    measured on the interior window.
    """
    ident = doubled_identity(pset.doubled)
    p_plus = 0.5 * (ident + pset.sign)
    p_minus = 0.5 * (ident - pset.sign)
    down_rhs = p_plus @ pset.exp_plus + p_minus @ pset.exp_minus
    up_rhs = pset.exp_minus @ p_plus + pset.exp_plus @ p_minus
    interior = pset.interior_projector()
    scale = max(op_norm_1(pset.down), 1.0)
    return {
        "down": op_norm_1((pset.down - down_rhs) @ interior) / scale,
        "up": op_norm_1((pset.up - up_rhs) @ interior) / scale,
    }


def reconstruction_residuals(pset: PhaseOperatorSet, v2: OperatorMatrix) -> dict:
    """Residuals of rebuilding (p -+ i M w r)^2 from the phase operators.

    First line: V2 = 2M B^(1/2) (cos + i I sin), prefactor on the left.
    Second line: V2† = (cos - i sin I) 2M B^(1/2), prefactor on the
    right; this is the exact adjoint of the first line, in which the sign
    operator sits to the right of the sine. Placing the sign to the left
    of the sine in the second line fails on the vacuum-link states, so
    that variant is reported separately with the vacuum excluded.
    v2 is V2 over the spherical labels (Model.v2). All residuals are
    relative and restricted to the interior window.
    """
    params = pset.params
    d = pset.doubled
    v2_d = d.embed(v2)
    sqrt_b = d.embed(pset.sqrt_norm)
    two_m = 2.0 * params.mass

    lhs1 = v2_d
    rhs1 = two_m * (sqrt_b @ (pset.cos2 + 1j * (pset.sign @ pset.sin2)))
    lhs2 = v2_d.adjoint()
    rhs2 = (pset.cos2 - 1j * (pset.sin2 @ pset.sign)) @ (two_m * sqrt_b)
    rhs2_literal = (pset.cos2 - 1j * (pset.sign @ pset.sin2)) @ (two_m * sqrt_b)

    interior = pset.interior_projector()
    ident = doubled_identity(d)
    away_from_vacuum = interior @ (ident - pset.vacuum_projector())
    scale = max(op_norm_1(v2_d), 1.0)
    return {
        "lowering": op_norm_1((lhs1 - rhs1) @ interior) / scale,
        "raising": op_norm_1((lhs2 - rhs2) @ interior) / scale,
        "raising_sign_left_no_vacuum": op_norm_1((lhs2 - rhs2_literal) @ away_from_vacuum)
        / scale,
    }
