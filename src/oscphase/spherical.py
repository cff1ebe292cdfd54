"""Spherical relabeling |n, l, m> of the truncated oscillator basis.

A shell N contains exactly the orbital sectors l = N, N-2, ..., 1 or 0,
so the labels follow in closed form, and so does the column map U to the
number basis |n+, n-, nz> of fock. L_z = n+ - n- is diagonal there, so U
is block-diagonal by (N, m), with blocks of (N - |m|)//2 + 1 states. The
l = N vectors of each shell are the radial ground states (n = 0), the
solid harmonics Y_Nm(a+)|0>: the stretched state |0, N, N> is the basis
state |N, 0, 0>, L_- = L_x - i L_y lowers it to m = 0, and the swap
n+ <-> n- (the reflection y -> -y) gives m < 0. States with n >= 1 are
generated by the dimensionless adjoint of the shell-lowering square,

    |n, l, m>  :=  -a+.a+ |n-1, l, m> / || a+.a+ |n-1, l, m> ||,

with -a+.a+ = V2+/(2Mw), which fixes every phase once the n = 0 vector's
phase is fixed. The n = 0 convention makes the largest-magnitude
coefficient real positive (ties broken by the lowest basis index among
coefficients within 1e-9 of the maximum). Under this convention the
shift operators built downstream act with coefficient exactly +1. Every
step keeps m, so U is an exact zero between states of different m, and
so also wherever (-1)^nz differs from (-1)^(l+m), since nz = N - m mod 2.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ._lazy import sparse
from .fock import Basis3D, CartesianOperators, OperatorMatrix, OscParams

EIGEN_RESIDUAL_TOL = 1e-10
UNITARY_TOL = 1e-12
PHASE_TIE_TOL = 1e-9


class DegenerateSplitFailure(Exception):
    """A column map that is not unitary or whose columns are not eigenvectors of their labels."""


@dataclass(frozen=True, order=True)
class SphericalLabel:
    n: int
    l: int
    m: int

    @property
    def shell(self) -> int:
        return 2 * self.n + self.l


class SphericalBasis:
    """The spherical label table, with the unitary column map U once built.

    labels is spherical_labels(n_max), graded-lexicographic by (shell, l, m).
    chains maps each (l, m) to the label positions ordered by increasing n;
    radial and orbital hold each label's n and l, and links = (lower, upper)
    the positions of every chain link |n-1,l,m> <- |n,l,m>.

    SphericalBasis(cart) holds the labels alone, and u is None.
    build_spherical adds U as the sparse matrix u, whose column i is
    labels[i] over the number basis cart; column_map() returns it. It also records
    unitary_defect, max |U+ U - 1|, and eigen_residual, the largest
    eigenvector residual of H, L^2 and L_z.
    """

    def __init__(self, cart: Basis3D):
        self.cart = cart
        self.labels = spherical_labels(cart.n_max)
        self.u = None
        self.dim = len(self.labels)
        self.n_max = cart.n_max
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.shells = np.array([lab.shell for lab in self.labels], dtype=np.int64)
        chains: dict[tuple[int, int], list[int]] = {}
        for i, lab in enumerate(self.labels):
            chains.setdefault((lab.l, lab.m), []).append(i)
        self.chains = chains  # each list is in label order, which increases n along a chain
        self.radial = np.array([lab.n for lab in self.labels], dtype=np.int64)
        self.orbital = np.array([lab.l for lab in self.labels], dtype=np.int64)
        lower = [i for idxs in chains.values() for i in idxs[:-1]]
        upper = [i for idxs in chains.values() for i in idxs[1:]]
        self.links = (np.array(lower, dtype=np.int64), np.array(upper, dtype=np.int64))
        self.key = f"spherical/v1/{cart.key}"  # v1 fixes the label order of spherical_labels

    def column_map(self) -> sparse.csr_matrix:
        """U as a sparse matrix holding the nonzero entries of its (N, m) blocks."""
        if self.u is None:
            raise ValueError("spherical basis holds labels only; build_spherical builds its column map")
        return self.u

    def __repr__(self):
        return f"SphericalBasis(n_max={self.n_max}, dim={self.dim})"


def spherical_labels(n_max: int) -> list[SphericalLabel]:
    """Every |n, l, m> with 2n + l <= n_max, sorted by (shell, l, m): shell N
    holds l = N, N-2, ..., 1 or 0, each with n = (N - l)/2 and m = -l..l."""
    shells_l = ((shell, l) for shell in range(n_max + 1) for l in _admissible_l(shell))
    return [SphericalLabel((shell - l) // 2, l, m) for shell, l in shells_l for m in range(-l, l + 1)]


def _admissible_l(shell: int):
    return list(range(shell % 2, shell + 1, 2))


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    mags = np.abs(vec)
    top = mags.max()
    candidates = np.nonzero(mags >= top - PHASE_TIE_TOL)[0]
    pick = int(candidates.min())
    phase = vec[pick] / mags[pick]
    return vec * np.conj(phase)


def _sector(shell: int, m: int):
    """(n+, n-, nz) of the Cartesian states of block (shell, m >= 0), in basis order."""
    q = np.arange((shell - m) // 2 + 1)
    return q + m, q, shell - m - 2 * q


def _unit_columns(block: np.ndarray) -> np.ndarray:
    return block / np.linalg.norm(block, axis=0)  # an add.reduce, so no BLAS summation order


def build_spherical(
    basis: Basis3D, params: OscParams, ops: CartesianOperators, *, labels: SphericalBasis | None = None
) -> SphericalBasis:
    """Assemble the chain-phased column map in closed form, with no eigensolve.

    U is block-diagonal by (N, m): the ladders below keep m = n+ - n-, and
    block (N, m) holds the b = (N - |m|)//2 + 1 states with n+ - n- = m and
    the labels (n, l, m) of shell N. Within a block the columns are in the
    label order, by increasing l. The seed |0, N, N> is the basis state
    |N, 0, 0>; L_- = sqrt(2)(a_-^+ a_z - a_z^+ a_+) lowers block (N, m) to
    (N, m - 1), down to m = 0. Each chain is raised by -a+.a+ =
    -(a_z^+^2 + 2 a_+^+ a_-^+) = V2+/(2Mw), which maps block (N, m) to
    (N + 2, m), so U depends on neither M nor w. The swap n+ <-> n-, the
    reflection y -> -y, maps block (N, m) onto (N, -m) entry for entry, so
    the m < 0 blocks repeat the m > 0 ones. U is real.

    Raises DegenerateSplitFailure, naming the shell and the label, when U is
    not unitary to 1e-12 or a column fails its eigenvector residual check
    at 1e-10; this is the only check of the labels. labels, a
    SphericalBasis(basis) already built, lends the result its label tables.
    """
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for shell in range(basis.n_max + 1):
        seeds = [np.ones(1)]
        for m in range(shell, 0, -1):
            # L_-/sqrt(2) takes |n+, n-, nz> to -sqrt(n+ (nz+1)) |n+ - 1, n-, nz + 1>
            # + sqrt((n- + 1) nz) |n+, n- + 1, nz - 1>, next in block (N, m - 1)
            p, q, z = _sector(shell, m)
            low = np.zeros((shell - m + 1) // 2 + 1)
            low[: len(p)] = -np.sqrt(p * (z + 1)) * seeds[-1]
            low[1:] += (np.sqrt((q + 1) * z) * seeds[-1])[: len(low) - 1]
            seeds.append(_unit_columns(low))
        for m, seed in zip(range(shell, -1, -1), seeds):
            column = _fix_phase(seed)[:, None]
            if shell - 2 >= m:
                below = blocks[shell - 2, m]
                # -a+.a+ adds -sqrt((nz+1)(nz+2)) |.., nz + 2> - 2 sqrt((n+ + 1)(n- + 1)) |n+ + 1, n- + 1, ..>
                p, q, z = _sector(shell - 2, m)
                raised = np.zeros((len(below) + 1, len(below)))
                raised[:-1] = -np.sqrt((z + 1) * (z + 2))[:, None] * below
                raised[1:] -= 2.0 * np.sqrt((p + 1) * (q + 1))[:, None] * below
                column = np.hstack([_unit_columns(raised), column])
            blocks[shell, m] = column

    rows, cols, vals = [], [], []
    for (shell, m), u in blocks.items():
        p, q, _ = _sector(shell, m)
        l = np.arange(shell - 2 * len(u) + 2, shell + 1, 2)
        for sign in (1, -1) if m else (1,):
            # shell N's labels with l' < l number l(l-1)/2, so (n, l, m) sits l(l+1)/2 + m past its start
            c = shell * (shell + 1) * (shell + 2) // 6 + l * (l + 1) // 2 + sign * m
            rows.append(np.repeat(basis.position(p, q, shell) if sign > 0 else basis.position(q, p, shell), len(l)))
            cols.append(np.tile(c, len(u)))
            vals.append(u.ravel())
    u = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(basis.dim,) * 2)
    # The chains are orthonormal only to a roundoff that grows with their
    # length. One Newton-Schulz step toward the polar factor,
    # U <- U (3 - U+ U) / 2, squares that defect (Bjorck & Bowie 1971); the
    # sparse products keep U within its (N, m) blocks.
    u = u @ (1.5 * sparse.identity(basis.dim, format="csr") - 0.5 * (u.T @ u))  # U is real
    u.eliminate_zeros()

    sph = copy.copy(labels) if labels is not None else SphericalBasis(basis)
    sph.u = u
    sph.unitary_defect, sph.eigen_residual = _validate(sph, ops, params)
    return sph


def _validate(sph: SphericalBasis, ops: CartesianOperators, params: OscParams):
    """Return (unitary defect, eigenvector residual) of U; raise when either is too large.

    Both are measured column by column over the whole sparse U: U+ U
    against the identity, and H, L^2 and L_z applied to the columns. A NaN
    fails both checks.
    """
    u = sph.column_map()
    energies = params.omega * (sph.shells + 1.5)
    lsq = (sph.orbital * (sph.orbital + 1)).astype(float)
    mvals = np.array([lab.m for lab in sph.labels], dtype=float)
    worst = []
    for name, err, tol in (
        ("unitary defect", u.conj().T @ u - sparse.identity(sph.dim), UNITARY_TOL),
        ("H eigenvector residual", ops.h.matrix @ u - u @ sparse.diags(energies), EIGEN_RESIDUAL_TOL),
        ("L^2 eigenvector residual", ops.l2.matrix @ u - u @ sparse.diags(lsq), EIGEN_RESIDUAL_TOL),
        ("L_z eigenvector residual", ops.l["z"].matrix @ u - u @ sparse.diags(mvals), EIGEN_RESIDUAL_TOL),
    ):
        per_column = abs(err).max(axis=0).toarray().ravel()
        bad = np.flatnonzero(~(per_column <= tol))
        if bad.size:
            i = bad[0]
            lab = sph.labels[i]
            raise DegenerateSplitFailure(
                f"shell {lab.shell}: {name} {per_column[i]:.3e} exceeds {tol:.0e} at (n={lab.n}, l={lab.l}, m={lab.m})"
            )
        worst.append(float(per_column.max(initial=0.0)))
    return worst[0], max(worst[1:])


def to_spherical(op: OperatorMatrix, sph: SphericalBasis) -> OperatorMatrix:
    """Return U+ A U as an operator over the spherical labels.

    U is block-diagonal by (N, m), so the sparse product forms one block
    product U_b+ A_bb' U_b' per pair of blocks (b, b') that A couples and
    stores nothing elsewhere. The column map permutes within shells only,
    so the validity window and displacement bounds carry over unchanged.
    """
    u = sph.column_map()
    prod = u.conj().T @ (op.matrix @ u)
    prod.eliminate_zeros()
    return OperatorMatrix(prod, sph, window=op.window, lo=op.lo, hi=op.hi)


def degeneracy_table(sph: SphericalBasis):
    """One row per shell: (N, E/w, multiplicity, sorted l values)."""
    mult = np.bincount(sph.shells, minlength=sph.n_max + 1).tolist()
    lvals = [set() for _ in mult]
    for shell, l in zip(sph.shells.tolist(), sph.orbital.tolist()):
        lvals[shell].add(l)
    return [(shell, shell + 1.5, mult[shell], sorted(ls)) for shell, ls in enumerate(lvals)]
