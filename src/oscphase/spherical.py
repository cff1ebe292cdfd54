"""Spherical relabeling |n, l, m> of the truncated oscillator basis.

A shell N contains exactly the orbital sectors l = N, N-2, ..., 1 or 0,
so the labels follow in closed form, and so does the column map to the
Cartesian basis, shell by shell. The l = N vectors of each shell are the
radial ground states (n = 0), the solid harmonics Y_Nm(a†)|0>: the
stretched state (a_x† + i a_y†)^N |0> is |0, N, N>, L_- = L_x - i L_y
lowers it to m = 0, and complex conjugation maps |0, N, m> to |0, N, -m>.
States with n >= 1 are generated by the adjoint of the shell-lowering square,

    |n, l, m>  :=  V2† |n-1, l, m> / || V2† |n-1, l, m> ||,

which fixes every phase once the n = 0 vector's phase is fixed. The
n = 0 convention makes the largest-magnitude Cartesian coefficient real
positive (ties broken by the lowest basis index among coefficients
within 1e-9 of the maximum). Under this convention the shift operators
built downstream act with coefficient exactly +1. Every step preserves
z-parity, so U is an exact zero wherever (-1)^nz differs from (-1)^(l+m).
"""

from __future__ import annotations

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

    SphericalBasis(cart) holds the labels alone, and blocks is None.
    build_spherical adds U, whose column i is the Cartesian vector of
    labels[i], as square blocks: blocks[N] = U_N on shell_slices[N], which
    index a shell's Cartesian states and its labels alike; column_map()
    assembles the sparse U. It also records unitary_defect, max |U+ U - 1|,
    and eigen_residual, the largest eigenvector residual of H, L^2 and L_z.
    """

    def __init__(self, cart: Basis3D):
        self.cart = cart
        self.labels = spherical_labels(cart.n_max)
        self.blocks = None
        self.dim = len(self.labels)
        self.n_max = cart.n_max
        self.shell_slices = _shell_slices(cart)
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
        """U as a sparse matrix holding the nonzero entries of its shell blocks."""
        return _assemble(((u, sl, sl) for u, sl in zip(_blocks(self), self.shell_slices)), self.dim)

    def __repr__(self):
        return f"SphericalBasis(n_max={self.n_max}, dim={self.dim})"


def spherical_labels(n_max: int) -> list[SphericalLabel]:
    """Every |n, l, m> with 2n + l <= n_max, sorted by (shell, l, m): shell N
    holds l = N, N-2, ..., 1 or 0, each with n = (N - l)/2 and m = -l..l."""
    shells_l = ((shell, l) for shell in range(n_max + 1) for l in _admissible_l(shell))
    return [SphericalLabel((shell - l) // 2, l, m) for shell, l in shells_l for m in range(-l, l + 1)]


def _blocks(sph: SphericalBasis) -> tuple:
    if sph.blocks is None:
        raise ValueError("spherical basis holds labels only; build_spherical builds its column map")
    return sph.blocks


def _shell_slices(basis: Basis3D) -> list[slice]:
    """The contiguous index range of each shell N = 0..n_max of a shell-graded basis."""
    bounds = np.searchsorted(basis.shells, np.arange(basis.n_max + 2))
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def _assemble(blocks, dim: int) -> sparse.csr_matrix:
    """A dim x dim matrix from (dense block, row slice, column slice) triples,
    storing each block's nonzero entries."""
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0, np.complex128)]
    for block, rs, cs in blocks:
        r, c = np.nonzero(block)
        rows.append(r + rs.start)
        cols.append(c + cs.start)
        vals.append(block[r, c])
    coords = (np.concatenate(rows), np.concatenate(cols))
    return sparse.csr_matrix((np.concatenate(vals), coords), shape=(dim, dim))


def _admissible_l(shell: int):
    return list(range(shell % 2, shell + 1, 2))


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    mags = np.abs(vec)
    top = mags.max()
    candidates = np.nonzero(mags >= top - PHASE_TIE_TOL)[0]
    pick = int(candidates.min())
    phase = vec[pick] / mags[pick]
    return vec * np.conj(phase)


def build_spherical(basis: Basis3D, params: OscParams, ops: CartesianOperators) -> SphericalBasis:
    """Assemble the chain-phased column map in closed form, with no eigensolve.

    Every column lives on its own shell, so each is built and stored as a
    vector over that shell's Cartesian states only, in the label order of
    spherical_labels. The n = 0 columns of shell N are the solid harmonics
    Y_Nm(a+)|0>: the stretched state (a_x+ + i a_y+)^N |0>, carried up one
    shell at a time, is |0, N, N>; the sparse L_- = L_x - i L_y lowers it to
    m = 0, and conjugation gives m < 0. These sparse steps, the raising and
    the polar step, which couples only columns of one z-parity, keep every
    entry with (-1)^nz != (-1)^(l+m) an exact zero.

    Raises DegenerateSplitFailure, naming the shell and the operator, when
    a shell block is not unitary to 1e-12 or a column fails its eigenvector
    residual check at 1e-10; this is the only check of the labels.
    """
    slices = _shell_slices(basis)
    # (a_x+ + i a_y+) raises L_z = i(a_y+ a_x - a_x+ a_y) by one, L_- lowers it by one
    stretch = (ops.adag["x"] + 1j * ops.adag["y"]).matrix
    lowering = (ops.l["x"] - 1j * ops.l["y"]).matrix

    sph = SphericalBasis(basis)
    columns: list = [None] * sph.dim
    top = np.ones(1, dtype=np.complex128)
    for shell, sel in enumerate(slices):
        if shell:
            top = stretch[sel, slices[shell - 1]] @ top
            top /= np.linalg.norm(top)
        # Lowering only to m = 0 halves the steps, and so the roundoff, of
        # each seed. L_z is imaginary and L^2 real in this basis, so the
        # conjugate of |0, N, m> is |0, N, -m> up to a phase.
        low = lowering[sel, sel]
        seeds = [top]
        for _ in range(shell):
            vec = low @ seeds[-1]
            seeds.append(vec / np.linalg.norm(vec))
        seeds = [_fix_phase(vec) for vec in reversed(seeds)]  # m = 0..shell
        # |0, shell, m> are the shell's last 2 shell + 1 labels, by m
        columns[sel.stop - 2 * shell - 1 : sel.stop] = [vec.conj() for vec in seeds[:0:-1]] + seeds

    v2dag = ops.v2.adjoint().matrix
    # V2+ restricted to shell N -> N + 2, the only block the raising step uses
    raise_blocks = [v2dag[slices[n + 2], slices[n]] for n in range(basis.n_max - 1)]
    # BLAS sums a vector in an order set by its length and alignment, so each
    # norm is taken over the column zero-padded to full length: the entries
    # of U then do not depend on how its columns are stored.
    padded = np.zeros(basis.dim, dtype=np.complex128)
    with np.errstate(over="ignore"):  # a norm that overflows is raised below
        for (l, m), idxs in sph.chains.items():
            prev = columns[idxs[0]]
            for n, i in enumerate(idxs[1:], start=1):
                shell = 2 * n + l
                raised = raise_blocks[shell - 2] @ prev
                padded[slices[shell]] = raised
                norm = np.linalg.norm(padded)
                padded[slices[shell]] = 0.0
                if not 0.0 < norm < np.inf:
                    raise DegenerateSplitFailure(f"chain (l={l}, m={m}) {'dies' if norm <= 0.0 else 'overflows'} at n={n}")
                prev = columns[i] = raised / norm

    blocks = []
    for sel in slices:
        u = np.column_stack(columns[sel])
        # The chains are orthonormal only to a roundoff that grows with their
        # length. One Newton-Schulz step toward the polar factor,
        # U <- U (3 - U+ U) / 2, squares that defect (Bjorck & Bowie 1971).
        blocks.append(u @ (1.5 * np.eye(len(u)) - 0.5 * (u.conj().T @ u)))
    sph.blocks = tuple(blocks)
    sph.unitary_defect, sph.eigen_residual = _validate(sph, ops, params)
    return sph


def _validate(sph: SphericalBasis, ops: CartesianOperators, params: OscParams):
    """Return (unitary defect, eigenvector residual) of U; raise when either is too large.

    Both are measured shell block by shell block: U_N+ U_N against the
    identity, and H, L^2 and L_z, which preserve shells, applied to the
    columns of U_N over the shell's own rows. A NaN fails both checks.
    """
    ortho = 0.0
    for shell, u in enumerate(sph.blocks):
        defect = float(np.abs(u.conj().T @ u - np.eye(len(u))).max())
        if not defect <= UNITARY_TOL:
            raise DegenerateSplitFailure(f"shell {shell}: column map is not unitary (defect {defect:.3e})")
        ortho = max(ortho, defect)
    energies = params.omega * (sph.shells + 1.5)
    lsq = np.array([lab.l * (lab.l + 1) for lab in sph.labels], dtype=float)
    mvals = np.array([lab.m for lab in sph.labels], dtype=float)
    resid = 0.0
    for name, op, want in (("H", ops.h, energies), ("L^2", ops.l2, lsq), ("L_z", ops.l["z"], mvals)):
        for shell, (u, sel) in enumerate(zip(sph.blocks, sph.shell_slices)):
            worst = float(np.abs(op.matrix[sel, sel] @ u - u * want[None, sel]).max())
            if not worst <= EIGEN_RESIDUAL_TOL:
                raise DegenerateSplitFailure(
                    f"shell {shell}: {name} eigenvector residual {worst:.3e} exceeds {EIGEN_RESIDUAL_TOL:.0e}"
                )
            resid = max(resid, worst)
    return ortho, resid


def to_spherical(op: OperatorMatrix, sph: SphericalBasis) -> OperatorMatrix:
    """Return U† A U as an operator over the spherical labels.

    Formed block by block as U_N† A_NN' U_N' over the shell pairs (N, N')
    where A has stored entries; every other block of the product is zero.
    The column map permutes within shells only, so the validity window and
    displacement bounds carry over unchanged.
    """
    u = _blocks(sph)
    a = op.matrix
    coo = a.tocoo()
    width = sph.n_max + 1
    shells = sph.cart.shells
    pairs = np.unique(shells[coo.row] * width + shells[coo.col]).tolist()
    blocks = []
    for pair in pairs:
        n, k = divmod(pair, width)
        rs, cs = sph.shell_slices[n], sph.shell_slices[k]
        blocks.append((u[n].conj().T @ (a[rs, cs] @ u[k]), rs, cs))
    return OperatorMatrix(_assemble(blocks, sph.dim), sph, window=op.window, lo=op.lo, hi=op.hi)


def degeneracy_table(sph: SphericalBasis):
    """One row per shell: (N, E/w, multiplicity, sorted l values)."""
    rows = []
    for shell in range(sph.n_max + 1):
        labs = [lab for lab in sph.labels if lab.shell == shell]
        lvals = sorted({lab.l for lab in labs})
        rows.append((shell, shell + 1.5, len(labs), lvals))
    return rows
