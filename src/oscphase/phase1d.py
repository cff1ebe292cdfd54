"""One-dimensional phase shift operators and their doubled-space repair.

On the plain number basis the one-sided shift E = (a†a + 1)^(-1/2) a is
an isometry with a defect on the vacuum: E E† = 1 but E† E = 1 - |0><0|.
Doubling the space (a second copy of the oscillator, glued at the two
vacua) turns the shift into a single chain

    ... |1,-> <- |0,-> <- |0,+> <- |1,+> <- ...

on which the shift acts one step to the left. With open ends the
truncated chain keeps a defect at its endpoints; with cyclic closure the
shift becomes an exact permutation, hence unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lazy import sparse
from .fock import OperatorMatrix, diagonal


class NumberBasis1D:
    """Plain 1D number basis |0>, ..., |n_max>."""

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.n_max = int(n_max)
        self.dim = n_max + 1
        self.shells = np.arange(self.dim, dtype=np.int64)
        self.key = f"number1d/v1/n_max={self.n_max}"


def ladder_1d(basis: NumberBasis1D) -> OperatorMatrix:
    m = sparse.diags(np.sqrt(np.arange(1, basis.dim, dtype=float)), 1)
    return OperatorMatrix(m, basis, window=basis.n_max, lo=-1, hi=-1)


def number_shift_pair(basis: NumberBasis1D):
    """The isometric shift (a†a + 1)^(-1/2) a and its adjoint.

    The inverse square root is taken on the diagonal of the number
    operator directly, never through a generic matrix function.
    """
    a = ladder_1d(basis)
    inv_sqrt = diagonal(basis, 1.0 / np.sqrt(np.arange(1, basis.dim + 1, dtype=float)))
    down = inv_sqrt @ a
    return down, down.adjoint()


@dataclass(frozen=True)
class Chain1D:
    """Doubled 1D chain indexed by k: k >= 0 is |k,+>, k < 0 is |-k-1,->.

    Positions run left to right with k ascending, so position 0 is the
    minus-copy top state |n_max,-> and the last position is |n_max,+>.
    mode selects the edge policy of the shift built on the chain.
    """

    n_max: int
    mode: str = "open"
    dim: int = field(init=False)
    key: str = field(init=False)

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.mode not in ("open", "cyclic"):
            raise ValueError("mode must be 'open' or 'cyclic'")
        object.__setattr__(self, "dim", 2 * (self.n_max + 1))
        object.__setattr__(self, "key", f"chain1d/v1/n_max={self.n_max}/mode={self.mode}")

    def position_of(self, n: int, lam: int) -> int:
        """Position of |n, +> (lam=+1) or |n, -> (lam=-1)."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside the chain")
        return self.n_max + 1 + (n if lam > 0 else -n - 1)

    @property
    def shells(self):
        n = np.arange(self.n_max + 1, dtype=np.int64)
        return np.concatenate([n[::-1], n])

    @property
    def ends(self):
        """Positions of the two chain endpoints |n_max,-> and |n_max,+>."""
        return (0, self.dim - 1)


def doubled_shift_1d(chain: Chain1D) -> OperatorMatrix:
    """Left shift along the doubled chain: maps position c to c-1.

    Open mode drops the leftmost column, cyclic mode wraps it to the
    rightmost position, making the matrix an exact permutation.
    """
    rows = list(range(chain.dim - 1))
    cols = list(range(1, chain.dim))
    vals = [1.0] * (chain.dim - 1)
    if chain.mode == "cyclic":
        rows.append(chain.dim - 1)
        cols.append(0)
        vals.append(1.0)
    m = sparse.coo_matrix((vals, (rows, cols)), shape=(chain.dim, chain.dim))
    return OperatorMatrix(m, chain, window=chain.n_max - 1, lo=-1, hi=1)


def hamiltonian_1d(chain: Chain1D, omega: float) -> OperatorMatrix:
    """w (n + 1/2), acting identically on both copies."""
    return diagonal(chain, omega * (chain.shells + 0.5))


def edge_projectors(chain: Chain1D):
    """Rank-one projectors on the two chain endpoints (minus end, plus end)."""
    return tuple(diagonal(chain, np.arange(chain.dim) == end) for end in chain.ends)
