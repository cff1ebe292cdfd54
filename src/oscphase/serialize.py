"""Plain-text sparse triplet serialization for debugging.

Operator format (one record per stored entry, CSR order):

    # oscphase operator v1
    # basis=<key> dim=<d> window=<w> lo=<lo> hi=<hi> nnz=<k>
    <row> <col> <re> <im>

Floats are written with 17 significant digits, so writing is
deterministic and the round trip is exact. The basis key in the header
must match the basis the operator is loaded onto; load_operator reports
any malformed line as a ValueError naming the file and line number.

The spherical export uses the same triplet lines for the column map U,
preceded by one `label <pos> <n> <l> <m>` line per basis state.
"""

from __future__ import annotations

import numpy as np

from ._lazy import sparse
from .fock import OperatorMatrix


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_operator(path, op: OperatorMatrix) -> None:
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# oscphase operator v1\n")
        fh.write(
            f"# basis={op.basis.key} dim={op.basis.dim} window={op.window} "
            f"lo={op.lo} hi={op.hi} nnz={coo.nnz}\n"
        )
        for k in order:
            v = coo.data[k]
            fh.write(f"{coo.row[k]} {coo.col[k]} {_fmt(v.real)} {_fmt(v.imag)}\n")


def load_operator(path, basis) -> OperatorMatrix:
    """Read an operator written by save_operator onto basis.

    Every error is a ValueError whose message starts `<path>:<line>:`,
    among them a byte that is not ASCII and a second record for one
    (row, col).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        bad = int(np.argmax(np.frombuffer(data, np.uint8) > 127))
        raise ValueError(f"{path}:{len((data[:bad] + b'.').splitlines())}: byte {data[bad]:#04x} is not ASCII")
    lines = [line.decode("ascii") for line in data.splitlines()]  # at \n, \r and \r\n, as text mode splits
    magic = lines[0].strip() if lines else ""
    if magic != "# oscphase operator v1":
        raise ValueError(f"{path}:1: unrecognized header {magic!r}")
    header = lines[1].strip() if len(lines) > 1 else ""
    try:
        meta = dict(item.split("=", 1) for item in header.lstrip("# ").split())
        key = meta["basis"]
        dim, window, lo, hi, nnz = (int(meta[k]) for k in ("dim", "window", "lo", "hi", "nnz"))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}:2: malformed header {header!r}") from exc
    if key != basis.key:
        raise ValueError(f"{path}:2: operator was saved for basis {key}, not {basis.key}")
    if dim != basis.dim:
        raise ValueError(f"{path}:2: dimension {dim} does not match basis dim {basis.dim}")
    rows, cols, vals = [], [], []
    for lineno, line in enumerate(lines[2:], start=3):
        try:
            r, c, re, im = line.split()
            r, c, v = int(r), int(c), complex(float(re), float(im))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected 'row col re im', got {line.rstrip()!r}") from exc
        if not (0 <= r < dim and 0 <= c < dim):
            raise ValueError(f"{path}:{lineno}: index ({r}, {c}) outside dimension {dim}")
        rows.append(r)
        cols.append(c)
        vals.append(v)
    if len(rows) != nnz:
        raise ValueError(f"{path}:2: header declares nnz={nnz} but {len(rows)} records follow")
    # one pass over all records: the first record of each (row, col), and the earliest repeat
    _, first, which = np.unique(np.array(rows, np.int64) * dim + cols, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[which] != np.arange(len(rows)))
    if repeats.size:
        k = repeats[0]
        raise ValueError(f"{path}:{k + 3}: second record for ({rows[k]}, {cols[k]}); the first is on line {first[which[k]] + 3}")
    m = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    return OperatorMatrix(m, basis, window, lo, hi)


def export_spherical(path, sph) -> None:
    """Write the label table and the nonzero entries of the column map U."""
    u = sph.column_map().tocoo()
    order = np.lexsort((u.col, u.row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# oscphase spherical basis v1\n")
        fh.write(f"# cart={sph.cart.key} key={sph.key} dim={sph.dim} n_max={sph.n_max}\n")
        for i, lab in enumerate(sph.labels):
            fh.write(f"label {i} {lab.n} {lab.l} {lab.m}\n")
        for k in order:
            v = u.data[k]
            fh.write(f"{u.row[k]} {u.col[k]} {_fmt(v.real)} {_fmt(v.imag)}\n")
