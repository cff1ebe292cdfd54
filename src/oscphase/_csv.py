"""Trajectory CSV rows. Floats print as '%.17g' % (x + 0.0), byte for byte: for
1e-4 <= |x| < 1e17, D = |x| 10^k rounded half-even to 17 digits, k = 16 - X, in fixed
notation with decimal exponent X; Dekker's product (Numer. Math. 18, 224 (1971)) gives
|x| 10^k = p + err exactly, and p >= 2^53 is even, so D = p + rint(err). Other values
(0, |x| < 1e-4, |x| >= 1e17, inf, nan) go to '%.17g' one by one."""

import numpy as np

_G17_SLOT = 24  # bytes of the longest '%.17g' text, -2.2250738585072014e-308
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's split of a double into halves


def _tables() -> tuple[np.ndarray, ...]:
    """10^0..10^20, each exact; the 4 digits of 0..9999 as one word each; and the layout,
    whose row (X + 4) * 17 + trailing zeros of D holds the source byte of each text byte."""
    pow10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])
    quads = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48
    x, c = np.arange(-4, 17)[:, None, None], np.arange(_G17_SLOT)
    digits = np.maximum(17 - np.arange(17)[:, None], x + 1)  # significant, or up to the point
    point = 2 + np.maximum(x, 0)  # after the sign and '0', or the sign and digits 0..X
    i = c - 1 + np.minimum(x, 0) - (c > point)  # digit at text byte c; below 0, a leading zero
    layout = np.select([c == 0, c == point, i < 0, i < digits], [0, np.where(digits > x + 1, 1, 3), 2, 7 + i], 3)
    return pow10, quads.astype(np.uint8).view(np.uint32).ravel(), layout.reshape(-1, _G17_SLOT).astype(np.int32)


_POW10, _QUADS, _LAYOUT = _tables()


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a 10^k rounded half-even to an integer, exactly for a 10^k >= 2^53 (Dekker, no FMA)."""
    b = _POW10[k]
    a_hi, b_hi = (v * _SPLIT - (v * _SPLIT - v) for v in (a, b))
    a_lo, b_lo, p = a - a_hi, b - b_hi, a * b
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo  # a 10^k - p, exactly
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _g17_slots(x: np.ndarray) -> np.ndarray:
    """'%.17g' % (v + 0.0) of each entry of the 1D array x, NUL-padded to _G17_SLOT bytes a row."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    # X from log10 less a margin over its error, so never one too high; where it
    # is one too low, or rounding carries into an 18th digit, step k down
    k = 16 - np.clip(np.floor(np.log10(a) - 1e-12), -4, 16).astype(np.intp)
    d = _scaled(a, k)
    down = np.flatnonzero(d >= 10**17)
    k[down] -= 1
    d[down] = _scaled(a[down], k[down])
    # a source row: sign or NUL, '.', '0', NUL, then D's lead digit and four 4-digit groups
    high, low = d // 10**8, d % 10**8
    source = np.empty((x.size, 6), np.uint32)
    source[:, 0] = np.where(x < 0, *np.frombuffer(b"-.0\0\0.0\0", np.uint32))
    for i, group in enumerate((high // 10**8, high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4)):
        source[:, 1 + i] = _QUADS[group]
    zeros = np.argmax(source.view(np.uint8)[:, :6:-1] != ord("0"), axis=1)  # trailing, of D
    index = _LAYOUT.take((20 - k) * 17 + zeros, axis=0)
    index += np.arange(0, source.nbytes, source.strides[0], dtype=np.int32)[:, None]
    out = source.view(np.uint8).ravel().take(index)
    slow = np.flatnonzero(~fast)  # + 0.0 folds -0.0 into 0.0
    out[slow] = np.array([b"%.17g" % (v + 0.0) for v in x[slow].tolist()], f"S{_G17_SLOT}").view(np.uint8).reshape(-1, _G17_SLOT)
    return out


def _distinct_slots(values: np.ndarray, fmt: str) -> np.ndarray:
    """fmt % v of each entry, NUL-padded to the longest, formatting each distinct value once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([(fmt % v).encode() for v in distinct.tolist()])[inverse].view(np.uint8).reshape(values.size, -1)


def write_trajectory(stream, traj, chunk_rows: int) -> None:
    """The rows of a trajectory as CSV, chunk_rows a write, from NUL-padded cells whose NULs are dropped."""
    for k in range(0, traj.t.size, chunk_rows):
        rows = slice(k, k + chunk_rows)
        e = traj.exp_plus[rows]
        # hypot rounds like abs(complex); np.abs can differ in the last digit
        floats = np.stack((traj.t[rows], e.real, e.imag, np.hypot(e.real, e.imag), traj.phi[rows], traj.tau[rows]), 1)
        cells = np.full(floats.shape + (_G17_SLOT + 1,), ord(","), np.uint8)
        cells[:, :, :-1] = _g17_slots(floats.ravel()).reshape(cells[:, :, :-1].shape)
        labels = _distinct_slots(traj.j[rows], "%d,"), _distinct_slots(traj.sigma[rows], "%s," + traj.branch + "\n")
        line = np.hstack((cells.reshape(len(floats), -1),) + labels).ravel()
        stream.write(line[line != 0].tobytes().decode("ascii"))
