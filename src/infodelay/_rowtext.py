"""The %.17g text of float rows, made with numpy instead of a Python %
per value; Trajectory._write_rows writes the trajectory CSV with it.

%.17g prints a value with decimal exponent X (that of the value rounded
to 17 digits) in fixed notation when -4 <= X < 17: the 17 digits with
the dot after digit X + 1, leading "0.000" when X < 0, trailing fraction
zeros and a bare dot cut. Every nonzero |x| in [1e-4, 1e17) is printed
so, and for those the scale 10^k, k = 16 - X in [0, 20], is an exact
double. Each such field is built in a _FIELD-byte slot: the sign at
_SIGN, then from _BODY on the string ext[:n] "." ext[n:], where ext is
"0000" followed by the 17 digits and n = X + 5 (1 to 21), then the
separator at _SEP. A keep mask cuts the sign of a positive value, the
leading zeros before the last integer digit, the trailing fraction zeros
and a bare dot. ±0.0 takes the same path with 17 zero digits and n = 5.
Every other value (exponent form, subnormal, inf, nan) is formatted by
'%.17g' % v into its slot.

The module is imported only where a CSV is written: without cached
bytecode, compiling it takes about 1 MB of peak memory, which imports of
the package that write no CSV need not pay.
"""
from __future__ import annotations

import numpy as np

_FIELD, _SIGN, _BODY, _SEP = 32, 2, 3, 25
_POS = np.arange(_FIELD)
_N = np.arange(22)[:, None]
# the 4-digit ASCII of 0..9999, one uint32 each, from the 2-digit one;
# and the trailing decimal zeros of 0..9999 as a 4-digit group (0 has 4)
_pair = np.arange(100)
_DIGITS2 = np.stack([_pair // 10, _pair % 10], axis=1).astype(np.uint8) + ord("0")
_DIGITS4 = np.stack(np.meshgrid(*[_DIGITS2.view(np.uint16).ravel()] * 2, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()
_zeros2 = (_pair % 10 == 0).astype(np.uint8) + (_pair == 0)
_ZEROS4 = (_zeros2 + (_pair == 0) * _zeros2[:, None]).ravel()
# 10^k and its Dekker split into two 26-bit halves
_POW10 = 10.0 ** np.arange(21)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# per n: where ext[:n] goes, where ext[n:] goes (one byte later, behind
# the dot), and the constant bytes: ext[0] (always "0"), the dot, a
# minus sign and a comma
_INT_MASK = np.where((_POS > _BODY) & (_POS < _BODY + _N), 0xFF, 0
                     ).astype(np.uint8).view(np.uint64)
_FRAC_MASK = np.where((_POS > _BODY + _N) & (_POS < _BODY + 22), 0xFF, 0
                      ).astype(np.uint8).view(np.uint64)
_CONST = ((_POS == _BODY) * ord("0") + (_POS == _BODY + _N) * ord(".")
          + (_POS == _SIGN) * ord("-") + (_POS == _SEP) * ord(",")
          ).astype(np.uint8).view(np.uint64)
# per (n, trailing zeros z of the 17 digits, sign): the bytes kept; ext[n:]
# loses its trailing zeros, and the dot as well when nothing is left
_n, _z, _neg = (i.ravel()[:, None] for i in np.indices((22, 17, 2)))
_cut = np.minimum(_z, 21 - _n) + (_z >= 21 - _n)
_first, _last = _BODY + np.minimum(4, _n - 1), _BODY + 21 - _cut
_KEEP = (((_POS >= _first) & (_POS <= _last)) | (_POS == _SEP)
         | ((_POS == _SIGN) & (_neg == 1))).astype(np.uint8).view(np.uint64)
# turns the comma of a row's last field into a newline
_NEWLINE = np.zeros(8, np.uint8)
_NEWLINE[_SEP % 8] = ord(",") ^ ord("\n")
_NEWLINE = _NEWLINE.view(np.uint64)[0]
del _N, _pair, _DIGITS2, _zeros2, _n, _z, _neg, _cut, _first, _last


class RowFormatter:
    """The bytes of np.savetxt(fh, rows, fmt="%.17g", delimiter=",") for
    blocks of up to `fields` values.

    For each nonzero |x| in [1e-4, 1e17): X is estimated by log10, and
    |x|*10^k is formed exactly as p + e by Dekker's TwoProduct (Dekker,
    Numer. Math. 18, 1971), with k corrected once where the estimate was
    off, so that 10^16 <= p + e < 10^17. p is then an even integer, so
    p + rint(e) rounds p + e half to even to the 17 digits D, as %.17g
    does (Gay, Correctly rounded binary-decimal and decimal-binary
    conversions, 1990). D never rounds up to 10^17: the largest double
    below 10^j, j = -3 ... 17, times 10^(17 - j) is at least 8 below 10^17.
    Four 4-digit groups and the first digit of D are looked up as ASCII,
    shifted into place by masks chosen by n, and the kept bytes of every
    slot are compacted at once. The scratch arrays are allocated once,
    about 160 bytes per value.
    """

    def __init__(self, fields: int):
        self._w = [np.empty(fields) for _ in range(8)]
        self._slots = [np.empty((fields, _FIELD // 8), np.uint64) for _ in range(3)]
        self._bytes = [np.empty(fields, np.uint8) for _ in range(2)]
        self._flag = np.empty(fields, bool)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        """The text of the rows of block, as a uint8 array."""
        x = block.reshape(-1)
        m = len(x)
        f64 = [w[:m] for w in self._w]
        i64 = [w.view(np.int64) for w in f64]
        text, frac, aux = (s[:m] for s in self._slots)
        flag = self._flag[:m]
        a, k, p, e, D, n, hi, lo = f64[0], i64[1], f64[2], f64[3], i64[4], i64[5], i64[6], i64[7]

        np.abs(x, out=a)
        special = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))
        a[special] = 2.0  # formatted below; 2.0 gives n = 5, as zero needs
        np.log10(a, out=e)
        np.floor(e, out=e)
        np.subtract(16.0, e, out=e)
        np.clip(e, 0.0, 20.0, out=e)
        np.copyto(k, e, casting="unsafe")
        _two_product(a, k, p, e, f64[4:8])
        # next to a power of ten log10 can miss X by one
        off = np.flatnonzero((p <= 1e16) | (p >= 1e17))
        if len(off):
            po, eo = p[off], e[off]
            step = (((po < 1e16) | ((po == 1e16) & (eo < 0.0))).astype(np.int64)
                    - ((po > 1e17) | ((po == 1e17) & (eo >= 0.0))))
            off, step = off[step != 0], step[step != 0]
            k[off] += step
            sub = np.empty((6, len(off)))
            _two_product(a[off], k[off], sub[0], sub[1], sub[2:])
            p[off], e[off] = sub[0], sub[1]
        np.rint(e, out=e)
        np.copyto(D, p, casting="unsafe")
        np.copyto(hi, e, casting="unsafe")
        D += hi
        np.subtract(21, k, out=n)
        D[special] = 0

        # D = d0 g1 g2 g3 g4, a first digit and four 4-digit groups, goes
        # into words 1-5 of each slot as ASCII, so that ext starts at
        # _BODY; z counts the trailing zeros of g1..g4
        words = text.view(np.uint32)
        t, g = i64[0], i64[2]  # a and p are spent
        z, zeros = (b[:m] for b in self._bytes)

        np.floor_divide(D, 10 ** 8, out=hi)
        np.multiply(hi, 10 ** 8, out=t)
        np.subtract(D, t, out=lo)
        np.floor_divide(hi, 10 ** 8, out=g)
        np.take(_DIGITS4, g, out=words[:, 1], mode="clip")
        np.multiply(g, 10 ** 8, out=t)
        hi -= t
        z.fill(0)
        for part, word in ((hi, 2), (lo, 4)):
            np.floor_divide(part, 10 ** 4, out=g)
            np.multiply(g, 10 ** 4, out=t)
            np.subtract(part, t, out=t)
            for group, w in ((g, word), (t, word + 1)):
                np.take(_DIGITS4, group, out=words[:, w], mode="clip")
                np.take(_ZEROS4, group, out=zeros, mode="clip")
                np.equal(group, 0, out=flag)
                z *= flag
                z += zeros

        # ext[:n] from the digits, ext[n:] from a copy one byte later,
        # then the constant bytes; the last field of a row ends in "\n"
        frac.view(np.uint8).reshape(-1)[1:] = text.view(np.uint8).reshape(-1)[:-1]
        np.take(_INT_MASK, n, axis=0, out=aux, mode="clip")
        text &= aux
        np.take(_FRAC_MASK, n, axis=0, out=aux, mode="clip")
        frac &= aux
        text |= frac
        np.take(_CONST, n, axis=0, out=aux, mode="clip")
        text |= aux
        text.reshape(len(block), -1)[:, -1] ^= _NEWLINE

        # the keep mask, row (n*17 + z)*2 + sign of _KEEP, goes into frac
        n *= 17
        n += z
        n *= 2
        np.signbit(x, out=flag)
        n += flag
        np.take(_KEEP, n, axis=0, out=frac, mode="clip")
        slots = text.view(np.uint8).reshape(m, _FIELD)
        keep = frac.view(np.bool_).reshape(m, _FIELD)
        cols = block.shape[1]
        for i in special[x[special] != 0.0]:
            s = b"%.17g" % x[i]
            slots[i, :len(s)] = np.frombuffer(s, np.uint8)
            slots[i, len(s)] = ord("\n") if i % cols == cols - 1 else ord(",")
            keep[i] = _POS <= len(s)
        return slots.reshape(-1)[keep.reshape(-1)]


def _two_product(a, k, p, e, tmp) -> None:
    """p + e = a*10^k exactly: Dekker's TwoProduct, with 10^k pre-split.
    tmp holds four scratch rows like a."""
    hi, lo, b, t = tmp
    np.multiply(a, 134217729.0, out=hi)
    np.subtract(hi, a, out=t)
    hi -= t
    np.subtract(a, hi, out=lo)
    np.take(_POW10, k, out=b, mode="clip")
    np.multiply(a, b, out=p)
    np.take(_POW10_HI, k, out=b, mode="clip")
    np.multiply(hi, b, out=e)
    e -= p
    np.multiply(lo, b, out=t)
    np.take(_POW10_LO, k, out=b, mode="clip")
    hi *= b
    e += hi
    e += t
    lo *= b
    e += lo
