"""CSV rows of float64 values as ``%.17g`` text, vectorized over a block.

:func:`format_rows` gives exactly the bytes of ``("%.17g,...,%.17g\\n" * m)
% values`` when every value x satisfies 1e-4 <= x < 1e16, and None
otherwise; the caller then formats with ``%``.  In that range the decimal
exponent k of x is in [-4, 15], so ``%g`` writes fixed notation, and
10**p for p = 16 - k is an exact double.

The 17 significant digits N = round-half-even(x * 10**p) are exact: Dekker's
two-product (Veltkamp split by 2**27 + 1; Dekker 1971) gives hi + lo equal to
x * 10**p, and hi >= 2**53 is an even integer, so N = hi + rint(lo).  k starts
at floor(log10(x)) and moves by one while N lies outside [10**16, 10**17),
which mends a log10 off by one and the carry of 9.99...95e(k) to 1e(k + 1).
The digits become ASCII by SWAR multiply-shift steps on uint64; each field is
built in three little-endian words with its dot (or ``0.`` and the zeros
after it for k < 0), its trailing zeros turned into NUL bytes, and the
separator in its last byte, and deleting the NULs leaves the rows.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_POW10 = np.array([float(10**p) for p in range(23)])  # exact: 10**22 is the largest


def _halves(a):
    """Veltkamp's split by 2**27 + 1: a = hi + lo with hi and lo of at most 26 bits each."""
    hi = a * 134217729.0
    hi -= hi - a
    return hi, a - hi


_POW_HI, _POW_LO = _halves(_POW10)


def _layouts() -> np.ndarray:
    """Per k in [-4, 15]: the digits' shift in bits and 64 minus it, the integer part's bytes
    (2 words), and what turns digits into "0"-"9" and the opened byte into "." (3 words)."""
    rows = []
    for k in range(-4, 16):
        if k < 0:  # "0." and -k - 1 zeros before the digits
            shift, mask, dot = 1 - k, 0, 1
        else:  # the k + 1 digits of the integer part, then the dot
            shift, mask, dot = 1, (1 << 8 * (k + 1)) - 1, k + 1
        add = int.from_bytes(b"0" * 24, "little") - (2 << 8 * dot)  # "." is "0" - 2
        words = [mask, mask >> 64, add, add >> 64, add >> 128]
        rows.append([8 * shift, 64 - 8 * shift] + [w % 2**64 for w in words])
    return np.array(rows, dtype=_U)


_LAYOUT = _layouts()


def _scaled(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(x * 10**(16 - k)) as uint64, exactly, when it is at least 2**53."""
    p = 16 - k
    prod, b_hi, b_lo = np.take(_POW10, p), np.take(_POW_HI, p), np.take(_POW_LO, p)
    prod *= x
    a_hi, a_lo = _halves(x)
    err = a_hi * b_hi  # then err = ((a_hi*b_hi - prod) + a_hi*b_lo + a_lo*b_hi) + a_lo*b_lo
    err -= prod
    err += np.multiply(a_hi, b_lo, out=a_hi)
    err += np.multiply(a_lo, b_hi, out=b_hi)
    err += np.multiply(a_lo, b_lo, out=b_lo)
    n = prod.astype(_U)
    n += np.rint(err, out=err).astype(np.int64).view(_U)
    return n


def _digits(v: np.ndarray, t: np.ndarray) -> None:
    """Replace each v < 10**8 by its 8 decimal digits, the most significant in the lowest byte.

    Each step splits every lane into q = v // base = (v * multiplier) >> shift and r, packed
    as (v << width) + q * (1 - base << width) modulo 2**64; ``t`` is scratch."""
    for multiplier, shift, mask, base, width in [
        (109951163, 40, 2**64 - 1, 10**4, 32),
        (10486, 20, 0x0000007F0000007F, 100, 16),
        (103, 10, 0x000F000F000F000F, 10, 8),
    ]:
        np.multiply(v, _U(multiplier), out=t)
        t >>= _U(shift)
        t &= _U(mask)
        v <<= _U(width)
        t *= _U((1 - (base << width)) % 2**64)
        v += t


def format_rows(block: np.ndarray) -> bytes | None:
    """``%.17g`` CSV rows of an (m, d) float64 block; None if empty or a value is out of range."""
    m, d = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    if x.size == 0 or not ((x >= 1e-4) & (x < 1e16)).all():  # also false for NaN
        return None
    k = np.floor(np.log10(x)).astype(np.int64)
    n17 = _scaled(x, k)
    for _ in range(3):
        bad = np.flatnonzero((n17 < _U(10**16)) | (n17 >= _U(10**17)))
        if bad.size == 0:
            break
        k[bad] += np.where(n17[bad] < _U(10**16), -1, 1)
        n17[bad] = _scaled(x[bad], k[bad])
    else:
        return None
    text = np.empty((x.size, 3), "<u8")
    word, keep, tmp = text.T, np.empty((3, x.size), _U), np.empty((3, x.size), _U)
    # N's digits as bytes 0..16: the first, then two groups of eight
    q = n17 // _U(10**8)
    top = q // _U(10**8)
    mid, last = tmp[:2]
    np.subtract(q, np.multiply(top, _U(10**8), out=mid), out=mid)
    np.subtract(n17, np.multiply(q, _U(10**8), out=last), out=last)
    _digits(tmp[:2], keep[:2])
    np.bitwise_or(top, np.left_shift(mid, _U(8), out=word[0]), out=word[0])
    np.left_shift(last, _U(8), out=word[1])
    np.right_shift(last, _U(56), out=word[2])
    word[1] |= np.right_shift(mid, _U(56), out=mid)
    # open a byte for the dot after the integer part, or the bytes of "0.0..." before the digits
    lay = np.take(_LAYOUT, k + 4, axis=0).T
    integer = np.bitwise_and(word[:2], lay[2:4], out=tmp[:2])
    word[:2] ^= integer
    carry = np.right_shift(word[:2], lay[1], out=keep[:2])
    word <<= lay[0]
    word[:2] |= integer
    word[1:] |= carry
    # keep the bytes up to the last nonzero digit, and the integer part: a byte's
    # high bit after adding 0x7f marks it nonzero, and shifting it down marks every
    # byte below; a word below a nonzero word is kept whole
    np.add(word, _U(0x7F7F7F7F7F7F7F7F), out=keep)
    keep &= _U(0x8080808080808080)
    keep >>= _U(7)
    for shift in (8, 16, 32):
        keep |= np.right_shift(keep, _U(shift), out=tmp)
    keep *= _U(0xFF)
    for w in (1, 0):
        keep[w] |= np.negative(np.bitwise_and(keep[w + 1], _U(1), out=tmp[0]), out=tmp[0])
    keep[:2] |= lay[2:4]
    word += lay[4:]
    word &= keep
    text.reshape(m, d, 3)[:, :, 2] |= np.array([ord(",")] * (d - 1) + [ord("\n")], _U) << _U(56)
    return text.tobytes().translate(None, b"\0")
