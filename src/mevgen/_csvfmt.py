"""CSV rows of float64 values as ``%.17g`` text and back, vectorized over a block.

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

:func:`parse_rows` reads such rows back, exactly.  It accepts a body of only ``[0-9.,\\n]``
with d fields on every line and a final newline, each field at most 24
bytes with at most one dot, at most 17 significant digits and a value in
[1e-4, 1e16), and returns None for any other body; the caller then parses
it with ``np.loadtxt``.  It works through pieces of about 256 KiB of whole
lines, so its temporaries stay O(piece).  Per piece, the separators are
located, each field's 24 bytes ending at its separator are gathered as
three little-endian words and masked to the field by its length, the dot
becomes a zero digit and its position is read off by one multiply, and
SWAR steps turn the digits into an integer, from which dropping the dot's
digit gives N, the field's digits, with f of them after the dot.  The
candidate is y = float(N) / 10**f.  y is accepted only when
``_scaled(y, k)``, its own 17 digits at the field's decimal exponent k,
equal N's digits padded to 17; otherwise y's neighbour towards the field
is tried, and if it fails too the body is declined.  An accepted y is
exactly the correctly rounded value of the field, which is what
``loadtxt`` returns (Clinger 1990, "How to read floating point numbers
accurately"): the field lies within half a unit of the 17th digit of y,
10**(k - 16) / 2, and since 10**k <= field < 2**(e + 1) with 2**e <= y
that is less than 0.46 ulp(y), and less than a quarter ulp when y is a
power of two and the field lies below it, so no other double is as close.
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


#: Bytes gathered per field by :func:`parse_rows`, right-aligned at its end: the longest field
#: it reads.
_WINDOW = 24

#: Body bytes parsed per piece by :func:`parse_rows` (at least one line of longest fields), so
#: that its temporaries stay small whatever the body's size.
_PIECE_BYTES = 2**18


def _tail_masks() -> np.ndarray:
    """Per field length n in [0, 24]: the three words keeping the last n bytes of a window."""
    rows = []
    for n in range(_WINDOW + 1):
        mask = ((1 << 8 * n) - 1) << 8 * (_WINDOW - n)
        rows.append([(mask >> 64 * i) % 2**64 for i in range(3)])
    return np.array(rows, dtype=_U).view(np.dtype((np.void, _WINDOW))).ravel()


_TAIL = _tail_masks()
# The top byte of b * _DOT_CODE[i], b holding 1 in the byte of word i where the dot is, is the
# number of window bytes from the dot to the end: 1 + the field's fraction digits.
_DOT_CODE = np.array(
    [[int.from_bytes(bytes(24 - 8 * i - j for j in range(7, -1, -1)), "little")] for i in range(3)],
    dtype=_U,
)
# Indexed by that count c (0 without a dot): N = X - (X // _DIV[c]) * _MUL[c] drops the dot's
# zero digit from X, and N / _FRAC10[c] is the value.  No in-range field has c > 19.
_DIV = np.array([10**19] + [10 ** min(c, 19) for c in range(1, _WINDOW + 1)], dtype=_U)
_MUL = np.array([0] + [9 * 10 ** (c - 1) if c < 20 else 0 for c in range(1, _WINDOW + 1)], dtype=_U)
_FRAC10 = np.array([1.0] + [float(10 ** (c - 1)) for c in range(1, _WINDOW + 1)])
_POW10_U = np.array([10**p for p in range(19)], dtype=_U)
# N in [2**(e-1), 2**e) after rounding to float has at least as many digits as 2**(e-2)
_DIGITS_FROM = np.array([len(str(2 ** max(e - 2, 0))) for e in range(60)], dtype=np.intp)


def parse_rows(raw, d: int) -> np.ndarray | None:
    """The (m, d) float64 rows of the CSV body ``raw``, as ``np.loadtxt`` reads them, or None.

    ``raw`` is any bytes-like object.  None unless it holds only ``[0-9.,\\n]``, ends in a
    newline, and every line has d fields, each with at most one dot, at most 24 bytes and 17
    significant digits, and a value in [1e-4, 1e16).
    """
    body = np.frombuffer(raw, np.uint8)
    if body.size == 0 or body[-1] != 10:
        return None
    step = max(_PIECE_BYTES, (_WINDOW + 1) * d)
    pad = np.zeros(_WINDOW + min(step, body.size), np.uint8)
    windows = np.ndarray((pad.size - _WINDOW + 1,), np.dtype((np.void, _WINDOW)), pad, 0, (1,))
    blocks = []
    lo = 0
    while lo < body.size:
        piece = body[lo : lo + step]
        a = pad[_WINDOW : _WINDOW + piece.size]
        a[:] = piece
        if a.max() > 57 or np.count_nonzero(a == 47):  # above "9", or "/" between "." and "0"
            return None
        sep = np.flatnonzero(a < 46)  # "," and "\n", or a byte that fails below
        kind = a[sep]
        ends = np.flatnonzero(kind == 10)
        if ends.size == 0:
            return None
        sep, kind = sep[: ends[-1] + 1], kind[: ends[-1] + 1]  # whole lines only
        if (
            sep.size != ends.size * d
            or (kind[d - 1 :: d] != 10).any()
            or np.count_nonzero(kind == 44) != sep.size - ends.size
        ):
            return None
        length = np.empty_like(sep)
        length[0] = sep[0]
        np.subtract(sep[1:], sep[:-1], out=length[1:])
        length[1:] -= 1
        if length.min() < 1 or length.max() > _WINDOW:
            return None
        values = _field_values(windows[sep], _TAIL[length], np.count_nonzero(a[: sep[-1]] == 46))
        if values is None:
            return None
        blocks.append(values.reshape(-1, d))
        lo += sep[-1] + 1
    return np.concatenate(blocks)


def _field_values(windows: np.ndarray, masks: np.ndarray, dots: int) -> np.ndarray | None:
    """The exact values of fields given as 24-byte windows ending with them, or None.

    ``masks`` keeps each field's bytes in its window; ``dots`` is the number of dots in all the
    fields, which must equal the number of fields with a dot."""
    w = windows.view(_U).reshape(-1, 3)
    w &= masks.view(_U).reshape(-1, 3)
    w = w.T.copy()  # one row per word: per-word constants broadcast along the fields
    w &= _U(0x0F0F0F0F0F0F0F0F)  # digits 0-9; a dot becomes 14 and the bytes before the field 0
    dot = w + _U(0x7676767676767676)
    dot &= _U(0x8080808080808080)
    dot >>= _U(7)
    w ^= dot * _U(14)  # the dot is now a zero digit
    dot *= _DOT_CODE
    dot >>= _U(56)
    c = dot[0] + dot[1]
    c += dot[2]
    c = c.astype(np.intp)
    if np.count_nonzero(c) != dots:  # a field with two dots
        return None
    # eight digits per word to their value: pairs, then fours, then all eight
    for multiplier, shift, mask in [
        (10 * 2**8 + 1, 8, 0x00FF00FF00FF00FF),
        (100 * 2**16 + 1, 16, 0x0000FFFF0000FFFF),
    ]:
        w *= _U(multiplier)
        w >>= _U(shift)
        w &= _U(mask)
    w *= _U(10**4 * 2**32 + 1)
    w >>= _U(32)
    if w[0].max() >= 100:  # X >= 10**18: more than 17 digits, and it might wrap
        return None
    x = w[0] * _U(10**16)
    x += w[1] * _U(10**8)
    x += w[2]
    n = x - x // np.take(_DIV, c) * np.take(_MUL, c)
    if n.min() == 0 or n.max() >= 10**17:
        return None
    y = n.astype(np.float64)
    digits = np.take(_DIGITS_FROM, np.frexp(y)[1])
    digits += n >= np.take(_POW10_U, digits)
    k = digits - np.maximum(c, 1)  # the decimal exponent: value in [10**k, 10**(k + 1))
    if k.min() < -4 or k.max() > 15:
        return None
    n *= np.take(_POW10_U, 17 - digits)  # the 17 digits of the value
    y /= np.take(_FRAC10, c)
    got = _scaled(y, k)
    miss = np.flatnonzero(got != n)
    if miss.size:  # y is off by an ulp: step towards the field's value
        y[miss] = np.nextafter(y[miss], np.where(got[miss] < n[miss], np.inf, 0.0))
        if (_scaled(y[miss], k[miss]) != n[miss]).any():
            return None
    return y
