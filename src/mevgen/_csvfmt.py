"""Float64 values as ``%.17g`` CSV text and back, and as JSON text, vectorized over a block.

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
The digits become ASCII by SWAR steps into :func:`_fields`' words, and
deleting their NUL bytes leaves the rows.

:func:`repr_rows` gives the JSON text of each value with the same separators:
``float.__repr__`` of a finite value, else ``NaN`` or ``Infinity``, which is
what ``json.dumps`` writes.  repr writes the shortest digits that read back as
x and, of those, the nearest to x (Steele & White 1990, "How to print
floating-point numbers accurately"; Gay 1990, "Correctly rounded
binary-decimal and decimal-binary conversions").  For x in [1e-4, 1e16) that
is not a power of two, the doubles next to x lie ulp(x) away on both sides,
so a decimal reads back as x if it lies strictly within g = ulp(x) / 2 * 10**p
of X = x * 10**p = N + r, where r = lo - rint(lo) is exact and |r| <= 1/2.
g is an exact double, a power of two times 10**p, and since x / ulp(x) <
2**53, 0.55 < g < 11.2.  repr's digits are then those of the multiple of
10**j nearest to X for the largest j at which it lies within g.  j = 0
always qualifies: N, at most 1/2 from X, a tie going to even as repr's last
digit does.  At j = 1 two multiples of 10 may lie within g, and the nearer
is taken.  From j = 2 on at most one does, as 2g < 100, and a multiple of
10**j within g is a multiple of 100 within g, so the one multiple of 100
within g, if any, is repr's value, and the text drops its trailing zeros.
With rem = N mod m, the two candidates lie |rem + r| and m - rem - r from X,
exactly, as r is a multiple of 2**-46 in this range.  A candidate that
carries to 10**17 raises k by one.  A power of two has half the gap below
it, an interval inside the symmetric one; each of the 67 in the range,
2**-13 to 2**53, has its candidate at or above X, so it is repr's too (the
tests compare each of them with repr).  Left undecided, and written by one
``json.dumps`` of them per piece, are: values outside the range (zeros,
negatives, subnormals, NaN and inf among them), where repr may write a sign
or an exponent; a nearest candidate exactly g from X, which reads back as x
only when x's last bit is 0; and X exactly halfway between two multiples of
10 within g.  About 0.4% of log-uniform values in the range are left so.
The digits are written by :func:`format_rows`'s field words, keeping the dot
and one digit after the integer part, so that an integral value ends in
``.0``.

:func:`parse_rows` reads CSV text back, exactly, in pieces of about 256 KiB of whole lines,
declining a piece it cannot read so (see the function).  Per piece, the separators are
located, each field's 24 bytes ending at its separator are gathered as three little-endian
words and masked to the field by its length, the dot becomes a zero digit and its position
is read off by one multiply, and SWAR steps turn the digits into an integer, from which
dropping the dot's digit gives N, the field's digits, with f of them after the dot.  The
candidate is y = float(N) / 10**f.  When N <= 2**53, float(N) and 10**f are exact, so the
one division rounds the field correctly, ties to even as ``np.loadtxt`` does (Clinger 1990,
"How to read floating point numbers accurately": the fast path), and y is kept.  Else, with
k the field's decimal exponent and M its digits padded to 17 (the field is
M * 10**(k - 16)), y is kept when its own 17 digits, ``_scaled(y, k)`` = N17, equal M, as
for nearly every field :func:`format_rows` writes; else its neighbour towards the field when
its digits do; else whichever of the two holds the field strictly inside its rounding
interval: as y * 10**(16 - k) = N17 + r exactly, the field lies (M - N17) - r units of
10**(k - 16) from y, exactly (an integer below 2**6 minus a multiple of 2**-46; a larger
integer is far outside), and that must be less than the half-gap g of :func:`_shortest`, or
g / 2 below a power of two.  A field on the edge, halfway between two doubles, is declined.
A kept value is thus the double nearest the field; equal digits pass the same test, as
|r| <= 1/2 and the half-gap on the field's side exceeds 0.55 units (2**(e - 54) * 10**p
below a power of two 2**e > 10**k).  float(N) and the division round once each, so y lies
under 2 ulp from the correctly rounded value, y or that neighbour: every field of at most 17
digits in [1e-4, 1e16) is read but a halfway one, which has a value above 2**52.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterator

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
    """Per k in [-4, 15]: the digits' shift in bits and 64 minus it, the integer part's bytes,
    what turns digits into "0"-"9" and the opened byte into ".", and the bytes that repr keeps
    whatever the digits, the integer part, the dot and one digit after it (3 words each)."""
    rows = []
    for k in range(-4, 16):
        if k < 0:  # "0." and -k - 1 zeros before the digits
            shift, mask, dot = 1 - k, 0, 1
        else:  # the k + 1 digits of the integer part, then the dot
            shift, mask, dot = 1, (1 << 8 * (k + 1)) - 1, k + 1
        add = int.from_bytes(b"0" * 24, "little") - (2 << 8 * dot)  # "." is "0" - 2
        point_zero = (mask << 16) | 0xFFFF if k >= 0 else 0
        words = [w >> 64 * i for w in (mask, add, point_zero) for i in range(3)]
        rows.append([8 * shift, 64 - 8 * shift] + [w % 2**64 for w in words])
    return np.array(rows, dtype=_U)


_LAYOUT = _layouts()
_INTEGER, _POINT_ZERO = slice(2, 5), slice(8, 11)  # the kept bytes of %.17g and repr


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = round-half-even(x * 10**(16 - k)) as uint64 and x * 10**(16 - k) - N, both exactly,
    when N is at least 2**53."""
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
    rounded = np.rint(err, out=prod)
    n += rounded.astype(np.int64).view(_U)
    err -= rounded
    return n, err


def _exponents(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """k, N and r of each x in [1e-4, 1e16): x * 10**(16 - k) = N + r with N in [10**16, 10**17)
    and |r| <= 1/2, exactly; None if a k did not settle."""
    k = np.floor(np.log10(x)).astype(np.int64)
    n17, r = _scaled(x, k)
    for _ in range(3):
        bad = np.flatnonzero((n17 < _U(10**16)) | (n17 >= _U(10**17)))
        if bad.size == 0:
            return k, n17, r
        k[bad] += np.where(n17[bad] < _U(10**16), -1, 1)
        n17[bad], r[bad] = _scaled(x[bad], k[bad])
    return None


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


def _fields(n17: np.ndarray, k: np.ndarray, kept: slice) -> np.ndarray:
    """The (size, 3) little-endian words of each value's text: the 17 digits of ``n17`` at
    decimal exponent k in fixed notation, with NUL bytes after its last nonzero digit except
    in the bytes of ``_LAYOUT[:, kept]``, and the last byte free for a separator."""
    text = np.empty((n17.size, 3), "<u8")
    word, keep, tmp = text.T, np.empty((3, n17.size), _U), np.empty((3, n17.size), _U)
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
    keep |= lay[kept]
    word += lay[5:8]
    word &= keep
    return text


def format_rows(block: np.ndarray) -> bytes | None:
    """``%.17g`` CSV rows of an (m, d) float64 block; None if empty or a value is out of range."""
    m, d = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    if x.size == 0 or not ((x >= 1e-4) & (x < 1e16)).all():  # also false for NaN
        return None
    exact = _exponents(x)
    if exact is None:
        return None
    k, n17, _ = exact
    text = _fields(n17, k, _INTEGER)
    text.reshape(m, d, 3)[:, :, 2] |= np.array([ord(",")] * (d - 1) + [ord("\n")], _U) << _U(56)
    return text.tobytes().translate(None, b"\0")


#: Values turned into text per piece by :func:`repr_rows`, as many as ``fileio`` formats per
#: piece of CSV, so that its temporaries stay small whatever the block's size.
_REPR_VALUES = 2**14


def repr_rows(block: np.ndarray) -> bytes:
    """The JSON texts of an (m, d) float64 block's values, "," after each but the last of a row
    and "\\n" after that: ``float.__repr__`` for a finite value, else ``NaN`` or ``Infinity``."""
    d = block.shape[1]
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    ends = np.array([ord(",")] * (d - 1) + [ord("\n")], _U) << _U(56)
    pieces = []
    for lo in range(0, x.size, _REPR_VALUES):
        part = x[lo : lo + _REPR_VALUES]
        fit = (part >= 1e-4) & (part < 1e16)  # also false for NaN
        # 1.5 stands in for the values out of the range, which are left undecided
        shortest = _shortest(np.where(fit, part, 1.5)) if fit.any() else None
        if shortest is None:
            text, left = np.zeros((part.size, 3), "<u8"), np.ones(part.size, bool)
        else:
            c, k, decided = shortest
            text, left = _fields(c, k, _POINT_ZERO), ~(decided & fit)
        text[left] = [ord("?"), 0, 0]  # a mark where the undecided values' texts go
        text[:, 2] |= np.resize(ends, lo % d + part.size)[lo % d :]
        body = text.tobytes().translate(None, b"\0")
        if left.any():
            texts = json.dumps(part[left].tolist(), separators=(",", ":"))[1:-1]
            marked = body.split(b"?")
            body = b"".join(chain.from_iterable(zip(marked, texts.encode().split(b","))))
            body += marked[-1]
        pieces.append(body)
    return b"".join(pieces)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The digits and decimal exponent of ``repr`` of each x in [1e-4, 1e16), and which of them
    are decided: (c, k, decided), repr's digits being those of c without its trailing zeros.

    None if an exponent did not settle.  See the module docstring for the argument."""
    exact = _exponents(x)
    if exact is None:
        return None
    k, n17, r = exact
    g = np.spacing(x)
    g *= np.take(_POW10, 16 - k)
    g *= 0.5  # exact: 10**p is a double, and spacing(x) and 0.5 are powers of two
    tens, dist10, tie = _nearest(n17, r, 10)
    hundreds, dist100, _ = _nearest(n17, r, 100)
    by10, by100 = dist10 <= g, dist100 <= g
    c = np.where(by100, hundreds, np.where(by10, tens, n17))  # n17 is rounded half-even
    unsure = np.where(by100, dist100 == g, by10 & ((dist10 == g) | tie))
    carried = c == _U(10**17)
    c[carried] = _U(10**16)
    k += carried
    return c, k, ~unsure


def _nearest(n17: np.ndarray, r: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multiple of m nearest to X = n17 + r, its distance from X, and whether X is halfway
    between two multiples; the distances are exact, as |r| <= 1/2 is a multiple of 2**-46."""
    below = n17 // _U(m) * _U(m)
    rem = n17 - below
    down = rem.astype(np.float64)
    down += r
    np.abs(down, out=down)  # a multiple of m below X, or n17 itself just above it
    up = (_U(m) - rem).astype(np.float64)
    up -= r
    return below + np.where(up < down, _U(m), _U(0)), np.minimum(down, up), up == down


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


def parse_rows(raw: bytes, d: int) -> Iterator[tuple[int, np.ndarray | None]]:
    """For each piece of the CSV body ``raw``, in order: the offset just after it, and its
    (m, d) float64 rows as ``np.loadtxt`` reads them, or None if the kernel declines it.

    A piece is the whole lines in ``_PIECE_BYTES``, or one longer line or a last line
    without its newline, which are declined.  So is a piece with any byte outside
    ``[0-9.,\\n]`` or a line without d fields, each of at most 24 bytes with at most one dot.
    """
    body = np.frombuffer(raw, np.uint8)
    step = max(_PIECE_BYTES, (_WINDOW + 1) * d)
    pad = np.zeros(_WINDOW + min(step, body.size), np.uint8)
    windows = np.ndarray((pad.size - _WINDOW + 1,), np.dtype((np.void, _WINDOW)), pad, 0, (1,))
    lo = 0
    while lo < body.size:
        hi = raw.rfind(b"\n", lo, lo + step) + 1 or raw.find(b"\n", lo + step) + 1 or body.size
        whole = hi - lo <= step and body[hi - 1] == 10  # else a line too long, or without its end
        yield hi, _piece_rows(body[lo:hi], pad, windows, d) if whole else None
        lo = hi


def _piece_rows(piece: np.ndarray, pad: np.ndarray, windows: np.ndarray, d: int):
    """The rows of ``piece``, whole lines, or None; ``pad`` is scratch, viewed by ``windows``."""
    a = pad[_WINDOW : _WINDOW + piece.size]
    a[:] = piece
    if a.max() > 57 or np.count_nonzero(a == 47):  # above "9", or "/" between "." and "0"
        return None
    sep = np.flatnonzero(a < 46)  # "," and "\n", or a byte that fails below
    kind = a[sep]
    ends = np.count_nonzero(kind == 10)
    if (
        sep.size != ends * d
        or (kind[d - 1 :: d] != 10).any()
        or np.count_nonzero(kind == 44) != sep.size - ends
    ):
        return None
    length = np.empty_like(sep)
    length[0] = sep[0]
    np.subtract(sep[1:], sep[:-1], out=length[1:])
    length[1:] -= 1
    if length.min() < 1 or length.max() > _WINDOW:
        return None
    values = _field_values(windows[sep], _TAIL[length], np.count_nonzero(a == 46))
    return None if values is None else values.reshape(-1, d)


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
    rounded = n > _U(2**53)  # else float(N) is exact, and so is y: Clinger's fast path
    n *= np.take(_POW10_U, 17 - digits)  # M, the field's digits padded to 17
    y /= np.take(_FRAC10, c)
    n17, r = _scaled(y, k)
    miss = np.flatnonzero((n17 != n) & rounded)
    if miss.size:  # y's neighbour towards the field, or whichever of the two holds it
        m, k_m = n[miss], k[miss]
        near = np.nextafter(y[miss], np.where(n17[miss] < m, np.inf, 0.0))
        near17, near_r = _scaled(near, k_m)
        left = np.flatnonzero(near17 != m)
        own = _inside(y[miss[left]], k_m[left], m[left], n17[miss[left]], r[miss[left]])
        if not (own | _inside(near[left], k_m[left], m[left], near17[left], near_r[left])).all():
            return None
        near[left[own]] = y[miss[left[own]]]
        y[miss] = near
    return y


def _inside(y, k, m, n17, r) -> np.ndarray:
    """Whether each field M * 10**(k - 16), M in ``m``, lies strictly inside the rounding
    interval of y, where ``_scaled(y, k)`` is (n17, r); see the module docstring."""
    gap = (m.view(np.int64) - n17.view(np.int64)).astype(np.float64) - r  # field - y, scaled
    half = np.spacing(y) * np.take(_POW10, 16 - k) * 0.5  # exact, as in _shortest
    half[(gap < 0) & (np.frexp(y)[0] == 0.5)] *= 0.5  # the gap below a power of two
    return np.abs(gap) < half
