"""CSV text of a float64 matrix, byte for byte as ``repr`` writes each float.

``repr`` writes the shortest digits that read back to the same double, and
pays for a bignum search per float. :func:`write_rows` proves those digits
for a block of rows at once with array arithmetic, where numpy's long
double carries 64 significant bits (x86). A double x with |x| in
[1e-10, 1e16) is scaled to S = |x| * 10**q in [1e16, 1e17), a 17-digit
number, as one long-double product: 10**q is exact for q <= 27, so the
product is off by under 0.004 units. A digit string inside x's rounding
interval, S +- half (half the gap to x's neighbouring doubles, scaled
alike: 0.55 to 11.2 units), reads back as x, and ``repr`` writes the
shortest one, the nearest S among equals. The interval is under 23 units
wide, so it holds at most one multiple of 100: if one lies inside, its
trailing zeros give the length; else the multiple of 10 nearest S, if
inside, gives 16 digits; else the integer nearest S gives 17. The digits
are laid out from a table of 4-digit strings, by ``repr``'s rule for the
float's class (sign, digit count, decimal point position). Zero is written
"0.0" or "-0.0". ``repr`` itself writes every other float: NaN, infinity,
a value out of that range, a power of two (its gap below is half its gap
above), and a float whose decision lies within 0.01 units of a boundary,
about 1% of random doubles. With a shorter long double every row is joined
from ``repr``.

Memory: a call's arrays, each one block long, live in anonymous memory
maps, and every step of a block writes into them in place, except the
last, which copies the block's text out for the file; so a write leaves no
freed heap that later allocations pin: block temporaries on the heap
raised the serve benchmark's peak RSS by 3.4 MB. What a first write still
adds to RSS is about 0.7 MB of numpy's shared library, the pages of code
that these steps run.
"""
from __future__ import annotations

import math
import mmap

import numpy as np

# a double times 10**q, exact for q <= 27, rounds once, to 64 significant bits
_EXTENDED = np.finfo(np.longdouble).nmant >= 63
_FAST = (1e-10, 1e16)  # the |x| that the block formatter writes itself
_MARGIN = 0.01  # a decision this near a boundary, in units of S, goes to repr
_BLOCK = 2048  # floats per block

_POW = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))  # 10**q, q = 0..27
_HALF_POW = _POW.astype(np.float64) / 2


def _least_double_from(e: int) -> float:
    """The least double that is not below 10**e."""
    value = float(f"1e{e}")  # the nearest double
    num, den = value.as_integer_ratio()
    below = num * 10 ** max(-e, 0) < den * 10 ** max(e, 0)
    return math.nextafter(value, math.inf) if below else value


# x >= _DECADE[e + 11] exactly when x >= 10**e, for e = -11 .. 17
_DECADE = np.array([_least_double_from(e) for e in range(-11, 18)])


def _four_digit_tables():
    """The strings "0000" .. "9999" as little-endian uint32 words, and the
    number of trailing zeros of each."""
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i in range(4):
        chars[..., i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
    chars = chars.reshape(10_000, 4)
    zeros = np.zeros(10_000, dtype=np.uint8)
    for i in range(4):  # a zero digit extends the run of zeros to its left
        zeros = (chars[:, i] == 48) * (zeros + 1)
    return chars.view("<u4").ravel(), zeros


_DIGITS4, _ZEROS4 = _four_digit_tables()

# A slot holds one float's candidate bytes, and its class's mask row keeps
# the bytes repr writes, in order. Bytes 1-6 "-0.000"; 7-23 the 17 digits
# D0..D16 (copy A); 24 "."; 25-40 D1..D16 again (copy B); 41-44 the
# exponent, "e-05"; 45 the separator, "," or a newline. A float written by
# repr has its text in bytes 0-23.
_WIDTH, _DOT, _EXP, _SEP = 48, 24, 41, 45
_HEAD = np.frombuffer(b"\0-0.000\0", dtype="<u8")[0]  # bytes 0-7; byte 7 takes D0
# decimal point positions -9 .. 17 (|x| / 10**decpt in [0.1, 1)), and their exponents
_DECPTS = range(-9, 18)
_EXPONENTS = np.frombuffer("".join(f"e{d - 1:+03d}" for d in _DECPTS).encode("ascii"), dtype="V4")
# class id (neg * 17 + p - 1) * 27 + decpt + 9 for p digits; then 0.0, -0.0, repr
_ZERO = 2 * 17 * len(_DECPTS)
_FALLBACK = _ZERO + 2


def _kept_bytes(p: int, decpt: int) -> list[int]:
    """The slot bytes of a positive float of ``p`` digits and decimal point
    position ``decpt``, by repr's rule: exponent form when the point sits
    at -4 or before, or past 16; else positional."""
    if decpt <= -4 or decpt > 16:  # D0[.D1...]e-05
        return [7, *([_DOT, *range(_DOT + 1, _DOT + p)] if p > 1 else []), *range(_EXP, _SEP)]
    if decpt <= 0:  # "0.", the last -decpt of the three zeros, the digits
        return [2, 3, *range(7 + decpt, 7 + p)]
    # the integer digits from copy A, the point, the rest from copy B, at
    # least one: 120.0 keeps the zero after its last significant digit
    return [*range(7, 7 + decpt), _DOT, *range(_DOT + decpt, _DOT + max(p, decpt + 1))]


def _class_masks() -> np.ndarray:
    """Each class's mask row, as one ``_WIDTH``-byte item."""
    masks = np.zeros((_FALLBACK + 1, _WIDTH), dtype=bool)
    for neg in (0, 1):
        sign = [1] * neg
        for p in range(1, 18):
            for i, decpt in enumerate(_DECPTS):
                masks[(neg * 17 + p - 1) * len(_DECPTS) + i, sign + _kept_bytes(p, decpt)] = True
        masks[_ZERO + neg, sign + [2, 3, 4]] = True  # "0.0"
    masks[:, _SEP] = True
    return masks.view(f"V{_WIDTH}").ravel()


_MASKS = _class_masks()


def write_rows(matrix: np.ndarray, fh):
    """Write a 2-d float64 matrix to the binary file ``fh`` as CSV text:
    per row ``",".join(map(repr, row.tolist()))`` and a newline, and one
    newline for a matrix of no rows."""
    rows, cols = matrix.shape
    if rows == 0:
        fh.write(b"\n")
    elif cols == 0 or not _EXTENDED:
        # tolist() yields Python floats: numpy scalar repr would write "np.float64(...)"
        for row in matrix:
            fh.write((",".join(map(repr, row.tolist())) + "\n").encode("ascii"))
    else:
        _write_blocks(matrix, fh)


def _scratch(shape, dtype) -> np.ndarray:
    """A zeroed array in an anonymous memory map, unmapped when it is freed."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * dtype.itemsize), dtype).reshape(shape)


class _Work:
    """One block's arrays, reused by every block of a call."""

    def __init__(self, n: int):
        self.floats = _scratch((9, n), np.float64)
        self.ints = _scratch((7, n), np.int64)
        self.flags = _scratch((8, n), bool)
        self.wide = _scratch((2, n), np.longdouble)
        self.chunks = _scratch((n, 4), np.intp)
        self.zeros = _scratch((n, 4), np.uint8)


def _classify(x: np.ndarray, w: _Work):
    """Each float's class id, decimal point position + 9 and lead digit;
    its other 16 digits go to ``w.chunks``, four 4-digit numbers a row."""
    ax, f, half, t100, t10, dist, near, t, unit = w.floats
    q, d, r, m, lead, decpt, cid = w.ints
    neg, zero, fast, ok100, ok10, unsure, flag, carry = w.flags
    s, low = w.wide
    chunks, zeros = w.chunks, w.zeros
    np.abs(x, out=ax)
    np.signbit(x, out=neg)
    np.equal(ax, 0, out=zero)
    # in range, and not a power of two: its gap below is half its gap above
    np.greater_equal(ax, _FAST[0], out=fast)
    fast &= np.less(ax, _FAST[1], out=flag)
    fast &= np.not_equal(np.bitwise_and(x.view(np.int64), 2**52 - 1, out=m), 0, out=flag)
    np.copyto(ax, 1.5, where=np.logical_not(fast, out=flag))  # a value the steps take without a warning
    # e = floor(log10(ax)), corrected against the exact decade bounds; q = 16 - e
    np.copyto(q, np.floor(np.log10(ax, out=t), out=t), casting="unsafe")
    q += np.greater_equal(ax, np.take(_DECADE, np.add(q, 12, out=r), out=t, mode="clip"), out=flag)
    q -= np.less(ax, np.take(_DECADE, np.add(q, 11, out=r), out=t, mode="clip"), out=flag)
    np.subtract(16, q, out=q)
    np.multiply(np.take(_POW, q, out=s, mode="clip"), ax, out=s)
    np.copyto(d, s, casting="unsafe")
    np.copyto(low, d)
    np.copyto(f, np.subtract(s, low, out=low), casting="unsafe")  # S = d + f, to within 0.004
    np.multiply(np.spacing(ax, out=half), np.take(_HALF_POW, q, out=t, mode="clip"), out=half)
    np.add(np.remainder(d, 100, out=r), f, out=t100)  # S above the multiple of 100 below it
    np.add(np.remainder(r, 10, out=m), f, out=t10)
    np.minimum(t100, np.subtract(100, t100, out=dist), out=dist)
    np.less(dist, half, out=ok100)
    np.less(np.abs(np.subtract(dist, half, out=dist), out=dist), _MARGIN, out=unsure)
    np.minimum(t10, np.subtract(10, t10, out=dist), out=dist)
    np.less(dist, half, out=ok10)
    # past 100: the 16-digit boundary, or a tie between the two candidates
    # nearest S at the chosen unit
    np.abs(np.subtract(t10, 5, out=near), out=near)
    np.copyto(near, np.abs(np.subtract(f, 0.5, out=t), out=t), where=np.logical_not(ok10, out=flag))
    np.minimum(near, np.abs(np.subtract(dist, half, out=dist), out=dist), out=near)
    np.less(near, _MARGIN, out=flag)
    unsure |= np.logical_and(flag, np.logical_not(ok100, out=carry), out=flag)
    # S rounded to the nearest multiple of the chosen unit
    np.copyto(unit, 1.0)
    np.copyto(unit, 10.0, where=ok10)
    np.copyto(unit, 100.0, where=ok100)
    np.copyto(t, f)
    np.copyto(t, t10, where=ok10)
    np.copyto(t, t100, where=ok100)  # S above the multiple of unit below it
    np.greater(t, np.multiply(unit, 0.5, out=dist), out=flag)
    np.multiply(unit, flag, out=unit)
    np.copyto(m, np.add(np.subtract(unit, t, out=unit), f, out=unit), casting="unsafe")
    m += d
    np.equal(m, 10**17, out=carry)  # 99999999999999999.7 rounds to 1, a decade up
    np.copyto(m, 10**16, where=carry)
    np.floor_divide(m, 10**16, out=lead)
    m -= np.multiply(lead, 10**16, out=r)
    np.floor_divide(m, 10**8, out=d)
    np.subtract(m, np.multiply(d, 10**8, out=r), out=r)
    np.floor_divide(d, 10**4, out=chunks[:, 0])
    np.subtract(d, np.multiply(chunks[:, 0], 10**4, out=m), out=chunks[:, 1])
    np.floor_divide(r, 10**4, out=chunks[:, 2])
    np.subtract(r, np.multiply(chunks[:, 2], 10**4, out=m), out=chunks[:, 3])
    # the trailing zeros: each 4-digit chunk's, while the chunks after it are all zeros
    np.take(_ZEROS4, chunks, out=zeros, mode="clip")
    np.copyto(m, zeros[:, 0])
    for i in (1, 2, 3):
        m *= np.equal(zeros[:, i], 4, out=flag)
        m += zeros[:, i]
    np.add(np.subtract(26, q, out=decpt), carry, out=decpt)
    np.multiply(neg, 17, out=cid)
    cid += 16
    cid -= m
    cid *= len(_DECPTS)
    cid += decpt
    fast &= np.logical_not(unsure, out=flag)
    np.copyto(cid, _FALLBACK, where=np.logical_not(fast, out=flag))
    np.copyto(cid, np.add(neg, _ZERO, out=r), where=zero)
    return cid, decpt, lead


def _write_blocks(matrix: np.ndarray, fh):
    """Write the rows of a matrix of at least one column, a block of floats
    at a time in reading order, the last block padded with zeros."""
    cols = matrix.shape[1]
    # the floats in reading order: a view, or an iterator that copies each slice taken
    values = matrix.reshape(-1) if matrix.flags.c_contiguous else matrix.flat
    n = min(_BLOCK, matrix.size)
    work = _Work(n)
    block = _scratch((n,), np.float64)
    head = _scratch((n,), np.uint64)
    digits = _scratch((n, 4), "<u4")
    slots = _scratch((n, _WIDTH), np.uint8)
    slots[:, _DOT] = ord(".")
    mask = _scratch((n, _WIDTH), bool)
    # the separator after the float in column j: a newline after the last column
    seps = np.full(n + cols, ord(","), dtype=np.uint8)
    seps[cols - 1 :: cols] = ord("\n")
    # repr's text goes straight into the slot and the mask, through these
    text_out, mask_out = memoryview(slots.reshape(-1)), memoryview(mask.view(np.uint8).reshape(-1))
    ones = b"\1" * 24
    for start in range(0, matrix.size, n):
        got = min(n, matrix.size - start)
        block[:got] = values[start : start + got]
        block[got:] = 0.0
        cid, decpt, lead = _classify(block, work)
        np.add(lead, 48, out=head, casting="unsafe")
        head <<= 56
        head |= _HEAD
        slots.view("<u8")[:, 0] = head
        np.take(_DIGITS4, work.chunks, out=digits, mode="clip")
        slots[:, 8:_DOT].view("V16")[:, 0] = digits.view("V16")[:, 0]
        slots[:, _DOT + 1 : _EXP].view("V16")[:, 0] = digits.view("V16")[:, 0]
        np.take(_EXPONENTS, decpt, out=slots[:, _EXP:_SEP].view("V4")[:, 0], mode="clip")
        slots[:, _SEP] = seps[start % cols : start % cols + n]
        np.take(_MASKS, cid, out=mask.view(f"V{_WIDTH}").ravel(), mode="clip")
        fallback = np.flatnonzero(cid == _FALLBACK)
        for i, value in zip(fallback.tolist(), block[fallback].tolist()):
            line = repr(value).encode("ascii")
            at = i * _WIDTH
            text_out[at : at + len(line)] = line
            mask_out[at : at + len(line)] = ones[: len(line)]
        # a boolean index copies out only the kept bytes; np.compress would
        # first list their indices, 8 bytes for each byte kept
        fh.write(slots[:got].reshape(-1)[mask[:got].reshape(-1)])
