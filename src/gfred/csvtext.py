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

Memory: a call formats blocks of up to 8,192 floats, one at a time and in
reading order, on the calling thread. A state (:class:`_State`) holds
the block and every array its steps write, 160 bytes a float, in one
anonymous memory map, and every step writes into it in place except the
last, which copies the block's text out for the file; so a write leaves
no freed heap that later allocations pin: block temporaries on the heap
raised the serve benchmark's peak RSS by 3.4 MB. One block and its text
are all that is in flight. What a write still adds to RSS once it
returns is about 0.7 MB of numpy's shared library, the pages of code
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
_BLOCK = 8192  # floats per block, at most

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
# the bytes repr writes, in order, and the separator, "," or a newline.
# Bytes 0-6 the head, which ends in the sign and, for a point at -3 .. 0,
# "0." and the zeros before the digits; 7-23 the 17 digits D0..D16 (copy
# A); 24 "."; 25-40 D1..D16 again (copy B); 41-44 the exponent, "e-05".
# The separator follows the kept bytes, so a positional float below 1 is
# one run of bytes; a float written by repr has its text in bytes 0-23 and
# its separator in byte 45.
_WIDTH, _DOT, _EXP, _SEP = 48, 24, 41, 45
# decimal point positions -9 .. 17 (|x| / 10**decpt in [0.1, 1)), and their exponents
_DECPTS = range(-9, 18)
_EXPONENTS = np.frombuffer("".join(f"e{d - 1:+03d}" for d in _DECPTS).encode("ascii"), dtype="V4")
# class id (neg * 17 + p - 1) * 27 + decpt + 9 for p digits; then 0.0, -0.0, repr
_ZERO = 2 * 17 * len(_DECPTS)
_FALLBACK = _ZERO + 2
_ZERO_DECPT = -1  # zero is laid out as "0.0" from the head of this point position


def _head(decpt: int) -> bytes:
    """Bytes 0-7 of the slot of a float whose point sits at ``decpt``,
    byte 7 left for D0."""
    if -3 <= decpt <= 0:  # "-0." and -decpt zeros, ending at byte 6
        return b"\0" * (4 + decpt) + b"-0." + b"0" * -decpt + b"\0"
    return b"\0" * 6 + b"-\0"


_HEADS = np.frombuffer(b"".join(_head(d) for d in _DECPTS), dtype="<i8")


def _layout(p: int, decpt: int) -> tuple[int, list[int]]:
    """The slot byte of the sign of a float of ``p`` digits and decimal
    point position ``decpt``, and the bytes of the rest of its text, by
    repr's rule, then of its separator: exponent form when the point sits
    at -4 or before, or past 16; else positional."""
    if decpt <= -4 or decpt > 16:  # D0[.D1...]e-05
        fraction = [_DOT, *range(_DOT + 1, _DOT + p)] if p > 1 else []
        return 6, [7, *fraction, *range(_EXP, _SEP + 1)]
    if decpt <= 0:  # "0.", -decpt zeros and the digits, from the head on
        return 4 + decpt, list(range(5 + decpt, 8 + p))
    # the integer digits from copy A, the point, the rest from copy B, at
    # least one: 120.0 keeps the zero after its last significant digit
    return 6, [*range(7, 7 + decpt), _DOT, *range(_DOT + decpt, _DOT + max(p, decpt + 1) + 1)]


def _class_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each class's mask row, as one ``_WIDTH``-byte item, and the slot
    byte of its separator."""
    masks = np.zeros((_FALLBACK + 1, _WIDTH), dtype=bool)
    seps = np.full(_FALLBACK + 1, _SEP)
    for neg in (0, 1):
        classes = [((neg * 17 + p - 1) * len(_DECPTS) + i, p, decpt)
                   for p in range(1, 18) for i, decpt in enumerate(_DECPTS)]
        # zero: "0." and the one zero of a point at -1, and no digits
        for cid, p, decpt in [*classes, (_ZERO + neg, 0, _ZERO_DECPT)]:
            sign, kept = _layout(p, decpt)
            masks[cid, [sign] * neg + kept] = True
            seps[cid] = kept[-1]
    masks[_FALLBACK, _SEP] = True
    return masks.view(f"V{_WIDTH}").ravel(), seps


_MASKS, _SEPS = _class_tables()


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


class _State:
    """A block of floats and every array that formats it, as views of one
    anonymous memory map of 160 bytes a float, unmapped when the last view
    is freed; a write builds one. Arrays whose uses do not overlap share
    bytes:

    ======  =====================================================
    bytes   arrays, in the order a block uses them
    ======  =====================================================
    0-7     ``block``, the floats
    8-23    ``out``: class id, decimal point position + 9
    24-31   ``base``, each slot's offset, set once
    32-63   ``wide`` (S and a temporary), then ``late`` (four floats
            of the rounding decision), then ``chunks``, then
            ``spare`` (heads, separator offsets)
    64-111  ``floats`` (|x|, later the unit; f; half, whose first
            half later holds ``zeros``; t) and the first half of
            ``ints``; then ``slots``
    112-159 the rest of ``ints``, ``flags`` and ``lead``, the lead
            digit; then ``digits`` and ``exps``; then ``mask``
    ======  =====================================================
    """

    def __init__(self, n: int):
        buf = mmap.mmap(-1, 160 * n)

        def at(offset, dtype, *shape):
            return np.frombuffer(buf, dtype, math.prod(shape), offset * n).reshape(shape)

        self.block = at(0, np.float64, n)
        self.out = at(8, np.int64, 2, n)
        self.base = at(24, np.int64, n)
        np.multiply(np.arange(n), _WIDTH, out=self.base)
        self.wide = at(32, np.longdouble, 2, n)
        self.late = at(32, np.float64, 4, n)
        self.chunks = at(32, np.intp, n, 4)
        self.spare = at(32, np.int64, 2, n)
        self.floats = at(64, np.float64, 4, n)
        self.zeros = at(80, np.uint8, n, 4)
        self.ints = at(96, np.int64, 4, n)
        self.flags = at(128, bool, 8, n)
        self.lead = at(136, np.int64, n)
        self.digits = at(112, "<u4", n, 4)
        self.exps = at(128, "V4", n)
        self.slots = at(64, np.uint8, n, _WIDTH)
        self.mask = at(112, bool, n, _WIDTH)

    def load(self, values) -> int:
        """Copy ``values``, a block of floats, into the state, pad them with
        zeros, and return their count."""
        got = len(values)
        self.block[:got] = values
        self.block[got:] = 0.0
        return got


def _classify(x: np.ndarray, st: _State):
    """Each float's class id, decimal point position + 9 and lead digit;
    its other 16 digits go to ``st.chunks``, four 4-digit numbers a row."""
    ax, f, half, t = st.floats
    unit = ax  # set once |x| is spent
    t100, t10, dist, near = st.late  # set once S is spent
    q, d, r, m = st.ints
    (cid, decpt), lead = st.out, st.lead
    neg, zero, fast, ok100, ok10, unsure, flag, carry = st.flags
    s, low = st.wide
    chunks, zeros = st.chunks, st.zeros
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
    np.copyto(decpt, _ZERO_DECPT - _DECPTS.start, where=zero)
    return cid, decpt, lead


def _format(st: _State, got: int, seps: np.ndarray) -> np.ndarray:
    """The text of the first ``got`` floats of the state's block, each
    followed by its separator in ``seps``."""
    cid, decpt, lead = _classify(st.block, st)
    slots, mask = st.slots, st.mask
    np.take(_DIGITS4, st.chunks, out=st.digits, mode="clip")
    heads, offsets = st.spare  # over the chunks, which are spent
    np.take(_EXPONENTS, decpt, out=st.exps, mode="clip")
    np.take(_HEADS, decpt, out=heads, mode="clip")
    np.left_shift(np.add(lead, 48, out=lead), 56, out=lead)
    np.bitwise_or(lead, heads, out=slots.view("<i8")[:, 0])
    slots[:, 8:_DOT].view("V16")[:, 0] = st.digits.view("V16")[:, 0]
    slots[:, _DOT] = ord(".")
    slots[:, _DOT + 1 : _EXP].view("V16")[:, 0] = st.digits.view("V16")[:, 0]
    slots[:, _EXP:_SEP].view("V4")[:, 0] = st.exps
    np.add(np.take(_SEPS, cid, out=offsets, mode="clip"), st.base, out=offsets)
    slots.reshape(-1)[offsets] = seps
    np.take(_MASKS, cid, out=mask.view(f"V{_WIDTH}").ravel(), mode="clip")
    # repr's text over the first bytes of the slot: at most 24, as in
    # "-2.2250738585072014e-308"
    fallback = np.flatnonzero(cid == _FALLBACK)
    if fallback.size:
        text = np.array([repr(v) for v in st.block[fallback].tolist()], dtype="S24")
        text = text.view(np.uint8).reshape(-1, 24)
        slots[fallback, :24] = text
        mask[fallback, :24] = text != 0
    # a boolean index copies out only the kept bytes; np.compress would
    # first list their indices, 8 bytes for each byte kept
    return slots[:got].reshape(-1)[mask[:got].reshape(-1)]


def _write_blocks(matrix: np.ndarray, fh):
    """Write the rows of a matrix of at least one column in blocks of
    floats in reading order, of equal length up to ``_BLOCK`` and the last
    padded with zeros, each formatted in one state and written in turn."""
    size, cols = matrix.size, matrix.shape[1]
    # the floats in reading order: a view, or an iterator that copies each slice taken
    values = matrix.reshape(-1) if matrix.flags.c_contiguous else matrix.flat
    # the fewest blocks of at most _BLOCK floats, all of one length
    n = -(-size // -(-size // _BLOCK))
    # the separator after the float in column j: a newline after the last column
    seps = np.full(n + cols, ord(","), dtype=np.uint8)
    seps[cols - 1 :: cols] = ord("\n")
    state = _State(n)
    for start in range(0, size, n):
        got = state.load(values[start : start + n])
        fh.write(_format(state, got, seps[start % cols : start % cols + n]))
