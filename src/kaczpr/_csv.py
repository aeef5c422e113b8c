"""CSV tables, formatted a chunk of rows at a time with numpy alone.

Every float field is the text Python's ``repr`` gives the double: the
shortest decimal string that ``float()`` reads back to the same bits, laid
out as ``repr`` lays it out.  Every integer field is ``str`` of the integer.

The shortest digits come from a port of Ryū's ``d2d`` (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018) to numpy ``uint64`` arithmetic,
applied to all float columns of a pass at once.  Its 128-bit products are
emulated on 32-bit halves, and the digits its loop drops one at a time are
counted over whole arrays.  The layout then gives every field a fixed-width
block of bytes per row, fills the slots a value does not use with a sentinel
byte, and deletes the sentinels of the whole pass in one call.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# The most rows formatted in one pass, which sets the size of the writer's
# temporaries: about 1.2 MB for the 2 float columns of a trace.  A table is
# cut into passes of equal size, so that the 5,121 rows (40n + 1 at n = 128)
# of a default trace or aggregate take two.
_CHUNK_ROWS = 2561

# Fills the byte slots a field leaves unused; never part of the output.  It
# is 0, so that multiplying a block by a mask writes it.
_SENTINEL = 0
_NAN, _INF = (np.frombuffer(word, dtype=np.uint8) for word in (b"nan", b"inf"))

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_MANTISSA_BITS = 52
_BIAS = 1023
_POW5_BITS = 125  # bits of Ryū's normalized powers of five and their inverses

# 10**k for k = 0 .. 19, the powers a uint64 holds
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# repr switches to scientific notation when the decimal point, counted from
# the left of the digits, sits below -3 or above 16
_DECPT_MIN, _DECPT_MAX = -3, 16


class _Tables(NamedTuple):
    """Ryū's per-exponent constants, indexed by the biased binary exponent."""

    mul: np.ndarray  # (4, 2047) 32-bit limbs, low first, of the 128-bit multiplier
    shift: np.ndarray  # j - 64: the product is shifted right by j
    e10: np.ndarray  # decimal exponent of the scaled interval
    tz_mask: np.ndarray  # vr is "trailing zeros" when mv & tz_mask == 0
    pow5: np.ndarray  # 5**q where the trailing zeros are powers of five, else 0
    small_q: np.ndarray  # e2 < 0 and q <= 1: every bound has its trailing zeros


def _limbs(multiplier, powers) -> np.ndarray:
    """(4, len(powers)) 32-bit limbs, low first, of multiplier(p) for each power p of five,
    computed once per distinct power."""
    # a cache, not np.unique, whose sort code raised a run's peak resident size by 0.3 MB
    values = list(map(functools.cache(multiplier), powers.tolist()))
    return np.array([[(v >> (32 * limb)) & 0xFFFFFFFF for v in values] for limb in range(4)],
                    dtype=np.uint64)


def _bits(p):
    """Ryū's pow5bits: the bit length of 5**p."""
    return ((p * 1217359) >> 19) + 1


@functools.cache
def _tables() -> _Tables:
    """Build the tables once per process, on first use, from the powers of five."""
    biased = np.arange(2047)  # the biased exponents of finite doubles
    # two more bits than the mantissa, for the bounds of the interval
    e2 = np.maximum(biased, 1) - (_BIAS + _MANTISSA_BITS + 2)
    pos = e2 >= 0
    # Ryū's q: log10(2^e2), one less above e2 = 3, or log10(5^-e2), one less
    # below e2 = -1
    q = np.where(pos, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    power = np.where(pos, q, -e2 - q)  # of five, in the multiplier
    bits = _bits(power)
    shift = np.where(pos, q - e2 + bits - 1 + _POW5_BITS, q - bits + _POW5_BITS) - 64
    # for e2 >= 0, 2**(bits - 1 + 125) / 5**q rounded up; below, 5**power cut
    # to its leading 125 bits
    inverse = _limbs(lambda p: (1 << (_bits(p) - 1 + _POW5_BITS)) // 5**p + 1, power[pos])
    direct = _limbs(lambda p: 5**p >> max(_bits(p) - _POW5_BITS, 0) << max(_POW5_BITS - _bits(p), 0),
                    power[~pos])
    mul = np.empty((4, biased.size), dtype=np.uint64)
    mul[:, pos], mul[:, ~pos] = inverse, direct
    # vr's dropped digits are zeros where mv has q trailing zero bits (e2 < 0,
    # 1 < q < 63); the all-ones mask, which no mv > 0 passes, marks the rest
    tz_mask = np.full(biased.size, ~_U64(0))
    bounded = ~pos & (q > 1) & (q < 63)
    tz_mask[bounded] = (_U64(1) << q[bounded].astype(np.uint64)) - _U64(1)
    small_q = ~pos & (q <= 1)
    tz_mask[small_q] = 0
    pow5 = np.where(pos & (q <= 21), 5 ** np.minimum(q, 21), 0).astype(np.uint64)
    e10 = np.where(pos, q, q + e2)
    return _Tables(mul, shift.astype(np.uint64), e10, tz_mask, pow5, small_q)


def _umul128(a_lo, a_hi, b_lo, b_hi):
    """The high and low 64-bit halves of a * b, each factor given as 32-bit halves."""
    ll = a_lo * b_lo
    t = a_hi * b_lo + (ll >> 32)
    u = a_lo * b_hi + (t & _LOW32)
    hi = a_hi * b_hi + (t >> 32) + (u >> 32)
    return hi, (u << 32) | (ll & _LOW32)


def _shift_right(mid, hi, shift):
    """Bits 64 + shift .. 127 + shift of the 192-bit (hi, mid, lo), for 0 < shift < 64."""
    return (hi << (64 - shift)) | (mid >> shift)


def _scaled_interval(mv, mm_shift, mul, shift):
    """Ryū's vr, vp and vm: mv, mv + 2 and mv - 1 - mm_shift times the 128-bit
    multiplier `mul`, shifted right by 64 + shift, from the one product mv * mul."""
    mv_lo, mv_hi = mv & _LOW32, mv >> 32
    carry_in, lo = _umul128(mv_lo, mv_hi, mul[0], mul[1])
    hi, mid = _umul128(mv_lo, mv_hi, mul[2], mul[3])
    mid += carry_in
    hi += mid < carry_in
    vr = _shift_right(mid, hi, shift)
    # + 2 mul, where (twice1, twice0) is twice the multiplier, below 2**127
    once0, once1 = mul[0] | (mul[1] << 32), mul[2] | (mul[3] << 32)
    twice0, twice1 = once0 << 1, (once1 << 1) | (once0 >> 63)
    up = mid + twice1 + (lo > ~twice0)
    vp = _shift_right(up, hi + (up < mid), shift)
    # - (1 + mm_shift) mul
    low = np.where(mm_shift, twice0, once0)
    down = mid - np.where(mm_shift, twice1, once1) - (lo < low)
    vm = _shift_right(down, hi - (down > mid), shift)
    return vr, vp, vm


def _shortest(bits):
    """Ryū's d2d: the shortest digits and decimal exponent of each double.

    `bits` holds finite, nonzero doubles as uint64; the sign bit is ignored.
    Returns (digits, exponent) with value = digits * 10**exponent, where
    digits has no trailing zero.
    """
    t = _tables()
    biased = ((bits >> _MANTISSA_BITS) & 0x7FF).astype(np.intp)
    mantissa = bits & ((1 << _MANTISSA_BITS) - 1)
    m2 = mantissa | ((biased != 0).astype(np.uint64) << _MANTISSA_BITS)
    even = (m2 & 1) == 0  # ties to even: the interval includes its bounds
    # the lower bound is half as far where the mantissa is a power of two
    mm_shift = (mantissa != 0) | (biased <= 1)
    mv = m2 << 2
    vr, vp, vm = _scaled_interval(mv, mm_shift, np.take(t.mul, biased, axis=1),
                                  np.take(t.shift, biased))

    # Ryū's general case: which of the interval's scaled bounds are exact,
    # so that the digits they drop below are all zero
    vr_tz = (mv & t.tz_mask[biased]) == 0
    small = t.small_q[biased]
    vm_tz = small & even & mm_shift
    vp -= small & ~even
    (five,) = np.nonzero(t.pow5[biased])  # e2 >= 0 and q <= 21
    if five.size:
        p, mv5 = t.pow5[biased[five]], mv[five]
        mod5 = mv5 % 5 == 0
        vr_tz[five] = mod5 & (mv5 % p == 0)
        vm_tz[five] = ~mod5 & even[five] & ((mv5 - 1 - mm_shift[five]) % p == 0)
        vp[five] -= ~mod5 & ~even[five] & ((mv5 + 2) % p == 0)

    # Ryū drops one digit at a time while vp and vm differ above it.  As
    # floor division composes, the count is the number of powers of ten k
    # with vp // 10**k > vm // 10**k, which are the first ones: count them
    # over whole arrays while many values go on, then for the few left, all
    # powers at once
    removed = np.zeros(vr.shape, dtype=np.intp)
    above_p, above_m = vp // 10, vm // 10
    more = above_p > above_m
    while 32 * np.count_nonzero(more) > more.size:
        removed += more
        above_p //= 10
        above_m //= 10
        more = above_p > above_m
    (left,) = np.nonzero(more)
    if left.size:
        removed[left] += np.count_nonzero(
            above_p[left, None] // _POW10 > above_m[left, None] // _POW10, axis=1)
    # where the lower bound is exact and the digits it dropped were zeros,
    # Ryū goes on dropping while vm ends in a zero
    (exact,) = np.nonzero(vm_tz)
    if exact.size:
        scale = _POW10[removed[exact]]
        low = vm[exact] // scale
        vm_tz[exact] = zeros = low * scale == vm[exact]
        removed[exact[zeros]] += np.count_nonzero(low[zeros, None] % _POW10[1:] == 0, axis=1)
    # the last dropped digit, and whether the ones dropped before it were zeros
    dropped = removed > 0
    below = _POW10[np.maximum(removed - 1, 0)]
    top = vr // below
    vr_tz &= top * below == vr
    out = np.where(dropped, top // 10, vr)
    last = np.where(dropped, top - 10 * out, 0)
    tie = vr_tz & (last == 5) & ((out & 1) == 0)  # an exact half rounds to even
    low = vm // _POW10[removed]
    digits = out + (((out == low) & ~(even & vm_tz)) | ((last >= 5) & ~tie))
    return digits, t.e10[biased] + removed


def _digits(x, width: int, start=None):
    """ASCII digits of each x < 10**width, zero-padded to `width`, as a (width, n) array.

    The slots of a column left of its `start` hold the sentinel instead.
    """
    out = np.empty((width, len(x)), dtype=np.uint8)
    end = width
    stop = width - len(str(int(x.max(initial=0))))  # left of it, every digit is 0
    while end > stop:  # nine digits at a time, in uint32, whose division is cheaper
        size = min(end - stop, 9)
        if end - stop > 9:
            high = x // 10**9
            group = (x - high * 10**9).astype(np.uint32)
            x = high
        else:
            group = x.astype(np.uint32)
        for p in range(end - 1, end - size - 1, -1):
            q = group // 10
            np.subtract(group, q * 10, out=out[p], casting="unsafe")
            group = q
        end -= size
    out[:end] = 0
    out += ord("0")
    if start is not None:
        out *= np.arange(width)[:, None] >= start
    return out


def _length(x):
    """The number of decimal digits of each 0 < x < 10**19."""
    return np.searchsorted(_POW10, x, side="right")


def _row(where, char: str):
    """One slot per value: `char` where `where` holds, else the sentinel."""
    return (where * np.uint8(ord(char)))[None]


def _int_block(values):
    """(width, n) bytes of str(v) for an integer column."""
    neg = values < 0
    mag = np.where(neg, -(values + 1), values).astype(np.uint64) + neg
    width = len(str(int(mag.max(initial=0))))
    digits = _digits(mag, width, width - _length(np.maximum(mag, 1)))
    return np.concatenate([_row(neg, "-"), digits]) if neg.any() else digits


def _float_block(values):
    """(width, n) bytes of repr(v) for a float64 column."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    finite = np.isfinite(values)
    regular = finite & ((bits << 1) != 0)  # neither zero nor inf nor nan
    # 1.0 stands in for the others: one digit, exponent 0
    digits, exponent = _shortest(np.where(regular, bits, 0x3FF0000000000000))
    length = _length(digits)
    digits[~regular] = 0  # zeros print as 0.0, and the others are written over
    decpt = exponent + length
    sci = (decpt < _DECPT_MIN) | (decpt > _DECPT_MAX)
    # the text is [-]A[.B][e±XX]: A the integer part, B the fraction padded
    # to `frac` digits, whose last `kept` digits are those of the value
    kept = np.where(sci, length - 1, np.clip(length - decpt, 0, length))
    frac = np.where(sci, length - 1, np.maximum(length - decpt, 1))
    scale = _POW10[kept]
    whole = digits // scale
    part = digits - whole * scale
    whole *= _POW10[np.where(sci, 0, np.maximum(decpt - length, 0))]
    whole_len = np.where(sci, 1, np.maximum(decpt, 1))

    neg = ((bits >> 63) != 0) & ~np.isnan(values)
    blocks = [_row(neg, "-")] if neg.any() else []
    width = int(whole_len.max(initial=1))
    blocks.append(_digits(whole, width, width - whole_len))
    blocks.append(_row(frac > 0, "."))
    width = int(frac.max(initial=0))
    if width:
        blocks.append(_digits(part, width, width - frac))
    if sci.any():
        power = decpt - 1
        size = np.abs(power).astype(np.uint64)
        width = 3 if size.max() >= 100 else 2
        start = np.where(sci, np.where(size >= 100, width - 3, width - 2), width)
        blocks += [_row(sci, "e"), _row(sci & (power < 0), "-") | _row(sci & (power >= 0), "+"),
                   _digits(size, width, start)]
    block = np.concatenate(blocks)
    special = np.flatnonzero(~finite)
    if special.size:
        # nan, inf and -inf in place of their text, past the sign slot
        first = 1 if neg.any() else 0
        block[first:, special] = _SENTINEL
        block[first:first + 3, special] = np.where(np.isnan(values[special]), _NAN[:, None],
                                                   _INF[:, None])
    return block


def _chunk(lo: int, hi: int, columns) -> bytes:
    """The CSV lines of rows lo .. hi - 1."""
    rows = hi - lo
    cuts = [c if c is None else c[lo:hi] for c in columns]
    floats = [c for c in cuts if c is not None and c.dtype.kind == "f"]
    if floats:
        ends = np.cumsum([len(c) for c in floats])
        float_blocks = iter(np.split(_float_block(np.concatenate(floats)), ends[:-1], axis=1))
    comma = np.full((1, rows), ord(","), dtype=np.uint8)
    parts = [_int_block(np.arange(lo, hi, dtype=np.int64))]
    for c in cuts:
        parts.append(comma)
        if c is None:
            continue
        block = next(float_blocks) if c.dtype.kind == "f" else _int_block(c)
        if len(c) < rows:  # the column has ended: empty fields
            block = np.concatenate([block, np.full((len(block), rows - len(c)), _SENTINEL,
                                                   dtype=np.uint8)], axis=1)
        parts.append(block)
    parts.append(np.full((1, rows), ord("\n"), dtype=np.uint8))
    lines = np.concatenate(parts)
    return lines.T.tobytes().translate(None, bytes([_SENTINEL]))


def write_csv(path, header: str, columns) -> None:
    """Write `header`, then one line `i,c[i],...` per row i.

    The first column sets the row count; a longer column is cut, and a
    shorter one leaves its fields empty past its end.  A float column is
    written as the repr of its values, an integer column as their str, and
    a None column as empty fields.
    """
    rows = len(columns[0])
    passes = -(-rows // _CHUNK_ROWS)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for i in range(passes):
            fh.write(_chunk(i * rows // passes, (i + 1) * rows // passes, columns))
