"""The CLI's streamed table writer (CSV or JSON), with '%.15g' done in numpy.
The CLI imports it only in the commands that write a table."""
from __future__ import annotations

import functools
import json
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

BLOCK_ROWS = 8192  # rows per chunk: bounds the text held at once

# _format_15g writes a block of float64 values as exactly the bytes of
# '%.15g' % v, one NUL-padded row of _FIELD bytes per value. For |v| in
# [_FAST_MIN, _FAST_MAX] it finds X = floor(log10 |v|) and scales |v| by
# 10**(14 - X), held as a double-double, with Dekker's two-product. The scaled
# value is then known to about 1e-16, so rounding it gives the 15-digit
# mantissa M whenever its fraction lies more than _TIE_MARGIN from one half.
# Every other value (zero aside: non-finite, out of range, near a tie) goes
# through Python's own '%.15g', one value at a time.

_FIELD = 22  # the longest text: -1.23456789012345e-300
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # every scale, split and product stays a normal double
_TIE_MARGIN = 1e-9
_POW_MIN, _POW_MAX = -290, 300  # the power-of-ten table holds 10**k for k in this range
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
# A value's source row is eight uint32 words. Words 0-4 are M's 3-digit groups,
# each followed by a NUL; word 5 is the exponent: its sign, then three digits,
# the first NUL below 100; word 6 is the value's sign (NUL or '-'), '.', 'e',
# '0'; word 7 is NULs. Its bytes are:
_EXP, _SIGN, _DOT, _E, _ZERO, _NUL = 20, 24, 25, 26, 27, 28
_DIGITS = [i + i // 3 for i in range(15)]  # the source byte of M's i-th digit


def _layout(x: int | None, nd: int) -> list[int]:
    """The source bytes of the '%.15g' text of a value with nd significant digits
    and exponent x (None: exponent notation), NUL-padded to _FIELD bytes."""
    nd = max(nd, 1)  # zero: the one digit 0
    if x is None:
        body = _DIGITS[:1] + ([_DOT] + _DIGITS[1:nd] if nd > 1 else [])
        body += [_E, _EXP, _EXP + 1, _EXP + 2, _EXP + 3]
    elif x < 0:
        body = [_ZERO, _DOT] + [_ZERO] * (-x - 1) + _DIGITS[:nd]
    else:  # the integer part keeps its zeros
        body = _DIGITS[: x + 1] + ([_DOT] + _DIGITS[x + 1 : nd] if nd > x + 1 else [])
    return [_SIGN] + body + [_NUL] * (_FIELD - 1 - len(body))


def _words(*columns) -> np.ndarray:
    """uint32 words whose byte j is columns[j] (a code point; 0 is NUL)."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _tables() -> SimpleNamespace:
    """_format_15g's lookup tables, built on its first call; the powers of ten
    (hi, lo and hi's split hi1 + hi2) are filled in by _powers as blocks use them."""
    g = np.arange(1000)
    e = np.arange(-400, 400)
    return SimpleNamespace(
        **{name: np.zeros(_POW_MAX - _POW_MIN + 1) for name in ("hi", "lo", "hi1", "hi2")},
        groups=_words(48 + g // 100, 48 + g // 10 % 10, 48 + g % 10, 0),
        trailing=sum(g % 10**i == 0 for i in (1, 2, 3)),  # the zeros ending a group
        exps=_words(np.where(e < 0, 45, 43), np.where(abs(e) >= 100, 48 + abs(e) // 100, 0),
                    48 + abs(e) // 10 % 10, 48 + abs(e) % 10),
        signs=np.frombuffer(b"\0.e0-.e0", np.uint32),
        # row 16 * c + nd: class c is fixed notation at X = c - 4 (c < 19) or exponent notation
        layouts=np.array([_layout(c - 4 if c < 19 else None, nd)
                          for c in range(20) for nd in range(16)], np.intp).view(f"V{8 * _FIELD}").ravel(),
    )


def _powers(t: SimpleNamespace, index: np.ndarray) -> None:
    """Fill in 10**k as a double-double hi + lo, with hi's split hi1 + hi2, at
    the table positions k - _POW_MIN in index that t lacks (hi 0). Each term is
    rounded from exact integers (int / int rounds correctly)."""
    need = np.zeros(t.hi.size, bool)  # a mask: np.unique would load numpy.ma
    need[index] = True
    for i in np.flatnonzero(need & (t.hi == 0)).tolist():
        k = i + _POW_MIN
        n = 10 ** abs(k)
        if k >= 0:
            hi = float(n)
            lo = float(n - int(hi))
        else:
            num, den = (hi := 1 / n).as_integer_ratio()
            lo = (den - num * n) / (den * n)
        c = _SPLIT * hi
        hi1 = c - (c - hi)
        t.hi[i], t.lo[i], t.hi1[i], t.hi2[i] = hi, lo, hi1, hi - hi1


def _format_15g(values: np.ndarray) -> np.ndarray:
    """(n, _FIELD) uint8: row i is the bytes of '%.15g' % values[i], then NULs."""
    t = _tables()
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    # X = floor(log10 a): log10 can be one off next to a power of ten, so compare
    # with the doubles nearest to the powers. The one value that can still get
    # X one too large, the double nearest to 10**X when it lies below 10**X, has
    # 15 digits that round up to 10**X, which the scaling below finds too.
    x = np.floor(np.log10(a)).astype(np.intp) - _POW_MIN
    _powers(t, np.concatenate([x, x + 1]))
    x -= a < t.hi[x]
    x += a >= t.hi[x + 1]
    x += _POW_MIN
    # a * 10**(14 - X) = p + e: Dekker's two-product of a and hi, plus a * lo
    k = 14 - x - _POW_MIN
    _powers(t, k)
    p = a * t.hi[k]
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    h1, h2 = t.hi1[k], t.hi2[k]
    e = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * t.lo[k]
    floor = np.floor(p)
    fraction = (p - floor) + e  # within (-1/8, 9/8): p < 2**50, so its ulp is at most 1/8
    slow = (~fast & (v != 0)) | (np.abs(fraction - 0.5) < _TIE_MARGIN)
    m = np.where(fast, floor + (fraction > 0.5), 0.0)  # M < 2**53: every step below is exact
    carry = m == 1e15
    m[carry] = 1e14
    x = np.where(fast, x + carry, 0)
    src = np.zeros((n, 8), np.uint32)
    zeros, tail = np.zeros(n, np.intp), np.ones(n, bool)  # M's trailing zeros; tail: later groups are 0
    for word in range(4, -1, -1):
        q = np.floor(m / 1000.0)
        g = (m - 1000.0 * q).astype(np.intp)
        m = q
        src[:, word] = t.groups[g]
        zeros += tail * t.trailing[g]
        tail &= g == 0
    src[:, 5] = t.exps[x + 400]
    src[:, 6] = t.signs[np.signbit(v).view(np.uint8)]
    index = t.layouts[np.where((x >= -4) & (x < 15), x + 4, 19) * 16 + 15 - zeros]
    index = index.view(np.intp).reshape(n, _FIELD)
    index += np.arange(0, 32 * n, 32)[:, None]
    out = src.view(np.uint8).ravel().take(index)
    for i in np.flatnonzero(slow):
        text = b"%.15g" % v[i]
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def _csv_pieces(groups: Iterable[tuple]) -> Iterator[list]:
    """Batches of at most BLOCK_ROWS rows of (lead, x text, y) pieces: each
    group's rows in blocks of at most BLOCK_ROWS, with each distinct x array's
    blocks formatted once."""
    x_seen, batch, rows = None, [], 0
    for lead, x, y in groups:
        if x is not x_seen:
            x_seen, x_text = x, {}
        for lo in range(0, len(x), BLOCK_ROWS):
            if lo not in x_text:
                x_text[lo] = _format_15g(x[lo : lo + BLOCK_ROWS])
            piece = (lead, x_text[lo], y[lo : lo + BLOCK_ROWS])
            if rows + len(piece[1]) > BLOCK_ROWS:
                yield batch
                batch, rows = [], 0
            batch.append(piece)
            rows += len(piece[1])
    if batch:
        yield batch


def table_chunks(header: Sequence[str], groups: Iterable[tuple], fmt: str) -> Iterator[str]:
    """Text chunks of a table, one per block of at most BLOCK_ROWS of a group's
    rows. Each group (lead, x, y) gives the rows lead + (x[i], y[i]).

    CSV is '%.15g' per value, from _format_15g: each distinct x array once, and
    the leads and y of a batch of at most BLOCK_ROWS rows at once; a row is its
    fields' NUL-padded bytes with the separators, and each chunk drops the NULs
    with one bytes.translate. JSON is byte for byte one json.dumps of the whole
    document, streamed a block of rows at a time.
    """
    if fmt == "json":
        yield '{"columns": %s, "rows": [' % json.dumps(list(header))
        sep = ""
        for lead, x, y in groups:
            for lo in range(0, len(x), BLOCK_ROWS):
                xs, ys = x[lo : lo + BLOCK_ROWS], y[lo : lo + BLOCK_ROWS]
                block = np.column_stack([*(np.full(xs.size, v, float) for v in lead), xs, ys])
                yield sep + json.dumps(block.tolist())[1:-1]
                sep = ", "
        yield "]}\n"
        return
    yield ",".join(header) + "\n"
    width = (_FIELD + 1) * len(header)
    line = np.zeros((BLOCK_ROWS, len(header), _FIELD + 1), np.uint8)
    line[:, :, _FIELD] = ord(",")
    line[:, -1, _FIELD] = ord("\n")
    for batch in _csv_pieces(groups):
        sizes = [len(x_text) for _, x_text, _ in batch]
        n = sum(sizes)
        leads = _format_15g(np.array([lead for lead, _, _ in batch], float))
        line[:n, :-2, :_FIELD] = np.repeat(leads.reshape(len(batch), -1, _FIELD), sizes, axis=0)
        line[:n, -2, :_FIELD] = np.concatenate([x_text for _, x_text, _ in batch])
        line[:n, -1, :_FIELD] = _format_15g(np.concatenate([y for _, _, y in batch]))
        rows = line.reshape(BLOCK_ROWS, width)
        lo = 0
        for size in sizes:
            yield rows[lo : lo + size].tobytes().translate(None, b"\0").decode("ascii")
            lo += size
