"""The CLI's streamed table writer (CSV or JSON), with '%.15g' done in numpy.
The CLI imports it only in the commands that write a table."""
from __future__ import annotations

import functools
import json
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

BLOCK_ROWS = 8192  # rows per chunk: bounds the text held at once

# _format_15g writes float64 values as exactly the bytes of '%.15g' % v. For
# |v| in [_FAST_MIN, _FAST_MAX] it scales |v| by 10**(14 - X), X = floor(log10
# |v|), with Dekker's two-product and the power held as a double-double, so the
# scaled value is known to about 1e-16 and rounds to the 15-digit mantissa M
# wherever its fraction lies more than _TIE_MARGIN from one half. A scaled value
# below 1e14 or an M above 1e15 shows log10 one off next to a power of ten.
# Every other value (zero aside: non-finite, out of range, near a tie, X one
# off) goes through Python's own '%.15g', one value at a time.
_FIELD = 24  # bytes per value: its text, then NULs, and its separator in the last byte
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # every scale, split and product stays a normal double
_TIE_MARGIN = 1e-9
_POW_MIN, _POW_MAX = -290, 300  # the power-of-ten table holds 10**k for k in this range
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
# A field is three little-endian uint64 words: the head (the sign, and "0." and
# -1 - X zeros when -4 <= X < 0), the body (M's digits, trailing zeros as NULs,
# '.' put in at byte p if digits follow; no point after a head with one), and in
# exponent notation, after the 16 body bytes, 'e', the sign and the digits. The
# class tables hold, at 2 * (X + 300) plus the sign bit, the words of lm (the
# bytes below p) and of '.' at byte p, then the head, the body's shift in bits,
# 64 less that, and the exponent word.
_ZEROS = np.uint64(0x3030303030303030)  # '0' in every byte
_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)  # a field's last byte


def _class_row(x: int, sign: int) -> list[int]:
    """The class row of exponent x (-5 and 15 stand for exponent notation) and a sign bit."""
    neg = -4 <= x < 0
    p = 0 if neg else x + 1 if 0 <= x < 15 else 1
    lm, dot = (1 << 8 * p) - 1, 0 if neg else ord(".") << 8 * p
    head = b"-"[:sign] + (b"0." + b"0" * (-x - 1) if neg else b"")
    shift = 8 * (len(head) - neg)  # a body without a point starts with a NUL
    halves = [w >> s & (2**64 - 1) for w in (lm, dot) for s in (0, 64)]
    return halves + [int.from_bytes(head, "little"), shift, 64 - shift]


@functools.cache
def _tables() -> SimpleNamespace:
    """_format_15g's lookup tables, built on its first call."""
    d = np.arange(10, dtype=np.uint32)
    pairs = (0x3030 + d[:, None] + (d << 8)).ravel()
    groups = (pairs[:, None] + (pairs << 16)).ravel()  # groups[g]: g's four digits, the first lowest
    stripped = groups  # groups[10000 + g]: the same with the zeros that end g as NULs
    for i in (3, 2, 1, 0):
        stripped = stripped - (stripped >> np.uint32(8 * i) == 0x30) * np.uint32(0x30 << 8 * i)
    k = np.arange(-300, 300)  # every X a value can have, and its exponent word: 'e', sign, digits
    sign = np.where(k < 0, ord("-"), ord("+")).astype(np.uint64)
    digits = (groups[abs(k)] >> np.where(abs(k) < 100, 16, 8)).astype(np.uint64)  # the last two or three
    exp = (ord("e") + (sign << 8) + (digits << 16)) * ((k < -4) | (k >= 15))  # exponent notation only
    classes = np.array([_class_row(c, s) for c in range(-5, 16) for s in (0, 1)], np.uint64)
    rows = np.column_stack([classes[np.clip(k.repeat(2) + 5, 0, 20) * 2 + np.arange(2 * k.size) % 2],
                            exp.repeat(2) << np.tile(np.uint64([0, 8]), k.size)])  # after a '-', one up
    powers = []  # 10**k as hi + lo (int / int of exact integers rounds correctly), hi as hi1 + hi2
    for k in range(_POW_MIN, _POW_MAX + 1):
        top, bottom = (10**k, 1) if k >= 0 else (1, 10**-k)
        num, den = (hi := top / bottom).as_integer_ratio()
        hi1 = _SPLIT * hi - (_SPLIT * hi - hi)
        powers.append((hi, (top * den - num * bottom) / (bottom * den), hi1, hi - hi1))
    return SimpleNamespace(
        powers=np.array(powers).view("V32").ravel(),
        groups=np.concatenate([groups, stripped]),
        body=np.ascontiguousarray(rows[:, :4]).view("V32").ravel(),
        ends=np.ascontiguousarray(rows[:, 4:]).view("V32").ravel(),
    )


def _columns(table: np.ndarray, index: np.ndarray, dtype=np.uint64) -> np.ndarray:
    """The four columns of the 32-byte table rows at index (one take of whole rows)."""
    return table.take(index).view(dtype).reshape(-1, 4).T


def _format_15g(values: np.ndarray, ends) -> np.ndarray:
    """(n,) fields of _FIELD bytes: field i is the bytes of '%.15g' % values[i], then
    NULs, with ends (_COMMA or _NEWLINE, or an array of them) in the last byte."""
    t = _tables()
    v = np.asarray(values, dtype=float).ravel()
    size = np.abs(v)
    a = np.fmax(np.fmin(size, _FAST_MAX), _FAST_MIN)  # NaN goes to _FAST_MAX
    x = np.floor(np.log10(a)).astype(np.intp)
    hi, lo, h1, h2 = _columns(t.powers, 14 - _POW_MIN - x, float)
    # a * 10**(14 - X) = p + e: Dekker's two-product of a and hi, plus a * lo
    p = a * hi
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    e = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo
    floor = np.floor(p)
    fraction = (p - floor) + e  # within (-1/8, 9/8) for floor < 2**50, which M needs
    m = floor + (fraction > 0.5)
    fast = (a == size) & (floor >= 1e14) & (m <= 1e15)
    slow = ~fast & (v != 0) | (np.abs(fraction - 0.5) < _TIE_MARGIN)
    m *= fast  # zero (and, until it is overwritten, every slow value): no digits at X = 0, "0"
    carry = m == 1e15  # M < 2**53: every step below is exact
    m[carry] = 1e14
    x = x * fast + carry
    # M's digits in four groups: the first eight as 4 + 4, the last seven as 3 + 4; a
    # group whose later groups are all 0 takes its entry with the zeros that end it as NULs
    g = np.empty((4, v.size))
    g[1] = np.floor(m / 1e7)  # for now, the first eight digits and then the last seven
    g[3] = m - 1e7 * g[1]
    np.floor(g[1::2] / 1e4, out=g[::2])
    g[1::2] -= 1e4 * g[::2]
    ending = g[1:] == 0
    ending[1] &= ending[2]
    ending[0] &= ending[1]
    g[:3] += 1e4 * ending
    g[3] += 1e4
    g = t.groups.take(g.astype(np.intp)).astype(np.uint64)
    d1 = g[0] | g[1] << np.uint64(32)
    d2 = g[2] >> np.uint64(8) | g[3] << np.uint64(24)
    row = (x + 300) * 2 + np.signbit(v)
    lm1, lm2, dot1, dot2 = _columns(t.body, row)
    head, shift, back, exp = _columns(t.ends, row)
    # the bytes from p on move up one for the point; the integer digits below p show their zeros
    up1, up2 = d1 & ~lm1, d2 & ~lm2
    point = (up1 | up2) != 0
    b1 = (d1 | _ZEROS) & lm1 | up1 << np.uint64(8) | dot1 * point
    b2 = (d2 | _ZEROS) & lm2 | up2 << np.uint64(8) | up1 >> np.uint64(56) | dot2 * point
    out = np.stack([head | b1 << shift, b1 >> back | b2 << shift, b2 >> back | exp], axis=1)
    for i in np.flatnonzero(slow).tolist():
        out[i] = np.frombuffer((b"%.15g" % v[i]).ljust(_FIELD, b"\0"), np.uint64)
    out[:, 2] |= ends
    return out.view(f"V{_FIELD}").ravel()


def _csv_pieces(groups: Iterable[tuple]) -> Iterator[list]:
    """Batches of at most BLOCK_ROWS rows of (lead, x fields, y) pieces: each group's rows
    in blocks of at most BLOCK_ROWS, each distinct x array's blocks formatted once."""
    x_seen, batch, rows = None, [], 0
    for lead, x, y in groups:
        if x is not x_seen:
            x_seen, x_text = x, {}
        for lo in range(0, len(x), BLOCK_ROWS):
            if lo not in x_text:
                x_text[lo] = _format_15g(x[lo : lo + BLOCK_ROWS], _COMMA)
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
    the leads and y of a batch of at most BLOCK_ROWS rows in one call. A row is
    its fields, separators included, in a row buffer; each chunk drops the NULs
    with one bytes.translate. JSON is byte for byte one json.dumps of the whole
    document, streamed a block of rows at a time."""
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
    line = np.zeros((BLOCK_ROWS, len(header)), f"V{_FIELD}")
    rows = line.view(np.uint8).reshape(BLOCK_ROWS, -1)
    for batch in _csv_pieces(groups):
        sizes = [len(x_text) for _, x_text, _ in batch]
        n, leads = sum(sizes), [v for lead, _, _ in batch for v in lead]
        values = np.concatenate([leads, *(y for _, _, y in batch)])
        fields = _format_15g(values, np.repeat([_COMMA, _NEWLINE], [len(leads), n]))
        line[:n, :-2] = np.repeat(fields[: len(leads)].reshape(len(batch), -1), sizes, axis=0)
        np.concatenate([x_text for _, x_text, _ in batch], out=line[:n, -2])
        line[:n, -1] = fields[len(leads) :]
        for end, size in zip(np.cumsum(sizes).tolist(), sizes):
            yield rows[end - size : end].tobytes().translate(None, b"\0").decode("ascii")
