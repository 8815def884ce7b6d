"""Exact ``'%.17g' % x`` for whole float64 tables, in numpy passes.

For a normal ``x`` with ``|x| < 1e17`` and ``k = floor(log10 |x|)``, the
17 significant digits of ``'%.17g'`` are ``D = round_half_even(|x| 10^p)``
with ``p = 16 - k``, in ``[10^16, 10^17)``.  ``|x| 10^p = m 5^p`` with
``m = ldexp(|x|, p)``, which is exact, and Dekker's error-free product
(Veltkamp's split; Dekker 1971, *Numer. Math.* 18) gives
``m 5^p = h + err`` with ``h`` the rounded product and ``err`` exact.
``h`` lies in ``[10^16, 10^17]``, above ``2^53``, so it is an even
integer, and ``D = h + rint(err)`` rounds ties to even as dtoa does (Gay
1990).  That is exact for ``p <= 22``, where ``5^p`` is a double.
Beyond, ``5^p`` is a double-double ``hi + lo`` and ``err`` carries
``m lo`` and a rounding error below ``1e-14``, so a product within
``1e-9`` of a midpoint is left undecided.  ``log10`` can misjudge the
decade of a double next to a power of ten; a product or a ``D`` outside
``[10^16, 10^17)`` shows it, and such a cell is left undecided too, as
are the few doubles whose 17 digits round up to a power of ten, all of
which lie just below one.

The digits of ``D`` come four at a time from a lookup table and are laid
out by ``%g``'s rules: fixed notation for a decimal exponent ``X`` with
``-4 <= X < 17``, else ``d.ddd...e-XX`` (``X < -4``, as ``|x| < 1e17``)
with at least two exponent digits; trailing zeros are stripped, and the
point with them when no fraction is left.  Each cell owns one row of a
byte array, with a column for every character it could hold (zero bytes
where it holds none) and its trailer last, so a chunk's text is the row
bytes with the zeros removed.  Zeros print as ``0`` and ``-0``, written
apart from the digit arithmetic in a chunk that is a quarter zeros or
more (the imaginary halves of a real matrix), and NaN cells as nothing.
The cells the kernel does not decide (``|x| >= 1e17``, subnormals, a
misjudged decade, a near-midpoint product) are formatted by ``'%.17g'``
one by one into their rows.
"""

from __future__ import annotations

import functools

import numpy as np

# cells formatted per pass: large enough to amortize numpy's per-call cost,
# small enough that a pass's arrays stay near 1 MB
CHUNK_CELLS = 4096

_TIE_MARGIN = 1e-9  # in units of the last digit; covers err's rounding below 1e-14
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_SMALLEST_NORMAL = 2.2250738585072014e-308
_MAX_P = 324  # 16 - floor(log10(smallest normal))

# columns of a cell's row: sign, "0.000" lead, d0 (dot d1) ... (dot d16),
# "e-" and three exponent digits, then the trailer
_LEAD = slice(1, 6)
_DIGITS = slice(6, 39, 2)
_DOTS = slice(7, 39, 2)
_EXP = slice(39, 44)
_CONTENT = 44


@functools.cache
def _tables() -> dict:
    """Read-only lookup tables, built with numpy on first use (under 1 ms)."""
    exact = [1]
    for _ in range(_MAX_P):
        exact.append(exact[-1] * 5)
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    c = hi * _SPLIT
    hi_hi = c - (c - hi)

    # for each group 0..9999: its four ASCII digits, most significant
    # first, read as one uint32; zeros[j][g]: the count of trailing zero
    # digits of g, times 125, 25, 5 or 1 for the group in place j
    d = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)
    quads = np.ascontiguousarray((d + 48).T).view(np.uint32).ravel()
    nil = d == 0
    zeros = nil[3] * (1 + nil[2] * (1 + nil[1] * (1 + nil[0].astype(np.int64))))
    zeros = zeros * np.array([125, 25, 5, 1])[:, None]
    # trailing zeros of four groups from their counts z0..z3, keyed by
    # 125 z0 + 25 z1 + 5 z2 + z3: z3, and the next group's on while all are zero
    z = np.indices((5, 5, 5, 5)).reshape(4, -1)
    trailing = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))

    # row -X: "0." and -X-1 zeros before the digits of a fixed X = -1 .. -4,
    # and "e-" and at least two digits of -X after those of X < -4
    e = np.arange(400)
    affix = np.zeros((400, 10), dtype=np.uint8)
    for x in range(1, 5):
        affix[x, : x + 1] = np.frombuffer(b"0." + b"0" * (x - 1), dtype=np.uint8)
    affix[5:, 5] = ord("e")
    affix[5:, 6] = ord("-")
    affix[100:, 7] = 48 + e[100:] // 100
    affix[5:, 8] = 48 + e[5:] // 10 % 10
    affix[5:, 9] = 48 + e[5:] % 10

    # keep[L]: digits 0 .. L are written; dots[17 c + L]: the point after
    # digit X for c = X + 5 >= 5 (fixed, X >= 0) and after d0 for c = 0
    # (X < -4), where a digit follows it (L > X, L > 0); none for c = 1 .. 4
    keep = np.tri(17, dtype=np.uint8)
    col = np.arange(16)
    after = np.r_[0, np.full(4, 99), np.arange(17)]
    dots = ((col == after[:, None, None]) & (col < np.arange(17)[:, None])) * np.uint8(ord("."))
    tables = {
        "hi": hi, "lo": lo, "hi_hi": hi_hi, "hi_lo": hi - hi_hi, "quads": quads,
        "zeros": zeros, "trailing": trailing, "affix": affix, "keep": keep,
        "dots": dots.reshape(-1, 16).astype(np.uint8),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(D, X, decided)`` for a 1-D float64 array: the 17 significant
    digits ``D`` of ``'%.17g' % x`` as an int64 in ``[10^16, 10^17)`` and
    its decimal exponent ``X``, where ``decided``; ``D = X = 0`` elsewhere,
    which is the text of a zero."""
    t = _tables()
    a = np.abs(x)
    decided = (a >= _SMALLEST_NORMAL) & (a < 1e17)  # False for 0 and NaN
    safe = np.where(decided, a, 1.0)
    # floor(log10 a) can round up to the next decade just below a power of
    # ten (to 17 below 1e17, where p = 0 takes the decade below); the range
    # tests on the product and the digits catch every misjudged decade
    p = np.maximum(16 - np.floor(np.log10(safe)).astype(np.int64), 0)
    m = np.ldexp(safe, p)
    prod = m * t["hi"][p]
    c = m * _SPLIT
    m_hi = c - (c - m)
    m_lo = m - m_hi
    b_hi, b_lo = t["hi_hi"][p], t["hi_lo"][p]
    err = ((m_hi * b_hi - prod) + m_hi * b_lo + m_lo * b_hi) + m_lo * b_lo
    err += m * t["lo"][p]
    r = np.rint(err)
    decided &= (p <= 22) | (np.abs(err - r) < 0.5 - _TIE_MARGIN)
    # a product below 10^16, which can round up to it: the decade is too high
    decided &= (prod - 1e16) + err >= 0.0
    digits = prod.astype(np.int64) + r.astype(np.int64)
    decided &= digits < 10**17
    digits[~decided] = 0
    p[~decided] = 16
    return digits, 16 - p, decided


def _cells(x: np.ndarray, trailers: np.ndarray) -> bytes:
    """The text of a ``(rows, cols)`` block, each cell followed by the
    zero-padded trailer of its column (``trailers``, ``(cols, t)`` uint8)."""
    rows, cols = x.shape
    x = x.reshape(-1)
    out = np.zeros((x.size, _CONTENT + trailers.shape[1]), dtype=np.uint8)
    out.reshape(rows, cols, -1)[:, :, _CONTENT:] = trailers
    live = x != 0.0  # NaN too
    count = np.count_nonzero(live)
    # a zero is its sign and "0"; where at least a quarter of the cells are
    # zeros (the imaginary halves of a real matrix), only the others get
    # digits, and picking them out costs less than the digits it saves
    if 4 * count > 3 * x.size:
        _write(x, out)
    else:
        out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
        out[:, _DIGITS.start] = ord("0")
        some = np.empty((count, _CONTENT), dtype=np.uint8)
        _write(x[live], some)
        out[live, :_CONTENT] = some
    return out.tobytes().translate(None, b"\0")


def _write(x: np.ndarray, out: np.ndarray) -> None:
    """Write the text of the cells ``x`` into the first :data:`_CONTENT`
    columns of ``out``'s rows, zero-padded."""
    digits, k, decided = _digits(x)
    t = _tables()

    # the 17 digits: d0, then four groups of four
    first, rest = np.divmod(digits, 10**16)
    halves = np.empty((x.size, 2), dtype=np.int64)
    np.divmod(rest, 10**8, out=(halves[:, 0], halves[:, 1]))
    groups = np.empty((x.size, 4), dtype=np.int64)
    np.divmod(halves, 10000, out=(groups[:, 0::2], groups[:, 1::2]))
    text = np.empty((x.size, 17), dtype=np.uint8)
    text[:, 0] = first + 48
    text[:, 1:] = t["quads"][groups].view(np.uint8)
    # the last digit written: the last significant one, or the units digit
    z = t["zeros"]
    key = z[0][groups[:, 0]] + z[1][groups[:, 1]] + z[2][groups[:, 2]] + z[3][groups[:, 3]]
    trailing = t["trailing"][key]
    last = np.maximum(16 - trailing, k)

    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    out[:, _DIGITS] = text * t["keep"][last]
    out[:, _DOTS] = t["dots"][(np.maximum(k, -5) + 5) * 17 + last]
    affix = t["affix"][np.maximum(-k, 0)]
    out[:, _LEAD] = affix[:, :5]
    out[:, _EXP] = affix[:, 5:]
    for i in np.flatnonzero(~decided & (x != 0.0)).tolist():
        out[i, :_CONTENT] = 0
        if x[i] == x[i]:  # NaN cells stay empty
            cell = b"%.17g" % x[i]
            out[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)


def format_rows(table: np.ndarray, head: str, tail: str, sep: str, out: list[str]) -> None:
    """Append to ``out`` the rows of a 2-D float64 ``table``, each written
    ``head + ",".join(cells) + tail`` with ``'%.17g'`` cells and the rows
    joined by ``sep``, in chunks of about :data:`CHUNK_CELLS` cells; NaN
    cells are left empty."""
    rows, cols = table.shape
    # a comma after each cell but the last of a row, which the next row's
    # start follows; the table's last cell is followed by the tail alone
    end = (tail + sep + head).encode()
    trailers = np.zeros((cols, max(1, len(end))), dtype=np.uint8)
    trailers[:-1, 0] = ord(",")
    trailers[-1, : len(end)] = np.frombuffer(end, dtype=np.uint8)
    step = max(1, CHUNK_CELLS // cols)
    out.append(head)
    for start in range(0, rows, step):
        text = _cells(table[start : start + step], trailers).decode("ascii")
        if start + step >= rows and (sep or head):
            text = text[: -len(sep + head)]
        out.append(text)
