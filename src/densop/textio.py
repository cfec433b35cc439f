"""Text format of the tables and sample files densop writes.

Every value is printed as ``'%.17g' % x`` prints it: enough significant
digits that parsing the text recovers the exact double. Values in a row
are separated by ``,`` and each row ends in ``\\n``.

Rows are gathered from the columns, in blocks of about ``_BLOCK_VALUES``
values, into one buffer whose bytes are written in one call. Within a
block, numpy computes the text of most values exactly:

- Domain: finite x with 1e-6 < |x| < 1e15. The double 1e-6 lies below
  10**-6, so the strict bound keeps the decimal exponent e of the rounded
  value in [-6, 15] and k = 16 - e in [1, 22], where 10**k is an exact
  double.
- Digits: the 17 significant digits are the integer
  N = round-half-even(|x| * 10**k). Dekker's two-product gives the exact
  product as p + err. Every double p >= 2**53 is an even integer, so
  ``int64(p) + rint(err)`` rounds the exact product half to even, which
  is the rounding of CPython's correctly rounded dtoa. e starts as
  floor(log10|x|). If N falls outside [10**16, 10**17), e moves by one
  and N is computed again; a value still outside goes to ``%``.
- Text: fixed notation for e >= -4 and ``d.ddde-0X`` below, with trailing
  zeros and a bare point stripped. Each value owns a slot of ``_SLOT``
  bytes, six 8-byte words, holding every character it could print. A
  keep-mask looked up from (sign, e, digit count) zeroes the others, and
  ``bytes.translate`` deletes the zero bytes of the whole block. The
  sign is a half of the keep-mask table, so every slot starts with a
  ``-`` that only negative values keep.
- Stores: every slot gets the template's first word (sign, ``0.000``,
  d0 and its point) and its last word (``e-0X``, its separator and the
  padding); the last words, separators folded in, are built once per
  call. The four words of d1..d16 come from a table of 4-digit groups,
  and with d0 and the exponent byte they are written only for the values
  that have digits. Any other value's keep-mask zeroes them.
- Blocks: when every value of a block lies in the domain, as in most
  blocks of the density tables, digits, stores and keep-mask rows go
  through whole slices. Otherwise they go through the indices of the
  values in the domain. A zero keeps the template, printed as for e = 0
  and N = 0: ``0`` or ``-0``, so tables made mostly of zeros, such as
  fig2a's basis rows, cost little beyond their slots.

Every other value (subnormals, |x| <= 1e-6 or >= 1e15, nan and inf) is
formatted by ``'%-24.17g'`` in one bulk ``%`` per block, so ``%`` stays
the only definition of the format.

Sample and config files are opened by `open_text`, and `require_text`
names the file and the line of a byte in them that is not UTF-8 text.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
from itertools import chain, count

import numpy as np

_BLOCK_VALUES = 4096

# Slot of one value: sign, "0.000" for fixed notation below 1, the digits
# d0..d16 each followed by a point, "e-0X", the separator and 3 bytes of
# padding. d1..d16 and their points fill four 8-byte words, one per group
# of four digits.
_SIGN, _LEAD, _DIGITS, _EXP, _SEP, _SLOT = 0, 1, 6, 40, 44, 48
_WIDE = 24  # the longest %.17g text, as in -2.2250738585072014e-308
# The keep-mask table has two halves, for + and -, each with one row per
# decimal exponent in [-6, 15], and each row one mask per digit count
# 0..17 (0 unused): 792 masks in all.
_E_MIN, _E_MAX = -6, 15
# 10**k for 0 <= k <= 22, all exact doubles, and their Veltkamp halves.
_POW10 = np.array([10.0 ** k for k in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1
# U+DC80..U+DCFF: what the "surrogateescape" handler decodes each byte
# that is not UTF-8 text to. No UTF-8 text decodes to one.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _veltkamp(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# Digits before group j of d1..d16: the digit count of group j adds to it.
_GROUP_SHIFT = np.arange(0, 16, 4, dtype=np.int8)[:, None]


def _block_rows(ncols: int) -> int:
    return max(1, _BLOCK_VALUES // ncols)


@functools.cache
def _tables():
    """Slot template, keep-masks and the tables of 4-digit groups.

    Built on first use rather than on import, since they take about 2 ms.
    """
    template = np.zeros(_SLOT, dtype=np.uint8)
    template[_SIGN] = ord("-")
    template[_LEAD:_DIGITS] = np.frombuffer(b"0.000", dtype=np.uint8)
    template[_DIGITS] = ord("0")
    template[_DIGITS + 1:_EXP:2] = ord(".")
    template[_EXP:_SEP] = np.frombuffer(b"e-00", dtype=np.uint8)

    # The second half keeps the slot's "-".
    keep = np.zeros((2, _E_MAX - _E_MIN + 1, 18, _SLOT), dtype=np.uint8)
    keep[..., _SEP] = 1
    keep[1, ..., _SIGN] = 1
    digit = np.arange(17)
    ndig = np.arange(18)[:, None]
    for row, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        digits = keep[:, row, :, _DIGITS:_EXP:2]
        points = keep[:, row, :, _DIGITS + 1:_EXP:2]
        if e >= 0:
            # d0..de, then the point and the digits up to the last nonzero
            digits[:] = (digit <= e) | (digit < ndig)
            points[..., e] = ndig[:, 0] > e + 1
        elif e >= -4:
            # "0.", -e - 1 zeros and the digits up to the last nonzero
            keep[:, row, :, _LEAD:_LEAD + 1 - e] = 1
            digits[:] = digit < ndig
        else:
            digits[:] = digit < ndig
            points[..., 0] = ndig[:, 0] > 1
            keep[:, row, :, _EXP:_SEP] = 1

    # For each 4-digit group v: its digits, each followed by a point, as
    # one 8-byte word, and its digit count through the last nonzero one,
    # or -16 for v = 0 so that no group position can make it count.
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    text = np.full((10000, 8), ord("."), dtype=np.uint8)
    text[:, ::2] = digits + ord("0")
    through = np.where(digits.any(axis=1),
                       4 - np.argmax(digits[:, ::-1] != 0, axis=1), -16)
    tables = (template.view(np.uint64), keep.reshape(-1, _SLOT),
              text.view(np.uint64).ravel(), through.astype(np.int8))
    for table in tables:
        table.flags.writeable = False
    return tables


def _digits(ax, e):
    """N = round-half-even(ax * 10**(16 - e)) as int64, exactly."""
    k = 16 - e
    p = ax * _POW10.take(k)
    a_hi, a_lo = _veltkamp(ax)
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _slots(x, tails, tables):
    """One slot per value of x, with `tails` as its last word, and with
    every byte the value does not print set to 0."""
    template, keep, group_text, group_through = tables
    m = len(x)
    words = np.empty((m, _SLOT // 8), dtype=np.uint64)
    slots = words.view(np.uint8)
    # Words 1..4 are d1..d16 and their points: each live value writes its
    # own, and every other value's keep-mask zeroes them.
    words[:, 0] = template[0]
    words[:, 5] = tails
    # A zero prints from e = 0 and N = 0: the template's "0", or "-0".
    # Digits are computed only for the other values in the domain, through
    # slices when the whole block lies in it.
    ax = np.abs(x)
    inside = (ax > 1e-6) & (ax < 1e15)
    if inside.all():
        live = slice(None)
    else:
        live = np.flatnonzero(inside)
        ax = ax[live]
    e = np.clip(np.floor(np.log10(ax)), _E_MIN, _E_MAX).astype(np.int64)
    n = _digits(ax, e)
    off = (n < 10 ** 16).astype(np.int64) - (n >= 10 ** 17)
    moved = np.flatnonzero(off)
    if len(moved):
        e[moved] = np.clip(e[moved] - off[moved], _E_MIN, _E_MAX)
        n[moved] = _digits(ax[moved], e[moved])
        exact = (n >= 10 ** 16) & (n < 10 ** 17)
        if not exact.all():
            live = np.arange(m)[live][exact]
            e, n = e[exact], n[exact]

    # N = d0 * 10**16 + four groups of four digits, one row per group.
    # floor_divide by a constant into contiguous rows skips the hardware
    # division per value that divmod makes; remainders are multiply and
    # subtract.
    groups = np.empty((2, 2, len(n)), dtype=np.int64)
    high = n // 10 ** 8
    lead = high // 10 ** 8
    np.subtract(high, lead * 10 ** 8, out=groups[0, 1])
    np.subtract(n, high * 10 ** 8, out=groups[1, 1])
    np.floor_divide(groups[:, 1], 10 ** 4, out=groups[:, 0])
    groups[:, 1] -= groups[:, 0] * 10 ** 4
    groups = groups.reshape(4, -1)
    slots[live, _DIGITS] = lead + ord("0")
    words[live, 1:5] = group_text.take(groups).T
    slots[live, _SEP - 1] = ord("0") - e
    through = group_through.take(groups)
    through += _GROUP_SHIFT
    ndig = 1 + np.maximum(np.maximum(through[0], through[1]),
                          np.maximum(through[2], through[3])).clip(0)

    # Keep-mask row: sign, then e, then the digit count. A zero's is that
    # of e = 0 and N = 0.
    row = np.full(m, -_E_MIN * 18 + 1)
    e -= _E_MIN
    e *= 18
    e += ndig
    row[live] = e
    row += np.signbit(x) * (len(keep) // 2)
    text = keep.take(row, axis=0)
    slow = x != 0
    slow[live] = False
    slow = np.flatnonzero(slow)
    if len(slow):
        wide = ("%-24.17g" * len(slow)) % tuple(x[slow].tolist())
        wide = np.frombuffer(wide.encode("ascii"), dtype=np.uint8)
        slots[slow, :_WIDE] = wide.reshape(-1, _WIDE)
        text[slow, :_SEP] = 0
        text[slow, :_WIDE] = slots[slow, :_WIDE] != ord(" ")
    return np.multiply(slots, text, out=text)


def write_rows(fh, columns) -> None:
    """Write `columns`, 1-D or 2-D with one column per row, to binary `fh`."""
    groups = [np.atleast_2d(c) for c in columns]
    nrows, ncols = groups[0].shape[1], sum(map(len, groups))
    step = _block_rows(ncols)
    tables = _tables()
    # Word 5 of each slot: "e-00", the value's separator and the padding.
    tails = np.empty((min(nrows, step), ncols, 8), dtype=np.uint8)
    tails[:] = tables[0].view(np.uint8)[_EXP:]
    tails[..., _SEP - _EXP] = ord(",")
    tails[:, -1, _SEP - _EXP] = ord("\n")
    tails = tails.view(np.uint64).ravel()
    buffer = np.empty((min(nrows, step), ncols))  # one block, row-major
    for start in range(0, nrows, step):
        rows = buffer[:min(step, nrows - start)]
        np.concatenate([g[:, start:start + step] for g in groups], out=rows.T)
        text = _slots(rows.ravel(), tails[:rows.size], tables)
        fh.write(text.tobytes().translate(None, b"\0"))


def write_table(path, header, columns) -> None:
    """Write `columns` to `path` by `write_rows`, after a line of the names
    in `header` if it has any. A NaN or infinite value is refused before
    `path` is opened. A failed write then removes `path` if it is a
    regular file, empties the regular file it links to if it is a link,
    and leaves anything else alone; the write's error is raised even if
    that fails."""
    columns = [np.atleast_2d(c) for c in columns]
    for name, column in zip(header or count(), chain(*columns)):
        bad = np.count_nonzero(~np.isfinite(column))
        if bad:
            raise ValueError(f"cannot write {path}: column {name} holds "
                             f"{bad} NaN or infinite values")
    fh = open(path, "wb")
    try:
        with fh:
            if header:
                fh.write(f"{','.join(header)}\n".encode())
            write_rows(fh, columns)
    except BaseException:
        with contextlib.suppress(OSError):
            if os.path.isfile(path):
                if os.path.islink(path):
                    os.truncate(path, 0)
                else:
                    os.remove(path)
        raise


def open_text(path):
    """Open `path` to read as UTF-8 text. A byte that is not UTF-8 reads
    as a lone surrogate, which `require_text` finds; no valid line costs
    a check."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def require_text(path, text: str, lineno: int = 1) -> None:
    """Refuse `text`, read by `open_text` from line `lineno` of `path` on,
    if it holds a byte that is not UTF-8 text, naming the file and line."""
    match = _UNDECODED.search(text)
    if match:
        lineno += text.count("\n", 0, match.start())
        raise ValueError(
            f"{path}: line {lineno} holds bytes that are not UTF-8 text")
