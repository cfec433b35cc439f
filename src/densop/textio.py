"""Text format of the tables and sample files densop writes.

Every value is printed as ``'%.17g' % x`` prints it: enough significant
digits that parsing the text recovers the exact double. Values in a row
are separated by ``,`` and each row ends in ``\\n``.

Rows are gathered from the columns, in blocks of about ``_BLOCK_VALUES``
values, into one buffer whose bytes are written in one call. Within a
block, numpy computes the text of most values exactly:

- Domain: finite x with 1e-99 < |x| < 1e15, so the decimal exponent e of
  the rounded value lies in [-99, 15] and k = 16 - e in [1, 115].
- Digits: the 17 significant digits are the integer
  N = round-half-even(|x| * 10**k). Dekker's two-product gives
  |x| * ``_POW10[k]`` exactly as p + r. Every double p >= 2**53 is an even
  integer, so N = ``int64(p) + rint(r)``. For k <= 22, 10**k is an exact
  double and this is the rounding of CPython's correctly rounded dtoa.
  For k > 22, 10**k is the double-double ``_POW10[k] + _POW10_TAIL[k]``,
  and r also takes |x| * ``_POW10_TAIL[k]``; it is then within about
  2**-46 of the exact residual. Only a block that holds such a k adds the
  tails.
- Guard: where 10**k is inexact, a value whose r - rint(r) lies within
  ``_GUARD`` = 2**-20 of 1/2, a near tie, goes to ``%``.
- Exponent: e is floor(log10|x|), estimated once, and N is computed once.
  A value whose N falls outside [10**16, 10**17) goes to ``%``: it lies
  within an ulp or so of a power of ten, or its 17 digits round up to
  10**17. So does a value with N = 10**16 whose product lies below
  10**16 by more than the guard, such as the double 1e-6, which lies
  below 10**-6 and prints as 9.9999999999999995e-07. A product below
  10**16 by less than the guard keeps N = 10**16, since one decade down
  ten times it rounds up to 10**17 and prints the same.
- Text: fixed notation for e >= -4 and ``d.ddde-XX`` below, with
  trailing zeros and a bare point stripped. Each value owns a slot of
  ``_SLOT`` = 32 bytes, four 8-byte words: the sign, ``0.000``, d0 and its
  point; d1..d16, from a table of 4-digit groups; ``e-XX`` with its two
  digits from a table of 100, the separator and padding. For e >= 1,
  d1..de move down one byte, over the point, and the point follows de:
  shifts and masks of the first three words, from a table of one row per
  e, row 0 serving e <= 0 and keeping the words. A keep-mask looked up
  from (sign, e, digit count), one row for every e <= -5, zeroes the
  bytes the value does not print, and ``bytes.translate`` deletes the
  zero bytes of the whole block. The sign is a half of the keep-mask
  table, so every slot starts with a ``-`` that only negative values
  keep.
- Stores: the last words, ``e-00`` with the separators folded in, are
  built once per call. The first three words of the values with digits
  are built in contiguous rows, moved there, and stored once; every
  other value gets the template's first word, and its keep-mask zeroes
  the rest.
- Blocks: when every value of a block lies in the domain, as in most
  blocks of the density tables, the stores and keep-mask rows go through
  whole slices. Otherwise they go through the indices of the values in
  the domain. A zero keeps the template, printed as for e = 0 and N = 0:
  ``0`` or ``-0``, so tables made mostly of zeros, such as fig2a's basis
  rows, cost little beyond their slots.

Every other value (subnormals, |x| <= 1e-99 or >= 1e15, nan and inf) is
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
import stat
from itertools import chain, count

import numpy as np

_BLOCK_VALUES = 4096

# Slot of one value: sign, "0.000" for fixed notation below 1, d0, its
# point, d1..d16, "e-XX", the separator and 3 bytes of padding.
_SIGN, _LEAD, _DIGITS, _EXP, _SEP, _SLOT = 0, 1, 6, 24, 28, 32
_WIDE = 24  # the longest %.17g text, as in -2.2250738585072014e-308
# Decimal exponents of the domain. The keep-mask table has two halves, for
# + and -, each with one row per e in [-5, 15], the row of e = -5 serving
# every e <= -5, and each row one mask per digit count 0..17 (0 unused).
_E_MIN, _E_SCI, _E_MAX = -99, -5, 15
# 10**k for 0 <= k <= 116 as the double-double _POW10 + _POW10_TAIL; the
# tail is 0 for k <= 22, where 10**k is an exact double. k = 116 serves an
# estimate of e one below the domain, whose value then goes to %.
_POW10 = np.array([float(10 ** k) for k in range(16 - _E_MIN + 2)])
_POW10_TAIL = np.array([float(10 ** k - int(p)) for k, p in enumerate(_POW10)])
_EXACT_K = 22
_SPLIT = 134217729.0  # 2**27 + 1
_GUARD = 2.0 ** -20
# U+DC80..U+DCFF: what the "surrogateescape" handler decodes each byte
# that is not UTF-8 text to. No UTF-8 text decodes to one.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _veltkamp(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


# Rows for `_digits`: 10**k, its Veltkamp halves and its tail.
_POW10_PARTS = np.stack([_POW10, *_veltkamp(_POW10), _POW10_TAIL])
# Digits before group j of d1..d16: the digit count of group j adds to it.
_GROUP_SHIFT = np.arange(0, 16, 4, dtype=np.int8)[:, None]


def _block_rows(ncols: int) -> int:
    return max(1, _BLOCK_VALUES // ncols)


def _ascii(width: int, dtype):
    """The decimal digits of 0 .. 10**width - 1, most significant first,
    and their text, each value's read as one `dtype`."""
    digits = np.indices((10,) * width).reshape(width, -1)
    text = (digits.T + ord("0")).astype(np.uint8, order="C")
    return digits, text.view(dtype).ravel()


@functools.cache
def _tables():
    """Slot template, keep-masks, the move for each e >= 1 and the tables
    of 4-digit groups and 2-digit exponents.

    Built on first use rather than on import, since they take about 1 ms.
    """
    template = np.frombuffer(b"-0.0000.", dtype=np.uint64)

    # The second half keeps the slot's "-". Bytes _DIGITS + i of a value
    # with e >= 0 hold d0..de for i <= e, then the point and d(e+1).. .
    keep = np.zeros((2, _E_MAX - _E_SCI + 1, 18, _SLOT), dtype=np.uint8)
    keep[..., _SEP] = 1
    keep[1, ..., _SIGN] = 1
    ndig = np.arange(18)[:, None]
    for row, e in enumerate(range(_E_SCI, _E_MAX + 1)):
        # d0..de, or through the point to the last nonzero digit
        point = max(e, 0) + 1
        last = np.where(ndig > point, ndig, point - 1)
        keep[:, row, :, _DIGITS:_EXP] = np.arange(_EXP - _DIGITS) <= last
        if e == _E_SCI:
            keep[:, row, :, _EXP:_SEP] = 1
        elif e < 0:
            # "0." and -e - 1 zeros, then the digits without their point
            keep[:, row, :, _LEAD:_LEAD + 1 - e] = 1
            keep[:, row, :, _DIGITS + 1] = 0

    # Row e of the move, for words 0..2: the bytes that stay, the bytes
    # that take the byte above (d1..de) and the point after de. Row 0
    # keeps every byte.
    move = np.zeros((16, 3, _EXP), dtype=np.uint8)
    move[0, 0] = 0xFF
    for e in range(1, 16):
        stay, above, point = move[e]
        stay[:] = 0xFF
        stay[_DIGITS + 1:_DIGITS + 2 + e] = 0
        above[_DIGITS + 1:_DIGITS + 1 + e] = 0xFF
        point[_DIGITS + 1 + e] = ord(".")
    # For each 4-digit group v: its text as the low and as the high half of
    # a word, and its digit count through the last nonzero one, or -12 for
    # v = 0, so that a zero group counts for no digit at any position.
    digits, text = _ascii(4, np.uint32)
    text = text.astype(np.uint64)
    through = np.where(digits.any(axis=0),
                       4 - np.argmax(digits[::-1] != 0, axis=0), -12)
    tables = (template, keep.reshape(-1, _SLOT),
              move.view(np.uint64).transpose(2, 1, 0).reshape(9, 16),
              np.stack([text, text << 32]), through.astype(np.int8),
              _ascii(2, np.uint16)[1])
    for table in tables:
        table.flags.writeable = False
    return tables


def _digits(ax, e, tail):
    """N = round-half-even(ax * 10**(16 - e)) as int64, and the residual
    ax * 10**(16 - e) - N: exact where 10**(16 - e) is an exact double,
    within about 2**-46 elsewhere when `tail` adds its tail."""
    # Dekker's two-product, in place where an operand is not needed again
    parts = _POW10_PARTS.take(16 - e, axis=1)
    p = ax * parts[0]
    a_hi, a_lo = _veltkamp(ax)
    r = a_hi * parts[1]
    r -= p
    a_hi *= parts[2]
    r += a_hi
    parts[1] *= a_lo
    r += parts[1]
    a_lo *= parts[2]
    r += a_lo
    if tail:
        parts[3] *= ax
        r += parts[3]
    near = np.rint(r)
    r -= near
    n = p.astype(np.int64)
    n += near.astype(np.int64)
    return n, r


def _slots(x, tails, tables):
    """One slot per value of x, with `tails` as its last word, and with
    every byte the value does not print set to 0."""
    template, keep, move, group_text, group_through, exp_text = tables
    m = len(x)
    words = np.empty((m, _SLOT // 8), dtype=np.uint64)
    slots = words.view(np.uint8)
    # Each live value writes its words 0..2; every other value has the
    # template's first word, and its keep-mask zeroes words 1 and 2.
    words[:, 3] = tails
    # A zero prints from e = 0 and N = 0: the template's "0", or "-0".
    # Digits are computed only for the other values in the domain, through
    # slices when the whole block lies in it.
    ax = np.abs(x)
    inside = (ax > 1e-99) & (ax < 1e15)
    if inside.all():
        live = slice(None)
    else:
        live = np.flatnonzero(inside)
        ax = ax[live]
    e = np.floor(np.log10(ax)).astype(np.int64)
    lowest = e.min(initial=0)
    n, r = _digits(ax, e, lowest < 16 - _EXACT_K)
    # N in [10**16, 10**17), and at 10**16 a product below it by no more
    # than the guard; the rest belong to another e and go to %.
    exact = (n - 10 ** 16).view(np.uint64) < 9 * 10 ** 16
    exact &= (r >= -_GUARD) | (n != 10 ** 16)
    if lowest < 16 - _EXACT_K:
        # near ties where 10**k is inexact
        exact &= (np.abs(r) <= 0.5 - _GUARD) | (e >= 16 - _EXACT_K)
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
    # Words 0..2 of the live slots: the template with d0, then d1..d16.
    head = np.empty((3, len(n)), dtype=np.uint64)
    np.left_shift(lead, 8 * _DIGITS, out=head[0], casting="unsafe")
    head[0] += template
    np.bitwise_or(group_text[0].take(groups[0::2]),
                  group_text[1].take(groups[1::2]), out=head[1:])
    if e.max(initial=0) >= 1:
        _move_points(head, e, move)
    if not isinstance(live, slice):
        words[:, 0] = template
    for word in range(3):
        words[live, word] = head[word]
    if lowest <= _E_SCI:
        words.view(np.uint16)[live, _EXP // 2 + 1] = exp_text.take(-e)
    # d1..d16 through the last nonzero one: the digit count less 1
    through = group_through.take(groups)
    through += _GROUP_SHIFT
    through = np.maximum(np.maximum(through[0], through[1]),
                         np.maximum(through[2], through[3]))

    # Keep-mask row: sign, then e, then the digit count. A zero's is that
    # of e = 0 and N = 0.
    e = np.maximum(e, _E_SCI, out=e)
    e *= 18
    e += through
    e += 1 - _E_SCI * 18
    if isinstance(live, slice):
        row = e
    else:
        row = np.full(m, -_E_SCI * 18 + 1)
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


def _move_points(head, e, move):
    """In words 0..2 of each slot, one slot per column of `head`, move
    d1..de down one byte, over the point, and write the point after de.
    A value with e <= 0 takes row 0 of the move, which keeps its words."""
    rows = move.take(e, axis=1, mode="clip")
    w0, w1, w2 = head
    above = (w1 << 56, (w1 >> 8) | (w2 << 56), w2 >> 8)
    for word, shifted, (stay, take, point) in zip(head, above,
                                                 rows.reshape(3, 3, -1)):
        word &= stay
        shifted &= take
        word |= shifted
        word |= point


def write_rows(fh, columns) -> None:
    """Write `columns`, 1-D or 2-D with one column per row, to binary `fh`."""
    groups = [np.atleast_2d(c) for c in columns]
    nrows, ncols = groups[0].shape[1], sum(map(len, groups))
    step = _block_rows(ncols)
    tables = _tables()
    # Word 3 of each slot: "e-00", the value's separator and the padding.
    tails = np.zeros((min(nrows, step), ncols, 8), dtype=np.uint8)
    tails[..., :_SEP - _EXP] = np.frombuffer(b"e-00", dtype=np.uint8)
    tails[..., _SEP - _EXP] = ord(",")
    tails[:, -1, _SEP - _EXP] = ord("\n")
    tails = tails.view(np.uint64).ravel()
    buffer = np.empty((min(nrows, step), ncols))  # one block, row-major
    for start in range(0, nrows, step):
        rows = buffer[:min(step, nrows - start)]
        np.concatenate([g[:, start:start + step] for g in groups], out=rows.T)
        text = _slots(rows.ravel(), tails[:rows.size], tables)
        fh.write(text.tobytes().translate(None, b"\0"))


def _held_as_stdout(path):
    """os.fstat(1) if `path` names the file this process holds as fd 1,
    else None."""
    with contextlib.suppress(OSError):
        held = os.fstat(1)
        if os.path.samestat(os.stat(path), held):
            return held
    return None


def require_writable(path) -> None:
    """Refuse, before any work, a `path` that `write_table` cannot write.

    The file held as fd 1 passes. Any other path that exists and is not a
    regular file, such as a device or a pipe, needs write permission on
    itself only. A regular file or a new path needs a writable, searchable
    directory, so that a failed write can remove it, and a regular file
    must itself be writable. Nothing is created.
    """
    if _held_as_stdout(path) is not None:
        return
    cause = None
    if os.path.isdir(path):
        cause = "it is a directory"
    elif os.path.isfile(path) or not os.path.exists(path):
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.exists(parent):
            cause = f"{parent} does not exist"
        elif not os.path.isdir(parent):
            cause = f"{parent} is not a directory"
        elif not os.access(parent, os.W_OK | os.X_OK):
            cause = f"{parent} is not writable"
    if cause is None and os.path.exists(path) and not os.access(path,
                                                                os.W_OK):
        cause = "it is not writable"
    if cause is not None:
        raise ValueError(f"cannot write {path}: {cause}")


def write_table(path, header, columns) -> None:
    """Write `columns` to `path` by `write_rows`, after a line of the names
    in `header` if it has any. A NaN or infinite value is refused before
    `path` is opened.

    When `path` is the file this process holds as fd 1, as /dev/stdout
    is, the table is written through fd 1, so the shell's `>` or `>>`
    decides where it starts and what the file keeps; a failed write then
    truncates a regular file back to the size it had when the write
    began. Any other path is opened with "wb", and a failed write removes
    `path` if it is a regular file, empties the regular file it links to
    if it is a link, and leaves anything else alone. The write's error is
    raised even if that cleanup fails."""
    columns = [np.atleast_2d(c) for c in columns]
    for name, column in zip(header or count(), chain(*columns)):
        bad = np.count_nonzero(~np.isfinite(column))
        if bad:
            raise ValueError(f"cannot write {path}: column {name} holds "
                             f"{bad} NaN or infinite values")
    stdout = _held_as_stdout(path)
    fh = open(path, "wb") if stdout is None else open(1, "wb", closefd=False)
    try:
        with fh:
            if header:
                fh.write(f"{','.join(header)}\n".encode())
            write_rows(fh, columns)
    except BaseException:
        with contextlib.suppress(OSError):
            if stdout is not None:
                if stat.S_ISREG(stdout.st_mode):
                    os.ftruncate(1, stdout.st_size)
            elif os.path.isfile(path):
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
