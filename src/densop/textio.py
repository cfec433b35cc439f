"""Text format of the tables and sample files densop writes.

Every value is printed with ``%.17g``, enough significant digits that
parsing the text recovers the exact double. Values in a row are separated
by ``,`` and each row ends in ``\\n``.

Rows are formatted in blocks: one ``%`` operation and one write per block
of about ``_BLOCK_VALUES`` values. Per-row formatting and writing cost more
in interpreter overhead than the formatting itself, and the cap keeps the
temporary tuple and string of a block well under 1 MB at any width.
"""

from __future__ import annotations

_BLOCK_VALUES = 4096


def _block_rows(ncols: int) -> int:
    return max(1, _BLOCK_VALUES // ncols)


def write_rows(fh, rows) -> None:
    """Write a 2-D float array to a text file, one ``%.17g`` row per line."""
    nrows, ncols = rows.shape
    step = _block_rows(ncols)
    line = ",".join(["%.17g"] * ncols) + "\n"
    for start in range(0, nrows, step):
        block = rows[start:start + step]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))
