"""The table writer against CPython's own ``'%.17g' %``, byte for byte.

`write_rows` computes most digits with numpy; these cases sit on the
edges of that computation: exact ties, the bounds of its domain, rounding
across a power of ten, and the values it hands to ``%``.
"""

from __future__ import annotations

import io
from decimal import Decimal

import numpy as np
import pytest

from densop.cli import _estimate_table, _figure_table
from densop.config import ExperimentConfig
from densop.textio import _block_rows, write_rows, write_table


def _reference(rows) -> str:
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows.tolist())


def _written(columns) -> str:
    fh = io.BytesIO()
    write_rows(fh, columns)
    return fh.getvalue().decode("ascii")


def _assert_matches(values, ncols=1):
    values = np.asarray(values, dtype=float)
    values = np.resize(values, -(-values.size // ncols) * ncols)
    rows = values.reshape(-1, ncols)
    written, expected = _written([rows.T]), _reference(rows)
    if written != expected:
        pairs = zip(written.splitlines(), expected.splitlines())
        bad = [(w, e) for w, e in pairs if w != e][:5]
        pytest.fail(f"write_rows differs from %.17g: {bad}")


def _is_tie(x: float) -> bool:
    # exactly half way between two 17-digit decimals
    digits = Decimal(x).as_tuple().digits
    return len(digits) == 18 and digits[17] == 5


def _ties(rng, count: int) -> np.ndarray:
    """`count` exact ties of each decade in [1e-3, 1e3]."""
    # (2j + 1) * 2**-m has m fractional decimal digits, the last a 5; with
    # 18 significant digits it is a tie at 17. Every one is a multiple of
    # 2**-20 in [1e-3, 1e3].
    ties = []
    for m, lo, hi in [(15, 100, 1000), (16, 10, 100), (17, 1, 10),
                      (18, 0.1, 1), (19, 0.01, 0.1), (20, 0.001, 0.01)]:
        odd = 2 * rng.integers(int(lo * 2 ** (m - 1)),
                               int(hi * 2 ** (m - 1)), count) + 1
        ties.append(np.ldexp(odd.astype(float), -m))
    ties = np.concatenate(ties)
    assert all(_is_tie(x) for x in ties)
    return ties


def test_exact_ties_round_half_to_even():
    rng = np.random.default_rng(20)
    ties = _ties(rng, 2000)
    # the digit before the 5 is even for some and odd for others
    kept = {Decimal(x).as_tuple().digits[16] % 2 for x in ties}
    assert kept == {0, 1}
    _assert_matches(ties)
    _assert_matches(-ties, ncols=3)
    # and random multiples of 2**-20 over the whole of [1e-4, 1e3]
    k = np.exp(rng.uniform(np.log(1e-4 * 2 ** 20), np.log(1e3 * 2 ** 20),
                           200_000)).round()
    _assert_matches(np.ldexp(k, -20), ncols=3)


def _neighbours(centres, ulps: int) -> np.ndarray:
    """Each of `centres` and its `ulps` neighbours on either side."""
    values = []
    for v in centres:
        below = above = v
        for _ in range(ulps):
            below = np.nextafter(below, 0.0)
            above = np.nextafter(above, np.inf)
            values += [below, above]
        values.append(v)
    return np.array(values)


def test_neighbours_of_the_domain_bounds_and_powers_of_ten():
    values = _neighbours((1e-99, 1e-6, 1e-5, 1e-4, 1e-3, 1.0, 1e14, 1e15,
                          1e16, 1e17), 8)
    _assert_matches(np.concatenate([values, -values]))


def test_neighbours_of_small_powers_of_ten():
    # The double nearest 10**p lies below it for some p, and then its
    # product with 10**(16 - p) can round up to exactly 10**16: e must
    # move down by the residual's sign, as it must for 1e-6 at e = -6.
    powers = [float(f"1e{p}") for p in range(-100, -4)]
    assert any(Decimal(v) < Decimal(f"1e{p}")
               for v, p in zip(powers, range(-100, -4)))
    values = _neighbours(powers, 8)
    _assert_matches(np.concatenate([values, -values]), ncols=3)


def test_tail_values_down_to_1e_99():
    # log-uniform in (1e-99, 1e-6], as whole blocks and with one zero per
    # block, as in the tails of the density tables
    rng = np.random.default_rng(99)
    for ncols in (1, 3):
        block = _block_rows(ncols) * ncols
        values = np.exp(rng.uniform(np.log(1e-99), np.log(1e-6), 3 * block))
        values *= rng.choice([-1.0, 1.0], values.size)
        _assert_matches(values, ncols)
        values[np.arange(0, values.size, block) + block // 3] = 0.0
        _assert_matches(values, ncols)


def test_values_whose_point_moves():
    # For e >= 1 the point moves after de: 1.5 * 10**e, 10**e and values
    # with zeros in their fraction or before their point, for every e
    values = []
    for e in range(1, 16):
        values += [1.5 * 10.0 ** e, 10.0 ** e, 1.2 * 10.0 ** e + 0.5,
                   10.0 ** e + 0.0625, 10.0 ** e + 1 / 3]
    values = np.array(values + [120.5, 1000.25, 90000.0078125])
    _assert_matches(np.concatenate([values, -values]))
    _assert_matches(np.concatenate([values, -values, [0.0, 0.5]]), ncols=3)


# Found by a Decimal search over log-uniform doubles of (1e-99, 1e-7):
# each product |x| * 10**k, k = 16 - e, lies within 2**-20 of a tie, and
# 10**k is not an exact double. The exact ties m * 2**-24 and m * 2**-25
# are half-integers times 10**23 and 10**24.
NEAR_TIES = [1.2050808291453962e-78, 8.957421398292486e-11,
             1.5686382357694298e-59, 7.962443688567939e-25,
             8.112366299052316e-81, 9.57055576441292e-28,
             1.684098085852365e-39]
EXACT_TIES = ([m * 2.0 ** -24 for m in range(3, 16, 2)]
              + [2.0 ** -25, 3 * 2.0 ** -25])


def test_near_ties_under_an_inexact_power_of_ten():
    for x in NEAR_TIES + EXACT_TIES:
        e = int(("%.16e" % x).split("e")[1])
        assert 16 - e > 22  # 10**(16 - e) is not an exact double
        product = Decimal(x).scaleb(16 - e)
        assert abs(product % 1 - Decimal("0.5")) < Decimal(2) ** -20
    values = np.array(NEAR_TIES + EXACT_TIES)
    _assert_matches(np.concatenate([values, -values]))
    _assert_matches(np.concatenate([values, -values]), ncols=3)


def test_rounding_up_across_a_power_of_ten():
    # each rounds to 1 followed by 16 zeros, one decade up
    values = np.array([9.9999999999999999e-5, 0.99999999999999999,
                       9.99999999999999999e-7, 9.99999999999999999e14,
                       99.999999999999999, 9.9999999999999999e-4])
    _assert_matches(np.concatenate([values, -values]), ncols=4)


def test_zeros_subnormals_and_non_finite_values():
    tiny = np.finfo(float).tiny
    values = np.array([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny,
                       np.nextafter(tiny, 0.0), 1e-310, np.nan, -np.nan,
                       np.inf, -np.inf, np.finfo(float).max])
    assert _written([0.0, -0.0]) == "0,-0\n"
    _assert_matches(values)
    _assert_matches(values, ncols=3)


def test_zeros_among_other_values():
    # most of fig2a's values are zeros; the others still get their digits
    rng = np.random.default_rng(5)
    values = 10.0 ** rng.uniform(-8, 17, 20_000) * rng.choice([-1, 1], 20_000)
    values[rng.random(20_000) < 0.9] = 0.0
    values[rng.random(20_000) < 0.05] *= -0.0
    _assert_matches(values, ncols=388)
    _assert_matches(values, ncols=3)


def _in_domain(count: int, rng) -> np.ndarray:
    """`count` values, all with 1e-99 < |x| < 1e15, in random order and of
    random sign: exact ties, the neighbours of the powers of ten and the
    domain bounds, the values that round up across a power of ten, and
    log-uniform fill."""
    ties = _ties(rng, count // 48)
    near = list(_neighbours([10.0 ** p for p in range(-99, 16)], 4))
    near += [9.9999999999999999e-5, 0.99999999999999999, 99.999999999999999]
    near = [v for v in near if 1e-99 < v < 1e15]
    fill = np.exp(rng.uniform(np.log(1e-99), np.log(1e15), count))
    values = np.concatenate([ties, near, fill])[:count]
    return rng.permutation(values) * rng.choice([-1.0, 1.0], count)


@pytest.mark.parametrize("ncols", [1, 3, 388])
def test_whole_blocks_in_the_domain_and_one_value_out(ncols):
    # Three whole blocks and a partial one, every value in the domain, so
    # every block takes the slice path; then a single value out of the
    # domain at the first, a middle and the last value of the first three
    # blocks sends each down the mixed path.
    rng = np.random.default_rng(ncols)
    block = _block_rows(ncols) * ncols
    values = _in_domain(3 * block + 2 * ncols, rng)
    ax = np.abs(values)
    assert np.all((ax > 1e-99) & (ax < 1e15))
    # floor(log10|x|) misses the printed exponent for some of them
    printed = np.array([int(("%.16e" % x).split("e")[1]) for x in ax])
    assert np.any(np.floor(np.log10(ax)) != printed)
    _assert_matches(values, ncols)
    for out in (0.0, -0.0, 5e-324, 1e-100, 1e15):
        spoiled = values.copy()
        spoiled[[0, block + block // 2, 3 * block - 1]] = out
        _assert_matches(spoiled, ncols)


@pytest.mark.parametrize("ncols", [1, 3, 388])
def test_a_group_of_columns_writes_as_its_columns_one_by_one(ncols):
    # fig2a hands its d translates over as one d x G group. Three blocks
    # and part of a fourth split the group by rows; at 3 and 388 columns it
    # also sits between two single columns.
    rng = np.random.default_rng(ncols + 1)
    nrows = 3 * _block_rows(ncols) + 2
    table = 10.0 ** rng.uniform(-8, 17, (ncols, nrows))
    table *= rng.choice([-1.0, 1.0], table.shape)
    table[rng.random(table.shape) < 0.5] = 0.0
    expected = _reference(table.T)
    assert _written(list(table)) == expected
    assert _written([table]) == expected
    if ncols > 1:
        assert _written([table[0], table[1:-1], table[-1]]) == expected


def test_random_bit_patterns():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_matches(values)
    _assert_matches(values, ncols=3)


def _savetxt(names, cols) -> bytes:
    fh = io.BytesIO()
    cols = [np.transpose(c) for c in cols]  # a 2-D group's rows to columns
    np.savetxt(fh, np.column_stack(cols), fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")
    return fh.getvalue()


@pytest.mark.parametrize("figure", ["fig2a", "fig2b", "fig3a", "fig3b"])
def test_figure_tables_match_savetxt(tmp_path, figure):
    names, cols = _figure_table(figure, ExperimentConfig())
    path = tmp_path / f"{figure}.csv"
    write_table(str(path), names, cols)
    assert path.read_bytes() == _savetxt(names, cols)


def test_estimate_table_and_sample_file_match_savetxt(tmp_path):
    cfg = ExperimentConfig()
    samples = tmp_path / "samples.txt"
    points = cfg.target().sample(300, seed=3).points
    write_table(samples, (), [points])
    expected = io.BytesIO()
    np.savetxt(expected, points, fmt="%.17g")
    assert samples.read_bytes() == expected.getvalue()

    names, cols = _estimate_table(str(samples), cfg)
    path = tmp_path / "estimate.csv"
    write_table(str(path), names, cols)
    assert path.read_bytes() == _savetxt(names, cols)
