"""Beta target, incomplete beta function, sampler, and sample files.

scipy is used here as the independent oracle for the special functions and
for adaptive quadrature of endpoint-singular densities; the package itself
never imports it.
"""

import math
import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import betainc as scipy_betainc
from scipy.special import betaincinv as scipy_betaincinv

from densop import (
    BetaTarget,
    EmbeddingOperator,
    ExperimentConfig,
    Grid,
    Interval,
    embedded_density_exact,
    kernel_diag,
    load_samples,
)
from densop import target as target_module
from densop.target import SAMPLE_CHUNK, count_samples
from densop.textio import write_table

UNIT = Interval(0.0, 3.0)


# ------------------------------------------------------- incomplete beta


@pytest.mark.parametrize("a,b", [
    (2.0, 5.0), (5.0, 2.0), (0.5, 0.5), (0.6, 7.5), (8.0, 8.0), (1.0, 1.0),
    (1.0, 4.0), (3.7, 0.9),
])
def test_incomplete_beta_matches_scipy(a, b):
    # on [0, 1] the cdf is I_x(a, b) itself
    x = np.linspace(0.0, 1.0, 2001)
    mine = BetaTarget(a, b, Interval(0.0, 1.0)).cdf(x)
    assert np.max(np.abs(mine - scipy_betainc(a, b, x))) <= 1e-12


def test_incomplete_beta_edge_values_and_scalars():
    # a scalar x gives a flat array of one value
    cdf = BetaTarget(2.0, 5.0, Interval(0.0, 1.0)).cdf
    assert np.array_equal(cdf(0.0), [0.0])
    assert np.array_equal(cdf(1.0), [1.0])
    value = cdf(0.5)
    assert value.shape == (1,) and value.dtype == np.float64


def test_incomplete_beta_validation():
    # cdf clips every finite point into [0, 1], so NaN is its only refusal
    with pytest.raises(ValueError, match=re.escape(
            "cannot evaluate the cdf at 1 NaN point(s)")):
        BetaTarget(2.0, 5.0, UNIT).cdf(np.array([1.5, np.nan]))


@pytest.mark.parametrize("a,b,message", [
    (math.inf, 5.0, "must be finite, got a=inf, b=5.0"),
    (2.0, math.inf, "must be finite, got a=2.0, b=inf"),
    (math.nan, 5.0, "must be positive, got a=nan, b=5.0"),
    (2.0, math.nan, "must be positive, got a=2.0, b=nan"),
    (1e308, 1e308, re.escape("Beta(1e+308, 1e+308) has no finite log B")),
], ids=["a-inf", "b-inf", "a-nan", "b-nan", "log-beta-overflow"])
def test_incomplete_beta_refuses_each_shape_beta_target_refuses(a, b,
                                                                message):
    # these shapes once gave I_x = [nan nan], and (1e308, 1e308) a bare
    # OverflowError; BetaTarget refuses them, so no cdf is built at them
    with pytest.raises(ValueError, match=message):
        BetaTarget(a, b, UNIT)


# ------------------------------------------------------- density


def test_uniform_special_case():
    # 1/3 inside; at each end the mean of the limits 1/3 and 0
    target = BetaTarget(1.0, 1.0, UNIT)
    s = np.linspace(0.0, 3.0, 31)
    assert_allclose(target.density(s[1:-1]), 1.0 / 3.0, rtol=0, atol=1e-15)
    assert np.array_equal(target.density(s[[0, -1]]), [1.0 / 6.0] * 2)


def test_symmetric_midpoint_value():
    # beta(2,2) pdf at x = 1/2 is 6 * (1/2) * (1/2) = 1.5; rescaled by 1/3
    target = BetaTarget(2.0, 2.0, UNIT)
    assert_allclose(target.density(1.5), 0.5, rtol=0, atol=1e-15)


def test_density_zero_outside_interval():
    target = BetaTarget(2.0, 5.0, UNIT)
    assert target.density(-0.1) == 0.0
    assert target.density(3.4) == 0.0
    # on an interval 5e-324 wide, x = (s - lo) / width of a point 1 away
    # overflows; it once raised a RuntimeWarning there
    narrow = BetaTarget(2.0, 5.0, Interval(5e-324, 1e-323))
    assert list(narrow.density([-1.0, 1.0])) == [0.0, 0.0]


def test_density_endpoint_limits():
    # the mean of the one-sided limits: 0 outside, the pdf's limit inside
    assert BetaTarget(2.0, 5.0, UNIT).density(0.0) == 0.0
    assert BetaTarget(1.0, 1.0, UNIT).density(0.0) == pytest.approx(1.0 / 6.0)
    assert BetaTarget(1.0, 5.0, UNIT).density(0.0) == pytest.approx(5.0 / 6.0)
    assert BetaTarget(5.0, 1.0, UNIT).density(3.0) == pytest.approx(5.0 / 6.0)
    assert BetaTarget(0.5, 0.5, UNIT).density(0.0) == np.inf
    assert BetaTarget(5.0, 0.8, UNIT).density(3.0) == np.inf


def test_density_refuses_nan_points_by_count():
    # a NaN point once gave a density of 0 beside the other points' values
    target = BetaTarget(2.0, 5.0, UNIT)
    with pytest.raises(ValueError, match=re.escape(
            "cannot evaluate the density at 2 NaN point(s)")):
        target.density(np.array([np.nan, 1.0, np.nan]))
    # +-inf lies outside the interval, where the density is 0
    assert np.array_equal(target.density([-np.inf, np.inf]), [0.0, 0.0])


def test_density_matches_scipy_pdf():
    from scipy.stats import beta as scipy_beta
    target = BetaTarget(2.3, 4.1, UNIT)
    s = np.linspace(0.01, 2.99, 57)
    ref = scipy_beta.pdf(s / 3.0, 2.3, 4.1) / 3.0
    assert_allclose(target.density(s), ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("a,b", [
    (2.0, 5.0), (0.5, 1.0), (1.0, 1.0), (1.0, 3.0), (200.0, 0.05),
])
@pytest.mark.parametrize("lo,hi", [(0.0, 3.0), (-1.0, 2.5)])
def test_density_equals_its_one_expression_form_bitwise(a, b, lo, hi):
    # the density is evaluated in place on the points inside; it must give
    # the bits of the whole formula applied to every point
    target = BetaTarget(a, b, Interval(lo, hi))
    width = hi - lo
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_norm = log_beta + math.log(width)

    def edge(shape):
        if shape == 1.0:
            return math.exp(-log_beta) / width / 2
        return 0.0 if shape > 1.0 else math.inf

    def reference(s):
        x = (np.asarray(s, dtype=float) - lo) / width
        with np.errstate(all="ignore"):
            return np.where(x == 0.0, edge(a), np.where(x == 1.0, edge(b), (
                np.where((x > 0.0) & (x < 1.0), np.exp(
                    (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
                    - log_norm), 0.0))))

    special = [0.0, -0.0, lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo),
               np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 5e-324,
               -5e-324, lo - 1.0, hi + 1.0]
    rng = np.random.Generator(np.random.PCG64(31))
    s = np.concatenate([rng.uniform(lo - 0.5, hi + 0.5, 200_000), special])
    assert np.array_equal(target.density(s).view(np.uint64),
                          reference(s).view(np.uint64))
    for point in special:
        value = target.density(float(point))
        assert value.shape == (1,)
        assert np.array_equal(value.view(np.uint64),
                              reference([point]).view(np.uint64))


def test_curve_takes_the_inner_limit_at_a_grid_end_on_the_interval():
    # Beta(1, 5) jumps to 5/3 at 0; tabulated as the density there, the
    # mean 5/6, zeta had mass 0.99959 on this grid and the exact curve
    # refused it
    grid = Grid(UNIT, 3072)
    target = BetaTarget(1.0, 5.0, UNIT)
    zeta = target.curve(grid)
    assert zeta.values[0] == 2.0 * target.density(0.0)
    assert abs(zeta.mass() - 1.0) <= 1e-6
    cfg = ExperimentConfig(target_a=1.0)
    curve = embedded_density_exact(cfg.operator(), zeta, cfg.curve_grid())
    assert abs(curve.mass() - 1.0) <= 1e-5


def test_curve_doubles_no_grid_end_inside_or_outside_the_interval():
    # the left end of [-0.5, 2.9] lies outside [0, 3], where the density
    # is 0, and the right end inside, where it is small but not 0; 0 is
    # an inner grid point and keeps the mean of its one-sided limits
    target = BetaTarget(1.0, 5.0, UNIT)
    grid = Grid(Interval(-0.5, 2.9), 3400)
    zeta = target.curve(grid)
    assert zeta.values[0] == 0.0 and zeta.values[-1] > 0.0
    assert np.array_equal(zeta.values, target.density(grid.points))


def test_curve_refuses_a_density_off_unit_mass():
    # the grid covers half of Beta(1, 1)'s mass
    with pytest.raises(ValueError, match="zeta quadrature mass 0.50"):
        BetaTarget(1.0, 1.0, UNIT).curve(Grid(Interval(0.0, 1.5), 1536))
    # at these shapes log B(a, b) loses far more than its units digit, so
    # the computed density overflows; it was once refused as infinite at an
    # end, where a shape below 1 makes it so, after a RuntimeWarning
    with pytest.raises(ValueError, match=re.escape(
            "the Beta(1e+123, 1e+123) target density, as computed at these "
            "shapes, overflows a double at s = 1.5, inside [0, 3]")):
        BetaTarget(1e123, 1e123, UNIT).curve(Grid(UNIT, 192))


def test_unit_mass_for_random_shapes():
    # adaptive quadrature handles the integrable endpoint singularities that
    # arise for shape parameters below 1
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(8):
        a, b = rng.uniform(0.5, 8.0, size=2)
        target = BetaTarget(float(a), float(b), UNIT)
        mass, err = quad(lambda s: target.density(s)[0], 0.0, 3.0,
                         limit=200)
        assert err < 1e-7  # quad reports a conservative estimate
        assert abs(mass - 1.0) <= 1e-8


def test_target_validation():
    with pytest.raises(ValueError):
        BetaTarget(0.0, 1.0, UNIT)
    with pytest.raises(ValueError):
        BetaTarget(2.0, -3.0, UNIT)
    with pytest.raises(ValueError, match="must be positive, got a=nan"):
        BetaTarget(math.nan, 5.0, UNIT)
    with pytest.raises(ValueError, match="must be finite, got a=inf, b=5.0"):
        BetaTarget(math.inf, 5.0, UNIT)
    with pytest.raises(ValueError, match="must be finite, got a=2.0, b=inf"):
        BetaTarget(2.0, math.inf, UNIT)
    # lgamma overflows past about 2.6e305, where log B(a, b) has no finite
    # value
    for a, b in ((2.0, 1e308), (1e307, 1e307)):
        with pytest.raises(ValueError, match=r"has no finite log B\(a, b\)"):
            BetaTarget(a, b, UNIT)
    assert BetaTarget(1e300, 1e-300, UNIT).b == 1e-300


# ------------------------------------------------------- cdf and quantile


def test_cdf_closed_form_value():
    # I_{1/2}(2, 5) = P(Bin(6, 1/2) >= 2) = 57/64
    target = BetaTarget(2.0, 5.0, UNIT)
    assert_allclose(target.cdf(1.5), 57.0 / 64.0, rtol=0, atol=1e-14)


def test_quantile_inverts_cdf():
    target = BetaTarget(2.0, 5.0, UNIT)
    u = np.arange(0.01, 1.0, 0.01)
    assert np.max(np.abs(target.cdf(target.quantile(u)) - u)) <= 1e-8


def test_quantile_validation():
    target = BetaTarget(2.0, 5.0, UNIT)
    with pytest.raises(ValueError):
        target.quantile(1.5)
    with pytest.raises(ValueError):
        target.quantile(np.nan)


QUANTILE_SHAPES = [(2.0, 5.0), (0.5, 0.5), (0.3, 3.0), (5.0, 0.7),
                   (30.0, 40.0), (1.0, 1.0), (2.3, 4.1)]


@pytest.mark.parametrize("a,b", QUANTILE_SHAPES)
def test_quantile_matches_scipy_betaincinv(a, b):
    u = np.linspace(1e-3, 1.0 - 1e-3, 4001)
    x = BetaTarget(a, b, Interval(0.0, 1.0)).quantile(u)
    assert np.max(np.abs(x - scipy_betaincinv(a, b, u))) <= 1e-13


@pytest.mark.parametrize("a,b", QUANTILE_SHAPES + [(0.05, 200.0),
                                                    (200.0, 0.05)])
def test_quantile_at_the_ends_is_finite_and_monotone(a, b):
    u = np.array([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0])
    x = BetaTarget(a, b, Interval(0.0, 1.0)).quantile(u)
    assert np.all(np.isfinite(x))
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(np.diff(x) >= 0.0)
    assert x[0] == 0.0


@pytest.mark.parametrize("a,b", [(0.05, 200.0), (200.0, 0.05)])
def test_quantile_terminates_for_extreme_shapes(a, b):
    u = np.random.Generator(np.random.PCG64(4)).random(2000)
    x = BetaTarget(a, b, Interval(0.0, 1.0)).quantile(u)
    assert np.all(np.isfinite(x))
    assert np.all((x >= 0.0) & (x <= 1.0))


@pytest.mark.parametrize("a,b", [(200.0, 0.05), (2.0, 5.0), (0.05, 0.05),
                                 (0.01, 0.01), (0.001, 0.001), (2.0, 8013.0),
                                 (8013.0, 2.0)])
def test_quantile_is_monotone_over_sorted_draws(a, b):
    # for (200, 0.05), 16 adjacent pairs once decreased: the last cell was
    # solved near 1, where x keeps too few digits for I(x) to resolve u.
    # For the small shapes 80, 557 and 438 pairs decreased: their first
    # cell holds roots down to the subnormals, which bisection in x did not
    # reach within the iteration limit. For (2, 8013) one pair decreased:
    # a lane stopped at the least subnormal, where the stop test's
    # absolute error estimate underflowed to 0
    u = np.sort(np.random.Generator(np.random.PCG64(7)).random(20000))
    x = BetaTarget(a, b, Interval(0.0, 1.0)).quantile(u)
    assert np.all(np.diff(x) >= 0.0)


@pytest.mark.parametrize("a,b,u,root", [
    # roots of I_x(a, b) = u found by mpmath at 40 digits, the last two
    # solved in log x, since findroot in x fails at their sizes
    (2.0, 8013.0, 0.6072637591703937, 2.5574078485001626e-4),
    (8013.0, 2.0, 0.3926810991711883, 0.9997442331512333),
    (0.3, 3.0, 1e-12, 2.6173553603077482e-41),
    (0.05, 0.05, 1e-6, 9.7118236027201568e-115),
])
def test_quantile_solves_a_first_cell_lane_far_above_the_floor(a, b, u, root):
    # the first two lanes once returned the floor, 5e-324 and 1.0: a step
    # landed on the least subnormal, where half the predicted error in x
    # rounded to 0 and counted as settled. The last two lie deep in
    # [0, 1/256], which the table splits at each power of two
    x = BetaTarget(a, b, Interval(0.0, 1.0)).quantile(u)
    assert abs(x - root) <= 1e-11 * root


def test_quantile_floors_a_root_below_the_least_subnormal():
    # I(5e-324; 0.001, 0.001) is about 0.24, so the root of u = 0.1, near
    # 1e-699, has no double above 0; a root of u > 0 is floored at 5e-324
    target = BetaTarget(0.001, 0.001, Interval(0.0, 1.0))
    assert target.quantile(0.1) == 5e-324


# evaluations of I per lane, about 5 % over the count of 10**4 draws at
# seed 1
EVALUATIONS_PER_LANE = {(2.0, 5.0): 1.06, (0.3, 3.0): 1.22, (5.0, 0.7): 1.22,
                        (30.0, 40.0): 1.53, (0.05, 200.0): 1.32,
                        (0.05, 0.05): 1.12, (2.0, 8013.0): 3.13,
                        (8013.0, 2.0): 3.12}


@pytest.mark.parametrize("a,b", EVALUATIONS_PER_LANE)
def test_quantile_evaluates_the_incomplete_beta_about_once_per_lane(
        monkeypatch, a, b):
    # the start from the cubic Hermite interpolant of log x in log I, in
    # cells no wider than a factor of 2 in x, and the stop after a Newton
    # step whose predicted error is under the tolerance, take most lanes to
    # one evaluation of I. The solve once took 3.01 per lane for (2, 5),
    # and 10.4 for (2, 8013) while its first cell [0, 1/256] started from
    # a power law
    target = BetaTarget(a, b, UNIT)
    target.sample(10, seed=1)  # fills the bracket table's cache
    lanes = []
    evaluate = target_module._incomplete_beta

    def counted(x, *args):
        lanes.append(x.size)
        return evaluate(x, *args)

    monkeypatch.setattr(target_module, "_incomplete_beta", counted)
    target.sample(10 ** 4, seed=1)
    assert sum(lanes) <= EVALUATIONS_PER_LANE[a, b] * 10 ** 4


_BETA = BetaTarget(2.0, 5.0, UNIT)
_PROJECTION = EmbeddingOperator.projection(ExperimentConfig().basis())
# each function of points, with the interval its points are drawn from
FUNCTIONS_OF_POINTS = {
    "density": (_BETA.density, (-0.5, 3.5)),
    "cdf": (_BETA.cdf, (-0.5, 3.5)),
    "quantile": (_BETA.quantile, (0.0, 1.0)),
    "kernel_diag": (lambda s: kernel_diag(_PROJECTION, s), (-0.5, 3.5)),
}


@pytest.mark.parametrize("name", FUNCTIONS_OF_POINTS)
def test_functions_of_points_return_one_flat_float64_per_point(name):
    # a 0-d, 1-D or 2-D input, C-ordered or not, is read flat, and each
    # point gets the bits it gets in the 1-D call
    function, (lo, hi) = FUNCTIONS_OF_POINTS[name]
    points = np.random.Generator(np.random.PCG64(3)).uniform(lo, hi, 12)
    flat = function(points)
    assert type(flat) is np.ndarray
    assert flat.dtype == np.float64 and flat.shape == (12,)

    def bits(values):
        return np.asarray(values).view(np.uint64)

    for shaped, expect in [
            (float(points[0]), flat[:1]),
            (points[0], flat[:1]),
            (points[:1].reshape(()), flat[:1]),
            (list(points), flat),
            (points.reshape(3, 4), flat),
            (points.reshape(4, 3).T, flat.reshape(4, 3).T.ravel()),
    ]:
        out = function(shaped)
        assert type(out) is np.ndarray
        assert out.dtype == np.float64 and out.shape == (np.size(shaped),)
        assert np.array_equal(bits(out), bits(expect))


# ------------------------------------------------------- sampler


def test_sampler_is_deterministic():
    target = BetaTarget(2.0, 5.0, UNIT)
    first = target.sample(50, seed=42)
    second = target.sample(50, seed=42)
    assert np.all(first.points == second.points)
    other = target.sample(50, seed=43)
    assert np.any(first.points != other.points)


@pytest.mark.parametrize("a,b", [(2.0, 5.0), (0.5, 0.5), (30.0, 40.0),
                                 (200.0, 0.05)])
def test_sampler_prefix_does_not_depend_on_n(a, b):
    # each point depends on its own uniform draw alone, not on the batch
    target = BetaTarget(a, b, UNIT)
    full = target.sample(4000, seed=17).points
    for m in (1, 2, 7, 100, 3999):
        assert target.sample(m, seed=17).points.tobytes() == full[:m].tobytes()


def test_sampler_chunks_concatenate_to_the_whole_stream():
    # the quantile solves SAMPLE_CHUNK lanes at a time; lanes depend on
    # their own u alone, so the chunks join into the unchunked stream
    target = BetaTarget(2.0, 5.0, UNIT)
    n = 2 * SAMPLE_CHUNK + 5
    points = target.sample(n, seed=11).points
    u = np.random.Generator(np.random.PCG64(11)).random(n)
    inside = (np.nextafter(UNIT.lo, UNIT.hi), np.nextafter(UNIT.hi, UNIT.lo))
    chunks = [np.clip(target.quantile(u[i:i + SAMPLE_CHUNK]), *inside)
              for i in range(0, n, SAMPLE_CHUNK)]
    assert len(chunks) == 3
    assert points.tobytes() == np.concatenate(chunks).tobytes()
    assert points.tobytes() == np.clip(target.quantile(u), *inside).tobytes()
    for m in (SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 3):
        assert target.sample(m, seed=11).points.tobytes() == points[:m].tobytes()


def test_sampler_support_strictly_inside():
    target = BetaTarget(0.5, 0.6, UNIT)  # mass piles up at both endpoints
    s = target.sample(20000, seed=3)
    assert s.points.min() > 0.0
    assert s.points.max() < 3.0
    assert s.n == 20000


def test_sampler_mean_by_clt():
    target = BetaTarget(1.0, 1.0, UNIT)
    s = target.sample(10 ** 5, seed=8)
    # uniform on [0,3]: mean 1.5, sd sqrt(3/4); 3 sigma of the mean
    bound = 3.0 * np.sqrt(0.75 / 10 ** 5)
    assert abs(s.points.mean() - 1.5) <= bound


def test_sampler_passes_kolmogorov_smirnov():
    target = BetaTarget(2.0, 5.0, UNIT)
    n = 10 ** 4
    s = np.sort(target.sample(n, seed=21).points)
    cdf = target.cdf(s)
    ranks = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(cdf - ranks)), np.max(np.abs(cdf - (ranks - 1.0 / n))))
    assert ks <= 1.628 / np.sqrt(n)  # 1% critical value


def test_sampler_validation():
    target = BetaTarget(2.0, 5.0, UNIT)
    with pytest.raises(ValueError):
        target.sample(0, seed=1)
    with pytest.raises(ValueError):
        target.sample(5, seed=-2)


# ------------------------------------------------------- sample files


def test_save_load_round_trip(tmp_path):
    target = BetaTarget(2.0, 5.0, UNIT)
    s = target.sample(64, seed=9)
    path = tmp_path / "samples.txt"
    write_table(path, (), [s.points])
    back = load_samples(path, UNIT)
    assert np.array_equal(back.points, s.points)


def test_one_column_table_writes_17_digits_and_loads_back_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    points = np.ldexp(rng.random(100_000), rng.integers(-1074, 1024, 100_000))
    points[rng.random(points.size) < 0.5] *= -1
    points[:6] = [-0.0, 0.0, 5e-324, 1e16, 1e17, 0.1]
    path = tmp_path / "samples.txt"
    write_table(path, (), [points])
    assert path.read_text() == "".join(f"{v:.17g}\n" for v in points)
    # no interval holds every double, as hi - lo would overflow, so each
    # sign is read back from a file of its own
    for negative, interval in ((True, Interval(-sys.float_info.max, 0.0)),
                               (False, Interval(0.0, sys.float_info.max))):
        half = points[np.signbit(points) == negative]
        write_table(path, (), [half])
        back = load_samples(path, interval).points
        assert back.tobytes() == half.tobytes()  # sign of zero included


def test_load_samples_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.5\n\n2.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 4"):
        load_samples(path, UNIT)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_load_samples_refuses_a_non_finite_line(tmp_path, text):
    # nan once passed the interval test
    path = tmp_path / "bad.txt"
    path.write_text(f"1.5\n\n{text}\n")
    with pytest.raises(ValueError, match=f"line 3: could not parse '{text}' "
                                         "as a finite number"):
        load_samples(path, UNIT)


def test_load_samples_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert load_samples(path, UNIT).n == 0


def test_count_samples_counts_the_lines_load_samples_reads(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.5\n\n  \n2.0\n0.25")
    assert count_samples(path) == 3
    assert load_samples(path, UNIT).points.tolist() == [1.5, 2.0, 0.25]
