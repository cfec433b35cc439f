"""Beta target, incomplete beta function, sampler, and sample files.

scipy is used here as the independent oracle for the special functions and
for adaptive quadrature of endpoint-singular densities; the package itself
never imports it.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import betainc as scipy_betainc
from scipy.special import betaincinv as scipy_betaincinv

from densop import (
    BetaTarget,
    Interval,
    load_samples,
    regularized_incomplete_beta,
    save_samples,
)
from densop.target import SAMPLE_CHUNK, count_samples

UNIT = Interval(0.0, 3.0)


# ------------------------------------------------------- incomplete beta


@pytest.mark.parametrize("a,b", [
    (2.0, 5.0), (5.0, 2.0), (0.5, 0.5), (0.6, 7.5), (8.0, 8.0), (1.0, 1.0),
    (1.0, 4.0), (3.7, 0.9),
])
def test_incomplete_beta_matches_scipy(a, b):
    x = np.linspace(0.0, 1.0, 2001)
    mine = regularized_incomplete_beta(x, a, b)
    assert np.max(np.abs(mine - scipy_betainc(a, b, x))) <= 1e-12


def test_incomplete_beta_edge_values_and_scalars():
    assert regularized_incomplete_beta(0.0, 2.0, 5.0) == 0.0
    assert regularized_incomplete_beta(1.0, 2.0, 5.0) == 1.0
    assert isinstance(regularized_incomplete_beta(0.5, 2.0, 5.0), float)


def test_incomplete_beta_validation():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.5, 2.0, 5.0)


# ------------------------------------------------------- density


def test_uniform_special_case():
    target = BetaTarget(1.0, 1.0, UNIT)
    s = np.linspace(0.0, 3.0, 31)
    assert_allclose(target.density(s), 1.0 / 3.0, rtol=0, atol=1e-15)


def test_symmetric_midpoint_value():
    # beta(2,2) pdf at x = 1/2 is 6 * (1/2) * (1/2) = 1.5; rescaled by 1/3
    target = BetaTarget(2.0, 2.0, UNIT)
    assert_allclose(target.density(1.5), 0.5, rtol=0, atol=1e-15)


def test_density_zero_outside_interval():
    target = BetaTarget(2.0, 5.0, UNIT)
    assert target.density(-0.1) == 0.0
    assert target.density(3.4) == 0.0


def test_density_endpoint_limits():
    assert BetaTarget(2.0, 5.0, UNIT).density(0.0) == 0.0
    assert BetaTarget(1.0, 1.0, UNIT).density(0.0) == pytest.approx(1.0 / 3.0)
    assert BetaTarget(0.5, 0.5, UNIT).density(0.0) == np.inf
    assert BetaTarget(5.0, 0.8, UNIT).density(3.0) == np.inf


def test_density_matches_scipy_pdf():
    from scipy.stats import beta as scipy_beta
    target = BetaTarget(2.3, 4.1, UNIT)
    s = np.linspace(0.01, 2.99, 57)
    ref = scipy_beta.pdf(s / 3.0, 2.3, 4.1) / 3.0
    assert_allclose(target.density(s), ref, rtol=1e-12, atol=0)


def test_unit_mass_for_random_shapes():
    # adaptive quadrature handles the integrable endpoint singularities that
    # arise for shape parameters below 1
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(8):
        a, b = rng.uniform(0.5, 8.0, size=2)
        target = BetaTarget(float(a), float(b), UNIT)
        mass, err = quad(target.density, 0.0, 3.0, limit=200)
        assert err < 1e-7  # quad reports a conservative estimate
        assert abs(mass - 1.0) <= 1e-8


def test_target_validation():
    with pytest.raises(ValueError):
        BetaTarget(0.0, 1.0, UNIT)
    with pytest.raises(ValueError):
        BetaTarget(2.0, -3.0, UNIT)


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


def test_quantile_keeps_the_shape_of_u():
    target = BetaTarget(2.0, 5.0, UNIT)
    u = np.linspace(0.1, 0.9, 6).reshape(2, 3)
    x = target.quantile(u)
    assert x.shape == (2, 3)
    assert np.array_equal(x.ravel(), target.quantile(u.ravel()))
    assert isinstance(target.quantile(0.25), float)


# ------------------------------------------------------- sampler


def test_sampler_is_deterministic():
    target = BetaTarget(2.0, 5.0, UNIT)
    first = target.sample(50, seed=42)
    second = target.sample(50, seed=42)
    assert np.all(first.points == second.points)
    other = target.sample(50, seed=43)
    assert np.any(first.points != other.points)


@pytest.mark.parametrize("a,b", [(2.0, 5.0), (0.5, 0.5), (30.0, 40.0)])
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
    save_samples(path, s)
    back = load_samples(path)
    assert np.array_equal(back.points, s.points)


def test_save_samples_writes_one_17_digit_line_per_point(tmp_path):
    rng = np.random.default_rng(5)
    points = np.ldexp(rng.random(100_000), rng.integers(-1074, 1024, 100_000))
    points[rng.random(points.size) < 0.5] *= -1
    points[:6] = [-0.0, 0.0, 5e-324, 1e16, 1e17, 0.1]
    path = tmp_path / "samples.txt"
    save_samples(path, points)
    assert path.read_text() == "".join(f"{v:.17g}\n" for v in points)
    back = load_samples(path).points
    assert back.tobytes() == points.tobytes()  # sign of zero included


def test_load_samples_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.5\n\n2.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 4"):
        load_samples(path)


def test_load_samples_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert load_samples(path).n == 0


def test_count_samples_counts_the_lines_load_samples_reads(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.5\n\n  \n2.0\n0.25")
    assert count_samples(path) == 3
    assert load_samples(path).points.tolist() == [1.5, 2.0, 0.25]
