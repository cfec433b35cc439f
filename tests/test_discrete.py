"""Finite-dimensional states and Born-rule readout.

The hand oracle is the 2x2 Hadamard-type rotation, worked out by hand;
everything else is checked by round trips and seeded random instances.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from densop import (
    BasisSpec,
    DensityCurve,
    DensityMatrix,
    DiscreteDistribution,
    EmbeddingOperator,
    Grid,
    Interval,
    MapCoefficients,
    SampleSet,
    UnitaryBasis,
    WaveFunction,
    born_probability,
    change_basis,
    ensemble_from_distribution,
    log_posterior_coefficients,
    log_posterior_discrete,
    probability_from_coefficients,
    wavefunction_from_distribution,
)
from densop import oracles
from densop.discrete import (
    random_density_matrix,
    random_distribution,
    random_ensemble,
    random_unitary,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------- types


def test_wavefunction_requires_unit_norm():
    WaveFunction(np.array([1.0, 0.0]))
    WaveFunction(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    with pytest.raises(ValueError):
        WaveFunction(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        WaveFunction(np.array([]))


def test_density_matrix_invariants():
    DensityMatrix(np.diag([0.25, 0.75]))
    with pytest.raises(ValueError,
                       match="^matrix is not Hermitian within 1e-12$"):
        DensityMatrix(np.array([[0.5, 0.3], [0.2, 0.5]]))
    with pytest.raises(ValueError,
                       match=r"^trace 1\.100000000000000 is not 1 within"):
        DensityMatrix(np.diag([0.5, 0.6]))
    with pytest.raises(ValueError, match=(
            r"^smallest eigenvalue -5\.000e-01 is below -1e-10$")):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_clips_tiny_negative_eigenvalues():
    eps = 5e-11
    rho = DensityMatrix(np.diag([1.0 + eps, -eps]))
    vals = np.linalg.eigvalsh(rho.entries)
    assert vals[0] >= 0.0
    assert_allclose(np.trace(rho.entries).real, 1.0, rtol=0, atol=1e-14)


def test_distribution_invariants():
    DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError, match="^sum 1.100000000000000 is not 1"):
        DiscreteDistribution(np.array([0.6, 0.5]))
    with pytest.raises(ValueError, match="^probabilities must be nonnegative"):
        DiscreteDistribution(np.array([1.2, -0.2]))


def test_unitary_invariants():
    UnitaryBasis(np.eye(3))
    with pytest.raises(ValueError,
                       match="^columns are not orthonormal within 1e-10$"):
        UnitaryBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        UnitaryBasis(np.ones((2, 3)))


_HAAR = BasisSpec("haar", 1, Interval(0.0, 1.0))
# the fields a value type takes before the array it keeps
_LEADING = {DensityCurve: (Grid(Interval(0.0, 1.0), 3),),
            MapCoefficients: (_HAAR,), EmbeddingOperator: (_HAAR,)}
_OWNERSHIP_CASES = [
    (WaveFunction, np.array([0.6, 0.8j])),
    (DensityMatrix, np.eye(3, dtype=complex) / 3),
    (DensityMatrix, np.stack([np.eye(2, dtype=complex) / 2] * 3)),
    (DiscreteDistribution, np.full(4, 0.25)),
    (DiscreteDistribution, np.full((3, 4), 0.25)),
    (UnitaryBasis, np.eye(3, dtype=complex)),
    (SampleSet, np.array([0.25, 0.5])),
    (DensityCurve, np.full(4, 1.0)),
    (MapCoefficients, np.full((2, 1), 0.5)),
    (EmbeddingOperator, np.ones(2)),
]


def _kept(cls, values):
    """The one array that the value built from `values` keeps."""
    value = cls(*_LEADING.get(cls, ()), values)
    kept, = [a for a in vars(value).values() if isinstance(a, np.ndarray)]
    return kept


@pytest.mark.parametrize("cls, values", _OWNERSHIP_CASES)
def test_types_leave_the_callers_array_writeable(cls, values):
    # the array already has the type's dtype and layout, so no conversion
    # copies it; the type keeps a frozen copy of its own. Both tests share
    # the case arrays, so each changes a copy.
    values = values.copy()
    kept = _kept(cls, values)
    assert values.flags.writeable and not kept.flags.writeable
    expected = kept.copy()
    values[...] = 7.0
    assert np.array_equal(kept, expected)


@pytest.mark.parametrize("cls, values", _OWNERSHIP_CASES)
def test_types_keep_no_view_of_the_callers_array(cls, values):
    # a read-only view of a writeable array is not the type's to freeze
    base = values.copy()
    view = base.view()
    view.flags.writeable = False
    kept = _kept(cls, view)
    expected = kept.copy()
    base[...] = 7.0
    assert np.array_equal(kept, expected)


# ---------------------------------------------------------------- ensembles


def test_ensemble_diagonal_cases():
    pure = ensemble_from_distribution(DiscreteDistribution(np.array([1.0, 0, 0])))
    assert_allclose(pure.entries, np.diag([1.0, 0, 0]), rtol=0, atol=0)
    uniform = ensemble_from_distribution(
        DiscreteDistribution(np.full(4, 0.25)))
    assert_allclose(uniform.entries, np.diag([0.25] * 4), rtol=0, atol=0)


def test_ensemble_round_trip_is_exact():
    z = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
    rho = ensemble_from_distribution(z)
    assert np.all(np.diagonal(rho.entries).real == z.probabilities)
    assert born_probability(rho).tolist() == [0.2, 0.3, 0.5]


def test_wavefunction_from_distribution_is_canonical():
    z = DiscreteDistribution(np.array([0.36, 0.64]))
    psi = wavefunction_from_distribution(z)
    assert_allclose(psi.amplitudes, [0.6, 0.8], rtol=0, atol=1e-15)
    assert np.all(psi.amplitudes.imag == 0.0)


# ---------------------------------------------------------------- born rule


def test_born_probability_diagonal_readout():
    rho = ensemble_from_distribution(
        DiscreteDistribution(np.array([0.2, 0.3, 0.5])))
    assert born_probability(rho)[2] == 0.5
    pure = ensemble_from_distribution(DiscreteDistribution(np.array([1.0, 0.0])))
    assert born_probability(pure).tolist() == [1.0, 0.0]
    stack = ensemble_from_distribution(DiscreteDistribution(
        np.array([[0.2, 0.8], [1.0, 0.0], [0.5, 0.5]])))
    assert born_probability(stack).tolist() == [[0.2, 0.8], [1.0, 0.0],
                                                [0.5, 0.5]]


def test_born_probabilities_sum_to_one():
    assert oracles.born_probability_sum(rng_for(3), 10) <= 1e-12


# ---------------------------------------------------------------- basis change


def test_change_basis_identity():
    rho = random_density_matrix(4, rng_for(5))
    w = change_basis(rho, UnitaryBasis(np.eye(4)))
    assert_allclose(w.entries, rho.entries, rtol=0, atol=1e-14)


def test_change_basis_round_trip():
    rng = rng_for(7)
    rho = random_density_matrix(5, rng)
    u = random_unitary(5, rng)
    inverse = UnitaryBasis(u.columns.conj().T)
    back = change_basis(change_basis(rho, u), inverse)
    assert np.max(np.abs(back.entries - rho.entries)) <= 1e-10


def test_change_basis_dimension_mismatch():
    rho = random_density_matrix(3, rng_for(1))
    with pytest.raises(ValueError):
        change_basis(rho, UnitaryBasis(np.eye(4)))


@pytest.mark.parametrize("route", [change_basis,
                                   probability_from_coefficients])
def test_stacks_that_do_not_pair_up_are_refused(route):
    # numpy once refused these with its own broadcast message
    rng = rng_for(4)
    rho, u = random_density_matrix(3, rng, 4), random_unitary(3, rng, 5)
    with pytest.raises(ValueError, match=(
            "^stacks of 4 and 5 members do not pair up$")):
        route(rho, u)
    # a single state or basis meets every member of a stack
    for args, count in (((rho, random_unitary(3, rng)), 4),
                        ((random_density_matrix(3, rng), u), 5)):
        out = route(*args)
        assert len(getattr(out, "entries", out)) == count


def test_hadamard_hand_oracle():
    # |0><0| in the rotated basis with columns (1,1)/sqrt2 and (1,-1)/sqrt2
    # has all four coefficients 0.5, worked out by hand.
    rho = ensemble_from_distribution(DiscreteDistribution(np.array([1.0, 0.0])))
    h = UnitaryBasis(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    w = change_basis(rho, h)
    assert_allclose(w.entries, np.full((2, 2), 0.5), rtol=0, atol=1e-15)
    # reading position probabilities back through the coefficients
    assert_allclose(probability_from_coefficients(w, h), [1.0, 0.0],
                    rtol=0, atol=1e-15)


def test_spectrum_preserved_by_change_of_basis():
    assert oracles.spectrum_under_basis_change(rng_for(11), 10) <= 1e-9


def test_probability_from_coefficients_identity_basis():
    z = DiscreteDistribution(np.array([0.1, 0.2, 0.7]))
    w = ensemble_from_distribution(z)
    eye = UnitaryBasis(np.eye(3))
    assert_allclose(probability_from_coefficients(w, eye), z.probabilities,
                    rtol=0, atol=1e-15)


def test_probability_from_coefficients_validation():
    w = random_density_matrix(3, rng_for(2))
    with pytest.raises(ValueError, match=(
            "^dimension mismatch: coefficients are 3, unitary is 4$")):
        probability_from_coefficients(w, UnitaryBasis(np.eye(4)))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_born_rule_is_basis_invariant(seed):
    rng = rng_for(seed)
    d = int(rng.integers(2, 9))
    rho = random_density_matrix(d, rng)
    u = random_unitary(d, rng)
    w = change_basis(rho, u)
    via = probability_from_coefficients(w, u)
    assert via.shape == (d,)
    assert np.max(np.abs(born_probability(rho) - via)) <= 1e-10
    assert np.all((-1e-12 <= via) & (via <= 1.0 + 1e-12))


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_ensembles_are_valid_and_exact(seed):
    rng = rng_for(seed)
    d = int(rng.integers(2, 9))
    z = random_distribution(d, rng)
    rho = random_ensemble(d, rng)
    assert rho.d == d
    assert abs(np.trace(rho.entries).real - 1.0) <= 1e-12
    assert np.all(np.diagonal(ensemble_from_distribution(z).entries).real
                  == z.probabilities)


# ---------------------------------------------------------------- stacks


def _valid_stack(count=4, d=3):
    return random_density_matrix(d, rng_for(17), count).entries.copy()


def _non_hermitian(m):
    m[0, 1] += 1e-6


def _trace_off(m):
    m[0, 0] += 1e-6


def _negative_eigenvalue(m):
    m[...] = np.diag([1.0 + 1e-6, -1e-6, 0.0])


@pytest.mark.parametrize("member", [0, 2, 3])
@pytest.mark.parametrize("spoil, message", [
    (_non_hermitian, "matrix is not Hermitian"),
    (_trace_off, "trace"),
    (_negative_eigenvalue, "smallest eigenvalue"),
])
def test_density_stack_refuses_one_bad_member_by_index(spoil, message,
                                                      member):
    entries = _valid_stack()
    DensityMatrix(entries.copy())
    spoil(entries[member])
    with pytest.raises(ValueError, match=f"^member {member}: {message}"):
        DensityMatrix(entries)


def test_distribution_and_unitary_stacks_name_the_bad_member():
    p = random_distribution(4, rng_for(3), 5).probabilities.copy()
    p[3, 0] += 1e-6
    with pytest.raises(ValueError, match="^member 3: sum"):
        DiscreteDistribution(p)
    p[3] = [1.2, -0.2, 0.0, 0.0]
    with pytest.raises(ValueError, match="^member 3: .*nonnegative"):
        DiscreteDistribution(p)
    u = random_unitary(4, rng_for(3), 5).columns.copy()
    u[1, :, 0] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="^member 1: .*orthonormal"):
        UnitaryBasis(u)
    with pytest.raises(ValueError, match="stack"):
        DensityMatrix(np.zeros((0, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("at", [(0, 1), (1, 0), (0, 0), (2, 2)])
def test_density_matrix_refuses_non_finite_entries(bad, at):
    # Cholesky and eigvalsh read one triangle, so a NaN in the other used
    # to pass every check and stay in the state.
    m = np.eye(3, dtype=complex) / 3
    m[at] = bad
    with pytest.raises(ValueError, match=(
            rf"^entries must be finite, but entry \({at[0]}, {at[1]}\)")):
        DensityMatrix(m)
    entries = _valid_stack().astype(complex)
    entries[2][at] = bad
    with pytest.raises(ValueError, match="^member 2: entries must be finite"):
        DensityMatrix(entries)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan)])
def test_wave_function_and_unitary_refuse_non_finite_entries(bad):
    amplitudes = np.array([1.0, 0.0, 0.0], dtype=complex)
    amplitudes[1] = bad
    with pytest.raises(ValueError, match=(
            r"^amplitudes must be finite, but entry 1 is")):
        WaveFunction(amplitudes)
    columns = random_unitary(3, rng_for(5), 4).columns.copy()
    columns[3, 2, 0] = bad
    with pytest.raises(ValueError, match=(
            r"^member 3: columns must be finite, but entry \(2, 0\) is")):
        UnitaryBasis(columns)


@pytest.mark.parametrize("p, message", [
    ([np.nan, 1.0], "finite, but entry 0 is nan"),
    ([0.5, np.nan, 0.5], "finite, but entry 1 is nan"),
    ([np.inf, 1.0], "finite, but entry 0 is inf"),
    ([1.0, -np.inf, np.inf], "finite, but entry 1 is -inf"),
])
def test_distribution_refuses_non_finite_entries(p, message):
    with pytest.raises(ValueError, match=f"^probabilities must be {message}"):
        DiscreteDistribution(np.array(p))
    stack = random_distribution(len(p), rng_for(4), 3).probabilities.copy()
    stack[1] = p
    with pytest.raises(ValueError, match=f"^member 1: probabilities must be "
                                         f"{message}"):
        DiscreteDistribution(stack)


def test_density_stack_rebuilds_only_members_in_the_clip_range():
    entries = _valid_stack()
    eps = 5e-11
    entries[1] = np.diag([1.0 + eps, 0.0, -eps])
    given_entries = entries.copy()
    rho = DensityMatrix(entries)
    assert np.linalg.eigvalsh(rho.entries[1])[0] >= 0.0
    assert_allclose(np.trace(rho.entries[1]).real, 1.0, rtol=0, atol=1e-14)
    for k in (0, 2, 3):
        assert rho.entries[k].tobytes() == given_entries[k].tobytes()
    # the caller's array is copied, never written
    assert entries.tobytes() == given_entries.tobytes()


def _refused_or_rebuilt(entries):
    """What DensityMatrix does with a Hermitian trace-one `entries` by
    eigenvalues alone: the refusal's message, or the entries it keeps."""
    m = np.array(entries, dtype=complex)
    stack = m.reshape(-1, *m.shape[-2:])
    smallest = np.linalg.eigvalsh(stack)[:, 0]
    for i, value in enumerate(smallest):
        if value < -1e-10:
            return ((f"member {i}: " if m.ndim == 3 else "")
                    + f"smallest eigenvalue {value:.3e} is below -1e-10")
    for i in np.flatnonzero(smallest < 0.0):
        vals, vecs = np.linalg.eigh(stack[i])
        vals = np.maximum(vals, 0.0)
        vals /= vals.sum()
        rebuilt = (vecs * vals) @ vecs.conj().T
        stack[i] = 0.5 * (rebuilt + rebuilt.conj().T)
    return m


def test_well_conditioned_stacks_need_no_eigenvalues(monkeypatch):
    # the Cholesky factor of the states less 1e-10 * I proves them all
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalues were computed")

    entries = random_density_matrix(6, rng_for(5), 43).entries.copy()
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for given_entries in (entries, entries[7], random_ensemble(
            4, rng_for(6), 9).entries, np.eye(671, dtype=complex) / 671):
        rho = DensityMatrix(given_entries)
        assert rho.entries.tobytes() == given_entries.tobytes()
    # from d = 672 on, d**2 * eps reaches the 1e-10 shift and the factor
    # proves nothing
    with pytest.raises(AssertionError, match="eigenvalues were computed"):
        DensityMatrix(np.eye(672) / 672)


# the smallest eigenvalue of each member: refused, clipped, either side of
# the Cholesky shift, and well inside it
SMALLEST = [-2e-10, -1e-10, -5e-11, 0.0, 5e-11, 1e-10, 2e-10, 1e-3]


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=2, max_value=64),
       st.lists(st.sampled_from(SMALLEST), min_size=1, max_size=3),
       st.booleans(), st.integers(min_value=0, max_value=10 ** 9))
def test_positivity_matches_eigenvalues_alone(d, smallest, stacked, seed):
    # Q diag(lambda) Q* with the given smallest lambda; the rest share the
    # remaining trace
    rng = rng_for(seed)
    q = random_unitary(d, rng, len(smallest)).columns
    rest = rng.random((len(smallest), d - 1)) + 0.5
    rest *= (1.0 - np.array(smallest))[:, None] / rest.sum(axis=1,
                                                           keepdims=True)
    lam = np.concatenate([np.array(smallest)[:, None], rest], axis=1)
    entries = (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2)
    entries = 0.5 * (entries + entries.conj().swapaxes(-1, -2))
    if not stacked:
        entries = entries[0]
    given_entries = entries.copy()
    expected = _refused_or_rebuilt(entries)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as refused:
            DensityMatrix(entries)
        assert str(refused.value) == expected
    else:
        rho = DensityMatrix(entries)
        assert rho.entries.shape == expected.shape
        assert rho.entries.tobytes() == expected.tobytes()
    assert entries.tobytes() == given_entries.tobytes()


def _reference_draws(d, rng):
    """The single-state draws of every random constructor, as loops of
    plain numpy with no stack axis."""
    p = rng.random(d) + 1e-12
    distribution = p / p.sum()
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    density = 0.5 * (m + m.conj().T)
    p = rng.random(d) + 1e-12
    ensemble = np.diag((p / p.sum()).astype(complex))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return distribution, density, ensemble, q * (diag / np.abs(diag))


@pytest.mark.parametrize("d", range(2, 9))
def test_random_draws_without_count_keep_their_bits(d):
    rng = rng_for(1000 + d)
    drawn = (random_distribution(d, rng).probabilities,
             random_density_matrix(d, rng).entries,
             random_ensemble(d, rng).entries,
             random_unitary(d, rng).columns)
    for got, expect in zip(drawn, _reference_draws(d, rng_for(1000 + d))):
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


def test_stacked_routes_match_member_by_member():
    # each route on a stack against the same route on each member, built
    # as its own validated type: the same bits
    rng = rng_for(23)
    count, d = 6, 5
    z = random_distribution(d, rng, count)
    rho = random_density_matrix(d, rng, count)
    u = random_unitary(d, rng, count)
    counts = rng.integers(0, 4, size=(count, d))
    noise = rng.random((count, d, d)) + 0.05
    noise /= noise.sum(axis=-1, keepdims=True)

    def routes(z, rho, u, counts, noise):
        w = change_basis(rho, u)
        return [w.entries, born_probability(rho),
                probability_from_coefficients(w, u),
                log_posterior_discrete(z, counts),
                log_posterior_discrete(z, counts, noise),
                log_posterior_coefficients(w, u, counts),
                log_posterior_coefficients(w, u, counts, noise)]

    stacked = routes(z, rho, u, counts, noise)
    for k in range(count):
        single = routes(DiscreteDistribution(z.probabilities[k]),
                        DensityMatrix(rho.entries[k]),
                        UnitaryBasis(u.columns[k]), counts[k], noise[k])
        assert all(isinstance(value, float) for value in single[3:])
        for got, expect in zip(stacked, single):
            assert got[k].tobytes() == np.asarray(expect).tobytes()


def _shifted(route):
    """`route` with 1e-6 added to what it returns."""
    def shifted(*args):
        out = route(*args)
        if isinstance(out, DensityMatrix):
            return SimpleNamespace(entries=out.entries + 1e-6, d=out.d)
        return out + 1e-6
    return shifted


@pytest.mark.parametrize("route, check", [
    ("born_probability", oracles.born_rule_invariance),
    ("born_probability", oracles.born_probability_sum),
    ("probability_from_coefficients", oracles.born_rule_invariance),
    ("change_basis", oracles.born_rule_invariance),
    ("change_basis", oracles.spectrum_under_basis_change),
    ("log_posterior_coefficients", oracles.posterior_coordinate_invariance),
])
def test_checks_fail_when_a_compared_route_is_shifted(monkeypatch, route,
                                                      check):
    # each check compares two routes, not one route with itself: shifting
    # one route by 1e-6 puts its residual over the tolerance
    suite, tolerance, args = next(
        (entry[0], entry[2], entry[4]) for entry in oracles.REGISTRY
        if entry[3] is check)

    def run():
        rng = np.random.default_rng(oracles.SEEDS[suite])
        return check(*(rng if a is oracles.STREAM else a for a in args))

    assert run() <= tolerance
    monkeypatch.setattr(oracles, route, _shifted(getattr(oracles, route)))
    assert run() > tolerance
