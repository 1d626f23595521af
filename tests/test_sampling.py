import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gradpce.polynomials import Measure
from gradpce.sampling import sample, split_stream

# 0.1% significance Kolmogorov-Smirnov critical constant: sqrt(-ln(alpha/2)/2).
KS_CRIT = math.sqrt(-math.log(0.0005) / 2.0)


# Jacobi parameters (alpha, beta) of the per-pair distribution test. The
# Chebyshev pair is left out: test_chebyshev_matches_arcsine_ks covers it.
JACOBI_PAIRS = [
    (a, b)
    for a in (-0.5, 0.0, 0.5, 1.0, 2.5, 10.0)
    for b in (-0.5, 0.0, 0.5, 1.0, 2.5, 10.0)
    if (a, b) != (-0.5, -0.5)
]

# Kolmogorov-Smirnov critical constant at a family-wise 0.1% level over the
# pairs above (Bonferroni: each pair is tested at 0.1% / len(JACOBI_PAIRS)).
JACOBI_PAIRS_KS_CRIT = math.sqrt(-math.log(0.0005 / len(JACOBI_PAIRS)) / 2.0)


def arcsine_cdf(x):
    return (2.0 / math.pi) * np.arcsin(np.sqrt((x + 1.0) / 2.0))


class TestSplitStream:
    def test_deterministic(self):
        assert split_stream(42, 7) == split_stream(42, 7)

    def test_rejects_negative_trial(self):
        with pytest.raises(ValueError):
            split_stream(3, -1)

    @pytest.mark.parametrize("field, args", [("seed", (1.5, 0)), ("trial", (1, True)),
                                             ("trial", (1, 2.0))])
    def test_ill_typed_arguments_name_the_field(self, field, args):
        with pytest.raises(ValueError, match=field):
            split_stream(*args)

    def test_numpy_integers_accepted(self):
        assert split_stream(np.int64(42), np.uint8(7)) == split_stream(42, 7)
        assert split_stream(np.int64(-1), np.int64(3)) == split_stream(-1, 3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10_000))
    def test_in_range(self, seed, trial):
        key = split_stream(seed, trial)
        assert 0 <= key < 2**64

    def test_no_collisions_across_trials(self):
        seen = {split_stream(123, t) for t in range(10_000)}
        assert len(seen) == 10_000

    def test_distinct_seeds_decorrelate(self):
        a = {split_stream(1, t) for t in range(1000)}
        b = {split_stream(2, t) for t in range(1000)}
        assert not a & b


class TestSample:
    def test_reproducible(self):
        a = sample(Measure.chebyshev(), 3, 50, seed=9)
        b = sample(Measure.chebyshev(), 3, 50, seed=9)
        np.testing.assert_array_equal(a.points, b.points)

    def test_seed_changes_points(self):
        a = sample(Measure.chebyshev(), 2, 50, seed=1)
        b = sample(Measure.chebyshev(), 2, 50, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_shapes_and_support(self):
        batch = sample(Measure.chebyshev(), 4, 200, seed=5)
        assert batch.points.shape == (200, 4)
        assert np.all(np.abs(batch.points) <= 1.0)

    def test_chebyshev_matches_arcsine_ks(self):
        n = 100_000
        batch = sample(Measure.chebyshev(), 1, n, seed=2024)
        stat = stats.kstest(batch.points[:, 0], arcsine_cdf).statistic
        assert stat < KS_CRIT / math.sqrt(n)

    def test_uniform_ks(self):
        n = 100_000
        batch = sample(Measure.uniform(), 1, n, seed=11)
        stat = stats.kstest(batch.points[:, 0], lambda x: (x + 1.0) / 2.0).statistic
        assert stat < KS_CRIT / math.sqrt(n)

    def test_gaussian_ks(self):
        n = 100_000
        batch = sample(Measure.gaussian(), 1, n, seed=12)
        stat = stats.kstest(batch.points[:, 0], stats.norm.cdf).statistic
        assert stat < KS_CRIT / math.sqrt(n)

    def test_jacobi_beta_ks(self):
        n = 50_000
        alpha, beta = 1.5, 0.5
        batch = sample(Measure.jacobi(alpha, beta), 1, n, seed=13)
        # x = 2t - 1 with t ~ Beta(beta+1, alpha+1).
        cdf = lambda x: stats.beta.cdf((x + 1.0) / 2.0, beta + 1.0, alpha + 1.0)
        stat = stats.kstest(batch.points[:, 0], cdf).statistic
        assert stat < KS_CRIT / math.sqrt(n)

    @pytest.mark.parametrize("alpha,beta", JACOBI_PAIRS)
    def test_jacobi_points_invert_the_cdf(self, alpha, beta):
        # x = 2t - 1 with t ~ Beta(beta+1, alpha+1): the Beta CDF must map the
        # points back to uniform draws, which a KS test checks per pair.
        points = sample(Measure.jacobi(alpha, beta), 2, 1000, seed=14).points
        assert np.all(np.abs(points) <= 1.0)
        np.testing.assert_array_equal(
            points, sample(Measure.jacobi(alpha, beta), 2, 1000, seed=14).points
        )
        cdf = lambda x: stats.beta.cdf((x + 1.0) / 2.0, beta + 1.0, alpha + 1.0)
        stat = stats.kstest(points.ravel(), cdf).statistic
        assert stat < JACOBI_PAIRS_KS_CRIT / math.sqrt(points.size)

    def test_coordinates_uncorrelated(self):
        batch = sample(Measure.chebyshev(), 3, 100_000, seed=77)
        corr = np.corrcoef(batch.points, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.01)

    def test_distinct_trial_streams_differ(self):
        seed = 31
        a = sample(Measure.chebyshev(), 2, 10, split_stream(seed, 0))
        b = sample(Measure.chebyshev(), 2, 10, split_stream(seed, 1))
        assert not np.array_equal(a.points, b.points)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample(Measure.chebyshev(), 0, 5, seed=1)
        with pytest.raises(ValueError):
            sample(Measure.chebyshev(), 2, 0, seed=1)

    @pytest.mark.parametrize("field, args", [("count", (2, 2.5, 0)), ("dim", (True, 3, 0)),
                                             ("seed", (2, 3, 1.5))])
    def test_ill_typed_arguments_name_the_field(self, field, args):
        with pytest.raises(ValueError, match=field):
            sample(Measure.uniform(), *args)

    @pytest.mark.parametrize("measure", ["legendre", None, 3])
    def test_non_measure_names_the_field(self, measure):
        with pytest.raises(ValueError, match="measure must be a Measure"):
            sample(measure, 2, 3, 0)

    def test_numpy_integers_accepted(self):
        got = sample(Measure.uniform(), np.int64(2), np.int32(3), np.uint64(5))
        assert got.points.tobytes() == sample(Measure.uniform(), 2, 3, 5).points.tobytes()

    def test_subset_is_prefix(self):
        batch = sample(Measure.uniform(), 2, 30, seed=3)
        sub = batch.subset(10)
        np.testing.assert_array_equal(sub.points, batch.points[:10])
        assert sub.measure == batch.measure
        with pytest.raises(ValueError):
            batch.subset(31)
