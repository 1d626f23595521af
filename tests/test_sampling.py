import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gradpce.design import GradientDesign, assemble_gradient_enhanced, draw
from gradpce.pce import PceBasis
from gradpce.polynomials import Measure
from gradpce.sampling import SampleBatch, generator, sample, split_stream

# 0.1% significance Kolmogorov-Smirnov critical constant: sqrt(-ln(alpha/2)/2).
KS_CRIT = math.sqrt(-math.log(0.0005) / 2.0)


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

    def test_chebyshev_points_stay_inside_the_open_interval(self):
        # Under this key, draw (131, 1) has u = 2.7e-9, whose cos(pi*u) rounds to 1.0.
        key = 0x8082E890C18F0EBC
        raw = np.cos(math.pi * generator(key).random((400, 3)))
        assert raw[131, 1] == 1.0
        points = sample(Measure.chebyshev(), 3, 400, seed=key).points
        assert points[131, 1] == np.nextafter(1.0, 0.0)
        assert np.all(np.abs(points) < 1.0)
        edge = np.abs(raw) == 1.0
        np.testing.assert_array_equal(points[~edge], raw[~edge])
        # The Legendre row weight of that point is positive, so the design assembles.
        batch = SampleBatch(Measure.chebyshev(), points)
        design = assemble_gradient_enhanced(PceBasis.legendre(3, 10), batch)
        assert np.all(design.w > 0.0)

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

    def test_jacobi_pairs_of_the_drawn_measures_draw_them(self):
        # Chebyshev and uniform draws compare alpha and beta, not the constructor.
        for pair, named in [((-0.5, -0.5), Measure.chebyshev()), ((0, 0), Measure.uniform())]:
            got = sample(Measure.jacobi(*pair), 2, 50, seed=14).points
            assert got.tobytes() == sample(named, 2, 50, seed=14).points.tobytes()

    @pytest.mark.parametrize("measure", [Measure.jacobi(1.5, 0.5), Measure.jacobi(-0.5, 0),
                                         Measure.jacobi(5, 0)])
    def test_other_measures_raise_naming_the_label(self, measure):
        match = rf"chebyshev, uniform or gaussian, got {re.escape(measure.label)}$"
        with pytest.raises(ValueError, match=match):
            sample(measure, 2, 3, 0)

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

    def test_batch_of_an_array_like(self):
        batch = SampleBatch(Measure.chebyshev(), [[0.1], [-0.2]])
        assert batch.points.dtype == np.float64
        np.testing.assert_array_equal(batch.points, [[0.1], [-0.2]])
        # A float64 array is stored as is.
        points = np.zeros((3, 2))
        assert SampleBatch(Measure.uniform(), points).points is points
        with pytest.raises(ValueError, match="^points must be a 2-d array$"):
            SampleBatch(Measure.uniform(), np.zeros(3))

    def test_batches_and_designs_compare_as_values(self):
        basis = PceBasis.legendre(2, 3)
        first, second = draw(basis, 5, 0), draw(basis, 5, 0)
        assert first.points is not second.points
        assert first == second and hash(first) == hash(second)
        design = GradientDesign(basis, first)
        assert design == GradientDesign(basis, second)
        assert hash(design) == hash(GradientDesign(basis, second))
        assert first != draw(basis, 5, 1)
        assert design != GradientDesign(basis, draw(basis, 5, 1))
        assert design != GradientDesign(basis, first, ())
        assert first != first.measure
        key = hash(first)
        first.points[0, 0] += 0.5
        assert hash(first) == key and first != second

    def test_subset_is_prefix(self):
        batch = sample(Measure.uniform(), 2, 30, seed=3)
        sub = batch.subset(10)
        np.testing.assert_array_equal(sub.points, batch.points[:10])
        assert sub.measure == batch.measure
        with pytest.raises(ValueError):
            batch.subset(31)
