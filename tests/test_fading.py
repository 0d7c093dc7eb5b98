import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from fsolink.fading import pdf, sample


class TestPdf:
    @pytest.mark.parametrize("sigma_j2", [0.04, 0.25, 1.0])
    def test_normalizes_to_one(self, sigma_j2):
        total, _ = quad(lambda x: pdf(sigma_j2, x), 1e-12, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sigma_j2", [0.04, 0.25, 1.0])
    def test_unit_mean_by_quadrature(self, sigma_j2):
        mean, _ = quad(lambda x: x * pdf(sigma_j2, x), 1e-12, np.inf, limit=200)
        assert mean == pytest.approx(1.0, abs=1e-6)

    def test_mode_location(self):
        # d/dI log p = 0 at I = exp(-3 s2 / 2); verified against a grid argmax.
        mode = math.exp(-3.0 * 0.25 / 2.0)
        grid = np.linspace(0.01, 3.0, 200_001)
        argmax = grid[np.argmax(pdf(0.25, grid))]
        assert mode == pytest.approx(0.6872892787909722, rel=1e-12)
        assert argmax == pytest.approx(mode, abs=2e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pdf(0.25, 0.0)
        with pytest.raises(ValueError):
            pdf(0.25, -1.0)
        for sigma_j2 in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="sigma_j2 > 0"):
                pdf(sigma_j2, 1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_pdf_and_sample_reject_infinite_sigma(value):
    with pytest.raises(ValueError, match="sigma_j2 > 0 and finite"):
        pdf(value, 1.0)
    with pytest.raises(ValueError, match="sigma_j2 must be >= 0 and finite"):
        sample(value, np.random.default_rng(0), 2)


class TestSample:
    def test_degenerate_sigma_returns_ones(self):
        draws = sample(0.0, np.random.default_rng(7), 1000)
        assert np.all(draws == 1.0)

    @pytest.mark.parametrize("sigma_j2", [0.04, 0.25, 1.0])
    def test_mean_and_variance(self, sigma_j2):
        n = 1_000_000
        draws = sample(sigma_j2, np.random.default_rng(42), n)
        var = math.expm1(sigma_j2)
        # SD of the sample mean; the sample variance estimator's own SD uses
        # the 4th central moment of the log-normal.
        mean_tol = 3.0 * math.sqrt(var / n)
        assert draws.mean() == pytest.approx(1.0, abs=mean_tol)
        mu4 = _lognormal_central_moment4(sigma_j2)
        var_tol = 3.0 * math.sqrt((mu4 - var**2) / n)
        assert draws.var(ddof=1) == pytest.approx(var, abs=var_tol)

    def test_kolmogorov_smirnov_against_pdf_cdf(self):
        sigma_j2 = 0.25
        draws = sample(sigma_j2, np.random.default_rng(99), 100_000)
        sigma = math.sqrt(sigma_j2)

        def cdf(x):
            # CDF implied by the density: Phi((ln x + s2/2)/s)
            from scipy.stats import norm

            return norm.cdf((np.log(x) + sigma_j2 / 2.0) / sigma)

        result = kstest(draws, cdf)
        assert result.pvalue > 0.01

    def test_reproducible_for_fixed_seed(self):
        a = sample(0.25, np.random.default_rng(1234), 10_000)
        b = sample(0.25, np.random.default_rng(1234), 10_000)
        assert np.array_equal(a, b)

    def test_equals_the_out_of_place_formula_bit_for_bit(self):
        sigma_j2 = 0.37
        z = np.random.default_rng(8).standard_normal(10_001)
        expected = np.exp(math.sqrt(sigma_j2) * z - sigma_j2 / 2.0)
        assert np.array_equal(sample(sigma_j2, np.random.default_rng(8), 10_001), expected)

    def test_distinct_seeds_differ(self):
        a = sample(0.25, np.random.default_rng(1), 1000)
        b = sample(0.25, np.random.default_rng(2), 1000)
        assert not np.array_equal(a, b)

    def test_matched_seeds_are_comonotone_across_sigma(self):
        # Same seed, smaller sigma: draws are a monotone contraction of the
        # same underlying normals, so log-spread shrinks pointwise.
        narrow = sample(0.05, np.random.default_rng(5), 10_000)
        wide = sample(0.50, np.random.default_rng(5), 10_000)
        assert np.log(narrow).std() < np.log(wide).std()
        corr = np.corrcoef(np.log(narrow), np.log(wide))[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample(0.25, np.random.default_rng(0), 0)

    def test_draws_only_from_a_generator(self):
        with pytest.raises(TypeError, match="rng"):
            sample(0.3, 7, 5)

    def test_rejects_negative_sigma(self):
        for sigma_j2 in (-0.1, math.nan):
            with pytest.raises(ValueError, match="sigma_j2 must be >= 0"):
                sample(sigma_j2, np.random.default_rng(0), 1)


def _lognormal_central_moment4(sigma_j2: float) -> float:
    """E[(I-1)^4] for the unit-mean log-normal, from raw moments E[I^k] =
    exp(k(k-1) s2 / 2)."""
    m = [math.exp(k * (k - 1) * sigma_j2 / 2.0) for k in range(5)]
    return m[4] - 4.0 * m[3] + 6.0 * m[2] - 4.0 * m[1] + 1.0
