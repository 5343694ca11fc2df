import math

import numpy as np
import pytest

from conftest import interval_moments_oracle
from tritstream.codec import canonicalize, expected_distortion
from tritstream.gaussian import ElementModel, build_element_model
from tritstream.formats import Shape
from tritstream.synth import SynthConfig, generate, mc_distortion_oracle


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(shape=Shape(3, 4, 5), seed=17)
        v1, s1 = generate(cfg)
        v2, s2 = generate(cfg)
        assert np.array_equal(v1, v2)
        assert np.array_equal(s1, s2)
        v3, _ = generate(SynthConfig(shape=Shape(3, 4, 5), seed=18))
        assert not np.array_equal(v1, v3)

    def test_shapes_and_dtypes(self):
        v, s = generate(SynthConfig(shape=Shape(2, 3, 4), seed=0))
        assert v.shape == s.shape == (2, 3, 4)
        assert v.dtype == np.int64
        assert s.dtype == np.float32

    def test_sigma_range(self):
        v, s = generate(SynthConfig(shape=Shape(8, 8, 8), sigma_lo=0.5,
                                    sigma_hi=2.0, seed=1))
        assert s.min() >= 0.5 * (1 - 1e-6)
        assert s.max() <= 2.0 * (1 + 1e-6)

    def test_full_zero_weight(self):
        v, _ = generate(SynthConfig(shape=Shape(4, 4, 4), zero_weight=1.0, seed=2))
        assert np.all(v == 0)

    def test_zero_is_the_dominant_value(self):
        v, _ = generate(SynthConfig(shape=Shape(16, 8, 12), seed=3))
        # zero inflation (0.3) plus the mass rounding to 0 keeps the mode at 0
        assert (v == 0).mean() >= 0.5

    def test_emits_jointly_canonical_values(self):
        v, s = generate(SynthConfig(shape=Shape(6, 6, 6), seed=4))
        assert np.array_equal(canonicalize(v, s, base=3), v)
        assert np.array_equal(canonicalize(v, s, base=2), v)

    @pytest.mark.parametrize("kwargs", [
        dict(zero_weight=-0.1), dict(zero_weight=1.5),
        dict(sigma_lo=0.01), dict(sigma_lo=2.0, sigma_hi=1.0),
        dict(sigma_hi=40000.0), dict(sigma_lo=float("nan")), dict(sigma_hi=float("nan")),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(shape=Shape(1, 1, 1), **kwargs)

    def test_plain_tuple_shape_is_coerced(self):
        config = SynthConfig(shape=(2, 3, 4), seed=5)
        assert config.shape == Shape(2, 3, 4)
        assert np.array_equal(generate(config)[0],
                              generate(SynthConfig(shape=Shape(2, 3, 4), seed=5))[0])
        with pytest.raises(TypeError):
            SynthConfig(shape=(2, 3))


def _uniform_model(base: int, exponent: int) -> ElementModel:
    n = base ** exponent
    offset = -(n - 1) // 2 if base == 3 else -(n // 2) + 1
    return ElementModel(sigma=1.0, base=base, exponent=exponent, offset=offset,
                        masses=np.full(n, 1.0 / n))


class TestMcOracle:
    def test_uniform_trit_interval(self):
        # var of U{-1,0,1} is 2/3; one digit resolves everything
        m = _uniform_model(3, 1)
        assert expected_distortion(m, 0) == pytest.approx(2 / 3, rel=1e-12)
        mc = mc_distortion_oracle(m, 0, 400_000, seed=5)
        assert mc == pytest.approx(2 / 3, rel=0.01)

    def test_full_depth_is_exactly_zero(self):
        m = build_element_model(1.0, 3)
        assert mc_distortion_oracle(m, m.exponent, 10, seed=0) == 0.0
        assert expected_distortion(m, m.exponent) == 0.0

    def test_validation(self):
        m = build_element_model(1.0, 3)
        with pytest.raises(ValueError):
            mc_distortion_oracle(m, m.exponent + 1, 100)
        with pytest.raises(ValueError):
            mc_distortion_oracle(m, 0, 0)
        with pytest.raises(ValueError):
            expected_distortion(m, -1)

    @pytest.mark.parametrize("sigma,base", [(1.0, 3), (1.0, 2), (2.7, 3), (5.0, 2)])
    def test_analytic_matches_mc_at_every_depth(self, sigma, base):
        m = build_element_model(sigma, base)
        for n in range(m.exponent):
            a = expected_distortion(m, n)
            mc = mc_distortion_oracle(m, n, 300_000, seed=7 * n + 1)
            assert mc == pytest.approx(a, rel=0.03)

    def test_analytic_against_fsum_oracle(self):
        # independent route: block-by-block conditional variances via fsum
        sigma, base = 1.9, 3
        m = build_element_model(sigma, base)
        for n in range(m.exponent + 1):
            blocks = base ** n
            width = m.masses.size // blocks
            acc = []
            wts = []
            for b in range(blocks):
                seg = m.support[b * width:(b + 1) * width]
                wt = math.fsum(float(x) for x in m.masses[b * width:(b + 1) * width])
                if width == 1:
                    acc.append(0.0)
                else:
                    _, v = interval_moments_oracle(sigma, seg)
                    acc.append(v * wt)
                wts.append(wt)
            expect = math.fsum(acc) / math.fsum(wts)
            assert expected_distortion(m, n) == pytest.approx(expect, rel=1e-9, abs=1e-15)

    def test_initial_distortion_sigma1(self):
        # discretized clipped N(0,1): variance 1.08333 (mpmath, 40 digits)
        assert expected_distortion(build_element_model(1.0, 3), 0) == \
            pytest.approx(1.083333322361118, rel=1e-10)
        assert expected_distortion(build_element_model(1.0, 2), 0) == \
            pytest.approx(1.0833333223591095, rel=1e-10)
