import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puedet.errors import InvalidInputError
from puedet.propagation import (
    LinkModel,
    NoiseModel,
    distance_from_rss,
    received_power_db,
    sample_rss,
    sigma_from_snr,
)

links = st.builds(
    LinkModel,
    pt=st.floats(1e-3, 1e3),
    gt=st.floats(0.1, 100),
    gr=st.floats(0.1, 100),
    wavelength=st.floats(1e-3, 10),
    alpha=st.floats(0.5, 6),
)
distances = st.floats(1e-3, 1e6)


class TestLinkModel:
    def test_link_constant_matches_definition(self):
        link = LinkModel(pt=2.0, gt=1.5, gr=0.8, wavelength=0.125, alpha=3.0)
        expected = 10 * math.log10(2.0 * 1.5 * 0.8 * 0.125**2) - 20 * math.log10(4 * math.pi)
        assert abs(link.link_constant_db - expected) <= 1e-9

    def test_rejects_nonpositive_parameters(self):
        for kwargs in ({"pt": 0.0}, {"gt": -1.0}, {"wavelength": 0.0}, {"alpha": 0.0}):
            with pytest.raises(InvalidInputError):
                LinkModel(**kwargs)


class TestReceivedPower:
    def test_doubling_distance_drops_six_db_at_alpha_two(self):
        link = LinkModel(alpha=2.0)
        for d in (0.5, 1.0, 37.0, 1000.0):
            drop = received_power_db(link, d) - received_power_db(link, 2 * d)
            assert drop == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_unit_distance_returns_link_constant(self):
        link = LinkModel(pt=3.0, wavelength=0.5)
        assert received_power_db(link, 1.0) == link.link_constant_db

    def test_matches_linear_domain_oracle(self):
        # Independent route: evaluate the linear free-space law and convert
        # to dB, instead of using the dB-domain expression.
        link = LinkModel(pt=1.0, gt=1.0, gr=1.0, wavelength=0.333, alpha=2.0)
        d = 100.0
        pr_linear = link.pt * link.gt * link.gr * link.wavelength**2 / (4 * math.pi * d) ** 2
        assert received_power_db(link, d) == pytest.approx(10 * math.log10(pr_linear), abs=1e-9)

    def test_rejects_nonpositive_distance(self):
        link = LinkModel()
        for d in (0.0, -5.0, math.nan):
            with pytest.raises(InvalidInputError):
                received_power_db(link, d)

    @given(link=links, d=distances, factor=st.floats(1.001, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_distance(self, link, d, factor):
        assert received_power_db(link, d) > received_power_db(link, d * factor)


class TestRoundTrip:
    @given(link=links, d=distances)
    @settings(max_examples=200, deadline=None)
    def test_inverse_identity(self, link, d):
        back = distance_from_rss(link, received_power_db(link, d))
        assert back == pytest.approx(d, rel=1e-9)

    def test_link_constant_maps_to_one_meter(self):
        link = LinkModel()
        assert distance_from_rss(link, link.link_constant_db) == pytest.approx(1.0, rel=1e-12)

    def test_forty_db_is_two_decades_at_alpha_two(self):
        link = LinkModel(alpha=2.0)
        assert distance_from_rss(link, link.link_constant_db - 40.0) == pytest.approx(100.0, rel=1e-12)


class TestSampleRss:
    def test_zero_noise_equals_noiseless_value(self):
        link = LinkModel()
        rng = np.random.default_rng(0)
        s = sample_rss(link, 50.0, NoiseModel(0.0), rng)
        assert s.pr_db == received_power_db(link, 50.0)

    def test_same_seed_same_sample(self):
        link = LinkModel()
        a = sample_rss(link, 50.0, NoiseModel(3.0), np.random.default_rng(42))
        b = sample_rss(link, 50.0, NoiseModel(3.0), np.random.default_rng(42))
        assert a == b

    def test_noise_statistics(self):
        link = LinkModel()
        rng = np.random.default_rng(7)
        base = received_power_db(link, 80.0)
        vals = np.array([sample_rss(link, 80.0, NoiseModel(3.0), rng).pr_db for _ in range(100_000)])
        assert abs(vals.mean() - base) <= 0.05
        assert abs(vals.std() - 3.0) <= 0.09  # 3% of 3 dB

    def test_stream_advances_even_at_zero_noise(self):
        link = LinkModel()
        r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
        sample_rss(link, 10.0, NoiseModel(0.0), r1)
        sample_rss(link, 10.0, NoiseModel(2.0), r2)
        assert r1.standard_normal() == r2.standard_normal()


class TestSigmaFromSnr:
    def test_definition_points(self):
        assert sigma_from_snr(0.0, 10.0).sigma_db == pytest.approx(10.0)
        assert sigma_from_snr(20.0, 10.0).sigma_db == pytest.approx(1.0)
        assert sigma_from_snr(-10.0, 10.0).sigma_db == pytest.approx(31.6227766, abs=1e-6)

    @given(s1=st.floats(-60, 60), s2=st.floats(-60, 60), c=st.floats(0.01, 100))
    @settings(max_examples=100, deadline=None)
    def test_antitone_in_snr(self, s1, s2, c):
        lo, hi = min(s1, s2), max(s1, s2)
        assert sigma_from_snr(lo, c).sigma_db >= sigma_from_snr(hi, c).sigma_db

    def test_rejects_bad_calibration(self):
        with pytest.raises(InvalidInputError):
            sigma_from_snr(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            sigma_from_snr(math.nan, 1.0)

    def test_noise_beyond_float_range_is_typed(self):
        # 10^(8000/20) overflows the power; 100 * 10^(6160/20) only the product.
        for snr, c in ((-8000.0, 0.15), (-6160.0, 100.0)):
            with pytest.raises(InvalidInputError, match=str(snr)):
                sigma_from_snr(snr, c)


def test_noise_model_rejects_negative_sigma():
    with pytest.raises(InvalidInputError):
        NoiseModel(-1.0)
