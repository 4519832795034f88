import bisect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puedet.config import SweepSettings
from puedet.detection import (
    ATTACKER,
    LEGITIMATE,
    OR_ACROSS_ANCHORS,
    DetectorConfig,
    anchor_distance,
    calibrate_tau,
    decide,
    detect_step,
    rss_baseline_decide,
)
from puedet.errors import InvalidInputError
from puedet.propagation import LinkModel, RssSample, received_power_db
from puedet.scenario import AnchorNode
from puedet.tracking import FilterEstimate, TargetState


def estimate_at(x, y):
    return FilterEstimate(TargetState(x, y, 0.0, 0.0), np.eye(4))


def rss_at_distance(link, d):
    return RssSample(received_power_db(link, d))


class TestAnchorDistance:
    def test_three_four_five(self):
        assert anchor_distance(estimate_at(0, 0), AnchorNode("a", 3.0, 4.0)) == 5.0

    def test_coincident(self):
        assert anchor_distance(estimate_at(2, -2), AnchorNode("a", 2.0, -2.0)) == 0.0

    def test_shifted(self):
        assert anchor_distance(estimate_at(-1, 2), AnchorNode("a", 2.0, -2.0)) == 5.0


class TestDecide:
    def test_zero_residual_is_legitimate(self):
        v = decide(100.0, 100.0, DetectorConfig(5.0))
        assert v.label == LEGITIMATE and v.residual == 0.0

    def test_boundary_counts_as_attack(self):
        v = decide(100.0, 105.0, DetectorConfig(5.0))
        assert v.label == ATTACKER and v.residual == 5.0

    def test_strict_interior_is_legitimate(self):
        assert decide(100.0, 104.9, DetectorConfig(5.0)).label == LEGITIMATE

    def test_residual_field_is_exact(self):
        v = decide(12.25, 3.5, DetectorConfig(1.0))
        assert v.residual == abs(12.25 - 3.5)

    @given(
        d_kf=st.floats(0, 1e6),
        d_rss=st.floats(0, 1e6),
        tau1=st.floats(0, 1e6),
        tau2=st.floats(0, 1e6),
        boost=st.floats(0, 1e5),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_residual_and_tau(self, d_kf, d_rss, tau1, tau2, boost):
        lo, hi = min(tau1, tau2), max(tau1, tau2)
        # raising tau never flips Legitimate -> Attacker
        if decide(d_kf, d_rss, DetectorConfig(lo)).label == LEGITIMATE:
            assert decide(d_kf, d_rss, DetectorConfig(hi)).label == LEGITIMATE
        # growing the residual never flips Attacker -> Legitimate
        if decide(d_kf, d_rss, DetectorConfig(lo)).label == ATTACKER:
            wider = d_rss + boost if d_rss >= d_kf else d_rss - boost
            assert decide(d_kf, max(wider, 0.0), DetectorConfig(lo)).label == ATTACKER


class TestDetectStep:
    link = LinkModel()

    def test_truthful_estimate_and_pu_rss_is_legitimate(self):
        anchor = AnchorNode("a", 100.0, 0.0)
        v = detect_step(
            estimate_at(0.0, 0.0),
            [rss_at_distance(self.link, 100.0)],
            [anchor],
            self.link,
            DetectorConfig(1.0),
        )
        assert v.label == LEGITIMATE
        assert v.residual == pytest.approx(0.0, abs=1e-9)

    def test_collinear_attacker_residual_equals_offset(self):
        # PU at origin, attacker 50 m toward the anchor, anchor beyond it.
        anchor = AnchorNode("a", 200.0, 0.0)
        v = detect_step(
            estimate_at(0.0, 0.0),
            [rss_at_distance(self.link, 150.0)],
            [anchor],
            self.link,
            DetectorConfig(10.0),
        )
        assert v.label == ATTACKER
        assert v.residual == pytest.approx(50.0, rel=1e-9)

    def test_randomized_geometry_against_brute_force(self):
        rng = np.random.default_rng(3)
        cfg = DetectorConfig(10.0)
        for _ in range(1000):
            pu = rng.uniform(-500, 500, 2)
            tx = rng.uniform(-500, 500, 2)
            anchor = AnchorNode("a", *rng.uniform(-500, 500, 2))
            d_tx = math.hypot(tx[0] - anchor.x, tx[1] - anchor.y)
            if d_tx < 1e-6:
                continue
            v = detect_step(
                estimate_at(*pu),
                [rss_at_distance(self.link, d_tx)],
                [anchor],
                self.link,
                cfg,
            )
            expected = abs(
                math.hypot(pu[0] - anchor.x, pu[1] - anchor.y) - d_tx
            )
            assert v.residual == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_step(estimate_at(0, 0), [], [], self.link, DetectorConfig(1.0))

    def test_or_fusion_flags_superset(self):
        anchors = [AnchorNode("a", 100.0, 0.0), AnchorNode("b", 0.0, 100.0)]
        # anchor a sees a consistent distance, anchor b a wildly wrong one
        samples = [rss_at_distance(self.link, 100.0), rss_at_distance(self.link, 400.0)]
        single = detect_step(estimate_at(0, 0), samples, anchors, self.link, DetectorConfig(10.0))
        fused = detect_step(
            estimate_at(0, 0), samples, anchors, self.link,
            DetectorConfig(10.0, fusion=OR_ACROSS_ANCHORS),
        )
        assert single.label == LEGITIMATE
        assert fused.label == ATTACKER
        assert fused.residual == pytest.approx(300.0, rel=1e-9)


class TestRssBaseline:
    link = LinkModel()

    def test_pu_still_at_reference_is_legitimate(self):
        anchor = AnchorNode("a", 100.0, 0.0)
        v = rss_baseline_decide((0.0, 0.0), anchor, rss_at_distance(self.link, 100.0), self.link, DetectorConfig(5.0))
        assert v.label == LEGITIMATE

    def test_moved_pu_causes_false_alarm(self):
        # transmitter is the PU, now 100 m past its initial position
        anchor = AnchorNode("a", 300.0, 0.0)
        v = rss_baseline_decide((0.0, 0.0), anchor, rss_at_distance(self.link, 200.0), self.link, DetectorConfig(10.0))
        assert v.label == ATTACKER
        assert v.residual == pytest.approx(100.0, rel=1e-9)

    def test_attacker_at_reference_is_missed(self):
        anchor = AnchorNode("a", 100.0, 0.0)
        v = rss_baseline_decide((0.0, 0.0), anchor, rss_at_distance(self.link, 100.0), self.link, DetectorConfig(5.0))
        assert v.label == LEGITIMATE  # indistinguishable by construction


class TestCalibrateTau:
    def test_quantile_on_one_to_hundred(self):
        residuals = np.arange(1.0, 101.0)
        cfg = calibrate_tau(residuals, 0.10)
        assert cfg.tau == 91.0
        assert np.mean(residuals >= cfg.tau) == pytest.approx(0.10)

    def test_tiny_target_picks_maximum(self):
        residuals = np.arange(1.0, 101.0)
        with pytest.warns(RuntimeWarning, match="a sample of 100 resolves no rate below 1/100"):
            cfg = calibrate_tau(residuals, 1e-9)
        assert cfg.tau == 100.0
        # only the maximum itself fires under the >= rule
        assert np.sum(residuals >= cfg.tau) == 1

    def test_degenerate_constant_sample_reported(self):
        with pytest.warns(RuntimeWarning, match="above the target.*tied residuals"):
            cfg = calibrate_tau(np.full(50, 3.0), 0.2)
        assert cfg.tau == 3.0
        assert np.mean(np.full(50, 3.0) >= cfg.tau) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            calibrate_tau([], 0.1)
        with pytest.raises(InvalidInputError):
            calibrate_tau([1.0], 0.0)
        with pytest.raises(InvalidInputError):
            calibrate_tau([1.0, np.nan], 0.1)

    @given(
        sample=st.lists(st.floats(0, 1e6), min_size=1, max_size=400),
        target=st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sorting_oracle(self, sample, target):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cfg = calibrate_tau(sample, target)
        # independent oracle: the smallest residual whose share of the sample
        # at or above it is at most the target, else the largest
        s = sorted(sample)
        meets = [r for r in s if (len(s) - bisect.bisect_left(s, r)) / len(s) <= target]
        assert cfg.tau == (meets[0] if meets else s[-1])

    @pytest.mark.parametrize("n, targets", [(50, (0.05,)), (4096, SweepSettings.pfa_targets)])
    def test_distinct_residuals_meet_the_target(self, n, targets):
        # target * n is not a whole number here, and the residuals have no
        # ties, so the rate must come out at or under the target, unwarned.
        residuals = np.random.default_rng(n).permutation(n) * 0.25
        for target in targets:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tau = calibrate_tau(residuals, target).tau
            assert np.mean(residuals >= tau) <= target
            # The next residual down would overshoot: tau is the smallest that meets it.
            assert np.mean(residuals >= tau - 0.25) > target


def test_detector_config_validation():
    with pytest.raises(InvalidInputError):
        DetectorConfig(-1.0)
    with pytest.raises(InvalidInputError):
        DetectorConfig(1.0, fusion="majority")
