import math

import numpy as np
import pytest

from satstab.saturation import UNSATURATED, SaturationLevel, deadzone, sat, sector_holds

UNIT = SaturationLevel(1.0)


def test_sat_inside():
    assert sat(0.5, UNIT) == 0.5


def test_sat_clamps_sign():
    assert sat(-3.0, UNIT) == -1.0


def test_sat_componentwise():
    np.testing.assert_array_equal(sat(np.array([2.0, -0.1, 1.0]), UNIT), [1.0, -0.1, 1.0])


def test_level_validation():
    with pytest.raises(ValueError):
        SaturationLevel(0.0)


def test_deadzone_values():
    assert deadzone(0.5, UNIT) == 0.0
    assert deadzone(3.0, UNIT) == -2.0
    assert deadzone(-3.0, UNIT) == 2.0


def test_deadzone_zero_iff_inside():
    rng = np.random.default_rng(7)
    u = rng.uniform(-3, 3, size=(200, 2))
    phi = np.array([deadzone(row, UNIT) for row in u])
    inside = np.all(np.abs(u) <= 1.0, axis=1)
    assert np.array_equal(np.all(phi == 0.0, axis=1), inside)


def test_sat_bound_and_lipschitz():
    rng = np.random.default_rng(11)
    a = rng.uniform(-10, 10, 1000)
    b = rng.uniform(-10, 10, 1000)
    ell = SaturationLevel(1.7)
    sa, sb = sat(a, ell), sat(b, ell)
    assert np.all(np.abs(sa) <= np.minimum(np.abs(a), 1.7) + 1e-15)
    assert np.all(np.abs(sa - sb) <= np.abs(a - b) + 1e-15)


def test_unsaturated_is_identity():
    x = np.array([-1e9, 0.0, 3.7, 1e12])
    np.testing.assert_array_equal(sat(x, UNSATURATED), x)


def test_gain_norm_bound():
    rng = np.random.default_rng(3)
    for _ in range(100):
        K = rng.normal(size=(2, 3))
        z = rng.normal(size=3)
        assert np.linalg.norm(sat(K @ z, UNIT)) <= np.linalg.norm(K, 2) * np.linalg.norm(z) + 1e-12


class TestSector:
    def test_linear_zone_equality(self):
        report = sector_holds(np.array([0.1]), [[1.0]], [[0.0]], [[2.0]], UNIT)
        assert report.hypothesis_ok
        assert report.weighted_value == 0.0
        assert report.holds

    def test_hypothesis_violated_reported(self):
        # K=-3, C=0, z=1: |(K-C)z| = 3 > ell
        report = sector_holds(np.array([1.0]), [[-3.0]], [[0.0]], [[1.0]], UNIT)
        assert not report.hypothesis_ok

    def test_fuzz_never_violates(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 10000:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            K = rng.normal(size=(m, n)) * rng.uniform(0.5, 3)
            C = rng.normal(size=(m, n)) * rng.uniform(0.0, 2)
            D = np.diag(rng.uniform(0.1, 5.0, m))
            ell = SaturationLevel(float(rng.uniform(0.2, 3.0)))
            z = rng.normal(size=n)
            gap = np.abs((K - C) @ z)
            if gap.max() > 0:
                z = z * min(1.0, ell.ell / gap.max()) * rng.uniform(0.0, 1.0)
            report = sector_holds(z, K, C, D, ell)
            assert report.hypothesis_ok
            assert report.holds, (K, C, z, ell)
            checked += 1

    def test_row_batch_matches_each_row(self):
        # one call on a batch of states gives criterion 05's per-row formula for each row
        rng = np.random.default_rng(2718)
        flagged = 0
        for draw in range(300):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            K = rng.normal(size=(m, n)) * rng.uniform(0.5, 3.0)
            C = rng.normal(size=(m, n)) * rng.uniform(0.0, 2.0)
            D = np.diag(rng.uniform(0.05, 5.0, m))
            level = SaturationLevel(math.inf if draw % 5 == 0 else float(rng.uniform(0.2, 3.0)))
            # from well inside the hypothesis to ten times past it
            z = rng.normal(size=(40, n)) * rng.uniform(0.0, 10.0, (40, 1))
            batch = sector_holds(z, K, C, D, level)
            assert [a.shape for a in batch] == [(40,)] * 3
            for row, ok, value, holds in zip(z, *batch):
                phi = deadzone(K @ row, level)
                expected = phi @ D @ (phi + C @ row)
                # the two orders of summation round apart by a few eps of |K||z| in phi
                size = np.abs(K) @ np.abs(row)
                scale = size @ D @ (size + np.abs(C) @ np.abs(row))
                assert ok == bool(np.all(np.abs((K - C) @ row) <= level.ell))
                assert abs(value - expected) <= 1e-14 * scale
                assert holds == (expected <= 1e-12)
            flagged += int(np.sum(~batch.hypothesis_ok))
        assert flagged > 1000  # the draws do leave the hypothesis
