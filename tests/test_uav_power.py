import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import uav_power as up
from uavrelay.scenario import PropulsionParams

PP = PropulsionParams()


class TestDerived:
    def test_profile_power(self):
        # (delta/8) rho s A Omega^3 R^3 with the default constants
        assert up.derived(PP).p0 == pytest.approx(79.85628, rel=1e-12)

    def test_induced_power(self):
        # (1+k) W^1.5 / sqrt(2 rho A)
        assert up.derived(PP).pi == pytest.approx(88.62793774108200, rel=1e-12)

    def test_hover(self):
        assert up.hover_power(PP) == pytest.approx(168.484217741082, rel=1e-12)


class TestFlyingPower:
    def test_hover_equals_sum(self):
        assert up.flying_power(0.0, PP) == pytest.approx(up.hover_power(PP), rel=1e-12)

    def test_v10_reference(self):
        # frozen from an arbitrary-precision evaluation
        assert up.flying_power(10.0, PP) == pytest.approx(126.02906866751310, rel=1e-12)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            up.flying_power(-1.0, PP)
        with pytest.raises(ValueError):
            up.flying_power_upper(-1.0, PP)


class TestUpperBound:
    def test_tight_at_hover(self):
        assert up.flying_power_upper(0.0, PP) == pytest.approx(up.flying_power(0.0, PP), rel=1e-12)

    def test_v10_reference(self):
        assert up.flying_power_upper(10.0, PP) == pytest.approx(179.39051524108200, rel=1e-12)

    def test_dominates_exact_curve(self):
        for v in np.linspace(0.0, 60.0, 241):
            assert up.flying_power_upper(v, PP) >= up.flying_power(v, PP) - 1e-12

    def test_convex_second_differences(self):
        grid = np.linspace(0.0, 60.0, 121)
        vals = np.array([up.flying_power_upper(v, PP) for v in grid])
        assert np.all(np.diff(vals, 2) >= -1e-9)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert up.flying_power_upper(hi, PP) >= up.flying_power_upper(lo, PP) - 1e-12


class TestMaxSpeed:
    def test_boundary_budget_gives_zero(self):
        assert up.max_speed_under_energy(up.hover_power(PP), 1.0, PP) == pytest.approx(0.0, abs=1e-6)

    def test_insufficient_budget_rejected(self):
        with pytest.raises(ValueError):
            up.max_speed_under_energy(100.0, 1.0, PP)

    def test_500j_reference(self):
        v = up.max_speed_under_energy(500.0, 1.0, PP)
        assert up.flying_power_upper(v, PP) * 1.0 <= 500.0
        assert 500.0 - up.flying_power_upper(v, PP) * 1.0 < 1e-3
        assert v == pytest.approx(32.3897, abs=1e-3)

    @given(st.floats(200.0, 5000.0))
    @settings(max_examples=30, deadline=None)
    def test_doubling_budget_never_slower(self, e):
        assert up.max_speed_under_energy(2 * e, 1.0, PP) >= up.max_speed_under_energy(e, 1.0, PP)

    def test_move_radius(self):
        assert up.move_radius(15.0, 500.0, 1.0, PP) == pytest.approx(15.0)
        v = up.max_speed_under_energy(200.0, 1.0, PP)
        assert up.move_radius(50.0, 200.0, 1.0, PP) == pytest.approx(v * 1.0)
        # memoized answers are the bisection's, bit for bit, on every call
        for _ in range(2):
            assert up.move_radius(50.0, 200.0, 1.0, PP) == min(50.0, v * 1.0)
