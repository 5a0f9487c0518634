import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relinfo.design import (
    Design,
    PRESETS,
    base_design,
    doubled_design,
    interlaced_design,
    sx,
    variance_ratio,
)
from relinfo.errors import DomainError, ValidationError


class TestPresetValues:
    def test_base(self):
        assert sx(base_design()) == Fraction(95, 27)

    def test_doubled(self):
        assert sx(doubled_design()) == Fraction(190, 27)

    def test_interlaced(self):
        assert sx(interlaced_design()) == Fraction(1465, 216)

    def test_interlaced_vs_doubled_ratio(self):
        # precision of the interlaced design relative to the doubled one
        ratio = variance_ratio(doubled_design(), interlaced_design())
        assert ratio == Fraction(1465, 216) / Fraction(190, 27)
        assert float(ratio) == pytest.approx(0.9638, abs=5e-5)

    def test_preset_registry(self):
        assert set(PRESETS) == {"base", "base-doubled", "interlaced"}
        assert PRESETS["base"]() == base_design()


class TestSx:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sx(Design(()))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
    def test_nonfinite_point_rejected(self, bad):
        with pytest.raises(ValidationError, match="design points must be finite"):
            Design((1.0, bad))

    def test_doubling_points_doubles_sx(self):
        d = base_design()
        assert sx(Design(d.points + d.points)) == 2 * sx(d)

    def test_centered_matches_manual(self):
        d = Design((Fraction(1), Fraction(2), Fraction(3)))
        assert sx(d, centered=True) == Fraction(2)

    @given(st.lists(st.fractions(min_value=-10, max_value=10),
                    min_size=1, max_size=12))
    def test_scaling_by_c_scales_sx_by_c_squared(self, pts):
        d = Design(tuple(pts))
        scaled = Design(tuple(3 * p for p in pts))
        assert sx(scaled) == 9 * sx(d)

    @given(st.lists(st.fractions(min_value=-5, max_value=5),
                    min_size=1, max_size=8))
    def test_centered_never_exceeds_raw(self, pts):
        d = Design(tuple(pts))
        assert sx(d, centered=True) <= sx(d)


class TestVarianceRatio:
    def test_self_ratio_is_one(self):
        assert variance_ratio(base_design(), base_design()) == 1

    def test_orientation(self):
        # ratio(a, b) = sx(b) / sx(a): precision of b relative to a.
        assert variance_ratio(base_design(), doubled_design()) == 2

    def test_zero_sx_rejected(self):
        degenerate = Design((Fraction(0), Fraction(0)))
        with pytest.raises(DomainError):
            variance_ratio(degenerate, base_design())
