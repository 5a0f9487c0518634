import numpy as np
import pytest

from relinfo import core
from relinfo.binomial import BinomialObserved, binomial_model
from relinfo.combine import StudySummary, combine_weighted_harmonic
from relinfo.errors import DomainError, ValidationError


def study(x, n_ob, n_missing, p0, pair_alt):
    obs = BinomialObserved(x, n_ob, n_missing)
    model = binomial_model()
    result = core.ri1(model, obs, np.array([p0]),
                      theta_alt=np.array([pair_alt]),
                      draw_theta=np.array([pair_alt]))
    pair = core.HypothesisPair(theta_null=np.array([p0]),
                               theta_alt=np.array([pair_alt]))
    lod = core.lod(model, pair, obs)
    return StudySummary(lod_observed=float(lod), ri1=result.estimate)


class TestCombineWeightedHarmonic:
    def test_single_study_passthrough(self):
        assert combine_weighted_harmonic(
            [StudySummary(2.0, 0.4)]) == pytest.approx(0.4)

    def test_identical_studies_unchanged(self):
        s = StudySummary(1.3, 0.6)
        assert combine_weighted_harmonic([s, s, s]) == pytest.approx(0.6)

    def test_bounded_by_componentwise_extremes(self):
        studies = [StudySummary(1.0, 0.3), StudySummary(2.0, 0.9),
                   StudySummary(0.5, 0.55)]
        pooled = combine_weighted_harmonic(studies)
        assert 0.3 <= pooled <= 0.9

    def test_relabeling_invariance(self):
        studies = [StudySummary(1.0, 0.3, label="a"),
                   StudySummary(2.0, 0.9, label="b")]
        assert combine_weighted_harmonic(studies) == combine_weighted_harmonic(
            list(reversed(studies)))

    def test_matches_pooled_computation(self):
        # Two binomial studies evaluated at a shared hypothesis pair must pool
        # to the same number as treating them as one merged dataset.
        p0 = 0.5
        pooled_obs = BinomialObserved(58, 100, 200)
        p1 = pooled_obs.successes / pooled_obs.n_observed
        studies = [study(30, 50, 50, p0, p1), study(28, 50, 150, p0, p1)]
        direct = combine_weighted_harmonic(studies)

        model = binomial_model()
        pooled = core.ri1(model, pooled_obs, np.array([p0]),
                          theta_alt=np.array([p1]),
                          draw_theta=np.array([p1])).estimate
        assert direct == pytest.approx(pooled, abs=1e-10)

    def test_nonpositive_lod_rejected(self):
        with pytest.raises(DomainError):
            combine_weighted_harmonic([StudySummary(0.0, 0.5)])
        with pytest.raises(DomainError):
            combine_weighted_harmonic([StudySummary(-1.0, 0.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            combine_weighted_harmonic([])

    def test_ri1_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            StudySummary(1.0, 0.0)
        with pytest.raises(ValidationError):
            StudySummary(1.0, 1.2)

    @pytest.mark.parametrize("lod, ri1", [("1.0", 0.5), (None, 0.5), (True, 0.5),
                                          (1.0, "0.5"), (1.0, None), (1.0, True),
                                          (float("nan"), 0.5), (float("inf"), 0.5)],
                             ids=["lod string", "lod null", "lod bool", "ri1 string", "ri1 null",
                                  "ri1 bool", "lod nan", "lod inf"])
    def test_non_number_fields_rejected(self, lod, ri1):
        with pytest.raises(ValidationError, match="must be a finite number"):
            StudySummary(lod, ri1)
