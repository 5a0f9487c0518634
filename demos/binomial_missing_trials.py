"""How much evidence did the missing half of a binomial experiment cost?

A study planned 100 trials but only 50 were observed, with 30 successes.
We test p = 0.5 against the observed success rate and ask what fraction
of the complete-data evidence the observed data retain.
"""

import numpy as np

from relinfo import (
    BinomialObserved,
    HypothesisPair,
    MCConfig,
    binomial_model,
    lod,
    ri0,
    ri1,
    ri1_closed_form,
    ri_y_samples,
)

model = binomial_model()
obs = BinomialObserved(successes=30, n_observed=50, n_missing=50)

# The observed-data lod for the MLE 0.6 against the null 0.5.
pair = HypothesisPair(theta_null=0.5, theta_alt=0.6)
print(f"observed lod:            {lod(model, pair, obs):.4f}")

# For the binomial the answer has a closed form: the lod is linear in the
# success count, so relative information is just the fraction of trials seen.
print(f"closed form n_ob/n_co:   {ri1_closed_form(obs):.4f}")

exact = ri1(model, obs, theta_null=0.5)
print(f"sufficient-stat path:    {exact.estimate:.4f}  ({exact.method.value})")

# Passing an engine selects Monte Carlo, which agrees, with an honest
# standard error.
engine = MCConfig(n_draws=20_000, seed=42)
mc = ri1(model, obs, 0.5, engine)
print(f"monte carlo path:        {mc.estimate:.4f} +/- {mc.mc_standard_error:.4f}")

# The null-imputation variant imputes the missing trials at p = 0.5 instead
# of at the observed rate; it answers a slightly different question.
null_variant = ri0(model, obs, theta_null=0.5)
print(f"null-imputation variant: {null_variant.estimate:.4f}")

# The single number hides real variation: individual completions of the
# missing data can be far more or less favorable than average.  The draws
# come back as a histogram: each distinct completion's ratio and how many
# of the 20,000 draws reached it.
ratios, counts = ri_y_samples(model, obs, pair, n_draws=20_000, seed=42)
finite = np.isfinite(ratios)
ratios, counts = ratios[finite], counts[finite]
mean = np.average(ratios, weights=counts)
sd = np.sqrt(np.sum(counts * (ratios - mean) ** 2) / (counts.sum() - 1))
print(f"per-draw ratio spread:   sd {sd:.3f}, "
      f"range [{ratios.min():.3f}, {ratios.max():.3f}]")
