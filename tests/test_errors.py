"""The one input policy: integer, positive and unit-interval arguments."""

import math

import pytest

from screenlimits.bayes import BayesContext, ppv_exact, sparse_ppv
from screenlimits.cohorts import (
    CohortGroup,
    CohortProfile,
    amplification_window,
    cohort_system_risk,
    disparity_ratio,
    dominance_decomposition,
)
from screenlimits.datasets import figure_panels
from screenlimits.effdim import (
    TemporalCorrelation,
    adjusted_limits,
    design_effect,
    k_eff_from_design_effect,
    k_eff_temporal_geometric,
    k_eff_temporal_rough,
    variance_with_design_effect,
)
from screenlimits.errors import DomainError, RangeOverflowError, ScreenLimitsError
from screenlimits.lifetime import (
    GrowthModel,
    critical_time_analytic,
    critical_time_corrected,
    lambda_at,
    unreliability_series,
)
from screenlimits.simulate import (
    MODE_BINOMIAL,
    MODE_COPULA,
    LatentCorrelation,
    SimPlan,
    latent_rho_for_binary,
    measure_binary_correlation,
    simulate_correlated,
    simulate_per_person,
    simulate_system,
)
from screenlimits.system import (
    ScreeningConfig,
    critical_population,
    system_probability,
    system_risk,
)
from screenlimits.tails import (
    OverlapInput,
    binomial_tail,
    exact_overlap_fraction,
    lecam_bound,
    log_poisson_tail,
    poisson_tail,
    tail_estimate,
)

MODEL = GrowthModel(k0=100.0, gamma=1.5, p=0.01)
PROFILE = CohortProfile(groups=(CohortGroup(label="a", size=10, p=0.01),))
EXCHANGEABLE = LatentCorrelation(kind="exchangeable", rho=0.2)


def plan(mode: str = MODE_BINOMIAL, **fields) -> SimPlan:
    return SimPlan(**{"k": 10, "p": 0.1, "m": 3, "runs": 10, "seed": 0, "mode": mode, **fields})


# (entry point and argument, call with the argument replaced by x)
INTEGER_ARGUMENTS = {
    "poisson_tail.m": lambda x: poisson_tail(5.0, x),
    "log_poisson_tail.m": lambda x: log_poisson_tail(5.0, x),
    "tail_estimate.m": lambda x: tail_estimate(5.0, x),
    "binomial_tail.k": lambda x: binomial_tail(x, 0.1, 3),
    "binomial_tail.m": lambda x: binomial_tail(10, 0.1, x),
    "lecam_bound.k": lambda x: lecam_bound(x, 0.1),
    "OverlapInput.domain_size": lambda x: OverlapInput(x, 2, 3),
    "OverlapInput.person_items": lambda x: OverlapInput(10, x, 3),
    "OverlapInput.suspicious_items": lambda x: OverlapInput(10, 2, x),
    "exact_overlap_fraction.v": lambda x: exact_overlap_fraction(x, 2, 3),
    "ScreeningConfig.k": lambda x: ScreeningConfig(k=x, p=0.005, n=10, m=3),
    "ScreeningConfig.n": lambda x: ScreeningConfig(k=100, p=0.005, n=x, m=3),
    "ScreeningConfig.m": lambda x: ScreeningConfig(k=100, p=0.005, n=10, m=x),
    "system_probability.n": lambda x: system_probability(0.1, x),
    "critical_time_analytic.m": lambda x: critical_time_analytic(MODEL, x),
    "critical_time_corrected.m": lambda x: critical_time_corrected(MODEL, x, 10),
    "critical_time_corrected.n": lambda x: critical_time_corrected(MODEL, 20, x),
    "unreliability_series.m": lambda x: unreliability_series(MODEL, x, 10, [0.0]),
    "unreliability_series.n": lambda x: unreliability_series(MODEL, 20, x, [0.0]),
    "CohortGroup.size": lambda x: CohortGroup(label="a", size=x, p=0.01),
    "cohort_system_risk.k": lambda x: cohort_system_risk(PROFILE, x, 3),
    "cohort_system_risk.m": lambda x: cohort_system_risk(PROFILE, 100, x),
    "dominance_decomposition.k": lambda x: dominance_decomposition(PROFILE, x, 3),
    "dominance_decomposition.m": lambda x: dominance_decomposition(PROFILE, 100, x),
    "disparity_ratio.k": lambda x: disparity_ratio(0.01, 0.02, x, 3),
    "disparity_ratio.m": lambda x: disparity_ratio(0.01, 0.02, 100, x),
    "amplification_window.m": lambda x: amplification_window(0.01, 0.02, x),
    "BayesContext.n": lambda x: BayesContext(r=1.0, s=0.5, alpha=0.5, q=0.1, n=x),
    "TemporalCorrelation.k": lambda x: TemporalCorrelation(k=x, tau=2.0),
    "design_effect.k": lambda x: design_effect([0.0], x),
    "variance_with_design_effect.k": lambda x: variance_with_design_effect(x, 0.1, 0.5),
    "k_eff_from_design_effect.k": lambda x: k_eff_from_design_effect(x, 0.5),
    "k_eff_temporal_geometric.k": lambda x: k_eff_temporal_geometric(x, 2.0),
    "k_eff_temporal_rough.k": lambda x: k_eff_temporal_rough(x, 2.0),
    "adjusted_limits.k": lambda x: adjusted_limits(x, 0.1, 2.0, 1.0),
    "SimPlan.k": lambda x: plan(k=x),
    "SimPlan.m": lambda x: plan(m=x),
    "SimPlan.runs": lambda x: plan(runs=x),
    "SimPlan.n": lambda x: plan(n=x),
    "SimPlan.seed": lambda x: plan(seed=x),
    "simulate_per_person.workers": lambda x: simulate_per_person(plan(), workers=x),
    "simulate_system.workers": lambda x: simulate_system(plan(), workers=x),
    "simulate_correlated.workers": lambda x: simulate_correlated(
        plan(MODE_COPULA), EXCHANGEABLE, workers=x
    ),
    "measure_binary_correlation.k": lambda x: measure_binary_correlation(x, 0.3, EXCHANGEABLE),
    "measure_binary_correlation.draws": lambda x: measure_binary_correlation(
        4, 0.3, EXCHANGEABLE, draws=x
    ),
    "latent_rho_for_binary.seed": lambda x: latent_rho_for_binary(4, 0.3, 0.1, seed=x),
    "figure_panels.runs": lambda x: figure_panels("figs", runs=x),
    "figure_panels.seed": lambda x: figure_panels("figs", seed=x),
    "figure_panels.workers": lambda x: figure_panels("figs", workers=x),
}

NOT_INTEGERS = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "2.5": 2.5,
    "3.0": 3.0,
    "True": True,
}


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_reject_non_integers(call, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DomainError):
        call(value)


# float arguments where nan used to pass the check and come back as the result
NAN_ARGUMENTS = {
    "lambda_at.t": lambda: lambda_at(MODEL, math.nan),
    "sparse_ppv.rs": lambda: sparse_ppv(math.nan, 1.0),
    "sparse_ppv.nq": lambda: sparse_ppv(1.0, math.nan),
    "k_eff_from_design_effect.deff": lambda: k_eff_from_design_effect(10, math.nan),
}


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
def test_latent_rho_tolerance_must_be_positive(tol):
    # nan and negative tolerances used to run all 40 pilot bisections
    with pytest.raises(DomainError, match="tol must be positive"):
        latent_rho_for_binary(4, 0.3, 0.1, draws=1000, tol=tol)


@pytest.mark.parametrize("deff", [math.nan, -1.0, -2.0])
def test_design_effect_variance_needs_deff_above_minus_one(deff):
    with pytest.raises(DomainError, match="DEFF must exceed -1"):
        variance_with_design_effect(10, 0.1, deff)


# integers that pass check_int but do not fit a double
HUGE_INTEGERS = {
    "poisson_tail.m": lambda: poisson_tail(5.0, 10**400),
    "binomial_tail.k": lambda: binomial_tail(10**400, 0.1, 3),
    "system_risk.k": lambda: system_risk(ScreeningConfig(k=10**400, p=0.005, n=10, m=3)),
}


@pytest.mark.parametrize("call", HUGE_INTEGERS.values(), ids=HUGE_INTEGERS)
def test_integers_beyond_the_double_range_overflow_cleanly(call):
    with pytest.raises(RangeOverflowError, match="exceeds the double range"):
        call()


# finite inputs whose result does not fit a double
OVERFLOWING_RESULTS = {
    "critical_population": lambda: critical_population(1e4, 3.0),
    "disparity_ratio": lambda: disparity_ratio(1e-6, 0.5, 10**4, 4000),
}


@pytest.mark.parametrize("call", OVERFLOWING_RESULTS.values(), ids=OVERFLOWING_RESULTS)
def test_results_beyond_the_double_range_overflow_cleanly(call):
    with pytest.raises(RangeOverflowError, match="overflows a double"):
        call()


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_beyond_the_double_range_end_in_a_result_or_our_error(
    call, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    try:
        call(10**400)
    except ScreenLimitsError:
        pass


@pytest.mark.parametrize("call", NAN_ARGUMENTS.values(), ids=NAN_ARGUMENTS)
def test_nan_float_arguments_are_rejected(call):
    with pytest.raises(DomainError):
        call()


# One call per check, with the message the hand-written check gave before.
MESSAGES = [
    (lambda: ScreeningConfig(k=0, p=0.005, n=10, m=3), "k must be a positive integer, got 0"),
    (lambda: poisson_tail(5.0, -1), "threshold m must be a nonnegative integer, got -1"),
    (lambda: binomial_tail(10, 0.1, 2.5), "threshold m must be an integer, got 2.5"),
    (lambda: plan(seed=-1), "seed must be a 64-bit unsigned integer, got -1"),
    (lambda: poisson_tail(-1.0, 3), "lam must be positive, got -1.0"),
    (lambda: ScreeningConfig(k=100, p=1.0, n=10, m=3), "p must lie strictly in (0, 1), got 1.0"),
    (lambda: ppv_exact(2.0, 0.5, 0.1), "pi must lie in [0, 1], got 2.0"),
    (lambda: BayesContext(r=1.0, s=0.0, alpha=0.5, q=0.1, n=10), "s must lie in (0, 1], got 0.0"),
]


@pytest.mark.parametrize("call, message", MESSAGES)
def test_messages_keep_their_text(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
