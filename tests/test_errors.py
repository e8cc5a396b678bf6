"""The one input policy: integer, positive and unit-interval arguments."""

import math
import re

import pytest

from screenlimits.bayes import (
    BayesContext,
    bayes_critical_population,
    classify_regime,
    ppv,
    sparse_ppv,
)
from screenlimits.cohorts import (
    CohortGroup,
    CohortProfile,
    cohort_system_risk,
    disparity_ratio,
)
from screenlimits.datasets import figure_panels
from screenlimits.effdim import (
    SpatialCorrelation,
    TemporalCorrelation,
    adjusted_limits,
    k_eff_temporal,
    k_eff_temporal_rough,
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
    simulate_correlated,
    simulate_per_person,
    simulate_system,
)
from screenlimits.system import (
    ScreeningConfig,
    critical_population,
    phase_scan,
    population_risk,
    system_probability,
    system_risk,
)
from screenlimits.tails import (
    OverlapInput,
    binomial_tail,
    log_poisson_tail,
    overlap_probability,
    poisson_tail,
    rate_function,
    tail_estimate,
    threshold_for_ratio,
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
    "OverlapInput.domain_size": lambda x: OverlapInput(x, 2, 3),
    "OverlapInput.person_items": lambda x: OverlapInput(10, x, 3),
    "OverlapInput.suspicious_items": lambda x: OverlapInput(10, 2, x),
    "overlap_probability.suspicious_items": lambda x: overlap_probability(
        OverlapInput(10**400, 2, x)
    ),
    "ScreeningConfig.k": lambda x: ScreeningConfig(k=x, p=0.005, n=10, m=3),
    "ScreeningConfig.n": lambda x: ScreeningConfig(k=100, p=0.005, n=x, m=3),
    "ScreeningConfig.m": lambda x: ScreeningConfig(k=100, p=0.005, n=10, m=x),
    "system_probability.n": lambda x: system_probability(0.1, x),
    "population_risk.m": lambda x: population_risk(5.0, x, 10),
    "population_risk.n": lambda x: population_risk(5.0, 30, x),
    "critical_time_analytic.m": lambda x: critical_time_analytic(MODEL, x),
    "critical_time_corrected.m": lambda x: critical_time_corrected(MODEL, x, 10),
    "critical_time_corrected.n": lambda x: critical_time_corrected(MODEL, 20, x),
    "unreliability_series.m": lambda x: unreliability_series(MODEL, x, 10, [0.0]),
    "unreliability_series.n": lambda x: unreliability_series(MODEL, 20, x, [0.0]),
    "CohortGroup.size": lambda x: CohortGroup(label="a", size=x, p=0.01),
    "cohort_system_risk.k": lambda x: cohort_system_risk(PROFILE, x, 3),
    "cohort_system_risk.m": lambda x: cohort_system_risk(PROFILE, 100, x),
    "disparity_ratio.k": lambda x: disparity_ratio(0.01, 0.02, x, 3),
    "disparity_ratio.m": lambda x: disparity_ratio(0.01, 0.02, 100, x),
    "BayesContext.n": lambda x: BayesContext(r=1.0, s=0.5, alpha=0.5, q=0.1, n=x),
    "TemporalCorrelation.k": lambda x: TemporalCorrelation(k=x, tau=2.0),
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
}


def argument(entry: str) -> str:
    """The argument an entry names: "binomial_tail.p" -> "p", "BayesContext.s=0" -> "s"."""
    return entry.split(".")[1].split("=")[0]


# float arguments that must be positive, or exceed a bound of at least zero
POSITIVE_ARGUMENTS = {
    "rate_function.c": lambda x: rate_function(x),
    "poisson_tail.lam": lambda x: poisson_tail(x, 3),
    "log_poisson_tail.lam": lambda x: log_poisson_tail(x, 3),
    "tail_estimate.lam": lambda x: tail_estimate(x, 30),
    "population_risk.lam": lambda x: population_risk(x, 30, 10),
    "threshold_for_ratio.lam": lambda x: threshold_for_ratio(x, 2.0),
    "threshold_for_ratio.c": lambda x: threshold_for_ratio(5.0, x),
    "ScreeningConfig.c": lambda x: ScreeningConfig(k=100, p=0.005, n=10, c=x),
    "critical_population.lam": lambda x: critical_population(x, 2.0),
    "critical_population.c": lambda x: critical_population(5.0, x),
    "phase_scan.c": lambda x: phase_scan([5.0], x, 0.5),
    "phase_scan.alpha": lambda x: phase_scan([5.0], 2.0, x),
    "phase_scan.lam": lambda x: phase_scan([x], 2.0, 0.5),
    "GrowthModel.k0": lambda x: GrowthModel(k0=x, gamma=1.5, p=0.01),
    "GrowthModel.gamma": lambda x: GrowthModel(k0=100.0, gamma=x, p=0.01),
    "critical_time_corrected.criterion_level": lambda x: critical_time_corrected(
        MODEL, 20, 10, x
    ),
    "SpatialCorrelation.area": lambda x: SpatialCorrelation(area=x, xi=1.0),
    "SpatialCorrelation.xi": lambda x: SpatialCorrelation(area=10.0, xi=x),
    "TemporalCorrelation.tau": lambda x: TemporalCorrelation(k=10, tau=x),
    "k_eff_temporal_rough.tau": lambda x: k_eff_temporal_rough(10, x),
    "adjusted_limits.c": lambda x: adjusted_limits(100, 0.1, x, 10.0),
    "adjusted_limits.k_eff": lambda x: adjusted_limits(100, 0.1, 2.0, x),
    "BayesContext.r": lambda x: BayesContext(r=x, s=0.5, alpha=0.5, q=0.1, n=10),
    "bayes_critical_population.r": lambda x: bayes_critical_population(x, 0.9, 0.5, 1e-4),
    "bayes_critical_population.q": lambda x: bayes_critical_population(10.0, 0.9, 0.5, x),
}

NOT_POSITIVE = {"nan": math.nan, "0.0": 0.0, "-inf": -math.inf}


@pytest.mark.parametrize("value", NOT_POSITIVE.values(), ids=NOT_POSITIVE)
@pytest.mark.parametrize("entry", POSITIVE_ARGUMENTS)
def test_positive_arguments_reject_nan_zero_and_negatives(entry, value):
    with pytest.raises(DomainError, match=rf"\b{re.escape(argument(entry))}\b"):
        POSITIVE_ARGUMENTS[entry](value)


# probabilities, each checked against [0, 1], (0, 1] or (0, 1)
UNIT_ARGUMENTS = {
    "binomial_tail.p": lambda x: binomial_tail(10, x, 3),
    "ScreeningConfig.p": lambda x: ScreeningConfig(k=100, p=x, n=10, m=3),
    "GrowthModel.p": lambda x: GrowthModel(k0=100.0, gamma=1.5, p=x),
    "adjusted_limits.p": lambda x: adjusted_limits(100, x, 2.0, 10.0),
    "BayesContext.s": lambda x: BayesContext(r=1.0, s=x, alpha=0.5, q=0.1, n=10),
    "BayesContext.alpha": lambda x: BayesContext(r=1.0, s=0.5, alpha=x, q=0.1, n=10),
    "BayesContext.q": lambda x: BayesContext(r=1.0, s=0.5, alpha=0.5, q=x, n=10),
    "bayes_critical_population.s": lambda x: bayes_critical_population(10.0, x, 0.5, 1e-4),
    "bayes_critical_population.alpha": lambda x: bayes_critical_population(10.0, 0.9, x, 1e-4),
    "CohortGroup.p": lambda x: CohortGroup(label="a", size=10, p=x),
    "disparity_ratio.p1": lambda x: disparity_ratio(x, 0.02, 100, 3),
    "disparity_ratio.p2": lambda x: disparity_ratio(0.01, x, 100, 3),
    "SimPlan.p": lambda x: plan(p=x),
}

OUTSIDE_UNIT = {"nan": math.nan, "-0.5": -0.5, "1.5": 1.5}


@pytest.mark.parametrize("value", OUTSIDE_UNIT.values(), ids=OUTSIDE_UNIT)
@pytest.mark.parametrize("entry", UNIT_ARGUMENTS)
def test_unit_arguments_reject_values_outside_the_interval(entry, value):
    with pytest.raises(DomainError, match=rf"\b{re.escape(argument(entry))}\b"):
        UNIT_ARGUMENTS[entry](value)


# the ends each check leaves out: 0 or 1 of an open interval, 1 of "c > 1", lam of "m > lam"
EXCLUDED_ENDS = {
    "ScreeningConfig.p=0": lambda: ScreeningConfig(k=100, p=0.0, n=10, m=3),
    "ScreeningConfig.p=1": lambda: ScreeningConfig(k=100, p=1.0, n=10, m=3),
    "GrowthModel.p=0": lambda: GrowthModel(k0=100.0, gamma=1.5, p=0.0),
    "GrowthModel.p=1": lambda: GrowthModel(k0=100.0, gamma=1.5, p=1.0),
    "adjusted_limits.p=0": lambda: adjusted_limits(100, 0.0, 2.0, 10.0),
    "adjusted_limits.p=1": lambda: adjusted_limits(100, 1.0, 2.0, 10.0),
    "CohortGroup.p=0": lambda: CohortGroup(label="a", size=10, p=0.0),
    "CohortGroup.p=1": lambda: CohortGroup(label="a", size=10, p=1.0),
    "BayesContext.s=0": lambda: BayesContext(r=1.0, s=0.0, alpha=0.5, q=0.1, n=10),
    "BayesContext.alpha=0": lambda: BayesContext(r=1.0, s=0.5, alpha=0.0, q=0.1, n=10),
    "BayesContext.alpha=1": lambda: BayesContext(r=1.0, s=0.5, alpha=1.0, q=0.1, n=10),
    "bayes_critical_population.s=0": lambda: bayes_critical_population(10.0, 0.0, 0.5, 1e-4),
    "bayes_critical_population.alpha=1": lambda: bayes_critical_population(10.0, 0.9, 1.0, 1e-4),
    "disparity_ratio.p1=p2": lambda: disparity_ratio(0.02, 0.02, 100, 3),
    "simulate_correlated.p=0": lambda: simulate_correlated(plan(MODE_COPULA, p=0.0), EXCHANGEABLE),
    "simulate_correlated.p=1": lambda: simulate_correlated(plan(MODE_COPULA, p=1.0), EXCHANGEABLE),
    "ScreeningConfig.c=1": lambda: ScreeningConfig(k=100, p=0.005, n=10, c=1.0),
    "critical_population.c=1": lambda: critical_population(5.0, 1.0),
    "phase_scan.c=1": lambda: phase_scan([5.0], 1.0, 0.5),
    "adjusted_limits.c=1": lambda: adjusted_limits(100, 0.1, 1.0, 10.0),
    "GrowthModel.gamma=1": lambda: GrowthModel(k0=100.0, gamma=1.0, p=0.01),
    "tail_estimate.m=lam": lambda: tail_estimate(5.0, 5),
}


@pytest.mark.parametrize("entry", EXCLUDED_ENDS)
def test_excluded_interval_ends_are_rejected(entry):
    with pytest.raises(DomainError, match=rf"\b{re.escape(argument(entry))}\b"):
        EXCLUDED_ENDS[entry]()


HUGE_BAYES = BayesContext(r=1.0, s=1.0, alpha=0.5, q=0.1, n=10**400)

# integers that pass check_int but do not fit a double
HUGE_INTEGERS = {
    "poisson_tail.m": lambda: poisson_tail(5.0, 10**400),
    "poisson_tail.lam": lambda: poisson_tail(10**400, 5),
    "log_poisson_tail.lam": lambda: log_poisson_tail(10**400, 2**53 + 1),
    "binomial_tail.k": lambda: binomial_tail(10**400, 0.1, 3),
    "system_risk.k": lambda: system_risk(ScreeningConfig(k=10**400, p=0.005, n=10, m=3)),
    "cohort_system_risk.size": lambda: cohort_system_risk(
        CohortProfile((CohortGroup("a", 10**400, 0.01),)), k=100, m=3
    ),
    # q = 1 saturates the probability before n is ever multiplied in
    "system_risk.n at q=1": lambda: system_risk(ScreeningConfig(k=100, p=0.5, n=10**400, m=1)),
    "cohort_system_risk.size at q=1": lambda: cohort_system_risk(
        CohortProfile((CohortGroup("a", 10**400, 0.5),)), k=100, m=1
    ),
    "k_eff_temporal.k": lambda: k_eff_temporal(TemporalCorrelation(k=10**400, tau=5.0)),
    "ppv.n": lambda: ppv(HUGE_BAYES),
    "classify_regime.n": lambda: classify_regime(HUGE_BAYES),
}


@pytest.mark.parametrize("call", HUGE_INTEGERS.values(), ids=HUGE_INTEGERS)
def test_integers_beyond_the_double_range_overflow_cleanly(call):
    with pytest.raises(RangeOverflowError, match="exceeds the double range"):
        call()


# finite inputs whose result does not fit a double
OVERFLOWING_RESULTS = {
    "cohort_total_mass": lambda: cohort_system_risk(
        CohortProfile((CohortGroup("a", 10**308, 0.5), CohortGroup("b", 10**308, 0.5))), 100, 1
    ),
    "critical_population": lambda: critical_population(1e4, 3.0),
    "disparity_ratio": lambda: disparity_ratio(1e-6, 0.5, 10**4, 4000),
    "lambda_at": lambda: lambda_at(MODEL, 2000.0),
    "threshold_for_ratio": lambda: threshold_for_ratio(1e308, 10.0),
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
    (
        lambda: BayesContext(r=1.0, s=0.5, alpha=0.5, q=2.0, n=10),
        "q must lie in [0, 1], got 2.0",
    ),
    (lambda: BayesContext(r=1.0, s=0.0, alpha=0.5, q=0.1, n=10), "s must lie in (0, 1], got 0.0"),
]


@pytest.mark.parametrize("call, message", MESSAGES)
def test_messages_keep_their_text(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
