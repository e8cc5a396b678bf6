"""False-alert limits of threshold-based screening systems.

Analytic core: exact Poisson/binomial upper tails with Chernoff and
Robbins-Stirling sandwich bounds, system-level false-alert probabilities
and critical population scales, lifetimes under geometric attribute growth,
cohort disparity decompositions, Bayesian alert reliability, and
correlation-corrected effective dimensionality. A seeded, chunk-keyed
Monte Carlo engine validates every analytic quantity, and a CLI emits
reproducible CSV/JSON datasets with checksummed manifests.
"""

from .bayes import (
    REGIME_COLLAPSED,
    REGIME_EVIDENTIAL,
    REGIME_TRANSITIONAL,
    BayesContext,
    PosteriorSummary,
    RegimeVerdict,
    bayes_critical_population,
    classify_regime,
    ppv,
    sparse_ppv,
)
from .cohorts import (
    CohortGroup,
    CohortProfile,
    CohortRisk,
    DominanceReport,
    GroupRisk,
    cohort_system_risk,
    disparity_ratio,
)
from .datasets import figure_panels
from .effdim import (
    CorrelationAdjusted,
    SpatialCorrelation,
    TemporalCorrelation,
    adjusted_limits,
    k_eff_spatial,
    k_eff_temporal,
    k_eff_temporal_rough,
)
from .errors import (
    AlreadyUnreliableError,
    BracketError,
    BudgetError,
    DomainError,
    RangeOverflowError,
    SchemaError,
    ScreenLimitsError,
)
from .golden import GoldenCheck, all_pass, golden_report, render_table
from .lifetime import (
    GrowthModel,
    LifetimeReport,
    critical_time_analytic,
    critical_time_corrected,
    lambda_at,
    unreliability_series,
)
from .scenarios import Scenario, execute, load_scenario, run_scenario
from .simulate import (
    MODE_BINOMIAL,
    MODE_COPULA,
    MODE_POISSON,
    CorrelatedSimReport,
    LatentCorrelation,
    SimPlan,
    SimReport,
    simulate_correlated,
    simulate_per_person,
    simulate_system,
)
from .system import (
    ScreeningConfig,
    SystemRisk,
    critical_population,
    phase_scan,
    population_risk,
    system_probability,
    system_risk,
)
from .tails import (
    OverlapInput,
    TailEstimate,
    binomial_tail,
    log_poisson_tail,
    overlap_probability,
    poisson_tail,
    rate_function,
    tail_estimate,
    threshold_for_ratio,
)

__version__ = "0.1.0"
