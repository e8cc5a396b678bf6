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
    likelihood_ratio,
    posterior_odds,
    ppv,
    ppv_exact,
    prior_odds,
    sparse_ppv,
)
from .cohorts import (
    CohortGroup,
    CohortProfile,
    CohortRisk,
    DominanceReport,
    GroupRisk,
    amplification_window,
    cohort_system_risk,
    disparity_ratio,
    dominance_decomposition,
)
from .datasets import figure_panels
from .effdim import (
    CorrelationAdjusted,
    SpatialCorrelation,
    TemporalCorrelation,
    adjusted_limits,
    design_effect,
    k_eff_from_design_effect,
    k_eff_spatial,
    k_eff_temporal,
    k_eff_temporal_geometric,
    k_eff_temporal_rough,
    variance_with_design_effect,
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
    GrowthPoint,
    LifetimeReport,
    critical_time_analytic,
    critical_time_corrected,
    lambda_at,
    unreliability_series,
)
from .scenarios import Scenario, execute, load_scenario, run_scenario
from .simulate import (
    MODE_BINOMIAL,
    MODE_COMPOSITE,
    MODE_COPULA,
    MODE_POISSON,
    CorrelatedSimReport,
    LatentCorrelation,
    SimPlan,
    SimReport,
    latent_rho_for_binary,
    measure_binary_correlation,
    simulate_correlated,
    simulate_per_person,
    simulate_system,
)
from .system import (
    CriticalPopulation,
    PhaseScanPoint,
    ScreeningConfig,
    SystemRisk,
    critical_population,
    phase_scan,
    system_probability,
    system_risk,
)
from .tails import (
    OverlapInput,
    RateInput,
    TailEstimate,
    binomial_tail,
    chernoff_upper,
    lecam_bound,
    log_poisson_tail,
    overlap_probability,
    poisson_tail,
    rate_function,
    robbins_lower,
    tail_estimate,
    threshold_for_ratio,
)

__version__ = "0.1.0"
