"""Cohort-resolved false-alert risk and disparity measures.

Groups with different per-attribute match probabilities p_g experience
exponentially different false-alert rates at a common threshold, because the
tail exponent lam_g * D(m/lam_g) moves with lam_g = k * p_g. This module
breaks system risk down by group, each group one `population_risk` record,
identifies the dominant group in the same pass, and quantifies the disparity
between two match probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, isfinite
from operator import attrgetter

from .errors import DomainError, RangeOverflowError, as_float, check_int, check_unit
from .system import SystemRisk, population_risk
from .tails import log_poisson_tail

__all__ = [
    "CohortGroup",
    "CohortProfile",
    "GroupRisk",
    "CohortRisk",
    "DominanceReport",
    "cohort_system_risk",
    "disparity_ratio",
]


@dataclass(frozen=True, slots=True)
class CohortGroup:
    """One screened group: label, population size, match probability."""

    label: str
    size: int
    p: float

    def __post_init__(self) -> None:
        if not self.label:
            raise DomainError("group label must be nonempty")
        check_int("group size", self.size, 1)
        check_unit("group p", self.p)


@dataclass(frozen=True)
class CohortProfile:
    """An ordered collection of disjoint screened groups."""

    groups: tuple[CohortGroup, ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise DomainError("profile needs at least one group")
        labels = [g.label for g in self.groups]
        if len(set(labels)) != len(labels):
            raise DomainError(f"group labels must be unique, got {labels}")


@dataclass(frozen=True)
class GroupRisk(SystemRisk):
    """One group's `population_risk` at lam = k p_g over its n_g people.

    `share` is the group's part of the cohort's expected false alerts.
    """

    label: str
    share: float


@dataclass(frozen=True, slots=True)
class DominanceReport:
    """Single-group approximation of the cohort system risk.

    main_term = 1 - exp(-M) for the largest mass M; correction_bound is
    the first-order error bound (sum of other masses) * exp(-M). Ties on the
    largest mass resolve to the first group in input order.
    """

    dominant_label: str
    dominant_mass: float
    other_mass: float
    main_term: float
    correction_bound: float


@dataclass(frozen=True)
class CohortRisk:
    """System risk with per-group decomposition.

    exact = 1 - prod_g (1 - q_g)^{n_g}, computed in log space;
    poisson_approx = 1 - exp(-sum_g n_g q_g).
    """

    exact: float
    poisson_approx: float
    total_mass: float
    groups: tuple[GroupRisk, ...]
    dominance: DominanceReport


def cohort_system_risk(profile: CohortProfile, k: int, m: int) -> CohortRisk:
    """Exact cohort-wide false-alert probability with group breakdown.

    Each group is `population_risk(k p_g, m, n_g)`; the exact value sums
    their n_g ln(1 - q_g), so a group with q_g = 1 makes it exactly 1.0.

    Raises:
        RangeOverflowError: If the summed expected alerts overflow a double.
    """
    check_int("k", k, 1)
    check_int("m", m, 1)
    attributes = as_float("k", k)
    risks = [population_risk(attributes * g.p, m, g.size) for g in profile.groups]
    total_mass = sum(r.expected for r in risks)
    if not isfinite(total_mass):
        raise RangeOverflowError(f"cohort total mass overflows a double at k={k}, m={m}")
    groups = tuple(
        GroupRisk(
            **vars(r),
            label=g.label,
            share=r.expected / total_mass if total_mass > 0.0 else 0.0,
        )
        for g, r in zip(profile.groups, risks)
    )
    best = max(groups, key=attrgetter("expected"))
    other = sum((g.expected for g in groups if g is not best), 0.0)
    return CohortRisk(
        # + 0.0 keeps an exact 0 from reading as -0.0
        exact=-expm1(sum(r.log_complement for r in risks)) + 0.0,
        poisson_approx=-expm1(-total_mass),
        total_mass=total_mass,
        groups=groups,
        dominance=DominanceReport(
            dominant_label=best.label,
            dominant_mass=best.expected,
            other_mass=other,
            main_term=-expm1(-best.expected),
            correction_bound=other * exp(-best.expected),
        ),
    )


def disparity_ratio(p1: float, p2: float, k: int, m: int) -> float:
    """Ratio q(k*p2) / q(k*p1) of group false-alert rates, p1 < p2.

    Computed as exp(log q2 - log q1) so extreme ratios survive even when
    the smaller tail underflows double precision.

    Raises:
        RangeOverflowError: If the ratio itself overflows a double.
    """
    if not (0.0 < p1 < p2 < 1.0):
        raise DomainError(f"need 0 < p1 < p2 < 1, got p1={p1}, p2={p2}")
    check_int("k", k, 1)
    check_int("m", m, 1)
    attributes = as_float("k", k)
    log_ratio = log_poisson_tail(attributes * p2, m) - log_poisson_tail(attributes * p1, m)
    try:
        return exp(log_ratio)
    except OverflowError:
        raise RangeOverflowError(f"disparity ratio e^{log_ratio:g} overflows a double") from None

