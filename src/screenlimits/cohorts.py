"""Cohort-resolved false-alert risk and disparity measures.

Groups with different per-attribute match probabilities p_g experience
exponentially different false-alert rates at a common threshold, because the
tail exponent lam_g * D(m/lam_g) moves with lam_g = k * p_g. This module
breaks system risk down by group, identifies the dominant group, and
quantifies the disparity between two match probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1

from .errors import DomainError, RangeOverflowError, as_float, check_int, check_unit
from .system import system_probability
from .tails import log_poisson_tail, poisson_tail

__all__ = [
    "CohortGroup",
    "CohortProfile",
    "GroupRisk",
    "CohortRisk",
    "DominanceReport",
    "cohort_system_risk",
    "dominance_decomposition",
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


@dataclass(frozen=True, slots=True)
class GroupRisk:
    """Per-group risk row: mass is the expected false alerts n_g * q_g."""

    label: str
    size: int
    lam: float
    q: float
    mass: float
    share: float


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


@dataclass(frozen=True, slots=True)
class DominanceReport:
    """Single-group approximation of the cohort system risk.

    main_term = 1 - exp(-M) for the largest mass M; correction_bound is
    the first-order error bound (sum of other masses) * exp(-M).
    """

    dominant_label: str
    dominant_mass: float
    other_mass: float
    main_term: float
    correction_bound: float


def _group_stats(profile: CohortProfile, k: int, m: int) -> list[tuple[CohortGroup, float, float, float]]:
    check_int("k", k, 1)
    check_int("m", m, 1)
    attributes = as_float("k", k)
    out = []
    for g in profile.groups:
        lam = attributes * g.p
        q = poisson_tail(lam, m)
        out.append((g, lam, q, as_float("group size", g.size) * q))
    return out


def cohort_system_risk(profile: CohortProfile, k: int, m: int) -> CohortRisk:
    """Exact cohort-wide false-alert probability with group breakdown.

    Each group's n_g ln(1 - q_g) comes from `system_probability`; a group
    with q_g = 1 contributes -inf, so the result is exactly 1.0.
    """
    stats = _group_stats(profile, k, m)
    total_mass = sum(mass for _, _, _, mass in stats)
    exact = -expm1(sum(system_probability(q, g.size)[1] for g, _, q, _ in stats))
    rows = tuple(
        GroupRisk(
            label=g.label,
            size=g.size,
            lam=lam,
            q=q,
            mass=mass,
            share=mass / total_mass if total_mass > 0.0 else 0.0,
        )
        for g, lam, q, mass in stats
    )
    return CohortRisk(
        exact=exact,
        poisson_approx=-expm1(-total_mass),
        total_mass=total_mass,
        groups=rows,
    )


def dominance_decomposition(profile: CohortProfile, k: int, m: int) -> DominanceReport:
    """Dominant-group term and its correction bound.

    Ties on the maximal mass resolve to the first group in input order.
    """
    stats = _group_stats(profile, k, m)
    best_idx = 0
    best_mass = stats[0][3]
    for i, (_, _, _, mass) in enumerate(stats[1:], start=1):
        if mass > best_mass:
            best_idx, best_mass = i, mass
    other = sum(mass for i, (_, _, _, mass) in enumerate(stats) if i != best_idx)
    main = -expm1(-best_mass)
    return DominanceReport(
        dominant_label=stats[best_idx][0].label,
        dominant_mass=best_mass,
        other_mass=other,
        main_term=main,
        correction_bound=other * exp(-best_mass),
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

