"""Crosstalk physics: pairwise coupling and per-request accumulation.

Contributions are additive in the model's working domain (linear power
ratio for linear-power and tanh-coupling, scaled dB for paper-literal-db)
and totals are reported in dB. A request with no aggressors has total
-inf dB ("no crosstalk"), below any threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import AccumulationModel, CrosstalkMatrix, Instance, Link, left_sum

NO_CROSSTALK_DB = float("-inf")

# Relative slack on the additive-domain threshold comparison, to keep
# feasibility decisions stable under float summation order.
_FEAS_RTOL = 1e-9


class NotScheduledError(Exception):
    """Raised when the victim request is absent from the schedule."""


@dataclass(frozen=True)
class CrosstalkTerm:
    link: Link
    aggressor_request: str
    aggressor_mode: int
    victim_mode: int
    contribution_db: float


@dataclass(frozen=True)
class CrosstalkReport:
    request_id: str
    total_db: float
    feasible: bool
    terms: tuple[CrosstalkTerm, ...]

    def to_document(self) -> dict:
        return {
            "request_id": self.request_id,
            "total_db": "-inf" if self.total_db == NO_CROSSTALK_DB else self.total_db,
            "feasible": self.feasible,
            "terms": [
                {
                    "link": list(t.link),
                    "aggressor_request": t.aggressor_request,
                    "aggressor_mode": t.aggressor_mode,
                    "victim_mode": t.victim_mode,
                    "contribution_db": t.contribution_db,
                }
                for t in self.terms
            ],
        }


def coupled_power_ratio(h: float, z_m: float) -> float:
    """Coupled power fraction after z meters with coupling parameter h (1/m):
    tanh(h*z)."""
    if not (h > 0):
        raise ValueError(f"coupling parameter must be > 0, got {h}")
    if z_m < 0:
        raise ValueError(f"propagation length must be >= 0, got {z_m}")
    return math.tanh(h * z_m)


def pairwise_contribution(matrix: CrosstalkMatrix, aggressor_mode: int, victim_mode: int,
                          length_m: float, model: AccumulationModel) -> float:
    """Single aggressor-on-victim contribution over one link.

    linear-power and tanh-coupling return a linear power ratio;
    paper-literal-db returns a distance-scaled dB value.
    """
    if aggressor_mode == victim_mode:
        raise ValueError(f"aggressor and victim mode are both {aggressor_mode}")
    if not (length_m > 0):
        raise ValueError(f"link length must be > 0, got {length_m}")
    y_db = matrix.get(aggressor_mode, victim_mode)
    if model.variant == "linear-power":
        return (length_m / 100.0) * 10.0 ** (y_db / 10.0)
    if model.variant == "paper-literal-db":
        return (length_m / 100.0) * y_db
    # tanh-coupling: saturating in length, pair strength relative to the
    # strongest coupled pair in the matrix.
    assert model.h is not None
    rel = 10.0 ** (y_db / 10.0) / 10.0 ** (matrix.strongest_off_diagonal_db() / 10.0)
    return coupled_power_ratio(model.h, length_m) * rel


def threshold_in_domain(threshold_db: float, model: AccumulationModel) -> float:
    """The crosstalk threshold expressed in the model's additive domain."""
    if model.variant == "paper-literal-db":
        return threshold_db
    return 10.0 ** (threshold_db / 10.0)


def feasibility_limit(threshold_db: float, model: AccumulationModel) -> float:
    """Largest additive-domain total within the threshold: the threshold
    in the model's domain plus a small relative slack."""
    limit = threshold_in_domain(threshold_db, model)
    return limit + abs(limit) * _FEAS_RTOL


def contribution_db(contribution: float, model: AccumulationModel) -> float:
    """Single contribution rendered in dB for reporting."""
    if model.variant == "paper-literal-db":
        return contribution
    if contribution <= 0:
        return NO_CROSSTALK_DB
    return 10.0 * math.log10(contribution)


def overlap_terms(victim, aggressor) -> list[tuple[Link, int, int]]:
    """(link, aggressor_mode, victim_mode) triples where two assignments
    co-propagate: shared directed links with overlapping slot intervals,
    distinct modes. Depends only on the overlap structure, not on which
    slots specifically coincide."""
    if not (max(victim.slot_start, aggressor.slot_start)
            < min(victim.slot_end, aggressor.slot_end)):
        return []
    shared = [l for l in victim.path if l in aggressor.path]
    out = []
    for link in shared:
        for m_v in victim.modes:
            for m_a in aggressor.modes:
                if m_a != m_v:
                    out.append((link, m_a, m_v))
    return out


def accumulate_for_request(victim_request: str, schedule, instance: Instance) -> CrosstalkReport:
    """Total accumulated crosstalk seen by one scheduled request.

    Sums pairwise contributions over every link of the victim's path, every
    other scheduled request whose slot interval overlaps the victim's, and
    every distinct mode pair, then compares against the configured
    threshold. Only the requests whose path shares a link with the
    victim's can contribute, so only those are visited, in schedule order.
    """
    model = instance.planner.accumulation_model
    victim = schedule.assignment(victim_request)
    if victim is None:
        raise NotScheduledError(f"request {victim_request!r} is not scheduled")
    terms: list[CrosstalkTerm] = []
    contributions: list[float] = []
    for other in schedule.sharing_a_link(victim.path):
        if other.request_id == victim_request:
            continue
        for link, m_a, m_v in overlap_terms(victim, other):
            c = pairwise_contribution(instance.crosstalk, m_a, m_v,
                                      instance.topology.length(link), model)
            contributions.append(c)
            terms.append(CrosstalkTerm(link=link, aggressor_request=other.request_id,
                                       aggressor_mode=m_a, victim_mode=m_v,
                                       contribution_db=contribution_db(c, model)))
    if not contributions:
        return CrosstalkReport(request_id=victim_request, total_db=NO_CROSSTALK_DB,
                               feasible=True, terms=())
    # the total of additive contributions is in dB the way one contribution is
    total = left_sum(contributions)
    limit = feasibility_limit(instance.planner.xt_threshold_db, model)
    return CrosstalkReport(request_id=victim_request, total_db=contribution_db(total, model),
                           feasible=total <= limit, terms=tuple(terms))
