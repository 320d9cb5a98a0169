"""Episode-level evaluation metrics: collection ratio, two Jain fairness
indices, energy usage efficiency, and charging efficiency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UndefinedMetricError


def jain_index(values) -> float:
    """(sum x)^2 / (n * sum x^2) over non-negative values.

    All-zero input is defined as 1.0 (the degenerate allocation is treated
    as perfectly fair); this convention is shared by every caller here.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ContractError("jain_index needs at least one value")
    if np.any(x < 0):
        raise ContractError("jain_index requires non-negative values")
    if x.max() == 0.0:
        return 1.0
    # scale by a power of two (exact) so tiny values cannot underflow when
    # squared; the index does not depend on scale
    x = np.ldexp(x, -np.frexp(x.max())[1])
    total_sq = float(np.sum(x * x))
    s = float(np.sum(x))
    return s * s / (x.size * total_sq)


@dataclass
class EpisodeLog:
    """Final per-episode quantities the metrics are computed from."""

    poi_m0: np.ndarray          # (P,) initial data
    poi_mT: np.ndarray          # (P,) remaining data at episode end
    muav_er0: np.ndarray        # (M,)
    muav_ec: np.ndarray         # (M,) total energy received
    muav_ed: np.ndarray         # (M,) total energy consumed
    cuav_active_steps: np.ndarray  # (C,) steps with delivered energy > 0
    e_max: float
    length: int                 # episode length T
    terminated_by: str


def data_collection_ratio(log: EpisodeLog) -> float:
    total = float(np.sum(log.poi_m0))
    if total == 0.0:
        raise UndefinedMetricError("no data in the scenario")
    return float(np.sum(log.poi_m0 - log.poi_mT)) / total


def geographical_fairness(log: EpisodeLog) -> float:
    """Jain index of the remaining-data fractions; PoIs that started empty
    are excluded rather than treated as 0/0."""
    keep = log.poi_m0 > 0.0
    if not np.any(keep):
        raise UndefinedMetricError("no PoI with positive initial data")
    return jain_index(log.poi_mT[keep] / log.poi_m0[keep])


def energy_usage_efficiency(log: EpisodeLog) -> float:
    return float(np.mean(log.muav_ed / (log.muav_er0 + log.muav_ec)))


def charging_efficiency(log: EpisodeLog) -> float:
    if log.cuav_active_steps.size == 0:
        raise UndefinedMetricError("no CUAV in the fleet")
    return float(np.mean(log.cuav_active_steps / log.length))


def charging_fairness(log: EpisodeLog) -> float:
    return jain_index(log.muav_ec / log.e_max)


def compute_all(log: EpisodeLog) -> dict:
    """All five metrics plus the two joint objectives, keyed for the report."""
    c = data_collection_ratio(log)
    omega = geographical_fairness(log)
    upsilon = energy_usage_efficiency(log)
    d = charging_efficiency(log)
    f = charging_fairness(log)
    return {
        "C": c,
        "omega": omega,
        "upsilon": upsilon,
        "D": d,
        "F": f,
        "C_times_omega": c * omega,
        "D_times_F": d * f,
        "episode_len": log.length,
        "terminated_by": log.terminated_by,
    }
