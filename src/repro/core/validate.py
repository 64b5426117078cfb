"""Subset representativeness validation (extension beyond the paper).

The paper's subset claims to "represent the complete suite".  Following the
CPU2006 redundancy literature (Phansalkar et al.), this module quantifies
that claim: estimate suite-level metric means from the subset alone — each
representative weighted by its cluster's size — and report the relative
error against the full-suite means.  A subset that merely minimizes time
would fail this check; a representative one passes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from .metrics import PairMetrics
from .subset import SubsetResult

#: Metrics validated by default, as attribute names of PairMetrics.
DEFAULT_METRICS: Tuple[str, ...] = (
    "ipc",
    "load_pct",
    "store_pct",
    "branch_pct",
    "l1_miss_pct",
    "l2_miss_pct",
    "l3_miss_pct",
    "mispredict_pct",
)


@dataclass(frozen=True)
class MetricValidation:
    """Full-suite vs subset-estimated mean of one metric."""

    metric: str
    full_mean: float
    subset_estimate: float

    @property
    def relative_error(self) -> float:
        if self.full_mean == 0:
            return 0.0 if self.subset_estimate == 0 else float("inf")
        return abs(self.subset_estimate - self.full_mean) / abs(self.full_mean)


@dataclass(frozen=True)
class SubsetValidation:
    """Representativeness report for one subset."""

    group: str
    n_clusters: int
    results: Tuple[MetricValidation, ...]

    def result(self, metric: str) -> MetricValidation:
        for entry in self.results:
            if entry.metric == metric:
                return entry
        raise AnalysisError("metric %r was not validated" % metric)

    @property
    def mean_relative_error(self) -> float:
        return float(np.mean([entry.relative_error for entry in self.results]))


def validate_subset(
    result: SubsetResult,
    metrics: Sequence[PairMetrics],
    metric_names: Sequence[str] = DEFAULT_METRICS,
) -> SubsetValidation:
    """Check that cluster-weighted subset means reproduce suite means.

    Args:
        result: The subset to validate.
        metrics: Per-pair metrics of *all* pairs in the subset's group
            (the same population that was clustered).
        metric_names: PairMetrics attributes to validate.
    """
    by_name: Dict[str, PairMetrics] = {m.pair_name: m for m in metrics}
    missing = [name for name in result.pair_names if name not in by_name]
    if missing:
        raise AnalysisError(
            "metrics missing for clustered pairs: %s" % ", ".join(missing[:3])
        )
    labels = result.clustering.labels(result.n_clusters)
    # Map each selected representative to its cluster weight.
    representative_weight: Dict[str, float] = {}
    n = len(result.pair_names)
    for cluster in range(result.n_clusters):
        members = [
            result.pair_names[i] for i in range(n) if labels[i] == cluster
        ]
        champions = [name for name in members if name in result.selected]
        if len(champions) != 1:
            raise AnalysisError(
                "cluster %d has %d selected representatives"
                % (cluster, len(champions))
            )
        representative_weight[champions[0]] = len(members) / n

    validations: List[MetricValidation] = []
    for metric in metric_names:
        try:
            full_values = [getattr(by_name[name], metric)
                           for name in result.pair_names]
        except AttributeError:
            raise AnalysisError("unknown metric %r" % metric) from None
        full_mean = float(np.mean(full_values))
        estimate = float(sum(
            weight * getattr(by_name[name], metric)
            for name, weight in representative_weight.items()
        ))
        validations.append(MetricValidation(metric, full_mean, estimate))
    return SubsetValidation(
        group=result.group,
        n_clusters=result.n_clusters,
        results=tuple(validations),
    )
