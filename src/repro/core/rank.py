"""Design-ranking validation (extension beyond the paper).

The deepest test of a representative subset: architects use suites to
*rank* design candidates, so a good subset must produce the same ranking
of hardware configurations as the full suite.  This module simulates a
group's pairs across several candidate configurations — holding each
pair's address stream and calibration fixed to the reference machine, so
only the hardware changes — and compares the full-population ranking with
the subset-weighted ranking by rank correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..config import SystemConfig, haswell_e5_2650l_v3
from ..errors import AnalysisError
from ..stats.rank import kendall_tau, spearman_rho
from ..uarch.core import SimulatedCore
from ..workloads.calibrate import solve_pipeline_params
from ..workloads.generator import TraceGenerator
from ..workloads.profile import WorkloadProfile
from .subset import SubsetResult


@dataclass(frozen=True)
class RankingValidation:
    """Agreement between full-suite and subset design rankings."""

    config_names: Tuple[str, ...]
    full_scores: Tuple[float, ...]      # mean IPC per config, full group
    subset_scores: Tuple[float, ...]    # weighted subset estimate per config
    spearman: float
    kendall: float


class DesignRanker:
    """Simulates one group across candidate configurations.

    Args:
        reference: The calibration machine (traces and pipeline params are
            derived here and held fixed across candidates).
        sample_ops: Trace length per pair.
    """

    def __init__(
        self,
        reference: SystemConfig = None,
        sample_ops: int = 15_000,
    ):
        if sample_ops <= 0:
            raise AnalysisError("sample_ops must be positive")
        self.reference = reference or haswell_e5_2650l_v3()
        self.sample_ops = sample_ops
        self._generator = TraceGenerator(self.reference)
        self._traces: Dict[str, object] = {}

    def _trace(self, profile: WorkloadProfile):
        key = profile.pair_name
        if key not in self._traces:
            self._traces[key] = (
                self._generator.generate(profile, n_ops=self.sample_ops),
                solve_pipeline_params(profile, self.reference),
            )
        return self._traces[key]

    def ipc_matrix(
        self,
        profiles: Sequence[WorkloadProfile],
        configs: Dict[str, SystemConfig],
    ) -> np.ndarray:
        """Simulated IPC for every (pair, config); rows follow profiles."""
        if not profiles:
            raise AnalysisError("need at least one profile")
        if not configs:
            raise AnalysisError("need at least one configuration")
        matrix = np.empty((len(profiles), len(configs)))
        for column, config in enumerate(configs.values()):
            core = SimulatedCore(config)
            for row, profile in enumerate(profiles):
                trace, params = self._trace(profile)
                matrix[row, column] = core.run(trace, params=params).ipc
        return matrix

    def validate(
        self,
        subset: SubsetResult,
        profiles: Sequence[WorkloadProfile],
        configs: Dict[str, SystemConfig],
    ) -> RankingValidation:
        """Compare full-group and subset-weighted design rankings.

        Args:
            subset: The subset whose representativeness is being tested.
            profiles: All pairs of the subset's group, ordered to match
                ``subset.pair_names``.
            configs: Candidate configurations, keyed by display name.
        """
        names = [profile.pair_name for profile in profiles]
        if tuple(names) != subset.pair_names:
            raise AnalysisError(
                "profiles must match the subset's clustered pairs in order"
            )
        matrix = self.ipc_matrix(profiles, configs)
        full_scores = matrix.mean(axis=0)

        labels = subset.clustering.labels(subset.n_clusters)
        index = {name: i for i, name in enumerate(names)}
        weights = np.zeros(len(profiles))
        n = len(profiles)
        for cluster in range(subset.n_clusters):
            members = np.flatnonzero(labels == cluster)
            champions = [
                i for i in members if names[i] in subset.selected
            ]
            if len(champions) != 1:
                raise AnalysisError(
                    "cluster %d lacks a unique representative" % cluster
                )
            weights[champions[0]] = len(members) / n
        subset_scores = weights @ matrix

        return RankingValidation(
            config_names=tuple(configs),
            full_scores=tuple(float(v) for v in full_scores),
            subset_scores=tuple(float(v) for v in subset_scores),
            spearman=spearman_rho(full_scores, subset_scores),
            kendall=kendall_tau(full_scores, subset_scores),
        )


def candidate_configs() -> Dict[str, SystemConfig]:
    """A small design space for ranking studies: the reference machine
    plus a wider L2, a weaker predictor, slower DRAM, a deeper pipeline
    (costlier flushes), and a tiny L3.  All five differ in structures the
    simulation actually exercises with calibration held fixed."""
    from dataclasses import replace

    from ..config import CacheConfig, PipelineConfig

    base = haswell_e5_2650l_v3()
    return {
        "table-I": base,
        "wide-l2": replace(
            base,
            l2=CacheConfig("L2", 256 * 1024, 32, hit_latency=12,
                           miss_penalty=24),
        ),
        "bimodal-bp": base.with_predictor("bimodal"),
        "slow-dram": replace(
            base, pipeline=PipelineConfig(dram_latency=420)
        ),
        "deep-pipeline": replace(
            base, pipeline=PipelineConfig(mispredict_penalty=30)
        ),
        "tiny-l3": replace(
            base,
            l3=CacheConfig("L3", 512 * 64 * 15, 15, hit_latency=36,
                           miss_penalty=174, shared=True),
        ),
    }
