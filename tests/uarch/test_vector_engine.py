"""Scalar/vector engine parity: the vector fast path must be *exact*.

The vectorized engine is only allowed to exist because it changes
nothing: every ``CoreResult`` field — integer counters bit-for-bit,
derived floats bit-for-bit (both engines share one composition path) —
must equal the scalar op-loop's.  These tests pin that guarantee per
predictor family, per replacement policy, per warmup window, at the
session/report level, and over randomized profiles (hypothesis).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import CacheConfig, SystemConfig, haswell_e5_2650l_v3
from repro.errors import ConfigError, SimulationError
from repro.perf.session import PerfSession
from repro.uarch.branch import make_predictor
from repro.uarch.core import ENGINES, SimulatedCore
from repro.uarch import vector
from repro.workloads.generator import (
    KIND_LOAD,
    NO_BRANCH,
    TraceGenerator,
)
from repro.workloads.profile import InputSize

from tests.perf.test_validate import workload_profiles

OPS = 20_000

PREDICTORS = ["static", "bimodal", "gshare", "two_level", "tournament"]


def result_dict(result):
    return dataclasses.asdict(result)


def assert_results_equal(scalar, vec):
    assert result_dict(scalar) == result_dict(vec)


def policy_config(policy: str) -> SystemConfig:
    """A small power-of-two geometry valid for every policy (incl. plru)."""
    return SystemConfig(
        l1d=CacheConfig("L1D", 16384, 4, replacement=policy),
        l2=CacheConfig("L2", 65536, 4, hit_latency=12, miss_penalty=24,
                       replacement=policy),
        l3=CacheConfig("L3", 524288, 8, hit_latency=36, miss_penalty=174,
                       shared=True, replacement=policy),
    )


@pytest.fixture(scope="module")
def haswell():
    return haswell_e5_2650l_v3()


@pytest.fixture(scope="module")
def mcf_trace(haswell, mcf_ref):
    return TraceGenerator(haswell).generate(mcf_ref, n_ops=OPS)


class TestParity:
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_every_predictor_family(self, haswell, mcf_ref, predictor):
        config = haswell.with_predictor(predictor)
        trace = TraceGenerator(config).generate(mcf_ref, n_ops=OPS)
        core = SimulatedCore(config)
        assert core.resolve_engine(trace) == "vector"
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="vector"),
        )

    @pytest.mark.parametrize("policy", ["lru", "fifo", "plru"])
    def test_every_supported_replacement_policy(self, mcf_ref, policy):
        config = policy_config(policy)
        trace = TraceGenerator(config).generate(mcf_ref, n_ops=OPS)
        core = SimulatedCore(config)
        assert core.resolve_engine(trace) == "vector"
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="vector"),
        )

    @pytest.mark.parametrize("name", [
        "505.mcf_r", "525.x264_r", "548.exchange2_r", "503.bwaves_r",
        "519.lbm_r", "541.leela_r",
    ])
    def test_suite_pairs_use_vector_and_agree(self, haswell, suite17, name):
        profile = suite17.get(name).profile(InputSize.REF)
        trace = TraceGenerator(haswell).generate(profile, n_ops=OPS)
        core = SimulatedCore(haswell)
        assert core.resolve_engine(trace) == "vector"
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="vector"),
        )

    @pytest.mark.parametrize("warmup", [0.0, 0.15, 0.4])
    def test_warmup_windows(self, haswell, mcf_trace, warmup):
        core = SimulatedCore(haswell)
        assert_results_equal(
            core.run(mcf_trace, warmup_fraction=warmup, engine="scalar"),
            core.run(mcf_trace, warmup_fraction=warmup, engine="vector"),
        )


class TestFallback:
    def test_random_replacement_is_unsupported(self, mcf_ref):
        config = policy_config("random")
        trace = TraceGenerator(config).generate(mcf_ref, n_ops=OPS)
        core = SimulatedCore(config)
        assert core.vector_unsupported_reason(trace) is not None
        # auto silently falls back...
        assert core.resolve_engine(trace) == "scalar"
        # ...while an explicit request fails loudly, naming the reason.
        with pytest.raises(SimulationError, match="vector engine unsupported"):
            core.run(trace, engine="vector")
        # The auto run still works and equals the scalar reference.
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="auto"),
        )

    def test_predictor_override_forces_scalar(self, haswell, mcf_trace):
        core = SimulatedCore(haswell, predictor=make_predictor("gshare"))
        reason = core.vector_unsupported_reason(mcf_trace)
        assert reason is not None and "scalar" in reason
        assert core.resolve_engine(mcf_trace) == "scalar"
        with pytest.raises(SimulationError, match="vector engine unsupported"):
            core.run(mcf_trace, engine="vector")

    def test_unknown_engine_rejected_everywhere(self, haswell, mcf_trace):
        with pytest.raises(ConfigError, match="unknown engine"):
            SimulatedCore(haswell, engine="simd")
        core = SimulatedCore(haswell)
        with pytest.raises(ConfigError, match="unknown engine"):
            core.resolve_engine(mcf_trace, engine="simd")
        with pytest.raises(ConfigError, match="unknown engine"):
            core.run(mcf_trace, engine="simd")
        assert set(ENGINES) == {"scalar", "vector", "auto"}

    def test_unsupported_reason_is_cheap_and_stable(self, haswell, mcf_trace):
        assert vector.unsupported_reason(haswell, mcf_trace) is None
        config = policy_config("random")
        reason = vector.unsupported_reason(config)
        assert reason is not None and "random" in reason


def loads_only_trace(base, accesses):
    """``base`` with its ops replaced by loads at ``(region, addr)``."""
    n = len(accesses)
    return dataclasses.replace(
        base,
        kind=np.full(n, KIND_LOAD, dtype=np.uint8),
        addr=np.array([addr for _, addr in accesses], dtype=np.int64),
        region=np.array([region for region, _ in accesses], dtype=np.uint8),
        btype=np.full(n, NO_BRANCH, dtype=np.uint8),
        site=np.full(n, -1, dtype=np.int32),
        taken=np.zeros(n, dtype=bool),
        new_page=np.zeros(n, dtype=bool),
    )


def sweep(region, lines, cycles=2):
    """Cyclic sweeps of ``lines`` in ascending order, as the generator
    lays them out."""
    return [(region, line) for _ in range(cycles) for line in sorted(lines)]


#: Haswell geometry: 64-byte lines, 64 L1D sets (so lines 4096 bytes
#: apart share an L1D set), 512 L2 sets (32768 bytes apart share one).
L1_SET_STRIDE = 64 * 64
L2_SET_STRIDE = 64 * 512

#: Nine lines in L1D set 0 (one more than its 8 ways), spread over L2.
L1_OVERFULL = [k * L1_SET_STRIDE for k in range(9)]


class TestAnalyzeTraceReasons:
    """Every reason :func:`vector.analyze_trace` can give, and their order."""

    def reason(self, haswell, mcf_trace, accesses):
        reason, hit_levels = vector.analyze_trace(
            haswell, loads_only_trace(mcf_trace, accesses)
        )
        assert (reason is None) != (hit_levels is None)
        return reason

    def test_supported_layout_resolves_every_region(self, haswell, mcf_trace):
        accesses = (
            sweep(0, [64 * s for s in range(8, 16)])
            + sweep(1, [64 + k * L1_SET_STRIDE for k in range(16)])
            + sweep(2, [128 + k * L1_SET_STRIDE for k in range(8)])
        )
        reason, hit_levels = vector.analyze_trace(
            haswell, loads_only_trace(mcf_trace, accesses)
        )
        assert reason is None
        # Region 0 fits L1D one line per set, region 1 thrashes L1D set 1
        # and fits L2, region 2 fills L1D set 2's 8 ways exactly, and the
        # unused region 3 falls through to memory.
        assert hit_levels.tolist() == [1, 2, 1, 4]

    def test_sentinel_address(self, haswell, mcf_trace):
        accesses = sweep(0, [0, 64]) + [(0, -1)]
        assert self.reason(haswell, mcf_trace, accesses) == (
            "memory op with a sentinel address"
        )

    def test_unknown_region_id(self, haswell, mcf_trace):
        accesses = sweep(0, [0, 64]) + [(4, 128)]
        assert self.reason(haswell, mcf_trace, accesses) == (
            "memory op with an unknown region id"
        )

    def test_sentinel_reported_before_unknown_region(self, haswell, mcf_trace):
        accesses = sweep(0, [0, 64]) + [(4, 128), (0, -1)]
        assert self.reason(haswell, mcf_trace, accesses) == (
            "memory op with a sentinel address"
        )

    def test_non_cyclic_region(self, haswell, mcf_trace):
        accesses = sweep(0, [0, 64]) + [(2, 256), (2, 192), (2, 256)]
        assert self.reason(haswell, mcf_trace, accesses) == (
            "region 2 is not a cyclic sweep of its line set"
        )

    def test_shared_set(self, haswell, mcf_trace):
        accesses = sweep(0, [0]) + sweep(1, [L1_SET_STRIDE])
        assert self.reason(haswell, mcf_trace, accesses) == (
            "L1D: two regions share a cache set"
        )

    @pytest.mark.parametrize("lines, level", [
        # Nine lines in L1D set 0 plus one in set 1.
        (L1_OVERFULL + [64], "L1D"),
        # Ten lines thrash L1D set 0; at L2, nine share set 0 and one
        # sits in set 64.
        ([k * L2_SET_STRIDE for k in range(9)] + [L1_SET_STRIDE], "L2"),
    ])
    def test_neither_fits_nor_thrashes(self, haswell, mcf_trace, lines, level):
        assert self.reason(haswell, mcf_trace, sweep(0, lines)) == (
            "%s: region 0 neither fits nor thrashes a single set" % level
        )

    def test_shared_set_reported_before_misfit(self, haswell, mcf_trace):
        # Region 0 neither fits nor thrashes L1D, and region 1 shares
        # L1D set 1 with it: sharing is checked first at each level.
        accesses = sweep(0, L1_OVERFULL + [64]) + sweep(1, [64 + L1_SET_STRIDE])
        assert self.reason(haswell, mcf_trace, accesses) == (
            "L1D: two regions share a cache set"
        )


class TestSessionParity:
    def test_session_reports_identical(self, mcf_ref):
        scalar = PerfSession(sample_ops=OPS, engine="scalar").run(mcf_ref)
        vec = PerfSession(sample_ops=OPS, engine="vector").run(mcf_ref)
        auto = PerfSession(sample_ops=OPS, engine="auto").run(mcf_ref)
        assert dict(scalar) == dict(vec) == dict(auto)

    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_branch_free_profile(self, haswell, mcf_ref, predictor):
        """No conditional branches leaves every predictor table empty."""
        profile = dataclasses.replace(
            mcf_ref, mix=dataclasses.replace(mcf_ref.mix, branch_fraction=0.0)
        )
        config = haswell.with_predictor(predictor)
        trace = TraceGenerator(config).generate(profile, n_ops=OPS)
        assert SimulatedCore(config).resolve_engine(trace) == "vector"
        scalar = PerfSession(config, sample_ops=OPS, engine="scalar")
        auto = PerfSession(config, sample_ops=OPS, engine="auto")
        assert dict(scalar.run(profile)) == dict(auto.run(profile))

    def test_resolved_engine_exposed(self, mcf_ref):
        assert PerfSession(sample_ops=OPS).resolved_engine == "vector"
        assert (
            PerfSession(sample_ops=OPS, engine="scalar").resolved_engine
            == "scalar"
        )
        session = PerfSession(
            config=policy_config("random"), sample_ops=OPS
        )
        assert session.resolved_engine == "scalar"

    def test_explicit_vector_on_unsupported_config_fails_eagerly(self):
        with pytest.raises(SimulationError, match="vector engine unsupported"):
            PerfSession(
                config=policy_config("random"), sample_ops=OPS,
                engine="vector",
            )


# Module-level sessions so hypothesis examples share warm state.
_SCALAR_SESSION = PerfSession(sample_ops=6_000, engine="scalar")
_AUTO_SESSION = PerfSession(sample_ops=6_000, engine="auto")
_GENERATOR = TraceGenerator(haswell_e5_2650l_v3())


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(profile=workload_profiles())
def test_report_parity_over_random_profiles(profile):
    """Property: whatever engine auto picks, the report is the scalar one."""
    scalar = _SCALAR_SESSION.run(profile)
    auto = _AUTO_SESSION.run(profile)
    assert dict(scalar) == dict(auto)
    assert auto.validate() == ()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(profile=workload_profiles())
def test_core_parity_over_random_profiles(profile):
    """Property: when the analysis accepts a trace, results are identical."""
    trace = _GENERATOR.generate(profile, n_ops=6_000)
    core = SimulatedCore(haswell_e5_2650l_v3())
    scalar = core.run(trace, engine="scalar")
    if core.resolve_engine(trace) == "vector":
        assert_results_equal(scalar, core.run(trace, engine="vector"))
    else:
        assert_results_equal(scalar, core.run(trace, engine="auto"))
