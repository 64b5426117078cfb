"""Scalar/vector engine parity: the vector fast path must be *exact*.

The vectorized engine is only allowed to exist because it changes
nothing: every ``CoreResult`` field — integer counters bit-for-bit,
derived floats bit-for-bit (both engines share one composition path) —
must equal the scalar op-loop's.  These tests pin that guarantee per
predictor family, per replacement policy, per warmup window, at the
session/report level, and over randomized profiles (hypothesis).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import CacheConfig, SystemConfig, haswell_e5_2650l_v3
from repro.errors import ConfigError, SimulationError
from repro.perf.session import PerfSession
from repro.uarch.branch import make_predictor
from repro.uarch.core import ENGINES, SimulatedCore
from repro.uarch import vector
from repro.workloads.generator import TraceGenerator
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
