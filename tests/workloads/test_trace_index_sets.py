"""The index-set contract of :class:`SyntheticTrace`.

A trace's memory, branch and conditional-branch positions, its per-kind
counts and its branch-subtype counts are derived once per trace: the
generator hands over the sets it built, and every other trace derives
them on first use.  Both must equal the plain mask definitions below,
whichever way the trace was made.
"""

import dataclasses

import numpy as np
import pytest

from repro.phases.generator import PhasedTraceGenerator, slice_trace
from repro.phases.workload import PhasedWorkload, Schedule, make_phases
from repro.workloads.generator import (
    BR_CONDITIONAL,
    BR_INDIRECT_JUMP,
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    TraceGenerator,
)
from repro.workloads.profile import InputSize

from tests.workloads.test_generator_edges import edge_profile

#: Everything the generator hands over to the trace it builds.
HANDED_OVER = ("mem_idx", "branch_idx", "cond_idx", "n_stores",
               "_subtype_counts")


def assert_index_sets_match_masks(trace):
    kind, btype = trace.kind, trace.btype
    branch = kind == KIND_BRANCH
    expected = {
        "mem_idx": np.flatnonzero((kind == KIND_LOAD) | (kind == KIND_STORE)),
        "branch_idx": np.flatnonzero(branch),
        "cond_idx": np.flatnonzero(branch & (btype == BR_CONDITIONAL)),
    }
    for name, positions in expected.items():
        actual = getattr(trace, name)
        assert actual.dtype == np.intp, name
        assert actual.tolist() == positions.tolist(), name
    assert trace.n_loads == int(np.count_nonzero(kind == KIND_LOAD))
    assert trace.n_stores == int(np.count_nonzero(kind == KIND_STORE))
    assert trace.n_branches == int(np.count_nonzero(branch))
    assert trace.branch_subtype_counts() == tuple(
        int(np.count_nonzero(branch & (btype == subtype)))
        for subtype in range(5)
    )


def assert_handed_over_sets_match_derived(trace):
    # The generator installed every set itself...
    assert set(HANDED_OVER) <= set(vars(trace))
    # ...and a field-for-field copy, which starts without them, derives
    # the same values from the definitions.
    copy = dataclasses.replace(trace)
    assert not set(HANDED_OVER) & set(vars(copy))
    for name in ("mem_idx", "branch_idx", "cond_idx"):
        handed, derived = getattr(trace, name), getattr(copy, name)
        assert handed.dtype == derived.dtype, name
        assert handed.tolist() == derived.tolist(), name
    for name in ("n_loads", "n_stores", "n_branches"):
        assert getattr(trace, name) == getattr(copy, name), name
    assert trace.branch_subtype_counts() == copy.branch_subtype_counts()


@pytest.fixture(scope="module")
def generator(config):
    return TraceGenerator(config)


@pytest.fixture(scope="module")
def mcf_trace(generator, mcf_ref):
    return generator.generate(mcf_ref, n_ops=12_000)


EDGE_PROFILES = {
    "no branches": dict(branches=0.0),
    "no stores": dict(stores=0.0),
    "alu only": dict(loads=0.001, stores=0.0, branches=0.0),
    "no memory ops": dict(loads=0.0, stores=0.0),
}


class TestGeneratedTraces:
    @pytest.mark.parametrize("name", ["505.mcf_r", "548.exchange2_r",
                                      "519.lbm_r", "541.leela_r"])
    def test_suite_pairs(self, generator, suite17, name):
        profile = suite17.get(name).profile(InputSize.REF)
        trace = generator.generate(profile, n_ops=8000)
        assert_index_sets_match_masks(trace)
        assert_handed_over_sets_match_derived(trace)

    @pytest.mark.parametrize("name", sorted(EDGE_PROFILES))
    def test_edge_profiles(self, generator, name):
        trace = generator.generate(
            edge_profile(**EDGE_PROFILES[name]), n_ops=5000
        )
        assert_index_sets_match_masks(trace)
        assert_handed_over_sets_match_derived(trace)

    def test_edge_profiles_hit_their_edges(self, generator):
        no_branches = generator.generate(edge_profile(branches=0.0), 5000)
        assert no_branches.branch_idx.size == 0
        assert no_branches.cond_idx.size == 0
        assert no_branches.branch_subtype_counts() == (0,) * 5
        no_stores = generator.generate(edge_profile(stores=0.0), 5000)
        assert no_stores.n_stores == 0 and no_stores.n_loads > 0
        no_memory = generator.generate(
            edge_profile(loads=0.0, stores=0.0), 5000
        )
        assert no_memory.mem_idx.size == 0


class TestHandBuiltTraces:
    def test_phased_merge(self, config, suite17):
        base = suite17.get("502.gcc_r").profile(InputSize.REF)
        workload = PhasedWorkload(
            "gcc-phased",
            make_phases(base, ["compute", "memory"]),
            Schedule.round_robin(2, 2000, 4),
        )
        merged = PhasedTraceGenerator(config).generate(workload).trace
        assert_index_sets_match_masks(merged)

    @pytest.mark.parametrize("start, stop", [(0, 1), (1000, 4000),
                                             (11_999, 12_000), (0, 12_000)])
    def test_slices(self, mcf_trace, start, stop):
        assert_index_sets_match_masks(slice_trace(mcf_trace, start, stop))

    def test_slice_after_parent_sets_were_used(self, mcf_trace):
        # The parent's (already derived) sets must not leak into a slice.
        assert mcf_trace.mem_idx.size and mcf_trace.cond_idx.size
        part = slice_trace(mcf_trace, 500, 2500)
        assert_index_sets_match_masks(part)
        assert part.mem_idx.max() < 2000

    def test_replaced_arrays(self, mcf_trace):
        kind = mcf_trace.kind.copy()
        kind[kind == KIND_STORE] = KIND_ALU
        btype = mcf_trace.btype.copy()
        btype[btype == BR_CONDITIONAL] = BR_INDIRECT_JUMP
        replaced = dataclasses.replace(mcf_trace, kind=kind, btype=btype)
        assert_index_sets_match_masks(replaced)
        assert replaced.n_stores == 0
        assert replaced.cond_idx.size == 0
        assert replaced.branch_subtype_counts()[BR_INDIRECT_JUMP] > (
            mcf_trace.branch_subtype_counts()[BR_INDIRECT_JUMP]
        )
