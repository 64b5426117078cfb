"""Deterministic synthetic micro-op trace generation.

A :class:`TraceGenerator` turns a :class:`~repro.workloads.profile.
WorkloadProfile` into a :class:`SyntheticTrace`: flat numpy arrays of
micro-op kinds, memory addresses, and branch outcomes that the simulated
core in :mod:`repro.uarch.core` executes.

Memory addresses are laid out per the region scheme described in
:mod:`repro.workloads.calibrate`: each region is a small set of cache lines
engineered (for the configured hierarchy geometry) to hit exactly one cache
level under cyclic access, so the profile's per-level miss-rate targets are
met by construction rather than by hoping a random stream lands right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import SimulationError
from .calibrate import BranchKnobs, RegionFractions, branch_knobs, solve_region_fractions
from .profile import WorkloadProfile

# Micro-op kinds.
KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_BRANCH = 3

# Branch subtypes (order matches BranchMix.as_tuple()).
BR_CONDITIONAL = 0
BR_DIRECT_JUMP = 1
BR_DIRECT_CALL = 2
BR_INDIRECT_JUMP = 3
BR_INDIRECT_RETURN = 4
_N_SUBTYPES = 5

#: Sentinel for "not a branch" / "not a memory op".
NO_BRANCH = 255
NO_REGION = 255

#: Conditional-branch site pools (predictor tables learn per-site state).
#: Kept small so table-based predictors converge within the simulated
#: sample the way they converge within seconds on a native run.
N_EASY_SITES = 32
N_HARD_SITES = 16

#: Minimum expected first-touch events per trace; rarer events are boosted
#: (each event then stands for ``pages_per_touch`` pages) so footprints far
#: smaller than sampling resolution remain observable.  256 events put the
#: binomial noise on the RSS estimate near 6% relative.
MIN_TOUCH_EVENTS = 256

#: Page size used by the footprint model.
PAGE_SIZE = 4096


@dataclass(frozen=True)
class SyntheticTrace:
    """A generated micro-op stream plus its generation metadata.

    All arrays share one length (``n_ops``).  Non-memory ops carry
    ``addr == -1`` and ``region == NO_REGION``; non-branch ops carry
    ``btype == NO_BRANCH`` and ``site == -1``.

    The index sets (``mem_idx``, ``branch_idx``, ``cond_idx``) and the
    per-kind counts are derived once per trace: :class:`TraceGenerator`
    hands over the ones it built, and any other trace (a concatenation,
    a slice, a ``dataclasses.replace`` copy) derives them on first use
    from the definitions below.
    """

    profile: WorkloadProfile
    kind: np.ndarray       # uint8, KIND_*
    addr: np.ndarray       # int64, byte address of memory ops, -1 otherwise
    region: np.ndarray     # uint8, region index of memory ops
    btype: np.ndarray      # uint8, BR_* subtype of branch ops
    site: np.ndarray       # int32, branch site id (conditionals), -1 otherwise
    taken: np.ndarray      # bool, branch outcome
    new_page: np.ndarray   # bool, first-touch page event (memory ops)
    pages_per_touch: float  # pages represented by each first-touch event
    regions: RegionFractions
    knobs: BranchKnobs
    seed: int

    @property
    def n_ops(self) -> int:
        return int(self.kind.shape[0])

    def count(self, kind: int) -> int:
        return int(np.count_nonzero(self.kind == kind))

    @cached_property
    def mem_idx(self) -> np.ndarray:
        """Ascending positions of the memory ops (loads and stores)."""
        kind = self.kind
        return np.flatnonzero((kind == KIND_LOAD) | (kind == KIND_STORE))

    @cached_property
    def branch_idx(self) -> np.ndarray:
        """Ascending positions of the branch ops."""
        return np.flatnonzero(self.kind == KIND_BRANCH)

    @cached_property
    def cond_idx(self) -> np.ndarray:
        """Ascending positions of the conditional branches."""
        branch_idx = self.branch_idx
        return branch_idx[self.btype[branch_idx] == BR_CONDITIONAL]

    @cached_property
    def n_stores(self) -> int:
        return int(np.count_nonzero(self.kind[self.mem_idx] == KIND_STORE))

    @property
    def n_loads(self) -> int:
        return int(self.mem_idx.shape[0]) - self.n_stores

    @property
    def n_branches(self) -> int:
        return int(self.branch_idx.shape[0])

    @cached_property
    def _subtype_counts(self) -> Tuple[int, int, int, int, int]:
        counts = np.bincount(self.btype[self.branch_idx], minlength=_N_SUBTYPES)
        return tuple(int(count) for count in counts[:_N_SUBTYPES])

    def branch_subtype_counts(self) -> Tuple[int, int, int, int, int]:
        """Executed-branch counts in counter order (cond, djmp, call, ijmp,
        iret)."""
        return self._subtype_counts


def _adopt_index_sets(trace: SyntheticTrace, **index_sets) -> SyntheticTrace:
    """Install index sets built alongside ``trace`` as its derived ones.

    Each value must equal what the same-named :class:`SyntheticTrace`
    property derives; it is stored where that property caches its
    result, so the property never runs.
    """
    for name, value in index_sets.items():
        object.__setattr__(trace, name, value)
    return trace


def _log2(value: int) -> int:
    return int(value).bit_length() - 1


def _stratified_assign(n, fractions, labels, default_label, rng) -> np.ndarray:
    """Assign exactly ``round(f * n)`` slots to each label, shuffled.

    Everything left over gets ``default_label``.  Rounding is largest-
    remainder so totals always add up to ``n``.
    """
    raw = [fraction * n for fraction in fractions]
    counts = [int(value) for value in raw]
    spare = n - sum(counts)
    for i in sorted(range(len(raw)), key=lambda i: raw[i] - counts[i],
                    reverse=True):
        if spare > 0 and raw[i] - counts[i] >= 0.5:
            counts[i] += 1
            spare -= 1
    out = np.full(n, default_label, dtype=np.uint8)
    cursor = 0
    for label, count in zip(labels, counts):
        out[cursor:cursor + count] = label
        cursor += count
    # Same draws and result as rng.shuffle(out), but shuffling an intp
    # permutation takes numpy's word-sized swap path.
    return out[rng.permutation(n)]


class RegionLayout:
    """Cache-line addresses of the four regions for one hierarchy geometry.

    The layout places each region's lines so cyclic access defeats LRU at
    every level the region must miss and fits comfortably at the level it
    must hit (see :mod:`repro.workloads.calibrate`).
    """

    # L1 set indices reserved for the thrashing regions.
    _WARM_SET = 1
    _COOL_SET = 2
    _DRAM_SET = 3
    _HOT_FIRST_SET = 8

    def __init__(self, config: SystemConfig):
        l1, l2, l3 = config.l1d, config.l2, config.l3
        offset_bits = _log2(l1.line_size)
        l1_bits = _log2(l1.num_sets)
        l2_bits = _log2(l2.num_sets)
        l3_bits = _log2(l3.num_sets)
        if not (l1.num_sets > self._HOT_FIRST_SET + l1.associativity):
            raise SimulationError("L1 too small for the region layout")
        if not (l2.num_sets > l1.num_sets and l3.num_sets > l2.num_sets):
            raise SimulationError(
                "region layout requires strictly growing set counts "
                "(L1 %d, L2 %d, L3 %d)" % (l1.num_sets, l2.num_sets, l3.num_sets)
            )

        hot_count = l1.associativity
        warm_count = 2 * l1.associativity
        cool_count = 2 * l2.associativity
        dram_count = 2 * max(l1.associativity, l2.associativity, l3.associativity) + 2

        # Hot: one line in each of `hot_count` distinct L1 sets -> L1 hits.
        hot = [
            (self._HOT_FIRST_SET + i) << offset_bits for i in range(hot_count)
        ]
        # Warm: all in L1 set _WARM_SET (cyclic > associativity -> thrash),
        # spread across L2 sets via the bits just above the L1 index.
        warm = [
            (i << (offset_bits + l1_bits)) | (self._WARM_SET << offset_bits)
            for i in range(warm_count)
        ]
        # Cool: all in L2 set _COOL_SET (which pins the L1 set too), spread
        # across L3 sets via the bits just above the L2 index.
        cool = [
            (i << (offset_bits + l2_bits)) | (self._COOL_SET << offset_bits)
            for i in range(cool_count)
        ]
        # Dram: all in L3 set _DRAM_SET (pinning L2 and L1 sets as well).
        dram = [
            (i << (offset_bits + l3_bits)) | (self._DRAM_SET << offset_bits)
            for i in range(dram_count)
        ]
        self.lines = (
            np.asarray(hot, dtype=np.int64),
            np.asarray(warm, dtype=np.int64),
            np.asarray(cool, dtype=np.int64),
            np.asarray(dram, dtype=np.int64),
        )

    def compulsory_lines(self) -> int:
        """Total distinct lines (bounds the cold-miss transient)."""
        return int(sum(len(lines) for lines in self.lines))


class TraceGenerator:
    """Generates synthetic traces for one system configuration."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.layout = RegionLayout(config)

    def generate(
        self,
        profile: WorkloadProfile,
        n_ops: int = 200_000,
        seed: int = None,
    ) -> SyntheticTrace:
        """Generate a trace of ``n_ops`` micro-ops for ``profile``.

        The RNG seed defaults to a stable hash of the pair identity, so
        repeated calls (and repeated test runs) see identical traces.
        """
        if n_ops <= 0:
            raise SimulationError("n_ops must be positive")
        if seed is None:
            seed = profile.seed()
        rng = np.random.default_rng(seed)
        mix = profile.mix

        # --- micro-op kinds -------------------------------------------------
        # Stratified: exact per-kind counts (rounded from the mix), then a
        # seeded shuffle.  This keeps tiny fractions exactly proportional
        # instead of at the mercy of Bernoulli noise.
        kind = _stratified_assign(
            n_ops,
            (mix.load_fraction, mix.store_fraction, mix.branch_fraction),
            (KIND_LOAD, KIND_STORE, KIND_BRANCH),
            KIND_ALU,
            rng,
        )

        # --- index sets ---------------------------------------------------
        # Built once here and handed to the trace, so nothing downstream
        # re-derives them from ``kind``.
        mem_idx = np.flatnonzero((kind == KIND_LOAD) | (kind == KIND_STORE))
        br_idx = np.flatnonzero(kind == KIND_BRANCH)
        n_mem = int(mem_idx.size)

        # --- memory addresses ----------------------------------------------
        # Region and address work runs on the memory sub-stream, then
        # lands in the full-length arrays with one scatter each.
        mem = profile.memory
        regions = solve_region_fractions(
            mem.target_l1_miss_rate, mem.target_l2_miss_rate, mem.target_l3_miss_rate
        )
        addr = np.full(n_ops, -1, dtype=np.int64)
        region = np.full(n_ops, NO_REGION, dtype=np.uint8)
        n_stores = 0
        if n_mem:
            hot, warm, cool, dram = regions.as_tuple()
            # Stratify loads and stores independently: the paper's miss
            # rates are *load* miss rates, so the load sub-stream must carry
            # the exact region proportions rather than a random share of a
            # combined assignment.
            mem_is_store = kind[mem_idx] == KIND_STORE
            store_pos = np.flatnonzero(mem_is_store)
            n_stores = int(store_pos.size)
            mem_region = np.empty(n_mem, dtype=np.uint8)
            for positions in (np.flatnonzero(~mem_is_store), store_pos):
                if positions.size:
                    mem_region[positions] = _stratified_assign(
                        positions.size, (warm, cool, dram), (1, 2, 3), 0, rng
                    )
            # One cyclic cursor per region across the whole merged stream,
            # so interleaved loads and stores share each region's sweep.
            mem_addr = np.empty(n_mem, dtype=np.int64)
            for region_id, lines in enumerate(self.layout.lines):
                hits = np.flatnonzero(mem_region == region_id)
                if hits.size:
                    cycles = -(-hits.size // lines.size)
                    mem_addr[hits] = np.tile(lines, cycles)[:hits.size]
            addr[mem_idx] = mem_addr
            region[mem_idx] = mem_region

        # --- footprint first-touch events ------------------------------------
        # Each memory op first-touches a page with the probability implied
        # by the profile's RSS over the nominal run.  When that probability
        # is too small to observe in the sample, the event rate is boosted
        # and each event stands for `pages_per_touch` pages instead.
        new_page = np.zeros(n_ops, dtype=bool)
        pages_per_touch = 1.0
        if n_mem:
            nominal_mem_ops = profile.instructions * max(mix.memory_fraction, 1e-9)
            p_touch = min(1.0, mem.rss_bytes / (PAGE_SIZE * nominal_mem_ops))
            p_floor = min(1.0, MIN_TOUCH_EVENTS / n_mem)
            if 0 < p_touch < p_floor:
                # Boost the event rate to p_floor; each event then stands
                # for proportionally *fewer* pages so the expectation is
                # unchanged.
                pages_per_touch = p_touch / p_floor
                p_touch = p_floor
            new_page[mem_idx] = rng.random(n_mem) < p_touch

        # --- branches ---------------------------------------------------------
        knobs = branch_knobs(profile)
        btype = np.full(n_ops, NO_BRANCH, dtype=np.uint8)
        site = np.full(n_ops, -1, dtype=np.int32)
        taken = np.zeros(n_ops, dtype=bool)
        cond = br_idx
        subtype_counts = (0,) * _N_SUBTYPES
        if br_idx.size:
            subtype_cum = np.cumsum(np.asarray(mix.branch_mix.as_tuple()))
            subtype = np.searchsorted(
                subtype_cum, rng.random(br_idx.size) * subtype_cum[-1], side="right"
            )
            subtype = np.minimum(subtype, BR_INDIRECT_RETURN)
            subtype_counts = tuple(
                int(count)
                for count in np.bincount(subtype, minlength=_N_SUBTYPES)
            )
            btype[br_idx] = subtype
            # Unconditional branches are always taken.
            taken[br_idx] = True

            cond = br_idx[subtype == BR_CONDITIONAL]
            if cond.size:
                hard_mask = rng.random(cond.size) < knobs.hard_fraction
                sites = np.where(
                    hard_mask,
                    N_EASY_SITES + rng.integers(0, N_HARD_SITES, cond.size),
                    rng.integers(0, N_EASY_SITES, cond.size),
                ).astype(np.int32)
                site[cond] = sites
                base_direction = (sites & 1).astype(bool)
                # One batched draw for both outcome streams.  PCG64 fills
                # C-order, so row 0 is exactly the flip draw and row 1 the
                # hard-outcome draw of the formerly separate calls —
                # seed-for-seed identical, locked by the golden-trace test.
                outcome_draws = rng.random((2, cond.size))
                easy_outcome = base_direction ^ (outcome_draws[0] < knobs.easy_flip)
                hard_outcome = outcome_draws[1] < 0.5
                taken[cond] = np.where(hard_mask, hard_outcome, easy_outcome)

        trace = SyntheticTrace(
            profile=profile,
            kind=kind,
            addr=addr,
            region=region,
            btype=btype,
            site=site,
            taken=taken,
            new_page=new_page,
            pages_per_touch=pages_per_touch,
            regions=regions,
            knobs=knobs,
            seed=seed,
        )
        return _adopt_index_sets(
            trace,
            mem_idx=mem_idx,
            branch_idx=br_idx,
            cond_idx=cond,
            n_stores=n_stores,
            _subtype_counts=subtype_counts,
        )
