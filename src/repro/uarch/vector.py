# repro: noqa-file[LAY001] — deliberate upward edge: the observability
# seam (tracer spans, metric counters) is threaded through the leaf layers
# by design; repro.obs is import-light and never imports back down.
"""Vectorized trace-execution engine (numpy batch passes, no op loop).

The scalar :class:`~repro.uarch.core.SimulatedCore` path walks the trace
one micro-op at a time.  This module computes the *identical* measurement
in a handful of array passes by exploiting two structural facts about
generated traces:

1. **Cache behavior is region-determined.**  The generator sweeps each
   memory region cyclically over a fixed line set engineered to hit
   exactly one level (see :mod:`repro.workloads.calibrate`).  Under a
   deterministic, write-allocate replacement policy (LRU / FIFO /
   tree-PLRU) and the core's warm-up priming, every post-priming access
   of a *fitting* region hits and every access of a *thrashing* region
   misses — so per-level counters reduce to one ``bincount`` over
   ``(region, is_store)`` codes.  :func:`unsupported_reason` verifies the
   preconditions (policy family, write-allocate, cyclic sweep order,
   set-exclusive geometry, fit/thrash occupancy) per config and per
   trace; anything violating them falls back to the scalar engine.

2. **Predictor table indices are precomputable.**  Every predictor
   family trains unconditionally on the outcome stream, so histories
   (global or per-site) — and therefore table indices — depend only on
   ``taken``, never on predictions.  Given the index stream, each 2-bit
   saturating counter is a 4-state automaton whose per-access transition
   is known up front; the exact state *before* each access is recovered
   with a prefix scan of byte-coded transition maps over the index-sorted
   stream, one table lookup per composition, bit-exact.  Saturation
   makes most compositions constant within a few steps, and a constant
   map is final, so after two dense passes the scan touches only the
   few entries still unresolved, and it skips zero steps altogether.

The parity guarantee — identical integer counters, identical derived
floats — is enforced by the test suite over every predictor family and
replacement policy, and continuously by the A/B benchmark harness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .. import obs
from ..config import SystemConfig
from ..errors import SimulationError
from ..workloads.generator import KIND_STORE, SyntheticTrace
from .branch import BranchPredictor, PredictorStats, make_predictor
from .cache import CacheStats
from .hierarchy import HierarchyStats
from .memory import FootprintEstimate, FootprintTracker

#: Replacement policies whose steady-state behavior under a primed cyclic
#: sweep is deterministic (all-hit for fitting regions, all-miss for
#: thrashing ones).  "random" picks victims stochastically, so residency
#: is history-dependent and only the scalar engine models it.
SUPPORTED_REPLACEMENT = frozenset({"lru", "fifo", "plru"})

#: Region ids in trace order of meaning: hot, warm, cool, dram.
_N_REGIONS = 4

#: Saturating-counter ceiling (2-bit counters count 0..3).
_MAX_STATE = 3

#: Initial counter state everywhere: weakly taken.
_INIT_STATE = 2


@dataclass(frozen=True)
class EngineMeasurement:
    """What one engine measured from one trace (pre-composition).

    Both engines produce one of these; :meth:`SimulatedCore.run` composes
    it with the (engine-independent) indirect-jump draw and pipeline
    model, so derived floats are computed by one shared code path.
    """

    hierarchy: HierarchyStats
    predictor: PredictorStats
    window_conditionals: int
    footprint: FootprintEstimate


# ---------------------------------------------------------------------------
# Support checks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _config_reason(config: SystemConfig) -> Optional[str]:
    """Config-level vector-support check (None when supported)."""
    for level in config.cache_levels():
        if level.replacement not in SUPPORTED_REPLACEMENT:
            return (
                "%s replacement %r is not deterministic under cyclic sweeps"
                % (level.name, level.replacement)
            )
        if not level.write_allocate:
            return (
                "%s is write-around; store misses leave residency "
                "history-dependent" % level.name
            )
        if level.replacement == "plru" and (
            level.associativity & (level.associativity - 1)
        ):
            # The scalar engine rejects this too (tree-PLRU needs a
            # perfect binary tree); fall back so it raises the real error.
            return "%s: tree-PLRU with non-power-of-two ways" % level.name
    return None


def _cyclic_sweep_lines(accesses: np.ndarray) -> Optional[np.ndarray]:
    """The line set ``accesses`` sweeps cyclically, or None if it doesn't.

    A cyclic sweep repeats its sorted line set from the smallest line
    on: the accesses rise strictly up to the first non-increase, which
    fixes the period, and repeat with that period from there on.  One
    linear pass, equivalent to comparing against the tiled
    ``np.unique(accesses)``.
    """
    drops = np.flatnonzero(accesses[1:] <= accesses[:-1])
    period = int(drops[0]) + 1 if drops.size else accesses.size
    if not np.array_equal(accesses[period:], accesses[:-period]):
        return None
    return accesses[:period]


def analyze_trace(config: SystemConfig, trace: SyntheticTrace):
    """Resolve each region's analytic hit level, or explain why we can't.

    Returns ``(reason, hit_levels)`` where exactly one side is None.
    ``hit_levels`` maps region id -> the hierarchy level serving every one
    of its post-priming accesses (1=L1, 2=L2, 3=L3, 4=memory).

    A region *fits* a level when every cache set it touches holds at most
    ``ways`` of its lines — after priming it then hits there forever.  It
    *thrashes* a level when its whole (primed, cyclically swept) line set
    shares one set with more lines than ways — then every access misses
    and falls through.  Anything in between (or any cross-region set
    sharing, which priming could turn into evictions) is unsupported.
    """
    mem_idx = trace.mem_idx
    hit_levels = np.full(_N_REGIONS, len(config.cache_levels()) + 1,
                         dtype=np.int64)
    if mem_idx.size == 0:
        return None, hit_levels
    addrs = trace.addr[mem_idx]
    regions = trace.region[mem_idx]
    if int(addrs.min()) < 0:
        return "memory op with a sentinel address", None
    if int(regions.max()) >= _N_REGIONS:
        return "memory op with an unknown region id", None

    # Each region's line set is a few dozen lines: the per-level checks
    # below are plain set logic over Python ints.
    region_lines = []
    for region in range(_N_REGIONS):
        lines = _cyclic_sweep_lines(addrs[regions == region])
        if lines is None:
            return ("region %d is not a cyclic sweep of its line set"
                    % region), None
        region_lines.append(lines.tolist())

    for level_index, level in enumerate(config.cache_levels()):
        offset_bits = level.line_size.bit_length() - 1
        set_mask = level.num_sets - 1
        ways = level.associativity
        per_region_sets = [
            Counter((line >> offset_bits) & set_mask for line in lines)
            for lines in region_lines
        ]
        # Set-exclusivity: priming pushes every line through every level,
        # so two regions sharing a set could evict each other's lines.
        touched = set()
        for occupancy in per_region_sets:
            if not touched.isdisjoint(occupancy):
                return "%s: two regions share a cache set" % level.name, None
            touched.update(occupancy)
        for region, occupancy in enumerate(per_region_sets):
            if hit_levels[region] <= level_index or not occupancy:
                continue  # already resolved to an inner level, or unused
            if max(occupancy.values()) <= ways:
                hit_levels[region] = level_index + 1
            elif len(occupancy) != 1:
                return (
                    "%s: region %d neither fits nor thrashes a single set"
                    % (level.name, region)
                ), None
            # else: single over-subscribed set -> all-miss, falls through.
    return None, hit_levels


def unsupported_reason(
    config: SystemConfig, trace: Optional[SyntheticTrace] = None
) -> Optional[str]:
    """Why the vector engine cannot replay ``trace`` on ``config``.

    Returns ``None`` when the vector engine is guaranteed to reproduce
    the scalar engine's counters exactly.  Without a trace, only the
    config-level preconditions are checked.
    """
    reason = _config_reason(config)
    if reason is not None or trace is None:
        return reason
    reason, _ = analyze_trace(config, trace)
    return reason


# ---------------------------------------------------------------------------
# Grouped 2-bit counter evaluation
# ---------------------------------------------------------------------------

def _saturate(state: int) -> int:
    return min(_MAX_STATE, max(0, state))


def _state_map_code(images) -> int:
    """Code one map of the counter states onto themselves as one byte.

    Bits ``2s`` and ``2s + 1`` hold the image of state ``s``.
    """
    return sum(int(image) << (2 * state) for state, image in enumerate(images))


@lru_cache(maxsize=None)
def _compose_table() -> np.ndarray:
    """``table[(f << 8) | g]`` is the code of "apply f, then g".

    Built on first use, so runs served from the result cache never
    build it.
    """
    f = np.arange(256, dtype=np.uint8)[:, None]
    g = np.arange(256, dtype=np.uint8)[None, :]
    composed = np.zeros((256, 256), dtype=np.uint8)
    for state in range(_MAX_STATE + 1):
        image_f = (f >> (2 * state)) & _MAX_STATE
        composed |= ((g >> (2 * image_f)) & _MAX_STATE) << (2 * state)
    table = composed.ravel()
    table.setflags(write=False)
    return table


#: The counter updates a step stream may hold.
_STEPS = (-1, 0, 1)

#: Codes of the saturating steps, indexed by ``step + 1``.
_STEP_CODES = tuple(
    _state_map_code(_saturate(state + step) for state in range(_MAX_STATE + 1))
    for step in _STEPS
)

#: ``_CONSTANT_CODE * v`` codes the constant map onto state ``v``.
_CONSTANT_CODE = _state_map_code([1] * (_MAX_STATE + 1))


class _KeyGroups:
    """Sorted grouping of a table-index stream, reusable across scans.

    Built once per distinct key array; multiple step streams (e.g. a
    tournament's bimodal table and chooser table, both indexed by the
    same masked site) then share the sort and the group boundaries.
    """

    def __init__(self, keys: np.ndarray):
        n = int(keys.shape[0])
        self.n = n
        # Stable sort groups equal keys while preserving time order
        # inside each group — the order the automaton actually steps in.
        # numpy's stable sort is a radix sort only for integers of at
        # most 16 bits.  Casting to uint16 keeps distinct keys distinct
        # whenever they span at most 2**16 values, and the scans need
        # only the groups, not their order.
        sort_keys = keys
        if n and int(keys.max()) - int(keys.min()) <= np.iinfo(np.uint16).max:
            sort_keys = keys.astype(np.uint16)
        self.order = np.argsort(sort_keys, kind="stable")
        sorted_keys = sort_keys[self.order]
        new_group = np.empty(n, dtype=bool)
        if n:
            new_group[0] = True
            new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
        self.new_group = new_group

    def counter_states(
        self, steps: np.ndarray, init: int = _INIT_STATE
    ) -> np.ndarray:
        """Exact per-access saturating-counter states for one table.

        Args:
            steps: int array (n,) — the update each access applies to
                its entry: +1 (strengthen), -1 (weaken), or 0 (leave
                alone), all saturating at [0, _MAX_STATE].
            init: state every entry starts in.

        Returns:
            uint8 array (n,) — each entry's state *before* its access,
            in original stream order; equivalent to a sequential replay.

        Each access applies a map of the four states onto themselves,
        coded as one byte (:func:`_state_map_code`), and composing two
        maps is one lookup in the 65,536-entry :func:`_compose_table`.  A
        group's head gets the *constant* map "init, then its own step",
        so a composition reaching back past a head ignores everything
        before it.  Zero steps leave their entry alone, so only the
        heads and the nonzero steps are scanned
        (:func:`_scan_state_maps`); every other access reads the state
        its entry's latest move left.  Bit-exact.
        """
        sorted_steps = steps[self.order]
        heads = self.new_group
        moves = heads | (sorted_steps != 0)
        skip_zeros = not moves.all()
        if skip_zeros:
            sorted_steps, heads = sorted_steps[moves], heads[moves]
        # Entries 0-2 code the plain steps, entries 3-5 a group head's
        # constant map: init, then the head's own step.
        table = np.array(
            _STEP_CODES + tuple(
                _CONSTANT_CODE * _saturate(init + step) for step in _STEPS
            ),
            dtype=np.uint8,
        )
        code = table[heads * len(_STEPS) + sorted_steps + 1]
        _scan_state_maps(code)
        state_after = code & _MAX_STATE
        if skip_zeros:
            # The state after each access is the one its latest move left.
            state_after = state_after[np.cumsum(moves) - 1]

        state_before = np.empty(self.n, dtype=np.uint8)
        state_before[1:] = state_after[:-1]
        state_before[self.new_group] = init

        out = np.empty(self.n, dtype=np.uint8)
        out[self.order] = state_before
        return out


#: Dense Hillis-Steele passes before the scan compacts to the entries
#: whose map is still not constant.
_DENSE_PASSES = 2


def _not_constant(code: np.ndarray) -> np.ndarray:
    """Which state-map codes send some two states to different images."""
    return ((code ^ (code >> 2)) & 0x3F) != 0


def _scan_state_maps(code: np.ndarray) -> None:
    """Inclusive Hillis-Steele scan of state-map codes, in place.

    ``code[i]`` becomes the composition of every map up to ``i``, read
    back to the nearest constant map (a group head at the latest), which
    makes it constant: the state after access ``i``.  A constant map is
    final whatever precedes it, and saturation makes most maps constant
    within a few steps, so after ``_DENSE_PASSES`` passes over the whole
    array the scan continues over only the entries not yet constant.
    """
    compose = _compose_table()
    span = 1
    for _ in range(_DENSE_PASSES):
        # code[i] := code[i] after code[i - span], one window earlier.
        pair = code[:-span].astype(np.intp)
        pair <<= 8
        pair |= code[span:]
        code[span:] = compose[pair]
        span *= 2
    # A map that is still not constant has no head within its window,
    # so ``pending - span`` stays inside its group.
    pending = np.flatnonzero(_not_constant(code))
    while pending.size:
        pair = code[pending - span].astype(np.intp)
        pair <<= 8
        pair |= code[pending]
        merged = compose[pair]
        code[pending] = merged
        pending = pending[_not_constant(merged)]
        span *= 2


def _grouped_counter_states(
    keys: np.ndarray, steps: np.ndarray, init: int = _INIT_STATE
) -> np.ndarray:
    """One-shot :meth:`_KeyGroups.counter_states` for a fresh key array."""
    return _KeyGroups(keys).counter_states(steps, init)


def _taken_steps(taken: np.ndarray) -> np.ndarray:
    """Saturating-counter updates of an always-training table."""
    return np.where(taken, np.int32(1), np.int32(-1))


def _counter_predictions(keys: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Predicted directions of a table of 2-bit counters keyed by ``keys``
    and trained up/down by ``taken``."""
    return _grouped_counter_states(keys, _taken_steps(taken)) >= 2


# ---------------------------------------------------------------------------
# Per-family index streams
# ---------------------------------------------------------------------------

def _global_history(taken: np.ndarray, history_mask: int) -> np.ndarray:
    """The global-history register value before each access."""
    n = int(taken.shape[0])
    history = np.zeros(n, dtype=np.int64)
    bits = taken.astype(np.int64)
    history_bits = int(history_mask).bit_length()
    for age in range(1, history_bits + 1):
        if age >= n + 1:
            break
        # Bit (age-1) of the register is the outcome `age` accesses ago.
        history[age:] |= bits[:-age] << (age - 1)
    return history & history_mask


def _gshare_indices(
    sites: np.ndarray, taken: np.ndarray, mask: int, history_mask: int
) -> np.ndarray:
    """Exact gshare table indices (site spread XOR global history)."""
    spread = (sites * np.int64(0x9E3779B1)) & mask
    return (spread ^ _global_history(taken, history_mask)) & mask


def _two_level_indices(
    sites: np.ndarray, taken: np.ndarray, site_mask: int, history_mask: int
) -> np.ndarray:
    """Exact two-level pattern-table indices (per-site local history)."""
    n = int(sites.shape[0])
    groups = _KeyGroups(sites & site_mask)
    # A slot's local history is the global history of its own grouped
    # sub-stream, minus the bits that reach back past the group's head.
    history = _global_history(taken[groups.order], history_mask)
    position = np.arange(n)
    depth = position - np.maximum.accumulate(
        np.where(groups.new_group, position, 0)
    )
    history_bits = int(history_mask).bit_length()
    history &= (1 << np.minimum(depth, history_bits)) - 1

    out = np.empty(n, dtype=np.int64)
    out[groups.order] = history
    return out


@lru_cache(maxsize=None)
def _prototype(predictor_name: str) -> BranchPredictor:
    """A scalar predictor read only for its table geometry.

    Built once per family, so both engines always share one source of
    defaults without building a full predictor per trace.
    """
    return make_predictor(predictor_name)


def _conditional_predictions(
    predictor_name: str, sites: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Predicted direction for every conditional, per predictor family."""
    proto = _prototype(predictor_name)
    if predictor_name == "static":
        return np.ones(sites.shape[0], dtype=bool)
    if predictor_name == "bimodal":
        return _counter_predictions(sites & proto._mask, taken)
    if predictor_name == "gshare":
        indices = _gshare_indices(
            sites, taken, proto._mask, proto._history_mask
        )
        return _counter_predictions(indices, taken)
    if predictor_name == "two_level":
        indices = _two_level_indices(
            sites, taken, proto._site_mask, proto._history_mask
        )
        return _counter_predictions(indices, taken)
    if predictor_name == "tournament":
        # The bimodal table and the chooser share one index stream
        # (site & mask with equal masks) — group once, scan twice.
        site_groups = _KeyGroups(sites & proto._bimodal._mask)
        bimodal = site_groups.counter_states(_taken_steps(taken)) >= 2
        gshare = _counter_predictions(
            _gshare_indices(
                sites, taken, proto._gshare._mask, proto._gshare._history_mask
            ),
            taken,
        )
        bimodal_correct = bimodal == taken
        gshare_correct = gshare == taken
        # Chooser: 2-bit counter per site, trained only on disagreement.
        steps = np.zeros(sites.shape[0], dtype=np.int32)
        steps[gshare_correct & ~bimodal_correct] = 1
        steps[bimodal_correct & ~gshare_correct] = -1
        chooser = site_groups.counter_states(steps)
        return np.where(chooser >= 2, gshare, bimodal)
    raise SimulationError(
        "vector engine has no model for predictor %r" % predictor_name
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_vector(
    config: SystemConfig,
    trace: SyntheticTrace,
    warmup_fraction: float,
    hit_levels: np.ndarray,
) -> EngineMeasurement:
    """Measure ``trace`` with batched array passes.

    ``hit_levels`` is the per-region analysis from :func:`analyze_trace`
    for a supported config/trace pair; the result is then bit-identical
    to the scalar engine's measurement.
    """
    with obs.profile("engine.vector.memory") as span:
        # One bincount over (hit level, is_store) codes.
        mem_idx = trace.mem_idx
        n_mem = int(mem_idx.size)
        span.set("ops", n_mem)
        window_idx = mem_idx[int(n_mem * warmup_fraction):]
        window_levels = hit_levels[trace.region[window_idx].astype(np.int64)]
        window_stores = trace.kind[window_idx] == KIND_STORE
        codes = np.bincount(
            (window_levels - 1) * 2 + window_stores, minlength=2 * _N_REGIONS
        )
        loads = [int(value) for value in codes[0::2]]
        stores = [int(value) for value in codes[1::2]]
        hierarchy = HierarchyStats(
            l1=CacheStats(
                load_hits=loads[0],
                load_misses=loads[1] + loads[2] + loads[3],
                store_hits=stores[0],
                store_misses=stores[1] + stores[2] + stores[3],
            ),
            l2=CacheStats(
                load_hits=loads[1],
                load_misses=loads[2] + loads[3],
                store_hits=stores[1],
                store_misses=stores[2] + stores[3],
            ),
            l3=CacheStats(
                load_hits=loads[2],
                load_misses=loads[3],
                store_hits=stores[2],
                store_misses=stores[3],
            ),
            load_served=(loads[0], loads[1], loads[2], loads[3]),
        )
        # Footprint: pure reductions over the full memory stream.
        tracker = FootprintTracker(trace.profile, trace.pages_per_touch)
        tracker.observe_counts(
            n_mem, int(np.count_nonzero(trace.new_page[mem_idx]))
        )

    with obs.profile("engine.vector.branch") as span:
        # Conditional branches: grouped automaton evaluation.
        cond_idx = trace.cond_idx
        sites = trace.site[cond_idx].astype(np.int64)
        taken = trace.taken[cond_idx]
        n_cond = int(sites.shape[0])
        span.set("ops", n_cond)
        cond_warmup = min(
            n_cond // 2, max(int(n_cond * warmup_fraction), 2048)
        )
        predictions = _conditional_predictions(
            config.branch_predictor, sites, taken
        )
        mispredicted = predictions != taken
        window_conditionals = n_cond - cond_warmup
        predictor = PredictorStats(
            predictions=window_conditionals,
            mispredictions=int(np.count_nonzero(mispredicted[cond_warmup:])),
        )

    return EngineMeasurement(
        hierarchy=hierarchy,
        predictor=predictor,
        window_conditionals=window_conditionals,
        footprint=tracker.estimate(),
    )
