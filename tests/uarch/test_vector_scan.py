"""The vector engine's array kernels against plain sequential oracles.

Engine-level parity (``test_vector_engine.py``) only reaches the inputs
generated traces produce.  These tests pin the two kernels on the edge
cases directly: the grouped saturating-counter scan against a Python
replay, and the linear cyclic-sweep check against the ``np.unique``
definition it replaced.
"""

import itertools

import numpy as np
import pytest

from repro.uarch import vector


def replay_counter_states(keys, steps, init):
    """Sequential reference: each entry's state before every access."""
    table = {}
    before = []
    for key, step in zip(keys.tolist(), steps.tolist()):
        state = table.get(key, init)
        before.append(state)
        table[key] = min(3, max(0, state + step))
    return before


def assert_scan_matches_replay(keys, steps, init):
    states = vector._KeyGroups(keys).counter_states(steps, init)
    assert states.shape == keys.shape
    assert states.tolist() == replay_counter_states(keys, steps, init)


def random_steps(rng, n):
    return rng.integers(-1, 2, n).astype(np.int32)


class TestCounterStates:
    @pytest.mark.parametrize("init", range(4))
    @pytest.mark.parametrize("low, high", [
        (0, 16),                      # few long groups
        (0, 4096),                    # table-sized keys
        (0, 1 << 20),                 # range too wide for 16-bit keys
        (65_400, 65_700),             # narrow range across 2**16
        (-200, 100),                  # negative keys
    ])
    def test_random_keys_match_replay(self, init, low, high):
        rng = np.random.default_rng(high + init)
        n = 3000
        keys = rng.integers(low, high, n)
        assert_scan_matches_replay(keys, random_steps(rng, n), init)

    @pytest.mark.parametrize("init", range(4))
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_streams(self, init, n):
        for keys in itertools.product((0, 1, 1 << 16), repeat=n):
            for steps in itertools.product((-1, 0, 1), repeat=n):
                assert_scan_matches_replay(
                    np.array(keys, dtype=np.int64),
                    np.array(steps, dtype=np.int32),
                    init,
                )

    @pytest.mark.parametrize("init", range(4))
    @pytest.mark.parametrize("length", [
        size for k in range(8) for size in (1 << k, (1 << k) + 1)
    ])
    def test_single_group_at_pass_boundaries(self, init, length):
        # ceil(log2(length)) passes must reach back to the group head.
        rng = np.random.default_rng(length)
        keys = np.full(length, 7, dtype=np.int64)
        assert_scan_matches_replay(keys, random_steps(rng, length), init)

    def test_groups_do_not_leak_state(self):
        # A saturated group followed by a fresh one: the fresh group's
        # head must start from init, not from its neighbour's state.
        keys = np.array([0] * 9 + [1] * 3, dtype=np.int64)
        steps = np.array([1] * 9 + [-1, 0, 1], dtype=np.int32)
        assert_scan_matches_replay(keys, steps, 0)

    @pytest.mark.parametrize("seed", [5])
    def test_keys_shared_by_two_step_streams(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 64, 500)
        groups = vector._KeyGroups(keys)
        for init in range(4):
            steps = random_steps(rng, keys.size)
            assert groups.counter_states(steps, init).tolist() == (
                replay_counter_states(keys, steps, init)
            )


def tiled_unique_sweep(accesses):
    """The original definition: the tiled sorted line set, or None."""
    lines = np.unique(accesses)
    if accesses.size and not np.array_equal(
        accesses, lines[np.arange(accesses.size) % lines.size]
    ):
        return None
    return lines


def assert_same_verdict(accesses):
    accesses = np.asarray(accesses, dtype=np.int64)
    expected = tiled_unique_sweep(accesses)
    lines = vector._cyclic_sweep_lines(accesses)
    if expected is None:
        assert lines is None
    else:
        assert lines is not None and lines.tolist() == expected.tolist()
    return lines is not None


class TestCyclicSweep:
    @pytest.mark.parametrize("accesses, is_sweep", [
        ([64, 128, 192, 64, 128, 192], True),
        ([128, 192, 64, 128, 192, 64], False),   # starts mid-cycle
        ([64, 192, 128, 64, 192, 128], False),   # permuted sweep
        ([64, 64, 128, 192, 64, 128], False),    # repeated line
        ([64, 128, 192, 64, 128, 128], False),   # repeated line, later
        ([64, 128, 192, 64, 128], True),         # truncated final cycle
        ([64, 128, 192, 64, 192], False),        # skip in the last cycle
        ([64, 128, 192], True),                  # one partial cycle
        ([640], True),                           # single access
        ([640, 640, 640, 640], True),            # one-line region
        ([], True),                              # untouched region
    ])
    def test_named_cases(self, accesses, is_sweep):
        assert assert_same_verdict(accesses) is is_sweep

    @pytest.mark.parametrize("length", range(1, 8))
    def test_every_short_sequence(self, length):
        for accesses in itertools.product((0, 64, 128), repeat=length):
            assert_same_verdict(accesses)
