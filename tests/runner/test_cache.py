"""Tests for the on-disk result cache (keying, round trips, invalidation)."""

import inspect
import json

import pytest

from repro.config import haswell_e5_2650l_v3
from repro.hashing import code_fingerprint
from repro.runner import cache as cache_module
from repro.runner.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    content_hash,
    default_cache_dir,
)
from repro.workloads.profile import InputSize
from repro.workloads.spec2017 import cpu2017


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path)


@pytest.fixture(scope="module")
def profile():
    return cpu2017().get("505.mcf_r").profile(InputSize.REF)


class TestKeying:
    def test_key_is_deterministic(self, cache, config, profile):
        a = cache.key(config, profile, 10_000, 0.15)
        b = cache.key(config, profile, 10_000, 0.15)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_key_covers_every_input(self, cache, config, profile,
                                    monkeypatch):
        base = cache.key(config, profile, 10_000, 0.15)
        other_profile = cpu2017().get("525.x264_r").profile(InputSize.REF)
        assert cache.key(config, profile, 20_000, 0.15) != base
        assert cache.key(config, profile, 10_000, 0.25) != base
        assert cache.key(config, other_profile, 10_000, 0.15) != base
        scaled = haswell_e5_2650l_v3().with_l3_scaled(0.5)
        assert cache.key(scaled, profile, 10_000, 0.15) != base

        # The material itself: the whole config and profile objects,
        # every key() parameter, and the code fingerprint.
        captured = []
        monkeypatch.setattr(cache_module, "content_hash", captured.append)
        arguments = {
            "config": config, "profile": profile, "sample_ops": 12_345,
            "warmup_fraction": 0.375, "engine": "vector",
        }
        parameters = list(inspect.signature(ResultCache.key).parameters)
        assert parameters == ["self", *arguments]
        cache.key(**arguments)
        (material,) = captured
        assert material["config"] is config
        assert material["profile"] is profile
        for name, value in arguments.items():
            assert material[name] is value, name
        assert material["code_fingerprint"] == code_fingerprint()

    def test_content_hash_handles_enums_and_tuples(self):
        assert content_hash({"size": InputSize.REF, "xs": (1, 2)}) == \
            content_hash({"size": "ref", "xs": [1, 2]})


class TestRoundTrip:
    def test_store_then_load(self, cache):
        values = {"inst_retired.any": 1.5e12, "ref_cycles": 2.0e12}
        cache.store("k" * 64, "505.mcf_r/ref", values)
        assert cache.load("k" * 64) == values

    def test_load_missing_is_none(self, cache):
        assert cache.load("absent" + "0" * 58) is None

    def test_load_corrupt_entry_is_none(self, cache, tmp_path):
        path = tmp_path / ("c" * 64 + ".json")
        path.write_text("{not json")
        assert cache.load("c" * 64) is None

    def test_load_wrong_schema_is_none(self, cache, tmp_path):
        path = tmp_path / ("s" * 64 + ".json")
        path.write_text(json.dumps({"schema": -1, "values": {"x": 1.0}}))
        assert cache.load("s" * 64) is None

    def test_entry_count_and_clear(self, cache):
        for i in range(3):
            cache.store(("%02d" % i) * 32, "pair", {"x": float(i)})
        assert cache.entry_count() == 3
        assert cache.clear() == 3
        assert cache.entry_count() == 0

    def test_clear_missing_directory_is_zero(self, tmp_path):
        assert ResultCache(tmp_path / "nope").clear() == 0


class TestDefaultDirectory:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultCache().directory == tmp_path / "elsewhere"

    def test_default_under_home_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert str(default_cache_dir()).endswith(".cache/repro")
