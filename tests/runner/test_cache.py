"""Tests for the on-disk result cache (keying, round trips, invalidation)."""

import dataclasses
import errno
import inspect
import io
import json

import pytest

from repro.config import haswell_e5_2650l_v3
from repro.hashing import code_fingerprint
from repro.runner import cache as cache_module
from repro.runner.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
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

        # The material itself, hashed in two steps: a setup digest over
        # the whole config, every other key() parameter, the code
        # fingerprint and the schema; then the key over that digest and
        # the whole profile.
        captured = []
        real_hash = cache_module.content_hash

        def spy(material):
            captured.append(material)
            return real_hash(material)

        monkeypatch.setattr(cache_module, "content_hash", spy)
        arguments = {
            "config": config, "profile": profile, "sample_ops": 12_345,
            "warmup_fraction": 0.375, "engine": "vector",
        }
        parameters = list(inspect.signature(ResultCache.key).parameters)
        assert parameters == ["self", *arguments]
        key = cache.key(**arguments)
        setup, material = captured
        assert set(setup) == {
            "schema", "code_fingerprint", "config", "sample_ops",
            "warmup_fraction", "engine",
        }
        for name, value in arguments.items():
            if name != "profile":
                assert setup[name] is value, name
        assert setup["code_fingerprint"] == code_fingerprint()
        assert setup["schema"] == CACHE_SCHEMA
        assert set(material) == {"setup", "profile"}
        assert material["profile"] is profile
        assert material["setup"] == real_hash(setup)
        assert key == real_hash(material)

        # The same setup objects again: only the per-pair step runs.
        captured.clear()
        assert cache.key(**arguments) == key
        assert [set(m) for m in captured] == [{"setup", "profile"}]

    def test_setup_digest_is_reused_by_identity_only(self, cache, config,
                                                      profile):
        # Equal configs that differ only by the sign of a zero: equality
        # cannot tell them apart, the canonical encoding can.
        positive = dataclasses.replace(
            config,
            pipeline=dataclasses.replace(config.pipeline, mlp_overlap=0.0),
        )
        negative = dataclasses.replace(
            config,
            pipeline=dataclasses.replace(config.pipeline, mlp_overlap=-0.0),
        )
        assert positive == negative
        key_positive = cache.key(positive, profile, 10_000, 0.15)
        key_negative = cache.key(negative, profile, 10_000, 0.15)
        assert key_positive != key_negative
        assert cache.key(config, profile, 10_000, 0.0) != \
            cache.key(config, profile, 10_000, -0.0)

        # A remembered setup digest never changes a key: every setup,
        # visited in any order, keys as it does on a fresh cache.
        setups = [
            (positive, 10_000, 0.15, None),
            (negative, 10_000, 0.15, None),
            (config, 10_000, 0.15, "vector"),
            (config, 10_000, 0.15, "scalar"),
            (positive, 10_000, 0.15, None),
        ]
        for setup in setups:
            fresh = ResultCache(cache.directory).key(
                setup[0], profile, *setup[1:]
            )
            assert cache.key(setup[0], profile, *setup[1:]) == fresh

    def test_content_hash_handles_enums_and_tuples(self):
        assert content_hash({"size": InputSize.REF, "xs": (1, 2)}) == \
            content_hash({"size": "ref", "xs": [1, 2]})


class TestRoundTrip:
    def test_store_then_load(self, cache):
        values = {"inst_retired.any": 1.5e12, "ref_cycles": 2.0e12}
        cache.store("k" * 64, "505.mcf_r/ref", values)
        assert cache.load("k" * 64) == values

    def test_entry_bytes_are_the_sorted_json_encoding(self, cache):
        values = {"ref_cycles": 2.0e12, "inst_retired.any": 1.5e12,
                  "br_misp_retired.all_branches": 3}
        path = cache.store("e" * 64, "505.mcf_r/ref", values)
        entry = {
            "schema": CACHE_SCHEMA,
            "code_fingerprint": code_fingerprint(),
            "pair": "505.mcf_r/ref",
            "values": {name: float(value) for name, value in values.items()},
        }
        assert path.read_bytes() == \
            json.dumps(entry, sort_keys=True).encode("utf-8")

    @pytest.mark.parametrize("failing_step", ["write", "replace"])
    def test_failed_store_leaves_no_files(self, cache, tmp_path,
                                          monkeypatch, failing_step):
        class FullDisk(io.FileIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        def refuse(*args):
            raise OSError(errno.EROFS, "Read-only file system")

        if failing_step == "write":
            monkeypatch.setattr(
                cache_module.os, "fdopen",
                lambda descriptor, mode: FullDisk(descriptor, "wb"),
            )
        else:
            monkeypatch.setattr(cache_module.os, "replace", refuse)
        with pytest.raises(OSError):
            cache.store("f" * 64, "505.mcf_r/ref", {"ref_cycles": 1.0})
        assert list(tmp_path.iterdir()) == []

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
