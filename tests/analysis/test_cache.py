"""Tests for the simulation result cache."""

import json

import pytest

from repro.analysis import SimCache


class TestSimCache:
    def test_memoizes(self, tmp_path):
        cache = SimCache(tmp_path / "c.json")
        calls = []

        def compute():
            calls.append(1)
            return 4.2

        assert cache.get_or_compute("k", compute) == 4.2
        assert cache.get_or_compute("k", compute) == 4.2
        assert len(calls) == 1

    def test_persists_to_disk(self, tmp_path):
        path = tmp_path / "c.json"
        SimCache(path).get_or_compute("k", lambda: 7.0)
        fresh = SimCache(path)
        assert fresh.get_or_compute("k", lambda: (_ for _ in ()).throw(AssertionError)) == 7.0

    def test_corrupt_cache_rebuilt(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        cache = SimCache(path)
        assert len(cache) == 0
        assert cache.get_or_compute("k", lambda: 1.0) == 1.0

    def test_memory_only_mode(self):
        cache = SimCache()
        cache.get_or_compute("k", lambda: 1.0)
        assert len(cache) == 1

    def test_clear(self, tmp_path):
        path = tmp_path / "c.json"
        cache = SimCache(path)
        cache.get_or_compute("k", lambda: 1.0)
        cache.clear()
        assert len(cache) == 0
        assert not path.exists()

    def test_distinct_keys(self, tmp_path):
        cache = SimCache(tmp_path / "c.json")
        cache.get_or_compute("a", lambda: 1.0)
        cache.get_or_compute("b", lambda: 2.0)
        stored = json.loads((tmp_path / "c.json").read_text())
        assert stored == {"a": 1.0, "b": 2.0}

class TestLoadHardening:
    def test_non_numeric_entries_dropped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "good": 1.5,
            "listy": [1, 2],
            "stringy": "7.0",
            "booly": True,
        }))
        cache = SimCache(path)
        assert len(cache) == 1
        assert cache.get_or_compute("good", lambda: 0.0) == 1.5
        err = capsys.readouterr().err
        assert "dropped 3" in err

    def test_nan_and_infinity_dropped(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        # json.loads accepts bare NaN/Infinity; the cache must not.
        path.write_text('{"nan": NaN, "inf": Infinity, "ok": 2.0}')
        cache = SimCache(path)
        assert len(cache) == 1
        assert "dropped 2" in capsys.readouterr().err

    def test_non_object_document_rebuilt(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[1, 2, 3]")
        cache = SimCache(path)
        assert len(cache) == 0
        assert "not a JSON object" in capsys.readouterr().err

    def test_flush_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "c.json"
        cache = SimCache(path)
        cache.get_or_compute("k", lambda: 1.0)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "c.json"]
        assert leftovers == []


class TestHermeticDefault:
    def test_default_cache_resolves_under_session_dir(self, sim_cache_dir):
        """The suite's shared cache never lands in the working tree."""
        from repro.analysis import default_cache

        cache = default_cache()
        cache.get_or_compute("hermetic-probe", lambda: 1.0)
        written = sim_cache_dir / "results.json"
        assert written.exists()
        assert "hermetic-probe" in json.loads(written.read_text())
