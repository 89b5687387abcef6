"""Tests for the content-addressed result store."""

import json
from pathlib import Path

from repro.serve.schema import SERVE_SCHEMA_VERSION
from repro.serve.store import ResultStore

KEY = "a" * 24
PAYLOAD = {"schema": SERVE_SCHEMA_VERSION, "key": KEY, "values": [1.5, 2.5]}


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, PAYLOAD)
        assert store.get(KEY) == PAYLOAD

    def test_fresh_instance_reads_disk(self, tmp_path):
        ResultStore(tmp_path).put(KEY, PAYLOAD)
        assert ResultStore(tmp_path).get(KEY) == PAYLOAD

    def test_memo_returns_same_object(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, PAYLOAD)
        assert store.get(KEY) is store.get(KEY)

    def test_miss_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get("b" * 24) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, PAYLOAD)
        store.flush()
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.suffix not in (".json", ".lock")]
        assert leftovers == []

    def test_default_directory_is_outside_the_checkout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        directory = ResultStore().directory
        assert directory == tmp_path / ".cache" / "repro" / "serve"
        checkout = Path(__file__).resolve().parents[2]
        assert not directory.resolve().is_relative_to(checkout)


class TestDamageAndStaleness:
    def test_stale_schema_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, PAYLOAD)
        envelope = json.loads(store.path(KEY).read_text())
        envelope["schema"] = SERVE_SCHEMA_VERSION - 1
        store.path(KEY).write_text(json.dumps(envelope))
        assert ResultStore(tmp_path).get(KEY) is None

    def test_torn_json_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, PAYLOAD)
        raw = store.path(KEY).read_text()
        store.path(KEY).write_text(raw[: len(raw) // 2])
        assert ResultStore(tmp_path).get(KEY) is None

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, PAYLOAD)
        other = "c" * 24
        store.path(KEY).rename(store.path(other))
        assert ResultStore(tmp_path).get(other) is None


class TestMaintenance:
    def _seed(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, PAYLOAD)
        store.put("b" * 24, PAYLOAD | {"key": "b" * 24})
        # One stale-schema entry and one damaged entry.
        stale = json.loads(store.path(KEY).read_text()) | {"schema": 0}
        store.path("d" * 24).write_text(json.dumps(stale))
        store.path("e" * 24).write_text("{not json")
        return store

    def test_stats(self, tmp_path):
        stats = self._seed(tmp_path).stats()
        assert stats["entries"] == 4
        assert stats["stale"] == 1
        assert stats["damaged"] == 1
        assert stats["by_schema"][str(SERVE_SCHEMA_VERSION)] == 2
        assert stats["bytes"] > 0

    def test_gc_drops_stale_and_damaged(self, tmp_path):
        store = self._seed(tmp_path)
        assert store.gc() == {"removed": 2, "kept": 2}
        assert store.get(KEY) == PAYLOAD  # survivors still readable

    def test_gc_max_age(self, tmp_path):
        store = self._seed(tmp_path)
        assert store.gc(max_age_s=0.0) == {"removed": 4, "kept": 0}
        assert store.get(KEY) is None

    def test_gc_clears_memo(self, tmp_path):
        store = self._seed(tmp_path)
        store.get(KEY)
        store.gc(max_age_s=0.0)
        assert store.get(KEY) is None
