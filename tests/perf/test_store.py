"""Persistent JSONL tier: round-trips, corruption recovery, concurrency."""

import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.perf import EvalCache, PersistentStore, spillable


# ----------------------------------------------------------------------
# Spillability
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [None, True, 7, -3, "text", 3.25, 0.1 + 0.2, [1, 2.5, "x"], {"a": [1], "b": None}],
)
def test_plain_data_is_spillable(value):
    assert spillable(value)


@pytest.mark.parametrize(
    "value",
    [
        float("inf"),
        float("nan"),
        (1, 2),  # tuples come back as lists
        {"k": (1,)},
        {1: "non-string key"},
        object(),
    ],
)
def test_non_roundtrippable_values_are_not_spillable(value):
    assert not spillable(value)


class Level(enum.IntEnum):
    HIGH = 3


class Tag(str):
    pass


@pytest.mark.parametrize(
    "value",
    [Level.HIGH, np.float64(1.5), [1, np.float64(1.5)], {"k": Level.HIGH}, {Tag("k"): 1}],
    ids=["intenum", "numpy-float", "in-list", "in-dict", "str-subclass-key"],
)
def test_subclasses_that_come_back_as_another_type_are_not_spillable(value):
    assert not spillable(value)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------


def test_append_load_roundtrip_preserves_floats_exactly(tmp_path: Path):
    path = tmp_path / "cache.jsonl"
    store = PersistentStore(path)
    values = {"a": 0.1 + 0.2, "b": 1e-308, "c": 123456789.000001, "d": [0.3, "x"]}
    for k, v in values.items():
        assert store.append(k, v)
    loaded = PersistentStore(path).load()
    assert loaded == values  # == on floats means bit-identical here


def test_unspillable_append_returns_false_and_writes_nothing(tmp_path: Path):
    path = tmp_path / "cache.jsonl"
    store = PersistentStore(path)
    assert not store.append("k", float("nan"))
    assert not path.exists()


def test_duplicate_keys_keep_the_last_value(tmp_path: Path):
    store = PersistentStore(tmp_path / "c.jsonl")
    store.append("k", 1)
    store.append("k", 2)
    assert store.load() == {"k": 2}


def test_load_of_missing_file_is_empty(tmp_path: Path):
    assert PersistentStore(tmp_path / "never-written.jsonl").load() == {}


# ----------------------------------------------------------------------
# Corruption tolerance
# ----------------------------------------------------------------------


def test_truncated_tail_recovers_complete_entries_with_warning(
    tmp_path: Path, caplog
):
    path = tmp_path / "c.jsonl"
    store = PersistentStore(path)
    store.append("a", 1)
    store.append("b", 2)
    # Crash mid-append: chop the final line (newline included) in half.
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    fresh = PersistentStore(path)
    with caplog.at_level("WARNING", logger="repro.perf.store"):
        entries = fresh.load()
    assert entries == {"a": 1}
    assert any("incomplete final line" in r.message for r in caplog.records)
    # A writer completing the line later: the held-back tail stitches.
    with open(path, "ab") as fh:
        fh.write(raw[len(raw) - 5 :])
    assert fresh.reload_into(entries) == 1
    assert entries == {"a": 1, "b": 2}


def test_corrupt_middle_line_is_skipped_and_counted(tmp_path: Path, caplog):
    path = tmp_path / "c.jsonl"
    lines = [
        json.dumps({"k": "a", "v": 1}),
        "{not json at all",
        json.dumps({"v": 2}),  # missing key field
        json.dumps({"k": 7, "v": 3}),  # non-string key
        json.dumps({"k": "b", "v": 4}),
    ]
    path.write_text("\n".join(lines) + "\n")
    store = PersistentStore(path)
    with caplog.at_level("WARNING", logger="repro.perf.store"):
        entries = store.load()
    assert entries == {"a": 1, "b": 4}
    assert store.corrupt_lines == 3
    assert any("corrupt line" in r.message for r in caplog.records)


def test_append_after_truncation_keeps_later_entries_readable(tmp_path: Path):
    """A torn tail must never poison entries appended after it."""
    path = tmp_path / "c.jsonl"
    store = PersistentStore(path)
    store.append("a", 1)
    path.write_bytes(path.read_bytes()[:-4])  # tear the line, lose "a"
    # A fresh writer appends after the torn bytes: its first line merges
    # into the torn one (both are lost as one corrupt line), but every
    # line after that parses.
    fresh = PersistentStore(path)
    fresh.append("b", 2)
    fresh.append("c", 3)
    entries = fresh.load()
    assert entries == {"c": 3}
    assert fresh.corrupt_lines == 1


# ----------------------------------------------------------------------
# Cross-process concurrency
# ----------------------------------------------------------------------

_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.perf import PersistentStore
store = PersistentStore({path!r})
for i in range({n}):
    store.append(f"{prefix}:{{i}}", i)
"""


def test_two_processes_appending_concurrently_never_corrupt_reads(tmp_path: Path):
    """O_APPEND + single-write lines: concurrent writers interleave whole
    lines, so a reader sees every entry from both and zero corruption."""
    path = str(tmp_path / "shared.jsonl")
    src = str(Path("src").resolve())
    n = 300
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                "-c",
                _WRITER.format(src=src, path=path, n=n, prefix=prefix),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        for prefix in ("p1", "p2")
    ]
    for p in procs:
        _, err = p.communicate(timeout=120)
        assert p.returncode == 0, err.decode()
    store = PersistentStore(path)
    entries = store.load()
    assert store.corrupt_lines == 0
    assert len(entries) == 2 * n
    for prefix in ("p1", "p2"):
        for i in range(n):
            assert entries[f"{prefix}:{i}"] == i


def test_reload_picks_up_entries_written_by_another_store(tmp_path: Path):
    path = tmp_path / "c.jsonl"
    reader = PersistentStore(path)
    entries = reader.load()
    writer = PersistentStore(path)
    writer.append("x", 1)
    assert reader.reload_into(entries) == 1
    writer.append("y", 2)
    assert reader.reload_into(entries) == 1
    assert entries == {"x": 1, "y": 2}


# ----------------------------------------------------------------------
# EvalCache persistent tier
# ----------------------------------------------------------------------


def test_eval_cache_spills_and_warm_starts(tmp_path: Path):
    path = tmp_path / "evals.jsonl"
    first = EvalCache(path)
    assert first.get_or_compute("ns", {"n": 1}, lambda: 4.25) == 4.25
    assert first.stats.spills == 1
    # A second process (modeled as a fresh cache on the same file) hits
    # without ever computing.
    second = EvalCache(path)
    assert second.get_or_compute("ns", {"n": 1}, lambda: pytest.fail("recomputed")) == 4.25
    assert second.stats.hits == 1 and second.stats.misses == 0


def test_eval_cache_counts_unspillable_values(tmp_path: Path):
    cache = EvalCache(tmp_path / "evals.jsonl")
    cache.put("ns", {"n": 1}, object())  # stays in-memory only
    assert cache.stats.unspillable == 1
    assert cache.get("ns", {"n": 1}) is not EvalCache.MISS
    assert EvalCache(tmp_path / "evals.jsonl").get("ns", {"n": 1}) is EvalCache.MISS


def test_eval_cache_keeps_subclass_values_in_memory(tmp_path: Path):
    cache = EvalCache(tmp_path / "evals.jsonl")
    cache.put("ns", {"n": 1}, Level.HIGH)
    cache.put("ns", {"n": 2}, np.float64(1.5))
    assert (cache.stats.spills, cache.stats.unspillable) == (0, 2)
    assert cache.get("ns", {"n": 1}) is Level.HIGH
    assert type(cache.get("ns", {"n": 2})) is np.float64
    assert EvalCache(tmp_path / "evals.jsonl").get("ns", {"n": 1}) is EvalCache.MISS


def test_eval_cache_reload_sees_concurrent_writer(tmp_path: Path):
    path = tmp_path / "evals.jsonl"
    a = EvalCache(path)
    b = EvalCache(path)
    a.put("ns", {"n": 1}, 7.0)
    assert b.get("ns", {"n": 1}) is EvalCache.MISS
    assert b.reload() >= 1
    assert b.get("ns", {"n": 1}) == 7.0


def test_eval_cache_clear_keeps_the_disk_file(tmp_path: Path):
    path = tmp_path / "evals.jsonl"
    cache = EvalCache(path)
    cache.put("ns", 1, 2.0)
    cache.clear()
    assert len(cache) == 0
    assert cache.reload() == 1  # the disk tier restores the entry
    assert cache.get("ns", 1) == 2.0
    assert EvalCache(path).get("ns", 1) == 2.0  # fresh caches see it too


def test_eval_cache_metrics_include_spill_counters(tmp_path: Path):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    cache = EvalCache(tmp_path / "evals.jsonl")
    cache.bind_metrics(registry, tier="test")
    cache.get_or_compute("ns", 1, lambda: 1.0)
    cache.put("ns", 2, object())
    assert registry.counter("eval_cache_spills_total", tier="test").value == 1
    assert registry.counter("eval_cache_unspillable_total", tier="test").value == 1
