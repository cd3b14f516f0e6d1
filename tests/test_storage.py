"""Unit tests for the repro.storage durability seam.

Covers the codec (type-tagged JSON round-trips), the journal semantics
shared by :class:`MemJournal` and :class:`DirStorage` (write-ahead
watermark, fsync lag, torn writes, recovery repair), the on-disk store's
reopen-and-replay path, the :class:`DurableObjectHandler` write-ahead
wrapper, and the :class:`StorageRuntime` factory.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.sim.network import Message
from repro.storage import (
    DirStorage,
    DurableObjectHandler,
    MemJournal,
    SpaceMeter,
    StorageRuntime,
    count_timestamps,
    decode_state,
    encode_state,
    resolve_durability,
)
from repro.storage.stable import _frame_size
from repro.types import OperationId, ProcessId, Role, TaggedValue, Timestamp


def make_dir_store(tmp_path, name="s1.log"):
    return DirStorage(tmp_path / name)


BOTH_STORES = ["mem", "dir"]


def make_store(kind, tmp_path):
    return MemJournal() if kind == "mem" else make_dir_store(tmp_path)


class TestCodec:
    def test_scalars_round_trip(self):
        for value in ("v", 7, 3.5, True, None):
            assert decode_state(encode_state(value)) == value

    def test_rich_state_round_trips(self):
        ts = Timestamp(seq=4, writer=2)
        state = {
            "current": TaggedValue(ts=ts, value="v4"),
            "history": [TaggedValue(ts=Timestamp(seq=1), value="v1"), None],
            "pair": (1, "two"),
            "voters": {ProcessId(Role.OBJECT.value, 0), ProcessId(Role.OBJECT.value, 2)},
            "count": 3,
        }
        decoded = decode_state(encode_state(state))
        assert decoded == state
        assert isinstance(decoded["pair"], tuple)
        assert isinstance(decoded["voters"], set)

    def test_encoding_is_deterministic(self):
        state = {"a": Timestamp(seq=1), "b": {2, 1, 3}}
        assert encode_state(state) == encode_state(state)

    def test_count_timestamps_walks_containers(self):
        state = {
            "current": TaggedValue(ts=Timestamp(seq=2, writer=1), value="x"),
            "log": [Timestamp(seq=1), Timestamp(seq=2, writer=1)],
            "nested": {"deep": (Timestamp(seq=3),)},
        }
        assert count_timestamps(encode_state(state)) == {
            Timestamp(seq=1),
            Timestamp(seq=2, writer=1),
            Timestamp(seq=3),
        }


class TestJournalSemantics:
    @pytest.mark.parametrize("kind", BOTH_STORES)
    def test_put_get_keys_sync(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("a", b"1")
        store.put("b", b"2")
        store.put("a", b"3")
        store.sync()
        assert store.get("a") == b"3"
        assert store.get("b") == b"2"
        assert store.get("missing") is None
        assert store.keys() == ("a", "b")
        stats = store.stats()
        assert stats.records == 3 and stats.synced_records == 3
        store.close()

    @pytest.mark.parametrize("kind", BOTH_STORES)
    def test_crash_loses_exactly_the_unsynced_suffix(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("a", b"1")
        store.sync()
        store.put("a", b"2")
        store.put("b", b"3")  # acknowledged, never synced
        assert store.crash() == 2
        image = store.recover()
        assert image.state == {"a": b"1"}
        assert image.replayed == 1 and image.discarded == 0
        assert not image.torn_detected
        store.close()

    @pytest.mark.parametrize("kind", BOTH_STORES)
    def test_fsync_lag_keeps_suffix_acknowledged_but_volatile(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.lag = 1
        for i in range(3):
            store.put("a", b"v%d" % i)
            store.sync()
        # The live machine sees v2; only v0, v1 ever became durable.
        assert store.get("a") == b"v2"
        assert store.stats().synced_records == 2
        store.crash()
        image = store.recover()
        assert image.state == {"a": b"v1"}
        assert image.replayed == 2
        store.close()

    @pytest.mark.parametrize("kind", BOTH_STORES)
    def test_torn_write_detected_and_discarded(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("a", b"old")
        store.put("a", b"new")
        store.sync()
        assert store.tear_last()
        image = store.recover()
        assert image.torn_detected
        assert image.state == {"a": b"old"}
        assert image.discarded == 1
        # recover() repaired the journal: appends after it stay parseable.
        store.put("a", b"post")
        store.sync()
        assert store.recover().state == {"a": b"post"}
        store.close()

    @pytest.mark.parametrize("kind", BOTH_STORES)
    def test_frozen_store_rejects_appends(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.frozen = True
        with pytest.raises(StorageError, match="frozen"):
            store.put("a", b"1")
        store.close()

    @pytest.mark.parametrize("kind", BOTH_STORES)
    def test_gc_compacts_to_latest_per_key(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        for i in range(5):
            store.put("a", b"a%d" % i)
        store.put("b", b"b0")
        store.sync()
        before = store.stats().retained_bytes
        freed = store.gc()
        after = store.stats()
        assert freed == before - after.retained_bytes > 0
        assert after.records == 2
        assert store.records() == (("a", b"a4"), ("b", b"b0"))
        store.close()

    def test_mem_and_dir_account_identical_bytes(self, tmp_path):
        mem, disk = MemJournal(), make_dir_store(tmp_path)
        for store in (mem, disk):
            store.put("ts", b'{"seq":1}')
            store.put("value", b'"v1"')
            store.sync()
        assert mem.stats() == disk.stats()
        assert disk.path.stat().st_size == disk.stats().retained_bytes
        disk.close()


class TestDirStorage:
    def test_reopen_replays_the_log(self, tmp_path):
        path = tmp_path / "obj.log"
        store = DirStorage(path)
        store.put("a", b"1")
        store.put("b", b"2")
        store.sync()
        store.close()
        reopened = DirStorage(path)
        assert reopened.get("a") == b"1"
        assert reopened.keys() == ("a", "b")
        assert reopened.stats().synced_records == 2
        reopened.close()

    def test_reopen_truncates_a_torn_tail(self, tmp_path):
        path = tmp_path / "obj.log"
        store = DirStorage(path)
        store.put("a", b"good")
        store.sync()
        store.close()
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x30GARBAGE")  # header promising more bytes
        reopened = DirStorage(path)
        assert reopened.records() == (("a", b"good"),)
        assert path.stat().st_size == intact
        reopened.close()

    def test_round_trip_determinism(self, tmp_path):
        """Same journal contents ⇒ byte-identical files and recovered state."""
        writes = [("a", b"1"), ("b", b"2"), ("a", b"3")]
        paths = []
        for name in ("one.log", "two.log"):
            store = DirStorage(tmp_path / name)
            for key, value in writes:
                store.put(key, value)
                store.sync()
            store.close()
            paths.append(tmp_path / name)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        first, second = DirStorage(paths[0]), DirStorage(paths[1])
        assert first.recover() == second.recover()
        first.close(), second.close()

    def test_crash_truncates_the_file(self, tmp_path):
        store = DirStorage(tmp_path / "obj.log")
        store.put("a", b"1")
        store.sync()
        synced_size = store.path.stat().st_size
        store.put("a", b"2")
        store._fh.flush()
        assert store.path.stat().st_size > synced_size
        store.crash()
        assert store.path.stat().st_size == synced_size
        store.close()


class StubHandler:
    """Minimal ObjectHandler: counts messages into its state."""

    def initial_state(self):
        return {"count": 0, "latest": None}

    def handle(self, state, message):
        state["count"] += 1
        state["latest"] = message.payload.get("value")
        return {"ack": state["count"]}


def _msg(value):
    writer = ProcessId(Role.WRITER.value, 0)
    return Message(
        src=writer,
        dst=ProcessId(Role.OBJECT.value, 0),
        op=OperationId(client=writer, kind="write", serial=0),
        round_no=1,
        tag="STORE",
        payload={"value": value},
    )


class TestDurableObjectHandler:
    def test_persists_changed_keys_before_reply(self):
        store = MemJournal()
        handler = DurableObjectHandler(StubHandler(), store)
        state = handler.initial_state()
        reply = handler.handle(state, _msg("v1"))
        assert reply == {"ack": 1}
        assert decode_state(store.get("count")) == 1
        assert decode_state(store.get("latest")) == "v1"
        assert store.stats().synced_records == store.stats().records

    def test_unchanged_keys_are_not_rewritten(self):
        store = MemJournal()
        handler = DurableObjectHandler(StubHandler(), store)
        state = handler.initial_state()
        handler.handle(state, _msg("v1"))
        records_after_first = store.stats().records
        handler.handle(state, _msg("v1"))  # count changes, latest does not
        assert store.stats().records == records_after_first + 1

    def test_recovered_state_replays_journal_over_initial_state(self):
        store = MemJournal()
        handler = DurableObjectHandler(StubHandler(), store)
        state = handler.initial_state()
        handler.handle(state, _msg("v1"))
        handler.handle(state, _msg("v2"))
        recovered, image = handler.recovered_state()
        assert recovered == {"count": 2, "latest": "v2"}
        assert image.replayed == store.stats().records

    def test_frozen_store_skips_persistence(self):
        store = MemJournal()
        handler = DurableObjectHandler(StubHandler(), store)
        state = handler.initial_state()
        store.frozen = True
        handler.handle(state, _msg("v1"))  # no StorageError: persistence gated
        assert store.stats().records == 0


class TestStorageRuntime:
    def test_resolve_durability(self):
        assert resolve_durability("none") == "none"
        assert resolve_durability("mem") == "mem"
        with pytest.raises(ConfigurationError, match="durability"):
            resolve_durability("disk")

    def test_create_none_returns_none(self):
        assert StorageRuntime.create("none") is None

    @pytest.mark.parametrize("durability,store_type", [("mem", MemJournal), ("dir", DirStorage)])
    def test_wrap_assigns_one_store_per_object(self, durability, store_type):
        runtime = StorageRuntime.create(durability)
        pid = ProcessId(Role.OBJECT.value, 0)
        wrapped = runtime.wrap(pid, StubHandler())
        assert isinstance(wrapped, DurableObjectHandler)
        assert type(wrapped.store) is store_type
        with pytest.raises(ConfigurationError, match="already"):
            runtime.wrap(pid, StubHandler())
        runtime.close()

    def test_meter_reports_gc_shrink(self):
        runtime = StorageRuntime.create("mem")
        handler = runtime.wrap(ProcessId(Role.OBJECT.value, 0), StubHandler())
        state = handler.initial_state()
        for i in range(6):
            handler.handle(state, _msg(f"v{i}"))
        report = SpaceMeter(runtime).measure()
        assert report["durability"] == "mem"
        assert report["gc_retained_bytes"] < report["retained_bytes"]
        assert report["gc_freed_bytes"] == (
            report["retained_bytes"] - report["gc_retained_bytes"]
        )
        assert report["gc_retained_records"] == 2  # one per state key
        runtime.close()


def test_frame_size_matches_physical_bytes(tmp_path):
    store = DirStorage(tmp_path / "obj.log")
    store.put("key", b"value")
    store.sync()
    assert store.path.stat().st_size == _frame_size("key", b"value")
    store.close()
