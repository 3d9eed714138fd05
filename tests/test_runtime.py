"""Tests for the campaign runtime: spec, store, scheduler, resume.

The resume contract under test is the strong one the runtime promises:
kill a run at *any* chunk boundary, resume with the same flags, and the
final store file is byte-identical to an uninterrupted run — while the
aggregated payloads are identical for every jobs/batch-size/resume
combination.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.generators.suites import GridCell
from repro.runtime import (
    ResultStore,
    ShardPlan,
    SweepSpec,
    canonical_dumps,
    canonical_loads,
    canonical_payload,
    merge_shard_stores,
    run_sweep,
)
from repro.runtime import store as store_module
from repro.runtime.store import NONFINITE_KEY, _encode_nonfinite
from repro.util.parallel import ReplicationChunk


def _echo_kernel(chunk: ReplicationChunk) -> dict:
    """A deterministic kernel: fingerprints the chunk's seed stream."""
    seeds = chunk.seeds()
    return {
        "label": chunk.label,
        "n": chunk.num_users,
        "m": chunk.num_links,
        "lo": chunk.rep_lo,
        "hi": chunk.rep_hi,
        "seed_sum": sum(seeds),
        "first": seeds[0] if seeds else None,
    }


def _spec(label: str = "rt-test") -> SweepSpec:
    return SweepSpec(
        experiment="RT",
        label=label,
        cells=(GridCell(2, 2, 5), GridCell(3, 2, 4), GridCell(3, 3, 3)),
        kernel=_echo_kernel,
    )


class TestSweepSpec:
    def test_chunks_cover_grid(self):
        spec = _spec()
        chunks, cell_of_chunk = spec.chunks(batch_size=2)
        assert len(chunks) == 3 + 2 + 2  # ceil(5/2) + ceil(4/2) + ceil(3/2)
        assert cell_of_chunk == [0, 0, 0, 1, 1, 2, 2]
        assert spec.total_replications == 12

    def test_seeded_label_default_identity(self):
        spec = _spec()
        assert spec.seeded_label(None) == spec.label
        assert spec.seeded_label(7) != spec.label
        assert spec.seeded_label(7) == spec.seeded_label(7)

    def test_seed_override_changes_streams(self):
        spec = _spec()
        base = run_sweep(spec).chunk_payloads
        other = run_sweep(spec, seed=7).chunk_payloads
        again = run_sweep(spec, seed=7).chunk_payloads
        assert base != other
        assert other == again


class TestResultStore:
    def test_round_trip_and_last_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        record = {
            "experiment": "RT", "label": "x", "n": 2, "m": 2,
            "rep_lo": 0, "rep_hi": 4, "payload": [1, 2.5, True],
        }
        store.append(record)
        store.append({**record, "payload": [9]})
        payloads = store.load_payloads()
        assert payloads[("RT", "x", 2, 2, 0, 4)] == [9]

    def test_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load_payloads() == {}

    def test_damaged_tail_ignored(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append(
            {"experiment": "RT", "label": "x", "n": 2, "m": 2,
             "rep_lo": 0, "rep_hi": 4, "payload": 1}
        )
        with path.open("a") as fh:
            fh.write('{"experiment": "RT", "label": "x", "n": 2,')  # kill mid-write
        assert len(store.load_payloads()) == 1

    def test_coerce(self, tmp_path):
        path = tmp_path / "s.jsonl"
        assert ResultStore.coerce(None) is None
        store = ResultStore(path)
        assert ResultStore.coerce(store) is store
        assert ResultStore.coerce(str(path)).path == path


class TestLoadRepairsTail:
    """Every reader (resume, shard merge, digest) keeps a killed store's
    valid unterminated last record and skips a torn fragment without
    writing; a resume heals the file on disk before it appends."""

    RECORD = {
        "experiment": "RT", "label": "x", "n": 2, "m": 2,
        "rep_lo": 0, "rep_hi": 4, "payload": 1,
    }

    def test_unterminated_valid_tail_is_kept_and_healed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        spec = _spec()
        run_sweep(spec, batch_size=2, store=path)
        healthy = path.read_bytes()
        damaged = healthy.rstrip(b"\n")
        path.write_bytes(damaged)  # kill between record and \n
        records = ResultStore(path).load_records()
        assert len(records) == 7  # the last record is not dropped
        assert path.read_bytes() == damaged  # reading never writes
        resumed = run_sweep(spec, batch_size=2, store=path, resume=True)
        assert resumed.computed_chunks == 0
        assert path.read_bytes() == healthy  # the resume heals the file

    def test_torn_fragment_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        spec = _spec()
        run_sweep(spec, batch_size=2, store=path)
        healthy = path.read_bytes()
        with path.open("ab") as fh:
            fh.write(b'{"experiment": "RT", "label"')  # kill mid-write
        torn = path.read_bytes()
        assert len(ResultStore(path).load_records()) == 7
        assert path.read_bytes() == torn  # reading never writes
        resumed = run_sweep(spec, batch_size=2, store=path, resume=True)
        assert resumed.computed_chunks == 0
        assert path.read_bytes() == healthy  # fragment truncated away

    def test_read_only_store_is_still_readable(self, tmp_path, monkeypatch):
        """A store that cannot be opened for writing (archived artifact)
        is read as-is; the valid unterminated tail still parses."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append(self.RECORD)
        damaged = path.read_bytes().rstrip(b"\n")
        path.write_bytes(damaged)

        def refuse_repair(self):
            raise PermissionError("read-only filesystem")

        monkeypatch.setattr(ResultStore, "repair_tail", refuse_repair)
        assert len(store.load_records()) == 1
        assert path.read_bytes() == damaged  # no healing attempted

    def test_healthy_read_only_store_resumes(self, tmp_path, monkeypatch):
        """A resume opens a store for writing only to heal its tail, so
        a healthy read-only store (archived artifact) still resumes."""
        path = tmp_path / "s.jsonl"
        run_sweep(_spec(), batch_size=2, store=path)
        real_open = Path.open

        def read_only(self, mode="r", *args, **kwargs):
            if self == path and mode not in ("r", "rb"):
                raise PermissionError("read-only filesystem")
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", read_only)
        resumed = run_sweep(_spec(), batch_size=2, store=path, resume=True)
        assert resumed.computed_chunks == 0


class TestNotAStore:
    """A path that holds no store is refused, one line, before anything
    is written: a directory, or a file whose unterminated last line is
    not a torn record (every record line begins with ``{``)."""

    NOTES = b"my precious notes, not a store"

    @pytest.mark.parametrize("resume", [False, True])
    def test_a_note_keeps_its_bytes(self, tmp_path, resume):
        path = tmp_path / "notes.txt"
        path.write_bytes(self.NOTES)
        with pytest.raises(StoreError) as excinfo:
            run_sweep(_spec(), batch_size=2, store=path, resume=resume)
        assert str(excinfo.value) == f"{path}, line 1: not a chunk record"
        assert path.read_bytes() == self.NOTES

    def test_a_note_after_the_records_is_refused(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_sweep(_spec(), batch_size=2, store=path)
        damaged = path.read_bytes() + b"notes"
        path.write_bytes(damaged)
        store = ResultStore(path)
        for call in (store.load_records, store.repair_tail):
            with pytest.raises(StoreError, match="line 8: not a chunk record"):
                call()
        assert path.read_bytes() == damaged

    def test_a_blank_tail_is_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_sweep(_spec(), batch_size=2, store=path)
        healthy = path.read_bytes()
        path.write_bytes(healthy + b" \t")
        assert len(ResultStore(path).load_records()) == 7
        ResultStore(path).repair_tail()
        assert path.read_bytes() == healthy

    def test_a_directory_is_refused_by_readers_and_writers(self, tmp_path):
        store = ResultStore(tmp_path)
        for call in (
            store.load_records,
            store.repair_tail,
            lambda: store.append(TestLoadRepairsTail.RECORD),
        ):
            with pytest.raises(StoreError) as excinfo:
                call()
            assert str(excinfo.value).startswith(
                f"{tmp_path}: cannot read the store: "
            )
        assert list(tmp_path.iterdir()) == []

    def test_merge_into_a_directory_is_refused(self, tmp_path):
        shard = tmp_path / "s.shard-0.jsonl"
        run_sweep(_spec(), batch_size=2, store=shard)
        dest = tmp_path / "out"
        dest.mkdir()
        with pytest.raises(StoreError, match="is a directory"):
            merge_shard_stores([shard], dest, force=True)
        assert list(dest.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", shard.name]


class TestReadersNeverWrite:
    """``digest`` and ``merge`` read a torn store without touching it."""

    @pytest.fixture(params=["unterminated", "torn"])
    def damaged_store(self, request, tmp_path):
        path = tmp_path / "s.shard-0.jsonl"
        run_sweep(_spec(), batch_size=2, store=path)
        healthy = path.read_bytes()
        if request.param == "unterminated":
            path.write_bytes(healthy.rstrip(b"\n"))
        else:
            path.write_bytes(healthy + b'{"experiment": "RT", "lab')
        return path, healthy

    def test_digest_leaves_bytes_unchanged(self, damaged_store):
        path, healthy = damaged_store
        damaged = path.read_bytes()
        digest = ResultStore(path).canonical_digest()
        assert path.read_bytes() == damaged
        path.write_bytes(healthy)
        assert ResultStore(path).canonical_digest() == digest

    def test_merge_leaves_bytes_unchanged(self, damaged_store, tmp_path):
        path, healthy = damaged_store
        damaged = path.read_bytes()
        merged = merge_shard_stores([path], tmp_path / "s.jsonl")
        assert path.read_bytes() == damaged
        assert merged.records == 7
        assert merged.path.read_bytes() == healthy


class TestForeignLines:
    """A non-blank line that is not a chunk record is refused by every
    reader, naming the file and the line, unless it is the unterminated
    final line a kill mid-write leaves."""

    FOREIGN = [
        b"garbage",
        b'{"x": 1}',
        b"[1, 2]",
        b'{"experiment": "RT", "label": "x", "n": 2, "m": 2, '
        b'"rep_lo": 0, "rep_hi": 4}',  # no payload
        b'{"experiment": "RT", "label": "x", "n": "two", "m": 2, '
        b'"rep_lo": 0, "rep_hi": 4, "payload": 1}',
        b"\xff\xfe",
    ]

    @staticmethod
    def _store_with(tmp_path, foreign, *, at):
        """A 7-chunk store with *foreign* inserted as line *at* (1-based)."""
        path = tmp_path / "s.jsonl"
        run_sweep(_spec(), batch_size=2, store=path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(at - 1, foreign + b"\n")
        path.write_bytes(b"".join(lines))
        return path

    @pytest.mark.parametrize("foreign", FOREIGN)
    @pytest.mark.parametrize("at", [1, 4, 8])
    def test_iter_records_names_file_and_line(self, tmp_path, foreign, at):
        path = self._store_with(tmp_path, foreign, at=at)
        with pytest.raises(StoreError) as excinfo:
            ResultStore(path).load_records()
        assert str(excinfo.value) == f"{path}, line {at}: not a chunk record"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self._store_with(tmp_path, b"  \t", at=3)
        assert len(ResultStore(path).load_records()) == 7

    def test_resume_refuses_and_appends_nothing(self, tmp_path):
        path = self._store_with(tmp_path, b'{"x": 1}', at=3)
        path.write_bytes(path.read_bytes()[:-1])  # an unterminated tail too
        before = path.read_bytes()
        with pytest.raises(StoreError, match="line 3: not a chunk record"):
            run_sweep(_spec(), batch_size=2, store=path, resume=True)
        assert path.read_bytes() == before


class TestScheduler:
    def test_jobs_and_batch_size_invariance(self):
        """Per-cell aggregates must not depend on chunking or workers
        (chunk *payloads* naturally differ in shape with batch_size)."""

        def cell_totals(result):
            return [
                sum(p["seed_sum"] for p in group)
                for group in result.payloads_by_cell
            ]

        spec = _spec()
        ref = cell_totals(run_sweep(spec))
        assert cell_totals(run_sweep(spec, batch_size=1)) == ref
        assert cell_totals(run_sweep(spec, batch_size=2)) == ref
        assert cell_totals(run_sweep(spec, jobs=2, batch_size=2)) == ref

    def test_store_writes_one_line_per_chunk(self, tmp_path):
        path = tmp_path / "s.jsonl"
        result = run_sweep(_spec(), batch_size=2, store=path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == result.computed_chunks == 7
        keys = [ResultStore.record_key(json.loads(line)) for line in lines]
        assert len(set(keys)) == len(keys)

    def test_resume_skips_completed_chunks(self, tmp_path):
        path = tmp_path / "s.jsonl"
        spec = _spec()
        fresh = run_sweep(spec, batch_size=2, store=path)
        assert fresh.resumed_chunks == 0
        resumed = run_sweep(spec, batch_size=2, store=path, resume=True)
        assert resumed.computed_chunks == 0
        assert resumed.resumed_chunks == 7
        assert resumed.chunk_payloads == fresh.chunk_payloads
        # Nothing was re-appended.
        assert len(path.read_text().strip().splitlines()) == 7

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="resume"):
            run_sweep(_spec(), resume=True)

    @pytest.mark.parametrize("written, resumed", [(2, 1), (2, 3), (None, 2), (2, None)])
    def test_resume_refuses_another_batch_size(self, tmp_path, written, resumed):
        """A store written under one chunking and resumed under another
        would end up holding overlapping replication ranges."""
        path = tmp_path / "s.jsonl"
        run_sweep(_spec(), batch_size=written, store=path)
        path.write_bytes(path.read_bytes()[:-1])  # an unterminated tail too
        before = path.read_bytes()
        with pytest.raises(StoreError) as excinfo:
            run_sweep(_spec(), batch_size=resumed, store=path, resume=True)
        message = str(excinfo.value)
        assert message.startswith(f"cannot resume from {path}: chunk ('RT', ")
        assert f"batch_size={resumed}" in message
        assert path.read_bytes() == before

    def test_resume_accepts_every_shard_of_the_same_chunking(self, tmp_path):
        """A store holding other shards' chunks of the same chunking is
        not refused: each of them is a chunk of this run's chunking."""
        path = tmp_path / "s.jsonl"
        run_sweep(_spec(), batch_size=2, store=path, shard=ShardPlan(1, 2))
        resumed = run_sweep(
            _spec(), batch_size=2, store=path, resume=True, shard=ShardPlan(0, 2)
        )
        assert resumed.resumed_chunks == 0
        assert resumed.computed_chunks == 4

    def test_resume_ignores_other_labels(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_sweep(_spec("other-label"), batch_size=2, store=path)
        resumed = run_sweep(_spec(), batch_size=2, store=path, resume=True)
        assert resumed.resumed_chunks == 0
        assert resumed.computed_chunks == 7

    def test_payloads_by_cell_geometry(self):
        spec = _spec()
        result = run_sweep(spec, batch_size=2)
        by_cell = result.payloads_by_cell
        assert [len(group) for group in by_cell] == [3, 2, 2]
        for cell, group in zip(spec.cells, by_cell):
            assert all(p["n"] == cell.num_users for p in group)
            assert [p["lo"] for p in group] == sorted(p["lo"] for p in group)

    def test_fresh_payloads_are_json_canonical(self):
        """A kernel returning tuples must aggregate as lists, so fresh
        and resumed runs are indistinguishable to the aggregation."""

        result = run_sweep(
            SweepSpec("RT", "rt-tuple", (GridCell(2, 2, 2),), _tuple_kernel)
        )
        assert result.chunk_payloads == [[2, [0, 1]]]


def _tuple_kernel(chunk: ReplicationChunk) -> tuple:
    return (chunk.num_users, tuple(range(chunk.rep_lo, chunk.rep_hi)))


def _nonfinite_kernel(chunk: ReplicationChunk) -> dict:
    """A kernel whose payloads contain every non-finite float."""
    return {
        "lo": chunk.rep_lo,
        "worst_ratio": math.inf,
        "series": [1.5, -math.inf, math.nan],
    }


class TestNonFiniteSentinel:
    """Satellite fix: non-finite floats must survive the store round
    trip via the ``__nonfinite__`` sentinel instead of crashing the
    historical ``allow_nan=False`` encoder mid-campaign."""

    def test_canonical_payload_round_trips_nonfinite(self):
        payload = {"a": math.inf, "b": [-math.inf, 1.5], "c": math.nan}
        out = canonical_payload(payload)
        assert out["a"] == math.inf
        assert out["b"] == [-math.inf, 1.5]
        assert math.isnan(out["c"])

    def test_encoded_line_is_strict_json(self):
        """The wire form parses under strict JSON (no bare Infinity)."""
        line = canonical_dumps({"x": math.inf, "y": [math.nan]})
        assert json.loads(line) == {
            "x": {"__nonfinite__": "inf"},
            "y": [{"__nonfinite__": "nan"}],
        }

    def test_unknown_sentinel_value_decodes_unchanged(self):
        """The decode hook only rewrites the three known spellings."""
        from repro.runtime import canonical_loads

        assert canonical_loads('{"__nonfinite__": 3}') == {"__nonfinite__": 3}

    def test_reserved_key_rejected_before_disk(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record = {
            "experiment": "RT", "label": "x", "n": 2, "m": 2,
            "rep_lo": 0, "rep_hi": 4,
            "payload": {"__nonfinite__": "not really"},
        }
        with pytest.raises(ValueError, match="reserved"):
            ResultStore(path).append(record)
        assert not path.exists()

    def test_fresh_store_run_survives_nonfinite_payloads(self, tmp_path):
        """The historical crash: a degenerate chunk mid-campaign."""
        spec = SweepSpec("RT", "rt-inf", (GridCell(2, 2, 4),), _nonfinite_kernel)
        result = run_sweep(spec, batch_size=1, store=tmp_path / "s.jsonl")
        assert result.computed_chunks == 4
        for payload in result.chunk_payloads:
            assert payload["worst_ratio"] == math.inf
            assert payload["series"][1] == -math.inf
            assert math.isnan(payload["series"][2])

    def test_resume_preserves_nonfinite_bytes(self, tmp_path):
        """Fresh and ``--resume`` paths agree byte for byte with
        non-finite payloads on both sides of the kill point."""
        spec = SweepSpec("RT", "rt-inf", (GridCell(2, 2, 4),), _nonfinite_kernel)
        full_path = tmp_path / "full.jsonl"
        full = run_sweep(spec, batch_size=1, store=full_path)
        full_bytes = full_path.read_bytes()

        lines = full_bytes.splitlines(keepends=True)
        killed_path = tmp_path / "killed.jsonl"
        killed_path.write_bytes(b"".join(lines[:2]))
        resumed = run_sweep(spec, batch_size=1, store=killed_path, resume=True)

        assert resumed.resumed_chunks == 2
        assert resumed.computed_chunks == 2
        assert killed_path.read_bytes() == full_bytes
        # NaN breaks ``==`` on raw payloads; compare canonical bytes
        # (sorted keys: resumed payloads come back from sorted lines).
        assert canonical_dumps(
            resumed.chunk_payloads, sort_keys=True
        ) == canonical_dumps(full.chunk_payloads, sort_keys=True)


_floats = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0])
_payload_keys = st.sampled_from([NONFINITE_KEY, "a", "b"]) | st.text(max_size=3)
_payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | _floats
    | _floats.map(np.float64)
    | st.sampled_from([NONFINITE_KEY, "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_payload_keys, inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    _payloads,
    st.sampled_from(
        [{}, {"sort_keys": True}, {"sort_keys": True, "separators": (",", ":")}]
    ),
)
def test_canonical_dumps_matches_the_sentinel_walk(payload, kwargs):
    """The single-pass encoder gives the text, or the error, of its
    definition: the recursive sentinel walk, then a strict dumps."""
    try:
        expected = json.dumps(
            _encode_nonfinite(payload), allow_nan=False, **kwargs
        )
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            canonical_dumps(payload, **kwargs)
        assert str(raised.value) == str(exc)
    else:
        assert canonical_dumps(payload, **kwargs) == expected



#: The keyword sets the package passes ``canonical_dumps``, plus one it
#: does not, which takes the ``json.dumps`` fallback.
_KEYWORD_SETS = [
    {},
    {"sort_keys": True},
    {"sort_keys": True, "separators": (",", ":")},
    {"indent": 1},
]


def _outcome(fn, *args, **kwargs):
    """``repr`` of *fn*'s result (NaN-aware), or its error's type and text."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(_payloads, st.sampled_from(_KEYWORD_SETS))
def test_reused_encoders_equal_json_dumps(payload, kwargs):
    """``canonical_dumps`` encodes with prebuilt encoders: each one's
    strict pass gives ``json.dumps``'s text, or its error, and so does
    the whole codec wherever there is nothing to rewrite."""
    strict = _outcome(json.dumps, payload, allow_nan=False, **kwargs)
    assert _outcome(store_module._dumps, payload, kwargs) == strict
    if isinstance(strict, str) and NONFINITE_KEY not in strict:
        assert canonical_dumps(payload, **kwargs) == json.dumps(
            payload, allow_nan=False, **kwargs
        )


@st.composite
def _json_texts(draw):
    """Texts ``json.loads`` reads, some it refuses, with a BOM at times."""
    payload = draw(_payloads)
    texts = [json.dumps(payload), json.dumps(payload, separators=(",", ":"))]
    try:
        texts.append(canonical_dumps(payload))  # sentinel objects
    except ValueError:  # the reserved key
        pass
    text = draw(st.sampled_from(texts) | st.text(max_size=12))
    if draw(st.integers(0, 3)) == 0:
        text = "\ufeff" + text
    if draw(st.integers(0, 5)) == 0:
        text = draw(st.sampled_from([f" {text}\n", text + "]", text + "{}"]))
    return text


@settings(max_examples=300, deadline=None)
@given(_json_texts(), st.booleans())
@example('\ufeff{"op": "ping"}', False)
def test_reused_decoder_equals_json_loads(text, as_bytes):
    """``canonical_loads`` decodes with one prebuilt decoder and keeps
    ``json.loads``'s refusals, the leading-BOM one included."""
    raw = text.encode("utf-8") if as_bytes else text
    assert _outcome(canonical_loads, raw) == _outcome(
        json.loads, raw, object_hook=store_module._decode_hook
    )


class TestResumeAfterKill:
    """Satellite property: resume-after-kill reproduces the store byte
    for byte, for every kill point and chunking."""

    @settings(max_examples=25, deadline=None)
    @given(
        batch_size=st.one_of(st.none(), st.integers(1, 5)),
        kill_after=st.integers(0, 12),
    )
    def test_store_byte_identical(self, tmp_path_factory, batch_size, kill_after):
        tmp_path = tmp_path_factory.mktemp("resume-kill")
        spec = _spec()
        full_path = tmp_path / "full.jsonl"
        full = run_sweep(spec, batch_size=batch_size, store=full_path)
        full_bytes = full_path.read_bytes()

        # Simulate a kill after `kill_after` completed chunks: the store
        # holds a prefix of the canonical line sequence.
        lines = full_bytes.splitlines(keepends=True)
        kill_after = min(kill_after, len(lines))
        killed_path = tmp_path / "killed.jsonl"
        killed_path.write_bytes(b"".join(lines[:kill_after]))

        resumed = run_sweep(
            spec, batch_size=batch_size, store=killed_path, resume=True
        )
        assert resumed.resumed_chunks == kill_after
        assert resumed.computed_chunks == len(lines) - kill_after
        assert killed_path.read_bytes() == full_bytes
        assert resumed.chunk_payloads == full.chunk_payloads

    @settings(max_examples=25, deadline=None)
    @given(
        batch_size=st.one_of(st.none(), st.integers(1, 5)),
        cut_fraction=st.floats(0.0, 1.0),
    )
    def test_store_byte_identical_mid_line_kill(
        self, tmp_path_factory, batch_size, cut_fraction
    ):
        """A kill can also land *mid-write*, leaving a torn final line.

        The torn fragment must not poison subsequent appends (the
        recomputed chunk's record must stay parseable) and the healed,
        resumed store must still converge to the uninterrupted bytes."""
        tmp_path = tmp_path_factory.mktemp("resume-tear")
        spec = _spec()
        full_path = tmp_path / "full.jsonl"
        full = run_sweep(spec, batch_size=batch_size, store=full_path)
        full_bytes = full_path.read_bytes()

        cut = int(len(full_bytes) * cut_fraction)
        killed_path = tmp_path / "killed.jsonl"
        killed_path.write_bytes(full_bytes[:cut])

        resumed = run_sweep(
            spec, batch_size=batch_size, store=killed_path, resume=True
        )
        assert killed_path.read_bytes() == full_bytes
        assert resumed.chunk_payloads == full.chunk_payloads
        # And a second resume recomputes nothing: the store converged.
        again = run_sweep(
            spec, batch_size=batch_size, store=killed_path, resume=True
        )
        assert again.computed_chunks == 0
        assert killed_path.read_bytes() == full_bytes
