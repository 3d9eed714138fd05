"""Append-only JSONL result store with chunk-level checkpoint keys.

The on-disk record format, the canonical-record identity check, and the
shard/merge rules implemented here are specified (with doctested
examples) in ``docs/STORE_FORMAT.md`` — the store and the service wire
protocol (:mod:`repro.service.query`) share the same canonical JSON
encoding via :func:`canonical_dumps`/:func:`canonical_loads`.

One line per completed chunk:

.. code-block:: json

    {"experiment": "E5", "label": "E5", "n": 3, "m": 3,
     "rep_lo": 0, "rep_hi": 40, "payload": ...}

The key ``(experiment, label, n, m, rep_lo, rep_hi)`` identifies a chunk
across runs: seeds are a pure function of ``(label, n, m, rep)`` and
chunk boundaries a pure function of the grid and ``batch_size``, so a
resumed run regenerates exactly the keys of the interrupted one and can
skip every chunk already on disk. Lines are appended one per completed
chunk, in canonical chunk order (the scheduler consumes pool results in
submission order), so a killed run leaves a *prefix* of the canonical
line sequence — resuming appends the missing suffix and the final file
is byte-identical to an uninterrupted run with the same flags.

Payloads are canonicalised through one JSON round trip before they are
aggregated or written (tuples become lists), so fresh and resumed runs
aggregate exactly the same objects. JSON floats use ``repr`` shortest
round-trip formatting, which is lossless for float64 — bit-identical
results serialise to identical lines.

Non-finite floats (``inf``/``-inf``/``nan`` — e.g. a degenerate
worst-case PoA ratio) are not valid JSON, and the historical
``allow_nan=False`` strictness made them crash mid-campaign *after*
earlier chunks were already appended. They are now encoded as an
explicit sentinel object ``{"__nonfinite__": "inf" | "-inf" | "nan"}``
on write and decoded back to the float on read, so a payload survives
the round trip with its non-finite values intact and the encoded form
stays deterministic (byte-identity of resumed stores included). The
sentinel key is reserved: a payload dict that already uses it is
rejected before anything touches disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, Union

from repro.errors import StoreError, StoreMergeError

__all__ = [
    "MergeResult",
    "ResultStore",
    "StoreKey",
    "canonical_dumps",
    "canonical_loads",
    "canonical_payload",
    "canonical_record_digest",
    "discover_shard_stores",
    "merge_shard_stores",
    "shard_store_path",
]

#: (experiment, label, n, m, rep_lo, rep_hi)
StoreKey = tuple[str, str, int, int, int, int]

#: Reserved marker for JSON-unrepresentable floats.
NONFINITE_KEY = "__nonfinite__"

_ENCODE = {math.inf: "inf", -math.inf: "-inf"}
_DECODE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _encode_nonfinite(obj: Any) -> Any:
    """Replace non-finite floats with sentinel objects, recursively.

    Returns *obj* itself wherever nothing needed rewriting, so the
    common all-finite payload costs one traversal and no copies.
    """
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return {NONFINITE_KEY: "nan" if math.isnan(obj) else _ENCODE[obj]}
    if isinstance(obj, dict):
        if NONFINITE_KEY in obj:
            raise ValueError(
                f"payload uses the reserved key {NONFINITE_KEY!r}"
            )
        encoded = {key: _encode_nonfinite(value) for key, value in obj.items()}
        return obj if all(encoded[k] is obj[k] for k in obj) else encoded
    if isinstance(obj, (list, tuple)):
        encoded_items = [_encode_nonfinite(value) for value in obj]
        if isinstance(obj, list) and all(
            new is old for new, old in zip(encoded_items, obj)
        ):
            return obj
        return encoded_items
    return obj


def _decode_hook(obj: dict[str, Any]) -> Any:
    """``json.loads`` object hook undoing :func:`_encode_nonfinite`."""
    if len(obj) == 1 and NONFINITE_KEY in obj:
        try:
            return _DECODE[obj[NONFINITE_KEY]]
        except (KeyError, TypeError):
            return obj
    return obj


#: The keyword sets the package passes :func:`canonical_dumps`.
_KEYWORD_SETS: tuple[dict[str, Any], ...] = (
    {},
    {"sort_keys": True},
    {"sort_keys": True, "separators": (",", ":")},
)
#: One encoder per keyword set, built once. ``json.dumps(obj,
#: allow_nan=False, **kwargs)`` builds a ``JSONEncoder`` with exactly
#: these arguments on every call, so the text is the same; other keyword
#: sets still go through ``json.dumps``.
_ENCODERS = tuple(
    (kwargs, json.JSONEncoder(allow_nan=False, **kwargs)) for kwargs in _KEYWORD_SETS
)
#: The decoder ``json.loads(text, object_hook=_decode_hook)`` builds.
_DECODER = json.JSONDecoder(object_hook=_decode_hook)


def _dumps(obj: Any, kwargs: dict[str, Any]) -> str:
    """``json.dumps(obj, allow_nan=False, **kwargs)``."""
    for known, encoder in _ENCODERS:
        if kwargs == known:
            return encoder.encode(obj)
    return json.dumps(obj, allow_nan=False, **kwargs)


def canonical_dumps(obj: Any, **kwargs: Any) -> str:
    """Serialise with the sentinel encoding (strict about raw inf/nan).

    A single strict encoder pass answers the common case. The recursive
    :func:`_encode_nonfinite` walk runs only when that pass refuses *obj*
    (a non-finite float, say) or its text holds the reserved key, so
    every input encodes, or fails, exactly as it does through the walk.
    The one difference is depth: a finite payload nested too deep for
    the walk's Python recursion (about 500 levels) but not for the C
    encoder now encodes instead of raising :class:`RecursionError`.
    """
    try:
        text = _dumps(obj, kwargs)
    except (TypeError, ValueError):
        pass
    else:
        if NONFINITE_KEY not in text:
            return text
    return _dumps(_encode_nonfinite(obj), kwargs)


def canonical_loads(text: str) -> Any:
    """Deserialise, turning sentinel objects back into floats.

    ``json.loads`` refuses a leading U+FEFF with its own message before
    it decodes, and it also reads bytes; both cases still go through it,
    so only a plain ``str`` takes the prebuilt decoder.
    """
    if type(text) is str and not text.startswith("\ufeff"):
        return _DECODER.decode(text)
    return json.loads(text, object_hook=_decode_hook)


def canonical_payload(payload: Any) -> Any:
    """One JSON round trip: the form payloads take when read back.

    Applied to freshly computed payloads too, so aggregation cannot
    distinguish a computed chunk from a resumed one (tuple vs list,
    int-keyed dicts, numpy scalars that slipped through, ...).
    Non-finite floats survive the trip via the sentinel encoding.
    """
    return canonical_loads(canonical_dumps(payload))


def _parse_record(line: bytes) -> dict[str, Any] | None:
    """The chunk record one store line holds, or ``None`` if it holds none.

    A record is a JSON object with the :data:`StoreKey` fields and a
    ``payload``.
    """
    try:
        record = canonical_loads(line.decode("utf-8"))
        ResultStore.record_key(record)
    except (KeyError, RecursionError, TypeError, ValueError):
        return None
    return record if "payload" in record else None


class ResultStore:
    """An append-only JSONL file of per-chunk campaign results."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    @classmethod
    def coerce(
        cls, store: "Union[ResultStore, str, Path, None]"
    ) -> "ResultStore | None":
        """Normalise a runner's ``store`` argument (path-like or None)."""
        if store is None or isinstance(store, ResultStore):
            return store
        return cls(store)

    @staticmethod
    def record_key(record: dict[str, Any]) -> StoreKey:
        return (
            record["experiment"],
            record["label"],
            int(record["n"]),
            int(record["m"]),
            int(record["rep_lo"]),
            int(record["rep_hi"]),
        )

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Stored chunk records in file order. Reading never writes.

        A kill that lands between the final record and its newline
        leaves a valid unterminated line, which is kept; a kill mid-write
        leaves a torn final fragment, which is skipped. So no reader
        (resume, merge, digest) loses a shard's last record or trips
        over a fragment, and the file keeps its bytes until a resume or
        an append heals it (:meth:`repair_tail`). Any other non-blank
        line that is not a chunk record raises
        :class:`~repro.errors.StoreError` naming the file and line.
        Duplicate keys are *not* collapsed here — :meth:`load_records`
        layers last-wins on top.
        """
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            return
        with fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                record = _parse_record(line)
                if record is None:
                    if not line.endswith(b"\n"):
                        return  # a torn final fragment
                    raise StoreError(f"{self.path}, line {number}: not a chunk record")
                yield record

    def load_records(self) -> dict[StoreKey, dict[str, Any]]:
        """All stored chunk records keyed by chunk; later lines win.

        Missing file means an empty store (a fresh ``--resume`` run is
        just a fresh run). A killed run's final record is kept rather
        than silently dropped, and a torn fragment never blocks a resume
        — the chunk is simply recomputed and re-appended (see
        :meth:`iter_records`). Records carry the payload plus provenance
        fields (the ``backend`` that computed the chunk, absent in
        pre-backend stores).
        """
        return {self.record_key(r): r for r in self.iter_records()}

    def load_payloads(self) -> dict[StoreKey, Any]:
        """All stored payloads keyed by chunk (see :meth:`load_records`)."""
        return {
            key: record["payload"]
            for key, record in self.load_records().items()
        }

    def repair_tail(self) -> None:
        """Heal a kill-truncated final line.

        A run killed mid-write leaves a final line without a trailing
        newline. Appending straight after it would glue the new record
        onto the fragment, making *both* unparseable forever. If the
        unterminated tail is itself a valid record (the kill landed
        between write and newline), terminate it so the record is kept;
        otherwise drop the fragment so the chunk's recomputed record
        lands on a clean line — which also restores the byte-identity of
        a resumed store with an uninterrupted run.

        Called before every append, and by the scheduler at the start of
        a resume: a kill that lands exactly between the final record and
        its newline leaves a fully-parseable store whose resume computes
        (and therefore appends) nothing, so the missing terminator must
        be healed up front, not lazily on the next write. Readers never
        call it.
        """
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            return
        with fh:
            fh.seek(0, 2)
            size = fh.tell()
            if size == 0:
                return
            fh.seek(size - 1)
            if fh.read(1) == b"\n":  # healthy tail: the common O(1) path
                return
            fh.seek(0)
            data = fh.read()
        # Only a damaged tail opens the file for writing, so a healthy
        # read-only store still resumes.
        newline_at = data.rfind(b"\n")
        with self.path.open("r+b") as fh:
            if _parse_record(data[newline_at + 1 :]) is None:
                fh.truncate(newline_at + 1)
            else:
                fh.seek(0, 2)
                fh.write(b"\n")

    def append(self, record: dict[str, Any]) -> None:
        """Append one chunk record (creates parent directories lazily)."""
        self.record_key(record)  # validate shape before touching disk
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.repair_tail()
        line = canonical_dumps(record, sort_keys=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    def canonical_digest(self) -> str:
        """The store-level identity check: a digest of its record *set*.

        SHA-256 over :func:`canonical_dumps` of the stored records
        sorted by :data:`StoreKey` (duplicate keys collapsed last-wins,
        like :meth:`load_records`). Two stores are *canonically equal*
        iff their digests match — a deliberately weaker check than
        file-byte equality: it is independent of the order records
        landed on disk, so a merged multi-shard store, a resumed store
        and an uninterrupted single-host store all agree as long as
        they hold the same records. See ``docs/STORE_FORMAT.md``.
        """
        return canonical_record_digest(self.load_records().values())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"


def canonical_record_digest(records: Iterable[dict[str, Any]]) -> str:
    """SHA-256 hex digest of the canonical serialisation of *records*.

    Records are sorted by their :data:`StoreKey` and serialised with
    :func:`canonical_dumps` (sorted keys, ``repr``-shortest floats, the
    non-finite sentinel), one per line — the same bytes
    :meth:`ResultStore.append` writes — so the digest of a complete
    sharded campaign equals the digest of the single-host store.
    Provenance fields (``backend``) participate: a record that names
    another backend is not canonically equal to a NumPy one even when
    their payloads agree, mirroring the resume path's refusal of it.
    """
    ordered = sorted(records, key=ResultStore.record_key)
    blob = "\n".join(canonical_dumps(r, sort_keys=True) for r in ordered)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def shard_store_path(base: Union[str, Path], index: int) -> Path:
    """The shard store file for shard *index* of the campaign at *base*.

    ``store.jsonl`` -> ``store.shard-0.jsonl``: the shard index is
    spliced in front of the final suffix so sibling shards of one
    campaign sort together and are discoverable by name.
    """
    base = Path(base)
    if index < 0:
        raise ValueError(f"shard index must be >= 0, got {index}")
    return base.with_name(f"{base.stem}.shard-{index}{base.suffix}")


def discover_shard_stores(base: Union[str, Path]) -> list[ResultStore]:
    """All shard stores of the campaign at *base*, sorted by shard index.

    Finds the siblings named :func:`shard_store_path` would produce
    (``<stem>.shard-<k><suffix>``). Missing indices are simply absent —
    a shard that owned no chunks never creates its file — and the sort
    is numeric, so ``shard-10`` follows ``shard-2``.
    """
    base = Path(base)
    pattern = re.compile(
        rf"^{re.escape(base.stem)}\.shard-(\d+){re.escape(base.suffix)}$"
    )
    parent = base.parent
    if not parent.exists():
        return []
    found: list[tuple[int, Path]] = []
    for candidate in parent.iterdir():
        match = pattern.match(candidate.name)
        if match:
            found.append((int(match.group(1)), candidate))
    return [ResultStore(path) for _, path in sorted(found)]


@dataclass(frozen=True)
class MergeResult:
    """Outcome of one shard merge: where it landed and what it held."""

    path: Path
    shards: int
    records: int
    duplicates: int
    digest: str


def merge_shard_stores(
    shards: Sequence[Union[ResultStore, str, Path]],
    dest: Union[ResultStore, str, Path],
    *,
    force: bool = False,
) -> MergeResult:
    """Merge shard stores into one canonical store at *dest*.

    Records are interleaved round-robin across the shards in the given
    order, one record per shard per round — the inverse of
    :class:`~repro.runtime.spec.ShardPlan`'s round-robin chunk
    ownership, so merging a complete single-spec campaign's shards (in
    shard-index order) reproduces the single-host store byte for byte.
    Shards may land in any completion order, hold any subset of the
    campaign (a partially failed shard contributes what it finished),
    and overlap: a chunk key seen twice with *canonically equal*
    records (identical ``canonical_dumps``, provenance included) is
    collapsed onto its first occurrence, while records that disagree
    raise :class:`~repro.errors.StoreMergeError` — two shards computed
    different answers for the same chunk, which the deterministic
    seed policy makes impossible unless flags (seed, batch size) or
    code versions were mixed. Shards are read, never written: a killed
    shard's last record is merged, not dropped, and a line that is not
    a chunk record raises :class:`~repro.errors.StoreError` (see
    :meth:`ResultStore.iter_records`).

    The merged file is written atomically (temp file + rename); an
    existing non-empty *dest* is refused unless *force* is set.
    """
    shard_stores = [
        coerced
        for coerced in (ResultStore.coerce(shard) for shard in shards)
        if coerced is not None
    ]
    if not shard_stores:
        raise StoreMergeError("no shard stores to merge")
    dest_store = ResultStore.coerce(dest)
    assert dest_store is not None
    for shard in shard_stores:
        if shard.path.resolve() == dest_store.path.resolve():
            raise StoreMergeError(
                f"merge destination {dest_store.path} is itself a shard input"
            )
    if (
        dest_store.path.exists()
        and dest_store.path.stat().st_size > 0
        and not force
    ):
        raise StoreMergeError(
            f"merge destination {dest_store.path} already exists and is "
            f"non-empty; pass force=True (CLI: --force) to overwrite"
        )

    columns = [list(shard.iter_records()) for shard in shard_stores]
    lines: list[str] = []
    seen: dict[StoreKey, tuple[int, str]] = {}
    duplicates = 0
    for position in range(max(len(column) for column in columns)):
        for shard_index, column in enumerate(columns):
            if position >= len(column):
                continue
            record = column[position]
            key = ResultStore.record_key(record)
            line = canonical_dumps(record, sort_keys=True)
            if key in seen:
                first_shard, first_line = seen[key]
                if first_line != line:
                    raise StoreMergeError(
                        f"shard stores disagree about chunk {key}: "
                        f"{shard_stores[first_shard].path} and "
                        f"{shard_stores[shard_index].path} hold different "
                        f"canonical records (were the shards run with "
                        f"different --seed/--batch-size flags?)"
                    )
                duplicates += 1
                continue
            seen[key] = (shard_index, line)
            lines.append(line)

    if dest_store.path.parent and not dest_store.path.parent.exists():
        dest_store.path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = dest_store.path.with_name(dest_store.path.name + ".tmp")
    with tmp_path.open("w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, dest_store.path)
    return MergeResult(
        path=dest_store.path,
        shards=len(shard_stores),
        records=len(lines),
        duplicates=duplicates,
        digest=dest_store.canonical_digest(),
    )
