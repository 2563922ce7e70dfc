"""Per-slot click records from Monte Carlo runs, with JSON-lines persistence.

A record is one detector click: (time slot, telescope id, detector id in
{1, 2}, accepted flag, delay-setting index).  Records are stored columnar for
speed; serialization is line-oriented JSON with a schema-version header line
so logs are streamable and diffable.  Serialization is byte-deterministic for
identical runs.

The canonical record line is part of schema v1: compact JSON with sorted
keys, e.g. ``{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0}``.  The
writer emits only that layout, and the reader parses blocks of canonical
lines column-wise.  Any other valid JSON record line (whitespace, another key
order) is still accepted and parsed line by line with ``json.loads``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

SCHEMA = "entscope.eventlog.v1"

# Records formatted per write() call; bounds the text held in memory.
WRITE_BLOCK_RECORDS = 1 << 16
# Characters read per block; larger blocks raise peak RSS for no speed gain.
READ_BLOCK_CHARS = 1 << 20

_INDEX = r"(0|[1-9][0-9]{0,17})"  # no leading zeros; always fits in int64
# One canonical v1 record line.  Group 1 holds the "acc", "delta" and "det"
# fields, which take few distinct values; each distinct text is decoded once
# by json.loads, which also rejects a malformed delta.  Groups 2 and 3 are
# slot and tel.
_CANONICAL_LINE = re.compile(
    r'^\{("acc":(?:true|false),"delta":[-+.eE0-9]+,"det":[12]),'
    r'"slot":' + _INDEX + r',"tel":' + _INDEX + r'\}\n', re.MULTILINE)


@dataclass
class EventLog:
    scheme: str
    n_slots: int
    deltas: tuple[float, ...]
    slot: np.ndarray
    telescope: np.ndarray
    detector: np.ndarray
    accepted: np.ndarray
    delta_index: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.slot = np.asarray(self.slot, dtype=np.int64)
        self.telescope = np.asarray(self.telescope, dtype=np.int64)
        self.detector = np.asarray(self.detector, dtype=np.int64)
        self.accepted = np.asarray(self.accepted, dtype=bool)
        self.delta_index = np.asarray(self.delta_index, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        n = len(self.slot)
        for name in ("telescope", "detector", "accepted", "delta_index"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        if n and np.any(np.diff(self.slot) < 0):
            raise ValueError("slots must be non-decreasing")
        if n and (self.slot.min() < 0 or self.slot.max() >= self.n_slots):
            raise ValueError("slot index out of range")
        if n and not np.all(np.isin(self.detector, (1, 2))):
            raise ValueError("detector ids must be 1 or 2")
        if n and (self.delta_index.min() < 0 or self.delta_index.max() >= len(self.deltas)):
            raise ValueError("delta index out of range")

    def __len__(self) -> int:
        return len(self.slot)

    def n_accepted_slots(self) -> int:
        return len(np.unique(self.slot[self.accepted]))

    def write_jsonl(self, path) -> None:
        header = {
            "schema": SCHEMA,
            "scheme": self.scheme,
            "n_slots": self.n_slots,
            "deltas": list(self.deltas),
            "meta": self.meta,
        }
        # Every line starts with one of 4 * n_deltas prefixes, indexed by
        # (accepted * n_deltas + delta index) * 2 + (detector - 1).
        prefixes = [
            _dumps({"acc": acc, "delta": float(d), "det": det})[:-1] + ',"slot":'
            for acc in (False, True) for d in self.deltas for det in (1, 2)]
        code = (self.accepted * len(self.deltas) + self.delta_index) * 2 + self.detector - 1
        with open(path, "w", encoding="ascii") as fh:
            fh.write(_dumps(header) + "\n")
            for start in range(0, len(self.slot), WRITE_BLOCK_RECORDS):
                block = slice(start, start + WRITE_BLOCK_RECORDS)
                fh.write("".join([
                    f'{prefixes[c]}{s},"tel":{t}}}\n' for c, s, t in zip(
                        code[block].tolist(), self.slot[block].tolist(),
                        self.telescope[block].tolist())]))

    @classmethod
    def read_jsonl(cls, path) -> "EventLog":
        with open(path, "r", encoding="ascii") as fh:
            header = json.loads(fh.readline())
            schema = header.get("schema") if isinstance(header, dict) else None
            if schema != SCHEMA:
                raise ValueError(f"{path}: unsupported schema {schema!r}")
            deltas = tuple(float(d) for d in header["deltas"])
            reader = _RecordReader({d: i for i, d in enumerate(deltas)})
            tail = ""
            while block := fh.read(READ_BLOCK_CHARS):
                block = tail + block
                cut = block.rfind("\n") + 1
                reader.add_block(block[:cut])
                tail = block[cut:]
            if tail:  # last line without a newline
                reader.add_lines([tail])
        slot, tel, det, acc, di = reader.columns()
        return cls(
            scheme=header["scheme"],
            n_slots=int(header["n_slots"]),
            deltas=deltas,
            slot=slot,
            telescope=tel,
            detector=det,
            accepted=acc,
            delta_index=di,
            meta=header.get("meta", {}),
        )


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _RecordReader:
    """Accumulates record columns from blocks of whole lines.

    A block whose every line is canonical is parsed with one regex pass; the
    few distinct "acc"/"delta"/"det" texts are decoded once each by
    json.loads and mapped through ``lookup``, so an unknown delta raises
    KeyError exactly as the per-line path does.  Any other block goes through
    the per-line json.loads path, the reference for every input.
    """

    def __init__(self, lookup: dict) -> None:
        self.lookup = lookup
        self.codes: dict[str, int] = {}     # "acc"/"delta"/"det" text -> code
        self.fields: list[tuple[bool, int, int]] = []  # code -> (acc, di, det)
        self.blocks: list[tuple[np.ndarray, ...]] = []
        self.add_lines(())  # typed empty columns, so a log may hold no records

    def add_block(self, block: str) -> None:
        found = _CANONICAL_LINE.findall(block)
        if not found or len(found) != block.count("\n"):
            self.add_lines(block.split("\n")[:-1])
            return
        keys, slot, tel = zip(*found)
        for key in set(keys).difference(self.codes):
            rec = json.loads("{" + key + "}")
            self.codes[key] = len(self.fields)
            self.fields.append((rec["acc"], self.lookup[rec["delta"]], rec["det"]))
        code = np.fromiter(map(self.codes.__getitem__, keys), np.int64, len(keys))
        acc, di, det = np.array(self.fields, dtype=np.int64)[code].T
        self.blocks.append((np.array(slot, dtype=np.int64),
                            np.array(tel, dtype=np.int64), det, acc.astype(bool), di))

    def add_lines(self, lines) -> None:
        cols: tuple[list, ...] = ([], [], [], [], [])
        for line in lines:
            rec = json.loads(line)
            cols[0].append(rec["slot"])
            cols[1].append(rec["tel"])
            cols[2].append(rec["det"])
            cols[3].append(rec["acc"])
            cols[4].append(self.lookup[rec["delta"]])
        self.blocks.append(tuple(
            np.array(c, dtype=bool if k == 3 else np.int64) for k, c in enumerate(cols)))

    def columns(self) -> tuple[np.ndarray, ...]:
        """(slot, tel, det, acc, delta index) over every block read."""
        return tuple(np.concatenate(c) for c in zip(*self.blocks))


def fringe_counts(log: EventLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-delay success/total counts for fringe fitting.

    Coincidence schemes: per accepted slot, success means both telescopes
    fired the same detector index (correlated outcome).  Direct detection:
    success means the accepted click landed on detector 1.
    Returns (deltas, n_success, n_total) aligned with the delay schedule.
    """
    n_deltas = len(log.deltas)
    deltas = np.asarray(log.deltas, dtype=float)
    acc = np.flatnonzero(log.accepted)
    if log.scheme == "direct":
        di = log.delta_index[acc]
        total = np.bincount(di, minlength=n_deltas)
        success = np.bincount(di[log.detector[acc] == 1], minlength=n_deltas)
        return deltas, success, total
    if log.scheme == "w_state":
        raise ValueError("fringe_counts handles two-telescope schemes; "
                         "use pair_counts for telescope arrays")
    if len(acc) % 2:
        raise ValueError("accepted coincidence records must come in pairs")
    first, second = acc[0::2], acc[1::2]
    if np.any(log.slot[first] != log.slot[second]):
        raise ValueError("accepted pair records must share a slot")
    di = log.delta_index[first]
    total = np.bincount(di, minlength=n_deltas)
    same = log.detector[first] == log.detector[second]
    success = np.bincount(di[same], minlength=n_deltas)
    return deltas, success, total


def pair_counts(log: EventLog, n_telescopes: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Telescope-array coincidences: {(i, j): (n_correlated, n_total)}, i < j."""
    acc = np.flatnonzero(log.accepted)
    if len(acc) % 2:
        raise ValueError("accepted coincidence records must come in pairs")
    first, second = acc[0::2], acc[1::2]
    if np.any(log.slot[first] != log.slot[second]):
        raise ValueError("accepted pair records must share a slot")
    ti, tj = log.telescope[first], log.telescope[second]
    same = log.detector[first] == log.detector[second]
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(n_telescopes):
        for j in range(i + 1, n_telescopes):
            sel = (ti == i) & (tj == j)
            out[(i, j)] = (int(same[sel].sum()), int(sel.sum()))
    return out
