"""Event-log columns, JSONL round trips, and coincidence counting."""
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entscope import eventlog
from entscope.eventlog import SCHEMA, EventLog, FringeCounter, fringe_counts, pair_counts

COLUMNS = ("slot", "telescope", "detector", "accepted", "delta_index")


def two_slot_log(**overrides) -> EventLog:
    """Two accepted coincidences: slot 0 correlated, slot 1 anticorrelated."""
    fields = dict(
        scheme="entangled",
        n_slots=4,
        deltas=(0.0, math.pi / 2.0),
        slot=[0, 0, 1, 1],
        telescope=[0, 1, 0, 1],
        detector=[1, 1, 2, 1],
        accepted=[True, True, True, True],
        delta_index=[0, 0, 1, 1],
    )
    fields.update(overrides)
    return EventLog(**fields)


def test_round_trip_preserves_everything(tmp_path):
    log = two_slot_log(meta={"note": "round trip"})
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    back = EventLog.read_jsonl(path)
    assert back.scheme == log.scheme
    assert back.n_slots == log.n_slots
    assert back.deltas == log.deltas
    assert back.meta == log.meta
    for name in ("slot", "telescope", "detector", "accepted", "delta_index"):
        assert np.array_equal(getattr(back, name), getattr(log, name))
    # Re-serializing the parsed log is byte-identical.
    second = tmp_path / "again.jsonl"
    back.write_jsonl(second)
    assert second.read_bytes() == path.read_bytes()


def test_jsonl_layout(tmp_path):
    path = tmp_path / "events.jsonl"
    two_slot_log().write_jsonl(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == SCHEMA
    assert header["n_slots"] == 4
    # Records are compact JSON with deterministically ordered keys.
    assert lines[1] == '{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0}'
    assert len(lines) == 5


def reference_records(log: EventLog) -> list[dict]:
    """One dict per record, built field by field from the columns."""
    return [{"acc": bool(log.accepted[i]),
             "delta": float(log.deltas[log.delta_index[i]]),
             "det": int(log.detector[i]),
             "slot": int(log.slot[i]),
             "tel": int(log.telescope[i])} for i in range(len(log))]


def reference_jsonl(log: EventLog, loose=()) -> str:
    """The v1 text from one json.dumps per line.  Records whose index is in
    loose are written non-canonically: spaces and reversed key order."""
    header = {"schema": SCHEMA, "scheme": log.scheme, "n_slots": log.n_slots,
              "deltas": list(log.deltas), "meta": log.meta}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for i, rec in enumerate(reference_records(log)):
        if i in loose:
            lines.append(json.dumps(dict(reversed(list(rec.items())))))
        else:
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def assert_same_columns(a: EventLog, b: EventLog) -> None:
    assert (a.scheme, a.n_slots, a.deltas, a.meta) == \
        (b.scheme, b.n_slots, b.deltas, b.meta)
    for name in COLUMNS:
        assert getattr(a, name).dtype == getattr(b, name).dtype
        assert np.array_equal(getattr(a, name), getattr(b, name))


DELTAS = st.one_of(st.sampled_from([1e-05, -0.0, 3.141592653589793, 1e300]),
                   st.floats(allow_nan=False, allow_infinity=False))


# Slots of 18 digits, the most the byte parser decodes, and of 19; drawn
# telescope ids reach 10**18 too.
SLOTS = st.one_of(st.integers(0, 2 ** 40), st.integers(10 ** 18 - 9, 10 ** 18 + 9))


@st.composite
def event_logs(draw):
    deltas = tuple(draw(st.lists(DELTAS, max_size=16, unique=True)))
    n_tel = draw(st.sampled_from([1, 2, 32, 10 ** 18 + 1]))
    # A header with no deltas admits no records.
    n = draw(st.integers(0, 120)) if deltas else 0

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    slot = sorted(column(SLOTS))
    return EventLog(
        scheme=draw(st.sampled_from(["direct", "entangled", "w_state"])),
        n_slots=(slot[-1] if slot else 0) + draw(st.integers(1, 3)),
        deltas=deltas, slot=slot,
        telescope=column(st.integers(0, n_tel - 1)),
        detector=column(st.sampled_from([1, 2])),
        accepted=column(st.booleans()),
        delta_index=column(st.integers(0, max(len(deltas) - 1, 0))),
        meta={"seed": draw(st.integers(0, 2 ** 63))})


def json_value(obj: dict, key: str, kind: type):
    """obj[key] if json.loads made it a kind (a bool is no int), and an int
    fits in int64; else ValueError."""
    value = obj[key]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{key}: {value!r} is not a JSON {kind.__name__}")
    if kind is int and not np.iinfo(np.int64).min <= value <= np.iinfo(np.int64).max:
        raise ValueError(f"{key}: {value!r} is outside int64")
    return value


def per_line_log(path) -> EventLog:
    """The reference reader: json.loads on the header and on every body
    line, then EventLog's validation, with read_jsonl's error messages."""
    header, _, body = path.read_bytes().decode("ascii").partition("\n")
    header = json.loads(header)
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"{path}: unsupported schema {schema!r}")
    deltas = tuple(float(d) for d in header["deltas"])
    lookup = {d: i for i, d in enumerate(deltas)}
    if len(lookup) != len(deltas):
        raise ValueError(f"{path}: repeated delta values in {list(deltas)}")
    lines = body.split("\n")
    if not lines[-1]:  # the newline that ends the last line
        lines.pop()
    columns: tuple[list, ...] = tuple([] for _ in COLUMNS)
    for line in lines:
        rec = json.loads(line)
        for column, key in zip(columns, ("slot", "tel", "det", "acc")):
            column.append(json_value(rec, key, bool if key == "acc" else int))
        if isinstance(rec["delta"], bool) or not isinstance(rec["delta"], (int, float)):
            raise ValueError(f"delta must be a number, got {rec['delta']!r}")
        columns[4].append(lookup[rec["delta"]])
    return EventLog(scheme=header["scheme"], n_slots=json_value(header, "n_slots", int),
                    deltas=deltas, meta=header.get("meta", {}), **{
                        name: np.array(c, dtype=bool if name == "accepted" else np.int64)
                        for name, c in zip(COLUMNS, columns)})


def _outcome_of_read(read, path):
    """The log read, or the type of the exception it raised."""
    try:
        return read(path)
    except Exception as exc:  # compared by type against the reference
        return type(exc)


def assert_reads_like_per_line(path, note=None) -> None:
    """read_jsonl gives the per-line reference's log, or raises the same
    type of exception."""
    got = _outcome_of_read(EventLog.read_jsonl, path)
    want = _outcome_of_read(per_line_log, path)
    if isinstance(want, EventLog):
        assert isinstance(got, EventLog), (note, got)
        assert_same_columns(got, want)
    else:
        assert got is want, (note, got, want)


# Bytes a one-byte edit puts in: the ones canonical lines are made of, and
# any other ASCII byte.
EDIT_BYTES = st.one_of(st.sampled_from(b'0123456789-+.eE:,"{}\ntf '), st.integers(0, 127))


def one_byte_edit(text: str, op: str, at: int, byte: str) -> str:
    return text[:at] + {"substitute": byte, "insert": byte + text[at:at + 1],
                        "delete": ""}[op] + text[at + 1:]


@st.composite
def one_byte_edits(draw, text: str) -> str:
    """The text with one byte of its body substituted, inserted or deleted,
    often next to a separator, where the byte parser's checks sit."""
    body = text.index("\n") + 1
    op = draw(st.sampled_from(["substitute", "insert", "delete"] if len(text) > body
                              else ["insert"]))
    last = len(text) - (op != "insert")
    positions = st.integers(body, last)
    marks = [j for i in range(body, len(text)) if text[i] in ':,}\n'
             for j in (i - 1, i, i + 1) if body <= j <= last]
    if marks:
        positions = st.one_of(positions, st.sampled_from(marks))
    return one_byte_edit(text, op, draw(positions), chr(draw(EDIT_BYTES)))


@settings(max_examples=100, deadline=None)
@given(log=event_logs(), write_block=st.sampled_from([1, 7, 1 << 16]),
       read_block=st.sampled_from([40, 1000, 1 << 20]), data=st.data())
def test_write_read_round_trip_matches_per_record_reference(
        tmp_path_factory, log, write_block, read_block, data):
    """Read blocks of 40 characters hold one line each at most."""
    path = tmp_path_factory.mktemp("roundtrip") / "events.jsonl"
    with mock.patch.object(eventlog, "WRITE_BLOCK_RECORDS", write_block), \
            mock.patch.object(eventlog, "READ_BLOCK_CHARS", read_block):
        log.write_jsonl(path)
        text = path.read_text()
        assert text == reference_jsonl(log)
        assert_same_columns(EventLog.read_jsonl(path), log)
        # A one-byte edit of the body reads as json.loads reads it line by
        # line, or raises the same type of exception.
        path.write_text(data.draw(one_byte_edits(text), label="edited"))
        assert_reads_like_per_line(path)
        # Non-canonical lines anywhere in the body read the same.
        loose = data.draw(st.sets(st.integers(0, max(len(log) - 1, 0))))
        path.write_text(reference_jsonl(log, loose))
        assert_same_columns(EventLog.read_jsonl(path), log)


def log_fields(log: EventLog) -> dict:
    return dict(scheme=log.scheme, n_slots=log.n_slots, deltas=log.deltas, meta=log.meta)


def reference_writer_text(fields: dict, blocks) -> str:
    """JsonlWriter's text by its per-record f-string formatter, the reference
    for the formatter that makes each run of lines with one %."""
    prefixes = eventlog._prefixes(fields["deltas"])
    header = {"schema": SCHEMA, **fields, "deltas": list(fields["deltas"])}
    text = [json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"]
    for slot, telescope, detector, accepted, delta_index in blocks:
        code = (accepted * len(fields["deltas"]) + delta_index) * 2 + detector - 1
        text += [f'{prefixes[c]}{s},"tel":{t}}}\n' for c, s, t in zip(
            code.tolist(), slot.tolist(), telescope.tolist())]
    return "".join(text)


def every_prefix_row_log() -> EventLog:
    """One record per row of the prefix table, at slots 0 and 10**18 - 1,
    with telescope ids up to 10**18 - 1."""
    deltas = (-0.0, 1e-05, math.pi, 1e300)
    rows = [(acc, di, det) for acc in (False, True) for di in range(4) for det in (1, 2)]
    return EventLog(scheme="entangled", n_slots=10 ** 18, deltas=deltas,
                    slot=[0] * 8 + [10 ** 18 - 1] * 8,
                    telescope=[0, 1, 7, 10 ** 18 - 1] * 4,
                    detector=[det for _, _, det in rows],
                    accepted=[acc for acc, _, _ in rows],
                    delta_index=[di for _, di, _ in rows], meta={"seed": 1})


def int64_edge_log() -> EventLog:
    """Telescope ids at the int64 edge, of 19 digits, which the byte parser
    leaves to json.loads."""
    edge = 2 ** 63 - 1
    return EventLog(scheme="w_state", n_slots=3, deltas=(0.5,), slot=[0, 0, 1, 2],
                    telescope=[edge, 0, edge - 1, edge], detector=[1, 2, 2, 1],
                    accepted=[True, True, False, True], delta_index=[0, 0, 0, 0])


def many_telescopes_log() -> EventLog:
    """Ten telescope ids against four prefix rows, met out of order, so that
    ids that sort first arrive in later blocks."""
    return EventLog(scheme="w_state", n_slots=10, deltas=(0.0,), slot=list(range(10)),
                    telescope=[9, 3, 7, 0, 5, 1, 8, 2, 6, 4], detector=[1, 2] * 5,
                    accepted=[True, False] * 5, delta_index=[0] * 10)


@st.composite
def chunked_logs(draw):
    """A log and the indices that cut it into consecutive blocks; repeated
    cuts and cuts at either end make empty blocks."""
    log = draw(event_logs())
    return log, draw(st.lists(st.integers(0, len(log)), max_size=4))


def _blocks(log: EventLog, cuts) -> list[tuple[np.ndarray, ...]]:
    edges = [0, *sorted(cuts), len(log)]
    return [tuple(col[lo:hi] for col in log.columns()) for lo, hi in zip(edges, edges[1:])]


@settings(max_examples=150, deadline=None)
@given(run=chunked_logs(), block=st.sampled_from(["1", "n-1", "n+1", "default"]))
@example(run=(every_prefix_row_log(), []), block="1")
@example(run=(every_prefix_row_log(), [0, 5, 5, 16]), block="n-1")
@example(run=(every_prefix_row_log(), [9]), block="n+1")
@example(run=(every_prefix_row_log(), [16]), block="default")
@example(run=(int64_edge_log(), [1]), block="1")
@example(run=(int64_edge_log(), []), block="default")
@example(run=(many_telescopes_log(), [3, 6]), block="n-1")
@example(run=(many_telescopes_log(), []), block="default")
def test_writer_text_equals_the_f_string_reference(run, block):
    """n is the longest block's record count; WRITE_BLOCK_RECORDS of n - 1
    and n + 1 put a formatting edge just before and just past a block's end."""
    log, cuts = run
    blocks = _blocks(log, cuts)
    n = max(len(b[0]) for b in blocks)
    size = {"1": 1, "n-1": max(n - 1, 1), "n+1": n + 1,
            "default": eventlog.WRITE_BLOCK_RECORDS}[block]
    fh = io.BytesIO()
    with mock.patch.object(eventlog, "WRITE_BLOCK_RECORDS", size):
        writer = eventlog.JsonlWriter(fh, **log_fields(log))
        for columns in blocks:
            writer.write(*columns)
    assert fh.getvalue() == reference_writer_text(log_fields(log), blocks).encode("ascii")
    assert fh.getvalue() == reference_jsonl(log).encode("ascii")


def test_writer_given_no_blocks_leaves_a_header_only_log(tmp_path):
    """The header is written when the writer is made, so a log of no
    records reads back as zero records with the writer's fields."""
    fields = dict(scheme="entangled", n_slots=4, deltas=(0.0, 1.5), meta={"seed": 3})
    path = tmp_path / "events.jsonl"
    with open(path, "wb") as fh:
        eventlog.JsonlWriter(fh, **fields)
    assert path.read_text() == reference_writer_text(fields, [])
    log = EventLog.read_jsonl(path)
    assert log_fields(log) == fields
    assert all(len(col) == 0 for col in log.columns())
    deltas, successes, totals = FringeCounter.from_jsonl(path).counts()
    assert deltas.tolist() == list(fields["deltas"])
    assert successes.tolist() == totals.tolist() == [0, 0]


@pytest.mark.parametrize("read_block", [40, 1 << 18])
def test_crlf_copy_reads_like_the_original(tmp_path, read_block):
    """CRLF line ends, the header's included, read as LF, since a CR before
    an LF is JSON whitespace, with read blocks of one line and of the whole
    file."""
    log = two_slot_log(deltas=(0.0, math.pi / 2.0, 1.0), n_slots=9,
                       slot=[0, 0, 1, 1, 5, 5], telescope=[0, 1] * 3,
                       detector=[1, 1, 2, 1, 2, 2], accepted=[True] * 6,
                       delta_index=[0, 0, 1, 1, 2, 2])
    lf = tmp_path / "lf.jsonl"
    log.write_jsonl(lf)
    copy = tmp_path / "crlf.jsonl"
    copy.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    with mock.patch.object(eventlog, "READ_BLOCK_CHARS", read_block):
        assert_same_columns(EventLog.read_jsonl(copy), EventLog.read_jsonl(lf))
        assert [c.tolist() for c in FringeCounter.from_jsonl(copy).counts()] == \
            [c.tolist() for c in fringe_counts(log)]


class ShortReads:
    """A binary file whose every readinto fills at most size bytes, as a
    pipe's reads may."""

    def __init__(self, data: bytes, size: int) -> None:
        self.file, self.size = io.BytesIO(data), size

    def readinto(self, view) -> int:
        return self.file.readinto(view[:self.size])


@settings(max_examples=60, deadline=None)
@given(log=event_logs(), read_block=st.sampled_from([40, 1000, 1 << 18]),
       size=st.sampled_from([1, 7, 1 << 20]))
def test_crlf_copy_round_trip_reads_the_written_columns(tmp_path_factory, log,
                                                        read_block, size):
    """A CRLF copy of a written log reads the columns the LF original reads.
    Reads of one byte end at every CR, so its LF opens the next read; reads
    of 7 bytes and of whole blocks split the lines elsewhere."""
    path = tmp_path_factory.mktemp("crlf") / "events.jsonl"
    log.write_jsonl(path)
    with mock.patch.object(eventlog, "READ_BLOCK_CHARS", read_block):
        assert_same_columns(EventLog.read_jsonl(path), log)
        reader = eventlog._BlockReader(
            ShortReads(path.read_bytes().replace(b"\n", b"\r\n"), size), path)
        blocks = list(reader.blocks())
        assert_same_columns(EventLog.joined(reader.fields(), blocks), log)


def random_digits_log() -> EventLog:
    """400 records with slots and telescope ids of 1 to 18 digits."""
    rng = np.random.default_rng(3)
    n = 400
    return EventLog(scheme="entangled", n_slots=10 ** 18,
                    deltas=(-0.0, 1e-05, math.pi / 2.0, 1e300),
                    slot=np.sort(rng.integers(0, 10 ** rng.integers(1, 19, n))),
                    telescope=rng.integers(0, 10 ** rng.integers(1, 19, n)),
                    detector=rng.integers(1, 3, n), accepted=rng.random(n) < 0.5,
                    delta_index=rng.integers(0, 4, n))


def load_split_log() -> EventLog:
    """Line prefixes of both extreme lengths: 39 bytes (acc true, delta 0.0)
    and 61 (acc false and a 24-character float repr).  Slots and telescope
    ids have 8, 9, 16, 17 and 18 digits, where the byte parser's eight-digit
    loads split."""
    digits = (8, 9, 16, 17, 18)
    return EventLog(scheme="entangled", n_slots=10 ** 18,
                    deltas=(0.0, -2.2250738585072014e-308),
                    slot=[10 ** (d - 1) for d in digits],
                    telescope=[10 ** d - 1 for d in digits[::-1]],
                    detector=[1, 2, 1, 2, 1], accepted=[True, True, False, False, True],
                    delta_index=[0, 0, 1, 1, 1])


@pytest.mark.parametrize("read_block", [40, 1000, 1 << 18])
@pytest.mark.parametrize("make_log", [random_digits_log, load_split_log],
                         ids=["random", "load-split"])
def test_written_log_reads_through_the_byte_parser_alone(tmp_path, make_log, read_block):
    """Every block of a log JsonlWriter wrote takes the byte parser: with
    the per-line parser raising on every call, the log reads back, whether a
    block holds one line, a few or the whole file."""
    log = make_log()
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    def refuse_lines(lines, lookup):
        raise AssertionError(f"a block left the byte parser: {list(lines)[:1]!r}")

    with mock.patch.object(eventlog, "_line_columns", refuse_lines), \
            mock.patch.object(eventlog, "READ_BLOCK_CHARS", read_block):
        assert_same_columns(EventLog.read_jsonl(path), log)


def test_read_rejects_repeated_deltas(tmp_path):
    path = tmp_path / "events.jsonl"
    two_slot_log().write_jsonl(path)
    text = path.read_text().replace('"deltas":[0.0,', '"deltas":[0.0,-0.0,', 1)
    path.write_text(text)
    for read in (EventLog.read_jsonl, FringeCounter.from_jsonl):
        with pytest.raises(ValueError, match="repeated delta values"):
            read(path)


def eighteen_digits_log() -> EventLog:
    return EventLog(scheme="entangled", n_slots=10 ** 18, deltas=(-0.0, 1e-05, 1e300),
                    slot=[7, 7, 10 ** 18 - 1], telescope=[0, 1, 10 ** 18 - 1],
                    detector=[1, 2, 1], accepted=[True, True, False], delta_index=[0, 0, 2])


@pytest.mark.parametrize("make_log", [eighteen_digits_log, load_split_log],
                         ids=["eighteen-digits", "load-split"])
def test_every_one_byte_edit_reads_like_json_loads(tmp_path, make_log):
    """At every byte of the body of a small log with 18-digit numbers, each
    substitution and insertion of a digit or separator, and the deletion,
    reads as the per-line reference reads it, or raises the same type of
    exception."""
    log = make_log()
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    text = path.read_text()
    body = text.index("\n") + 1
    for at in range(body, len(text) + 1):
        for op, bytes_ in (("substitute", '0,:}'), ("insert", '09:\n'), ("delete", "x")):
            if op != "insert" and at == len(text):
                continue
            for byte in bytes_:
                path.write_text(one_byte_edit(text, op, at, byte))
                assert_reads_like_per_line(path, (op, at, byte))


def test_non_canonical_lines_read_like_canonical(tmp_path):
    canonical = tmp_path / "canonical.jsonl"
    two_slot_log().write_jsonl(canonical)
    header = canonical.read_text().splitlines()[0]
    loose = tmp_path / "loose.jsonl"
    loose.write_text(header + "\n" + "\n".join([
        '{"tel": 0, "slot": 0, "det": 1, "delta": 0.0, "acc": true}',
        '{"acc":true,"delta":0.0,"det":1,"slot":0, "tel":1}',
        '{"slot":1,"tel":0,"acc":true,"det":2,"delta":1.5707963267948966}',
        '  {"acc":true,"delta":1.5707963267948966,"det":1,"slot":1,"tel":1}',
    ]))  # and no final newline
    assert_same_columns(EventLog.read_jsonl(loose), EventLog.read_jsonl(canonical))


@pytest.mark.parametrize("body, error", [
    ('{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0}\n'
     '{"acc":true,"delta":0.0,"det":1,"sl', json.JSONDecodeError),
    ('{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0}\n'
     '{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":1', json.JSONDecodeError),
    ('{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0}\n\n', json.JSONDecodeError),
    ('{"acc":true,"delta":0.0,"det":1,"slot":007,"tel":0}\n', json.JSONDecodeError),
    ('x{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0}\n', json.JSONDecodeError),
    ('{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0}x\n', json.JSONDecodeError),
    ('{"acc":true,"delta":0..0,"det":1,"slot":0,"tel":0}\n', json.JSONDecodeError),
    ('{"acc":true,"delta":0.5,"det":1,"slot":0,"tel":0}\n', KeyError),
    ('{"acc":true, "delta":0.5,"det":1,"slot":0,"tel":0}\n', KeyError),
    # Fields of another JSON type, or an integer beyond int64.
    ('{"acc":"false","delta":0.0,"det":1,"slot":0,"tel":0}\n', "acc must be a boolean"),
    ('{"acc":1,"delta":0.0,"det":1,"slot":0,"tel":0}\n', "acc must be a boolean"),
    ('{"acc":true,"delta":0.0,"det":1,"slot":1.5,"tel":0}\n', "slot must be an integer"),
    ('{"acc":true,"delta":0.0,"det":1,"slot":1e0,"tel":0}\n', "slot must be an integer"),
    ('{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":0.7}\n', "tel must be an integer"),
    ('{"acc":true,"delta":0.0,"det":"1","slot":0,"tel":0}\n', "det must be an integer"),
    ('{"acc":true,"delta":0.0,"det":true,"slot":0,"tel":0}\n', "det must be an integer"),
    ('{"acc":true,"delta":0.0,"det":1,"slot":100000000000000000000,"tel":0}\n',
     "slot must be an integer within int64, got 100000000000000000000"),
    ('{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":-9223372036854775809}\n',
     "tel must be an integer within int64"),
    # A boolean delta equals a delta of 0.0 or 1.0 as a dict key, but is no number.
    ('{"acc":true,"delta":false,"det":1,"slot":0,"tel":0}\n',
     "delta must be a number, got False"),
    ('{"acc":true,"delta":0.0,"det":1,"slot":0,"tel":-7}\n',
     "telescope ids must be non-negative"),
])
def test_read_raises_on_cut_or_corrupt_bodies(tmp_path, body, error):
    """A str error is the message of the ValueError both readers raise."""
    path = tmp_path / "events.jsonl"
    two_slot_log().write_jsonl(path)
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\n" + body)
    message = isinstance(error, str)
    for read in (EventLog.read_jsonl, FringeCounter.from_jsonl):
        with pytest.raises(ValueError if message else error,
                           match=re.escape(error) if message else None):
            read(path)


def test_byte_parser_checks_the_prefix_length(tmp_path):
    """A 60-byte prefix row with its middle four bytes doubled keeps both of
    the row's 32-byte windows, the line's first 32 bytes and the 32 that end
    at its fourth colon, but not its length; json.loads reads another delta,
    which the header lacks."""
    path = tmp_path / "events.jsonl"
    two_slot_log(deltas=(-2.2250738585072014e-308,), delta_index=[0, 0, 0, 0]).write_jsonl(path)
    header, line = path.read_text().splitlines()[:2]
    prefix = line[:line.index('"slot":') + 7]
    assert len(prefix) == 60
    path.write_text(f'{header}\n{prefix[:32]}{prefix[28:]}0,"tel":0}}\n')
    for read in (EventLog.read_jsonl, FringeCounter.from_jsonl):
        with pytest.raises(KeyError):
            read(path)


def test_read_rejects_a_boolean_delta_equal_to_a_header_delta(tmp_path):
    """With one delta of 1.0, "delta":true would look up delta index 0."""
    log = two_slot_log(n_slots=1, deltas=(1.0,), slot=[0, 0], telescope=[0, 1],
                       detector=[1, 1], accepted=[True, True], delta_index=[0, 0])
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = _edit_field(lines[1], "delta", "true")
    path.write_text("".join(lines))
    for read in (EventLog.read_jsonl, FringeCounter.from_jsonl, per_line_log):
        with pytest.raises(ValueError, match="delta must be a number, got True"):
            read(path)


@pytest.mark.parametrize("n_slots", ['"10"', "10.0", "true", "1e1", str(2 ** 63)])
def test_read_rejects_a_header_n_slots_that_is_no_int64(tmp_path, n_slots):
    path = tmp_path / "events.jsonl"
    two_slot_log(n_slots=10).write_jsonl(path)
    path.write_text(path.read_text().replace('"n_slots":10', f'"n_slots":{n_slots}', 1))
    for read in (EventLog.read_jsonl, FringeCounter.from_jsonl):
        with pytest.raises(ValueError, match="n_slots must be an integer"):
            read(path)


def test_read_rejects_other_schemas(tmp_path):
    path = tmp_path / "alien.jsonl"
    path.write_text('{"schema":"somethingelse.v9","deltas":[],"n_slots":0,'
                    '"scheme":"direct","meta":{}}\n')
    with pytest.raises(ValueError, match="unsupported schema"):
        EventLog.read_jsonl(path)
    path.write_text('["entscope.eventlog.v1"]\n')
    with pytest.raises(ValueError, match="unsupported schema None"):
        EventLog.read_jsonl(path)


@pytest.mark.parametrize("overrides, message", [
    (dict(detector=[1, 1, 3, 1]), "detector ids"),
    (dict(slot=[1, 1, 0, 0]), "non-decreasing"),
    (dict(slot=[0, 0, 4, 4]), "slot index out of range"),
    (dict(delta_index=[0, 0, 2, 2]), "delta index out of range"),
    (dict(telescope=[0, 1, 0]), "length mismatch"),
    (dict(telescope=[0, -7, 0, 1]), "telescope ids must be non-negative"),
])
def test_validation_rejects_bad_columns(overrides, message):
    with pytest.raises(ValueError, match=message):
        two_slot_log(**overrides)


@pytest.mark.parametrize("scheme", ["bogus", "", None, "Entangled"])
def test_validation_rejects_an_unknown_scheme(scheme):
    """An in-memory log meets the reader's scheme check; it would otherwise
    be counted as a coincidence log."""
    with pytest.raises(ValueError, match=f"scheme must be one of .*, got {scheme!r}"):
        two_slot_log(scheme=scheme)


@pytest.mark.parametrize("n_telescopes", [None, 2])
def test_fringe_counter_rejects_an_unknown_scheme(n_telescopes):
    with pytest.raises(ValueError, match="scheme must be one of .*, got 'bogus'"):
        FringeCounter("bogus", (0.0, math.pi / 2.0), n_telescopes)


def test_n_accepted_slots_counts_unique_slots():
    log = two_slot_log(accepted=[True, True, False, False])
    assert log.n_accepted_slots() == 1
    assert two_slot_log().n_accepted_slots() == 2


def test_fringe_counts_coincidence_scheme():
    deltas, successes, totals = fringe_counts(two_slot_log())
    assert tuple(deltas) == (0.0, math.pi / 2.0)
    assert successes.tolist() == [1, 0]
    assert totals.tolist() == [1, 1]


def test_fringe_counts_direct_scheme():
    log = EventLog(scheme="direct", n_slots=3, deltas=(0.0,),
                   slot=[0, 1, 2], telescope=[0, 0, 0],
                   detector=[1, 2, 1], accepted=[True, True, False],
                   delta_index=[0, 0, 0])
    _, successes, totals = fringe_counts(log)
    assert successes.tolist() == [1]
    assert totals.tolist() == [2]


def test_fringe_counts_rejects_arrays_and_bad_pairing():
    with pytest.raises(ValueError, match="pair_counts"):
        fringe_counts(two_slot_log(scheme="w_state"))
    odd = two_slot_log(accepted=[True, True, True, False])
    with pytest.raises(ValueError, match="in pairs"):
        fringe_counts(odd)
    split = two_slot_log(slot=[0, 1, 2, 3])
    with pytest.raises(ValueError, match="share a slot"):
        fringe_counts(split)
    one_telescope = two_slot_log(telescope=[0, 0, 0, 1])
    with pytest.raises(ValueError, match="from two telescopes"):
        fringe_counts(one_telescope)


def test_pair_counts_by_telescope_pair():
    log = EventLog(scheme="w_state", n_slots=3, deltas=(0.0,),
                   slot=[0, 0, 1, 1, 2, 2],
                   telescope=[0, 1, 0, 2, 1, 2],
                   detector=[1, 1, 1, 2, 2, 2],
                   accepted=[True] * 6,
                   delta_index=[0] * 6)
    counts = pair_counts(log, 3)
    assert counts == {(0, 1): (1, 1), (0, 2): (0, 1), (1, 2): (1, 1)}


def _fed_in_blocks(log: EventLog, cuts) -> FringeCounter:
    """A FringeCounter fed the log's records split at the given indices."""
    counter = FringeCounter(log.scheme, log.deltas)
    edges = [0, *sorted(cuts), len(log)]
    for lo, hi in zip(edges, edges[1:]):
        counter.add(*(c[lo:hi] for c in log.columns()))
    return counter


@st.composite
def paired_logs(draw):
    """Entangled-style logs: at least two accepted pairs (telescopes 0 and
    1, one slot each) and lone unaccepted clicks, in ascending slots."""
    deltas = (0.0, math.pi / 2.0, math.pi)
    cols: dict[str, list] = {name: [] for name in COLUMNS}
    slot = 0
    pairs = draw(st.permutations([True, True] + draw(st.lists(st.booleans(), max_size=38))))
    for pair in pairs:
        slot += draw(st.integers(1, 3))
        di = slot % len(deltas)
        for tel in ((0, 1) if pair else (draw(st.integers(0, 1)),)):
            for name, value in zip(COLUMNS, (slot, tel, draw(st.sampled_from([1, 2])),
                                              pair, di)):
                cols[name].append(value)
    return EventLog(scheme="entangled", n_slots=slot + 1, deltas=deltas, **cols)


def _without(log: EventLog, index: int) -> EventLog:
    keep = np.arange(len(log)) != index
    return EventLog(scheme=log.scheme, n_slots=log.n_slots, deltas=log.deltas,
                    **{name: col[keep] for name, col in zip(COLUMNS, log.columns())})


def _with_extra(log: EventLog, index: int) -> EventLog:
    """The log with record index repeated right after itself."""
    order = np.insert(np.arange(len(log)), index + 1, index)
    return EventLog(scheme=log.scheme, n_slots=log.n_slots, deltas=log.deltas,
                    **{name: col[order] for name, col in zip(COLUMNS, log.columns())})


@settings(max_examples=150, deadline=None)
@given(log=paired_logs(), mutation=st.sampled_from(["none", "drop", "split"]),
       data=st.data())
def test_pairing_never_mispairs_whole_or_in_blocks(log, mutation, data):
    """Intact logs count the same whole and fed in blocks that cut pairs.
    A dropped accepted record, or a slot whose records fall into two pairs
    (an extra accepted record there, one dropped from a later pair), always
    raises, from fringe_counts, pair_counts and the block-fed counter."""
    accepted = np.flatnonzero(log.accepted)
    if mutation == "drop":
        log, message = _without(log, data.draw(st.sampled_from(accepted))), "in pairs"
    elif mutation == "split":
        i = data.draw(st.integers(0, len(accepted) // 2 - 2), label="pair")
        later = data.draw(st.integers(i + 1, len(accepted) // 2 - 1), label="later")
        log = _without(_with_extra(log, accepted[2 * i + 1]), accepted[2 * later] + 1)
        message = "share a slot"
    cuts = data.draw(st.lists(st.integers(0, len(log)), max_size=6), label="cuts")
    streamed = _fed_in_blocks(log, cuts)
    if mutation == "none":
        want = fringe_counts(log)
        for got, expected in zip(streamed.counts(), want):
            assert np.array_equal(got, expected) and got.dtype == expected.dtype
        assert sum(t for _, t in pair_counts(log, 2).values()) == want[2].sum()
        return
    for count in (lambda: fringe_counts(log), lambda: pair_counts(log, 2),
                  streamed.counts):
        with pytest.raises(ValueError, match=message):
            count()


def test_counter_carries_a_pair_across_read_blocks(tmp_path):
    log = two_slot_log(deltas=(0.0, math.pi / 2.0, 1.0), n_slots=9,
                       slot=[0, 0, 1, 1, 5, 5], telescope=[0, 1] * 3,
                       detector=[1, 1, 2, 1, 2, 2], accepted=[True] * 6,
                       delta_index=[0, 0, 1, 1, 2, 2])
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    line = len(path.read_text().splitlines()[1]) + 1
    # One record per read block: every pair straddles a block edge.
    with mock.patch.object(eventlog, "READ_BLOCK_CHARS", line):
        counts = FringeCounter.from_jsonl(path).counts()
    assert [c.tolist() for c in counts] == [c.tolist() for c in fringe_counts(log)]
    assert counts[1].tolist() == [1, 0, 1] and counts[2].tolist() == [1, 1, 1]


def _read_then_count(path):
    """The reference: the per-line reader, then fringe_counts, as when a log
    is parsed whole before it is checked."""
    return fringe_counts(per_line_log(path))


def _outcome(count):
    try:
        return [c.tolist() for c in count()]
    except (TypeError, ValueError, KeyError) as exc:
        return type(exc), str(exc)


def _edit_field(line: str, key: str, value) -> str:
    return re.sub(f'"{key}":[^,}}]+', f'"{key}":{value}', line)


@st.composite
def damaged_bodies(draw, text: str):
    """The log text with up to three faults: a cut, a corrupt line, an
    unsorted or out-of-range slot, a bad detector or an unknown delta."""
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        fault = draw(st.sampled_from(["cut", "corrupt", "slot", "detector", "delta"]))
        if fault == "cut":
            return "".join(lines)[:draw(st.integers(0, len("".join(lines))))]
        if fault == "corrupt":
            lines[i] = lines[i].replace(":", "=", 1)
        elif fault == "slot":
            lines[i] = _edit_field(lines[i], "slot", draw(st.integers(-3, 12)))
        elif fault == "detector":
            lines[i] = _edit_field(lines[i], "det", draw(st.sampled_from([0, 3])))
        else:
            lines[i] = _edit_field(lines[i], "delta", 0.25)
    return "".join(lines)


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["direct", "entangled", "w_state"]),
       read_block=st.sampled_from([40, 1000, 1 << 20]), data=st.data())
def test_streamed_counts_fail_like_read_then_count(tmp_path_factory, scheme,
                                                    read_block, data):
    log = two_slot_log(scheme=scheme, deltas=(0.0, math.pi / 2.0, 1.0), n_slots=10,
                       slot=[0, 0, 1, 1, 4, 6, 6], telescope=[0, 1, 0, 1, 0, 0, 1],
                       detector=[1, 1, 2, 1, 2, 1, 1],
                       accepted=[True, True, True, True, False, True, True],
                       delta_index=[0, 0, 1, 1, 1, 2, 2])
    path = tmp_path_factory.mktemp("damaged") / "events.jsonl"
    log.write_jsonl(path)
    path.write_text(data.draw(damaged_bodies(path.read_text())))
    with mock.patch.object(eventlog, "READ_BLOCK_CHARS", read_block):
        whole = _outcome(lambda: fringe_counts(EventLog.read_jsonl(path)))
        streamed = _outcome(lambda: FringeCounter.from_jsonl(path).counts())
    assert streamed == whole == _outcome(lambda: _read_then_count(path))
