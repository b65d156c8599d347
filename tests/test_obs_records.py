"""The trace record's fast paths equal the general ``json`` path.

:class:`~repro.obs.tracers.JsonlTraceWriter` formats the records of the
layout table (vocabulary kind, exact-``int`` fields, extras that are
ASCII-identifier names with exact ``int``/``bool`` values) from templates
and :func:`~repro.obs.analysis.read_trace_file` recognises those records
with compiled patterns; everything else goes through ``json``.  The
references below are the loops both functions ran before the fast paths
existed: whatever an event or a line is, the file written and the events
(or the error) read must be theirs.
"""

import enum
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analysis import read_trace_file
from repro.obs.events import EVENT_KINDS, PacketEvent, TraceHub
from repro.obs.tracers import (
    COMMON_RECORD,
    SCALAR_RECORD,
    TRACE_SCHEMA,
    CollectingTracer,
    JsonlTraceWriter,
    Tracer,
)


def reference_render(events, meta=None):
    """``JsonlTraceWriter._render`` as it was: one ``json.dumps`` a record."""
    header = {"schema": TRACE_SCHEMA, "kinds": list(EVENT_KINDS)}
    header.update(meta or {})
    lines = [json.dumps(header, sort_keys=True)]
    for event in events:
        payload = {
            "kind": event.kind,
            "cycle": event.cycle,
            "node": event.node,
            "uid": event.uid,
        }
        if event.extra:
            payload.update(event.extra)
        lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines) + "\n"


def reference_read(path):
    """``read_trace_file`` as it was: ``json.loads`` and validate each line,
    ``cycle``/``node``/``uid`` refused unless a JSON integer."""
    path = Path(path)
    events, meta = [], {}
    for number, line in enumerate(path.read_text().splitlines()):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number + 1}: not JSONL: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(
                f"{path}:{number + 1}: record is not a JSON object: {line.strip()}"
            )
        if "schema" in payload:
            if payload["schema"] != TRACE_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported trace schema {payload['schema']!r}; "
                    f"this analyzer reads {TRACE_SCHEMA!r}"
                )
            meta = {k: v for k, v in payload.items() if k not in ("schema", "kinds")}
            continue
        if payload.get("kind") not in EVENT_KINDS:
            raise ValueError(
                f"{path}:{number + 1}: unknown event kind "
                f"{payload.get('kind')!r}; is this a JSONL packet trace?"
            )
        for name in ("cycle", "node", "uid"):
            if name not in payload:
                raise ValueError(
                    f"{path}:{number + 1}: {payload['kind']} event lacks field "
                    f"{name!r}"
                )
            # int() would truncate 2.9, read true as 1 and "2" as 2.
            if type(payload[name]) is not int:
                raise ValueError(
                    f"{path}:{number + 1}: malformed {payload['kind']} event: "
                    f"{name} {json.dumps(payload[name])} is not an integer"
                )
        extra = {
            key: value
            for key, value in payload.items()
            if key not in ("kind", "cycle", "node", "uid")
        }
        events.append(
            PacketEvent(
                kind=str(payload["kind"]),
                cycle=payload["cycle"],
                node=payload["node"],
                uid=payload["uid"],
                extra=extra or None,
            )
        )
    return events, meta


def outcome(function, *args):
    """What a call produced: its value, or the exception's type and text."""
    try:
        return ("ok", function(*args))
    except Exception as exc:  # whatever it is: the comparison is the point
        return ("raised", type(exc), str(exc))


class Port(enum.IntEnum):
    """An ``int`` subclass: json prints its integer value."""

    EAST = 1


class Label(str):
    """A ``str`` subclass that is not exactly ``str``."""


plain_ints = st.one_of(
    st.integers(-3, 70), st.integers(-(2**70), 2**70), st.just(-1), st.just(0)
)
#: What a caller might hand the writer as cycle/node/uid: mostly ints, plus
#: the values json prints differently (bool, float, int subclass) or
#: refuses (numpy integers, None is printed as null).
fields = st.one_of(
    plain_ints,
    plain_ints,
    plain_ints,
    st.booleans(),
    st.floats(allow_nan=False),
    st.just(Port.EAST),
    st.integers(0, 9).map(np.int64),
    st.none(),
)
kinds = st.one_of(
    st.sampled_from(EVENT_KINDS),
    st.sampled_from(EVENT_KINDS),
    st.text(max_size=6),
    st.sampled_from(EVENT_KINDS).map(Label),
    st.just('ho"p'),
    st.just(["hop"]),  # unhashable, and json prints it
)
#: Keys sorting before ``cycle``, between each pair of the four fixed keys,
#: after ``uid``, and one shadowing a fixed key.
extra_keys = st.sampled_from(
    ["attempts", "dst", "lost", "reason", "zeta", "kind", "multicast"]
)
extras = st.one_of(
    st.none(),
    st.none(),
    st.just({}),
    st.dictionaries(
        extra_keys,
        st.one_of(st.integers(-5, 500), st.booleans(), st.text(max_size=5)),
        min_size=1,
        max_size=3,
    ),
    st.just({"count": np.int64(3)}),
)
events = st.builds(PacketEvent, kinds, fields, fields, fields, extras)


def written(batch, meta=None):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        writer = JsonlTraceWriter(path, meta=meta)
        for event in batch:
            writer.emit(event)
        writer.close()
        return path.read_bytes()


class TestWriterEqualsJson:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(events, max_size=6))
    def test_any_batch_is_written_as_json_dumps_writes_it(self, batch):
        expected = outcome(reference_render, batch, {"label": "x"})
        got = outcome(written, batch, {"label": "x"})
        if expected[0] == "ok":
            assert got == ("ok", expected[1].encode())
        else:  # what json refuses is refused, and for json's reason
            assert got == expected

    @pytest.mark.parametrize("kind", EVENT_KINDS)
    def test_every_kind_of_the_vocabulary(self, kind):
        batch = [PacketEvent(kind, 12, 63, 4096), PacketEvent(kind, 0, -1, -1, {})]
        assert written(batch) == reference_render(batch).encode()

    def test_a_bool_still_prints_as_json_prints_it(self):
        body = written([PacketEvent("hop", True, 2, 3)]).decode()
        assert '"cycle": true' in body

    def test_a_numpy_integer_still_fails_as_json_fails(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            written([PacketEvent("hop", 1, np.int64(2), 3)])


def read_of(text, newline="\n"):
    """Both readers' outcome on a header plus ``text``, same file name."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "t.jsonl"
        header = json.dumps({"schema": TRACE_SCHEMA, "kinds": list(EVENT_KINDS)})
        path.write_bytes((header + "\n" + text).replace("\n", newline).encode())
        return outcome(read_trace_file, path), outcome(reference_read, path)


def common_line(kind="hop", cycle=3, node=7, uid=42):
    return f'{{"cycle": {cycle}, "kind": "{kind}", "node": {node}, "uid": {uid}}}'


#: One edit of a common record: the characters that turn it into other
#: JSON, into near-JSON, or into something int() reads but JSON does not.
edit_chars = st.sampled_from(list(' \t0123456789-+.eE"{}[]:,_xk') + ["١", " "])


@st.composite
def edited_lines(draw):
    line = common_line(
        draw(st.sampled_from(EVENT_KINDS)),
        draw(plain_ints), draw(plain_ints), draw(plain_ints),
    )
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 2))
        line = line[:at] + draw(edit_chars) * draw(st.integers(0, 1)) + line[at + cut:]
    return line


class TestReaderEqualsJson:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(edited_lines(), min_size=1, max_size=4))
    def test_any_lines_read_or_fail_as_json_loads_has_it(self, lines):
        got, expected = read_of("\n".join(lines) + "\n")
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(EVENT_KINDS), plain_ints, plain_ints, plain_ints)
    def test_what_the_recogniser_accepts_is_what_json_builds(
        self, kind, cycle, node, uid
    ):
        line = common_line(kind, cycle, node, uid)
        if COMMON_RECORD.fullmatch(line) is None:
            assert max(abs(cycle), abs(node), abs(uid)) >= 10**18
        got, expected = read_of(line + "\n")
        assert got == expected == ("ok", ([PacketEvent(kind, cycle, node, uid)], {}))

    @pytest.mark.parametrize(
        "line, complaint",
        [
            (common_line(cycle="03"), "not JSONL"),  # leading zero
            (common_line(node="-0"), None),
            ('{"kind": "hop", "cycle": 3, "node": 7, "uid": 42}', None),  # order
            (common_line().replace('"node": ', '"node":'), None),
            (common_line() + " ", None),  # trailing blank
            (" " + common_line(), None),
            (common_line()[:-1], "not JSONL"),  # truncated
            (common_line()[:-9], "not JSONL"),
            (common_line(uid=10**18), None),  # past the digits it takes
            (common_line(cycle="٣"), "not JSONL"),  # int() reads it, JSON not
            (common_line(uid="4٢"), "not JSONL"),
            (common_line(cycle="3.0"), "malformed hop event"),
            (common_line(uid="true"), "malformed hop event"),
            (common_line(uid='"42"'), "malformed hop event"),
            (common_line(uid="null"), "malformed hop event"),
            (common_line(kind="teleported"), "unknown event kind"),
            (common_line(kind="HOP"), "unknown event kind"),
            (common_line().replace("}", ', "dst": 9}'), None),  # an extra
            ('{"cycle": 3, "kind": "hop", "node": 7}', "lacks field 'uid'"),
            (common_line() + common_line(), "not JSONL"),
            ("[" + common_line() + "]", "not a JSON object"),
        ],
    )
    def test_near_misses_take_the_general_path(self, line, complaint):
        assert COMMON_RECORD.fullmatch(line) is None
        got, expected = read_of(line + "\n")
        assert got == expected
        if complaint is None:
            assert got[0] == "ok" and len(got[1][0]) == 1
        else:  # the parent's one-line error, file and line included
            assert got[0] == "raised" and got[1] is ValueError
            assert "t.jsonl:2: " in got[2] and complaint in got[2]

    def test_crlf_and_blank_lines_read_as_before(self):
        text = common_line() + "\n\n" + common_line("delivered", 4, 9, 42) + "\n"
        got, expected = read_of(text, newline="\r\n")
        assert got == expected
        assert [event.kind for event in got[1][0]] == ["hop", "delivered"]

    def test_an_error_after_fast_lines_names_its_own_line(self):
        got, expected = read_of(common_line() + "\n" + common_line() + "\n{oops\n")
        assert got == expected and "t.jsonl:4: not JSONL" in got[2]


#: ASCII-identifier extras names, sorting before, between and after the
#: four fixed keys (the table's names, and now and then a fixed key).
table_names = st.one_of(
    st.sampled_from(["attempts", "dst", "lost", "multicast", "zeta", "Z", "_n"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
)
#: Extras names: the above, a fixed key, or not ASCII.
layout_names = st.one_of(
    table_names,
    table_names,
    st.sampled_from(["kind", "uid", "cycle", "node"]),
    st.text(st.characters(min_codepoint=128, max_codepoint=0x24F), min_size=1,
            max_size=3),
    st.just("dst\u00e9"),
)
#: Extras values: in the table (int, bool, zero, negative, past the 18
#: digits the reader takes) or not (float, numpy integer).
layout_values = st.one_of(
    st.integers(-5, 500),
    st.just(0),
    st.booleans(),
    st.integers(-(10**30), -(10**18)),
    st.integers(10**18, 10**30),
    st.floats(allow_nan=False),
    st.integers(0, 9).map(np.int64),
)
layout_extras = st.one_of(
    st.just({}), st.dictionaries(layout_names, layout_values, max_size=4)
)


def in_table(extra):
    """Whether the writer renders ``extra`` from a template."""
    return all(
        type(name) is str and name.isascii() and name.isidentifier()
        and name not in ("cycle", "kind", "node", "uid")
        and type(value) in (int, bool)
        for name, value in extra.items()
    )


def payload_of(kind, cycle, node, uid, extra):
    payload = {"kind": kind, "cycle": cycle, "node": node, "uid": uid}
    payload.update(extra)
    return payload


def as_law(examples):
    """Tier-1 runs a law on a few examples, ``slow`` on many."""
    return pytest.mark.parametrize(
        "examples", [examples, pytest.param(examples * 25, marks=pytest.mark.slow)]
    )


class TestLayoutTable:
    """Writer and reader share one layout table; each side equals json."""

    @as_law(60)
    def test_the_writer_writes_what_json_dumps_writes(self, examples):
        @settings(max_examples=examples, deadline=None)
        @given(st.sampled_from(EVENT_KINDS), plain_ints, plain_ints, plain_ints,
               layout_extras)
        def law(kind, cycle, node, uid, extra):
            batch = [PacketEvent(kind, cycle, node, uid, extra)]
            expected = outcome(reference_render, batch)
            got = outcome(written, batch)
            if expected[0] == "ok":
                assert got == ("ok", expected[1].encode())
            else:  # numpy integers: json's refusal, for json's reason
                assert got == expected

        law()

    @as_law(60)
    def test_the_reader_reads_what_json_loads_reads(self, examples):
        @settings(max_examples=examples, deadline=None)
        @given(st.sampled_from(EVENT_KINDS), plain_ints, plain_ints, plain_ints,
               layout_extras, st.booleans())
        def law(kind, cycle, node, uid, extra, sort_keys):
            payload = payload_of(kind, cycle, node, uid, extra)
            try:
                line = json.dumps(payload, sort_keys=sort_keys)
            except (TypeError, ValueError):
                return  # nothing writes this record
            got, expected = read_of(line + "\n")
            assert got == expected
            small = max(abs(v) for v in (cycle, node, uid, *extra.values())) < 10**18
            if sort_keys and extra and in_table(extra) and small:
                # The writer templates it, so the reader's table covers it.
                assert SCALAR_RECORD.fullmatch(line) is not None

        law()

    @as_law(80)
    def test_edited_scalar_lines_read_or_fail_as_json_loads_has_it(self, examples):
        @settings(max_examples=examples, deadline=None)
        @given(st.lists(edited_scalar_lines(), min_size=1, max_size=3))
        def law(lines):
            got, expected = read_of("\n".join(lines) + "\n")
            assert got == expected

        law()

    @pytest.mark.parametrize(
        "line",
        [
            '{"cycle": 1, "dst": 2, "dst": 3, "kind": "hop", "node": 4, "uid": 5}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "cycle": 2}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "kind": 2}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "x": 01}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "x": -0}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "x": True}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "x": 1.0}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "\u00e9": 1}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "x": 1,}',
            '{"zeta": true, "cycle": 1, "kind": "hop", "node": 4, "uid": 5}',
            '{"cycle": 1, "kind": "hop", "node": 4, "uid": 5, "x": 1%s}' % ("0" * 18),
        ],
    )
    def test_near_misses_of_the_table(self, line):
        got, expected = read_of(line + "\n")
        assert got == expected

    def test_the_generated_record_is_in_the_table(self):
        event = PacketEvent("generated", 3, 7, 42, {"multicast": False, "dst": 9})
        line = written([event]).decode().splitlines()[1]
        assert line == (
            '{"cycle": 3, "dst": 9, "kind": "generated", "multicast": false, '
            '"node": 7, "uid": 42}'
        )
        assert SCALAR_RECORD.fullmatch(line) is not None


@st.composite
def edited_scalar_lines(draw):
    """A record of the table, then up to two edits (see ``edited_lines``)."""
    names = draw(st.lists(table_names, min_size=1, max_size=3, unique=True))
    extra = {
        name: draw(st.one_of(st.integers(-5, 500), st.booleans())) for name in names
    }
    line = json.dumps(
        payload_of(draw(st.sampled_from(EVENT_KINDS)), draw(plain_ints),
                   draw(plain_ints), draw(plain_ints), extra),
        sort_keys=True,
    )
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 2))
        line = line[:at] + draw(edit_chars) * draw(st.integers(0, 1)) + line[at + cut:]
    return line


json_values = st.one_of(st.integers(-5, 500), st.booleans(), st.text(max_size=5))
round_trip_events = st.builds(
    PacketEvent,
    st.sampled_from(EVENT_KINDS),
    plain_ints,
    plain_ints,
    plain_ints,
    st.one_of(
        st.none(),
        st.dictionaries(
            st.sampled_from(["attempts", "dst", "lost", "reason", "zeta"]),
            json_values,
            min_size=1,
            max_size=3,
        ),
    ),
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(round_trip_events, max_size=8))
    def test_read_of_write_is_the_events(self, batch):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            writer = JsonlTraceWriter(path, meta={"link_delay": 3})
            for event in batch:
                writer.emit(event)
            writer.close()
            assert read_trace_file(path) == (batch, {"link_delay": 3})
            assert reference_read(path) == (batch, {"link_delay": 3})


class TestEventIsATuple:
    def test_positional_and_keyword_construction_agree(self):
        twin = PacketEvent(
            kind="hop", cycle=3, node=7, uid=42, extra={"deflected": True}
        )
        assert PacketEvent("hop", 3, 7, 42, {"deflected": True}) == twin
        assert PacketEvent("hop", 3, 7, 42).extra is None
        assert PacketEvent("hop", 3, 7, 42) != PacketEvent("hop", 3, 7, 43)

    def test_fields_read_by_name_and_unpack_in_order(self):
        event = PacketEvent("dropped", 17, 18, 99, {"attempts": 2})
        kind, cycle, node, uid, extra = event
        assert (kind, cycle, node, uid, extra) == (
            event.kind, event.cycle, event.node, event.uid, event.extra,
        )
        with pytest.raises(AttributeError):
            event.cycle = 18

    def test_a_user_tracer_still_receives_the_five_attributes(self):
        """A sink overrides ``record`` alone; ``emit(event)`` reaches it
        through the base class's adapter."""
        seen = []

        class Mine(Tracer):
            def record(self, kind, cycle, node, uid, extra):
                seen.append((kind, cycle, node, uid, extra))

        hub = TraceHub()
        mine = Mine()
        hub.add(mine)
        collector = CollectingTracer()
        hub.add(collector)
        hub.emit("hop", cycle=3, node=7, uid=42, extra={"deflected": True})
        hub.emit("delivered", 4, 9, 42)
        mine.emit(PacketEvent("dropped", 5, 9, 43))
        assert seen == [
            ("hop", 3, 7, 42, {"deflected": True}),
            ("delivered", 4, 9, 42, None),
            ("dropped", 5, 9, 43, None),
        ]
        assert collector.events == [PacketEvent(*fields) for fields in seen[:2]]
