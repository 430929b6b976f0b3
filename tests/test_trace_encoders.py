"""The trace encoders write exactly the bytes ``json.dumps`` does.

``Tracer.send`` buffers each run of consecutive sends that share ``t``,
``sim`` and ``span``, and ``JsonlTracer`` writes the run as one ``msgs``
record; the engine's mirror (``_send_mirror``) makes one ``send`` call
per record.  A step's ``links`` record, and every other emitted record,
goes through the JSON encoder directly.  Every record must come out as
``json.dumps(record, separators=(",", ":"), default=_jsonable)``, with
a run's sends as its ``category`` / ``messages`` / ``bits`` columns in
send order.  The writer splices a cached envelope prefix onto the
fields encoded by one prebuilt encoder; records with a non-finite ``t``
or no fields are encoded whole.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracer import TRACE_SCHEMA_VERSION, JsonlTracer, _jsonable
from repro.sim.engine import _send_mirror

SPECIAL_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22, 1e-7, 0.1)

floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
)
ints = st.one_of(st.integers(), st.integers(-(2**70), 2**70), st.sampled_from((0, -1)))
plain_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E).filter(
        lambda c: c not in '"\\'
    ),
    max_size=12,
)
needs_escape = st.one_of(
    st.text(min_size=1).filter(lambda s: json.dumps(s) != f'"{s}"'),
    st.sampled_from(('a"b', "back\\slash", "tab\t", "é", "\x7f", "\n")),
)


def _expected(event: str, time: float, fields: dict) -> str:
    record = {"schema": TRACE_SCHEMA_VERSION, "event": event, "t": float(time)}
    record.update(fields)
    return json.dumps(record, separators=(",", ":"), default=_jsonable) + "\n"


def _expected_runs(sends) -> str:
    """The ``msgs`` lines of ``(time, sim, category, messages, bits,
    span)`` sends: a new record wherever ``(time, sim, span)`` changes."""
    lines = []
    key = record = None
    for time, sim, category, messages, bits, span in sends:
        if (time, sim, span) != key:
            if record is not None:
                lines.append(_expected("msgs", key[0], record))
            key = (time, sim, span)
            record = {"sim": sim, "category": [], "messages": [], "bits": []}
            if span is not None:
                record["span"] = span
        record["category"].append(category)
        record["messages"].append(messages)
        record["bits"].append(bits)
    if record is not None:
        lines.append(_expected("msgs", key[0], record))
    return "".join(lines)


def _written(event: str, time, fields: dict) -> str:
    sink = io.StringIO()
    tracer = JsonlTracer(sink)
    tracer.emit(event, time, **fields)
    tracer.close()
    assert tracer.emitted == 1
    return sink.getvalue()


def _sent(sends) -> str:
    sink = io.StringIO()
    tracer = JsonlTracer(sink)
    for send in sends:
        tracer.send(*send)
    tracer.close()
    return sink.getvalue()


@st.composite
def send_args(draw, time=floats, category=plain_text, bits=floats, span=ints):
    """One ``send`` call's arguments; few distinct keys, so runs form."""
    return (
        draw(st.one_of(st.sampled_from((0.0, 0.5)), time)),
        draw(st.one_of(st.sampled_from((0, 1)), ints)),
        draw(category),
        draw(ints),
        draw(bits),
        draw(st.one_of(st.none(), st.sampled_from((3, 4)), span)),
    )


class TestFastPath:
    """Sends and records with the types the engine writes."""

    @settings(max_examples=300, deadline=None)
    @given(sends=st.lists(send_args(), min_size=1, max_size=12))
    def test_msgs_bytes_match_json(self, sends):
        assert _sent(sends) == _expected_runs(sends)

    @settings(max_examples=200, deadline=None)
    @given(
        sends=st.lists(send_args(), min_size=1, max_size=12),
        cuts=st.sets(st.integers(0, 12)),
    )
    def test_msgs_runs_end_at_every_emit(self, sends, cuts):
        """An emitted record ends the run in front of it, even a
        filtered one: each part is written where its sends happened."""
        sink = io.StringIO()
        tracer = JsonlTracer(sink, events={"msgs", "links"})
        expected, part = [], []
        for index, send in enumerate(sends):
            if index in cuts:
                tracer.emit("step", 0.0)  # filtered out
                tracer.emit("links", 0.0, sim=0, up=[], down=[])
                expected += [_expected_runs(part), _expected("links", 0.0, {
                    "sim": 0, "up": [], "down": []})]
                part = []
            tracer.send(*send)
            part.append(send)
        tracer.close()
        expected.append(_expected_runs(part))
        assert sink.getvalue() == "".join(expected)
        assert tracer.suppressed == len(cuts & set(range(len(sends))))

    @settings(max_examples=200, deadline=None)
    @given(
        time=floats,
        sim=ints,
        category=plain_text,
        messages=ints,
        bits=floats,
        span=st.none() | ints,
    )
    def test_engine_keyword_path_matches_json(
        self, time, sim, category, messages, bits, span
    ):
        """``_send_mirror`` writes each record as one send of a run."""
        sink = io.StringIO()
        tracer = JsonlTracer(sink)
        # The attributes the mirror reads from a simulation.
        simulation = SimpleNamespace(
            tracer=tracer,
            sim_id=sim,
            time=time,
            spans=SimpleNamespace(current=span),
        )
        mirror = _send_mirror(lambda: simulation)
        mirror(category, messages, bits)
        mirror(category, messages, bits)
        tracer.close()
        send = (time, sim, category, messages, bits, span)
        assert sink.getvalue() == _expected_runs([send, send])

    @settings(max_examples=200, deadline=None)
    @given(
        time=floats,
        sim=ints,
        up=st.lists(ints, max_size=40),
        down=st.lists(ints, max_size=40),
    )
    def test_link_bytes_match_json(self, time, sim, up, down):
        """A step's ``links`` record, empty lists and huge ids included."""
        fields = {"sim": sim, "up": up, "down": down}
        assert _written("links", time, fields) == _expected("links", time, fields)

    def test_integer_time_is_written_as_float(self):
        send = (3, 0, "hello", 1, 8.0, None)
        assert _sent([send]) == _expected_runs([send])
        assert '"t":3.0,' in _sent([send])


class TestFallback:
    """Values outside the engine's types still match json."""

    @settings(max_examples=150, deadline=None)
    @given(sends=st.lists(send_args(category=needs_escape), min_size=1, max_size=6))
    def test_escaped_category(self, sends):
        assert _sent(sends) == _expected_runs(sends)

    @settings(max_examples=150, deadline=None)
    @given(
        send=send_args(),
        bad=st.sampled_from(
            (float("nan"), float("inf"), float("-inf"), np.float64(0.5), 7)
        ),
        where=st.sampled_from(("bits", "time")),
    )
    def test_non_finite_or_non_float(self, send, bad, where):
        time, sim, category, messages, bits, span = send
        if where == "time":
            time = bad
        else:
            bits = bad
        sends = [(time, sim, category, messages, bits, span)] * 2
        assert _sent(sends) == _expected_runs(sends)

    @settings(max_examples=150, deadline=None)
    @given(
        send=send_args(),
        key=st.sampled_from((1, 3, 5)),  # sim, messages, span
        wrap=st.sampled_from((np.int64, np.int32, bool, float)),
    )
    def test_numpy_scalars_bools_and_floats_in_int_fields(self, send, key, wrap):
        send = list(send)
        value = send[key] if send[key] is not None else 1
        if wrap in (np.int64, np.int32):
            value = wrap(value % 1000)
        elif wrap is bool:
            value = bool(value % 2)
        else:
            value = float(value % 1000)
        send[key] = value
        sends = [tuple(send), tuple(send)]
        assert _sent(sends) == _expected_runs(sends)

    @settings(max_examples=100, deadline=None)
    @given(send=send_args(), data=st.data())
    def test_extra_or_reordered_keys(self, send, data):
        """A ``msgs`` record emitted whole, as the parallel merge replays
        a worker's, is any other record to the encoder."""
        time, sim, category, messages, bits, _ = send
        fields = {"sim": sim, "category": [category], "messages": [messages],
                  "bits": [bits]}
        keys = list(fields)
        if data.draw(st.booleans()):
            fields = dict(fields, span=data.draw(ints))
        else:
            order = data.draw(st.permutations(keys).filter(lambda p: list(p) != keys))
            fields = {key: fields[key] for key in order}
        assert _written("msgs", time, fields) == _expected("msgs", time, fields)

    @settings(max_examples=100, deadline=None)
    @given(
        up=st.lists(ints, max_size=6),
        down=st.lists(ints, max_size=6),
        variant=st.sampled_from(("reordered", "extra", "numpy", "time")),
    )
    def test_link_variants(self, up, down, variant):
        time = 0.25
        if variant == "reordered":
            fields = {"up": up, "sim": 0, "down": down}
        elif variant == "extra":
            fields = {"sim": 0, "up": up, "down": down, "w": 1}
        elif variant == "numpy":
            fields = {
                "sim": np.int64(3),
                "up": [np.int64(x % 100) for x in up],
                "down": down,
            }
        else:
            time = float("nan")
            fields = {"sim": 0, "up": up, "down": down}
        assert _written("links", time, fields) == _expected("links", time, fields)

    def test_reserved_key_still_rejected(self):
        sink = io.StringIO()
        tracer = JsonlTracer(sink)
        try:
            tracer.emit("msgs", 0.0, sim=0, category=["hello"], t=1.0)
        except ValueError as error:
            assert "shadow envelope keys" in str(error)
        else:
            raise AssertionError("reserved key was accepted")
        finally:
            tracer.close()
        assert sink.getvalue() == ""


# Values of every JSON type the writer may meet, numpy scalars and
# non-finite floats included.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(),
    st.sampled_from((-0.0, float("nan"), float("inf"), float("-inf"))),
    ints.map(lambda x: np.int64(x % 2**62)),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.text(),
    needs_escape,
    st.sampled_from(("é", "日本", "\U0001f600", '"quoted"', "\x00\x1f", " ")),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6) | st.integers(-5, 5), inner, max_size=4),
    ),
    max_leaves=12,
)
field_names = st.text(min_size=1, max_size=8).filter(
    lambda key: key not in ("schema", "event", "t")
)


class TestSplicedEnvelope:
    """``JsonlTracer`` splices the envelope onto the encoded fields; every
    line must still be the bytes ``json.dumps`` gives for the record."""

    @settings(max_examples=400, deadline=None)
    @given(
        event=st.sampled_from(("msgs", "links", "span_start")) | st.text(max_size=8),
        time=st.floats(),
        fields=st.dictionaries(field_names, values, max_size=5),
    )
    def test_line_matches_json_dumps(self, event, time, fields):
        # Finite times take the spliced path, non-finite times and empty
        # fields the record path; both must give the same bytes.
        assert _written(event, time, fields) == _expected(event, time, fields)

    def test_prefix_is_cached_per_event(self):
        sink = io.StringIO()
        tracer = JsonlTracer(sink)
        for time in (0.5, 1.5):
            tracer.emit("step", time, sim=0)
            tracer.emit("é\"", time, sim=1)
        tracer.close()
        assert sink.getvalue() == "".join(
            _expected(event, time, {"sim": sim})
            for time in (0.5, 1.5)
            for event, sim in (("step", 0), ('é"', 1))
        )

    @pytest.mark.parametrize("time", [0.5, float("nan")])
    @pytest.mark.parametrize("bad", [object(), {1, 2}, 1j, b"bytes"])
    def test_unencodable_value_raises_type_error(self, time, bad):
        with pytest.raises(TypeError):
            json.dumps({"v": bad}, default=_jsonable)
        sink = io.StringIO()
        tracer = JsonlTracer(sink)
        with pytest.raises(TypeError):
            tracer.emit("step", time, sim=0, v=[1, bad])
        tracer.emit("step", time, sim=0)
        tracer.close()
        assert sink.getvalue() == _expected("step", time, {"sim": 0})

    def test_circular_reference_still_raises(self):
        """A circular value is not *detected* on the spliced path, as it
        is by ``json.dumps`` (``ValueError``): the prebuilt encoder keeps
        no markers, so it raises ``RecursionError`` instead.  A later
        line is unaffected."""
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            json.dumps({"v": loop})
        sink = io.StringIO()
        tracer = JsonlTracer(sink)
        with pytest.raises(RecursionError):
            tracer.emit("step", 0.5, sim=0, v=loop)
        shared = [1, 2]
        tracer.emit("step", 0.5, a=shared, b=shared)
        tracer.close()
        assert sink.getvalue() == _expected("step", 0.5, {"a": shared, "b": shared})
