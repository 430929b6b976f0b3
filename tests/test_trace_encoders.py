"""The trace encoders write exactly the bytes ``json.dumps`` does.

``JsonlTracer.emit`` encodes ``msg_tx`` records with an f-string when
their field keys are exactly the ones the engine emits and every value
is a plain ``int`` / ``str`` / finite ``float``; the engine's keyword
call (``_msg_tx_mirror``) takes that path.  A step's ``links`` record
goes through the JSON encoder.  Every record, on the fast path or not,
must come out as ``json.dumps(record, separators=(",", ":"),
default=_jsonable)``.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import tracer as tracer_module
from repro.obs.tracer import TRACE_SCHEMA_VERSION, JsonlTracer, _jsonable
from repro.sim.engine import _msg_tx_mirror

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


def _written(event: str, time, fields: dict) -> str:
    sink = io.StringIO()
    tracer = JsonlTracer(sink)
    tracer.emit(event, time, **fields)
    tracer.close()
    assert tracer.emitted == 1
    return sink.getvalue()


def _fast_path_only():
    """Make the json fallback fail, so only the fixed-key path can write."""

    def refuse(record):
        raise AssertionError(f"fell back to json for {record!r}")

    return mock.patch.object(tracer_module, "_encode", refuse)


@st.composite
def msg_tx_fields(draw, category=plain_text, span=st.none() | ints):
    fields = {
        "sim": draw(ints),
        "category": draw(category),
        "messages": draw(ints),
        "bits": draw(floats),
    }
    value = draw(span)
    if value is not None:
        fields["span"] = value
    return fields


class TestFastPath:
    @settings(max_examples=300, deadline=None)
    @given(time=floats, fields=msg_tx_fields())
    def test_msg_tx_bytes_match_json(self, time, fields):
        with _fast_path_only():
            written = _written("msg_tx", time, fields)
        assert written == _expected("msg_tx", time, fields)

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                floats,
                msg_tx_fields(category=st.one_of(plain_text, needs_escape)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_msg_tx_category_cache_keeps_bytes(self, records):
        """One tracer, repeated and mixed categories: the cached
        plainness of each category never changes a record's bytes."""
        records = records + records[:3]
        sink = io.StringIO()
        tracer = JsonlTracer(sink)
        for time, fields in records:
            tracer.emit("msg_tx", time, **fields)
        tracer.close()
        assert sink.getvalue() == "".join(
            _expected("msg_tx", time, fields) for time, fields in records
        )

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
        """``_msg_tx_mirror``'s keyword call is a fast-path record."""
        sink = io.StringIO()
        tracer = JsonlTracer(sink)
        # The attributes the mirror reads from a simulation.
        simulation = SimpleNamespace(
            tracer=tracer,
            sim_id=sim,
            time=time,
            spans=SimpleNamespace(current=span),
        )
        mirror = _msg_tx_mirror(lambda: simulation)
        with _fast_path_only():
            mirror(category, messages, bits)
        tracer.close()
        fields = {"sim": sim, "category": category, "messages": messages,
                  "bits": bits}
        if span is not None:
            fields["span"] = span
        assert sink.getvalue() == _expected("msg_tx", time, fields)

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
        fields = {"sim": 0, "category": "hello", "messages": 1, "bits": 8.0}
        with _fast_path_only():
            assert _written("msg_tx", 3, fields) == _expected("msg_tx", 3, fields)


class TestFallback:
    """Records the fixed-key encoders must refuse still match json."""

    @settings(max_examples=150, deadline=None)
    @given(time=floats, fields=msg_tx_fields(category=needs_escape))
    def test_escaped_category(self, time, fields):
        assert _written("msg_tx", time, fields) == _expected("msg_tx", time, fields)

    @settings(max_examples=150, deadline=None)
    @given(
        time=floats,
        fields=msg_tx_fields(),
        bad=st.sampled_from(
            (float("nan"), float("inf"), float("-inf"), np.float64(0.5), 7)
        ),
        where=st.sampled_from(("bits", "time")),
    )
    def test_non_finite_or_non_float(self, time, fields, bad, where):
        if where == "time":
            time = bad
        else:
            fields["bits"] = bad
        assert _written("msg_tx", time, fields) == _expected("msg_tx", time, fields)

    @settings(max_examples=150, deadline=None)
    @given(
        fields=msg_tx_fields(span=ints),
        key=st.sampled_from(("sim", "messages", "span")),
        wrap=st.sampled_from((np.int64, np.int32, bool, float)),
    )
    def test_numpy_scalars_bools_and_floats_in_int_fields(self, fields, key, wrap):
        value = fields[key]
        if wrap in (np.int64, np.int32):
            value = wrap(value % 1000)
        elif wrap is bool:
            value = bool(value % 2)
        else:
            value = float(value % 1000)
        fields[key] = value
        assert _written("msg_tx", 1.5, fields) == _expected("msg_tx", 1.5, fields)

    @settings(max_examples=100, deadline=None)
    @given(fields=msg_tx_fields(), data=st.data())
    def test_extra_or_reordered_keys(self, fields, data):
        keys = list(fields)
        if data.draw(st.booleans()):
            fields = dict(fields, extra=data.draw(ints))
        else:
            order = data.draw(st.permutations(keys).filter(lambda p: list(p) != keys))
            fields = {key: fields[key] for key in order}
        assert _written("msg_tx", 2.0, fields) == _expected("msg_tx", 2.0, fields)

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
            tracer.emit("msg_tx", 0.0, sim=0, category="hello", t=1.0)
        except ValueError as error:
            assert "shadow envelope keys" in str(error)
        else:
            raise AssertionError("reserved key was accepted")
        finally:
            tracer.close()
        assert sink.getvalue() == ""
