"""The fixed-key trace encoders write exactly the bytes ``json.dumps`` does.

``JsonlTracer.emit`` encodes ``msg_tx``, ``link_up`` and ``link_down``
records with f-strings when their field keys are exactly the ones the
engine emits and every value is a plain ``int`` / ``str`` / finite
``float``.  Every record, on the fast path or not, must come out as
``json.dumps(record, separators=(",", ":"), default=_jsonable)``.
"""

from __future__ import annotations

import io
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import tracer as tracer_module
from repro.obs.tracer import TRACE_SCHEMA_VERSION, JsonlTracer, _jsonable

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
        event=st.sampled_from(("link_up", "link_down")),
        time=floats,
        sim=ints,
        u=ints,
        v=ints,
    )
    def test_link_bytes_match_json(self, event, time, sim, u, v):
        fields = {"sim": sim, "u": u, "v": v}
        with _fast_path_only():
            written = _written(event, time, fields)
        assert written == _expected(event, time, fields)

    def test_integer_time_is_written_as_float(self):
        fields = {"sim": 0, "u": 1, "v": 2}
        with _fast_path_only():
            assert _written("link_up", 3, fields) == _expected("link_up", 3, fields)


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
        event=st.sampled_from(("link_up", "link_down")),
        u=ints,
        v=ints,
        variant=st.sampled_from(("reordered", "extra", "numpy", "float")),
    )
    def test_link_variants(self, event, u, v, variant):
        if variant == "reordered":
            fields = {"u": u, "sim": 0, "v": v}
        elif variant == "extra":
            fields = {"sim": 0, "u": u, "v": v, "w": 1}
        elif variant == "numpy":
            fields = {"sim": 0, "u": np.int64(u % 100), "v": v}
        else:
            fields = {"sim": 0, "u": u, "v": float(v % 100)}
        assert _written(event, 0.25, fields) == _expected(event, 0.25, fields)

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
