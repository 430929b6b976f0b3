"""Rewrite a schema-2 trace as the schema-1 trace of the same run.

Schema 2 writes one ``links`` record per step where schema 1 wrote one
``link_down`` record per broken pair and then one ``link_up`` record per
generated pair, each ``{"sim", "u", "v"}`` in pair order.  Every other
record is the same apart from its ``schema`` value, so the rewrite is
byte-exact: it gives the bytes the schema-1 writer produced for the run.
"""

from __future__ import annotations

import json
from pathlib import Path

_SCHEMA_2 = '{"schema":2,'
_LINKS = '{"schema":2,"event":"links",'


def as_schema_1(path) -> bytes:
    """The schema-1 bytes of the schema-2 trace at ``path``."""
    out = []
    with Path(path).open(encoding="utf-8", newline="") as lines:
        for line in lines:
            if not line.startswith(_SCHEMA_2):
                raise ValueError(f"not a schema-2 record: {line[:60]!r}")
            if not line.startswith(_LINKS):
                out.append('{"schema":1,' + line[len(_SCHEMA_2) :])
                continue
            record = json.loads(line)
            for event, key in (("link_down", "down"), ("link_up", "up")):
                pairs = record[key]
                for u, v in zip(pairs[::2], pairs[1::2]):
                    link = {
                        "schema": 1,
                        "event": event,
                        "t": record["t"],
                        "sim": record["sim"],
                        "u": u,
                        "v": v,
                    }
                    out.append(json.dumps(link, separators=(",", ":")) + "\n")
    return "".join(out).encode("utf-8")

