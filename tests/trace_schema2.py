"""Rewrite a schema-3 trace as the schema-2 trace of the same run.

Schema 3 writes one ``msgs`` record per run of consecutive sends where
schema 2 wrote one ``msg_tx`` record per send.  A run's sends share
``t``, ``sim`` and ``span``, and no other record came between them, so
each ``msgs`` record expands in place into its ``msg_tx`` lines,
``{"sim", "category", "messages", "bits"[, "span"]}`` per column entry.
Every other record is the same apart from its ``schema`` value, so the
rewrite is byte-exact: it gives the bytes the schema-2 writer produced
for the run.  Schema-2 records pass through unchanged, so a schema-2
trace rewrites to itself.
"""

from __future__ import annotations

import json
from pathlib import Path

_SCHEMA_2 = '{"schema":2,'
_SCHEMA_3 = '{"schema":3,'
_MSGS = '{"schema":3,"event":"msgs",'


def msg_tx_records(records) -> list[dict]:
    """Each send of the ``msgs`` records among ``records``, in order, as
    the ``msg_tx`` record schema 2 wrote for it (envelope keys included,
    ``schema`` excluded)."""
    sends = []
    for record in records:
        if record["event"] != "msgs":
            continue
        columns = record["category"], record["messages"], record["bits"]
        for category, messages, bits in zip(*columns, strict=True):
            send = {
                "event": "msg_tx",
                "t": record["t"],
                "sim": record["sim"],
                "category": category,
                "messages": messages,
                "bits": bits,
            }
            if "span" in record:
                send["span"] = record["span"]
            sends.append(send)
    return sends


def as_schema_2(path) -> bytes:
    """The schema-2 bytes of the schema-2 or schema-3 trace at ``path``."""
    out = []
    with Path(path).open(encoding="utf-8", newline="") as lines:
        for line in lines:
            if line.startswith(_SCHEMA_2):
                out.append(line)
            elif line.startswith(_MSGS):
                for send in msg_tx_records([json.loads(line)]):
                    send = {"schema": 2, **send}
                    out.append(json.dumps(send, separators=(",", ":")) + "\n")
            elif line.startswith(_SCHEMA_3):
                out.append(_SCHEMA_2 + line[len(_SCHEMA_3) :])
            else:
                raise ValueError(f"not a schema-2 or -3 record: {line[:60]!r}")
    return "".join(out).encode("utf-8")
