"""The protocol interface the simulation kernel drives.

It imports nothing from ``repro``, so the :mod:`repro.obs` observers
can subclass it without an import cycle; :mod:`repro.sim.engine`
re-exports it.
"""

from __future__ import annotations

__all__ = ["Protocol", "overriding"]


class Protocol:
    """Base class for everything the simulation drives.

    Subclasses override the hooks they need.  Hook order per step:
    ``on_step_begin`` → link events (``on_link_up`` / ``on_link_down``,
    interleaved in deterministic pair order) → ``on_step_end``.  The
    engine does not call a step hook a protocol inherits unchanged from
    this class (see :func:`overriding`).

    Every subclass must declare a distinct ``name``: it is the label
    under which the protocol's hook time is charged
    (``protocol:<name>`` in the timing report) and the key
    :meth:`Simulation.attach` uses to reject double-attachment.
    """

    name: str = "protocol"

    def on_attach(self, sim) -> None:
        """Called once when attached, after the simulation is initialized."""

    def on_step_begin(self, sim, time: float) -> None:
        """Called after mobility advanced, before link events are delivered."""

    def on_link_up(self, sim, u: int, v: int, time: float) -> None:
        """A link appeared between nodes ``u`` and ``v`` (``u < v``)."""

    def on_link_down(self, sim, u: int, v: int, time: float) -> None:
        """A link disappeared between nodes ``u`` and ``v`` (``u < v``)."""

    def on_step_end(self, sim, time: float) -> None:
        """Called after all link events of the step were delivered."""

    def on_node_fail(self, sim, node: int, time: float) -> None:
        """``node`` crashed: wipe any state the protocol keeps *at* it.

        Fired by the engine's fault phase (see :mod:`repro.faults`)
        before the step's link events are delivered.  The crash also
        breaks all the node's links, so handlers at *other* nodes react
        through their ordinary ``on_link_down`` path; this hook only
        models the loss of the crashed node's own memory.
        """

    def on_node_recover(self, sim, node: int, time: float) -> None:
        """``node``'s radio came back (with the state wiped at crash)."""

    def on_run_end(self, sim, time: float) -> None:
        """Called once when a measurement run finishes.

        Fired by :meth:`Simulation.run` after the measurement window
        closes (and by drivers that step manually, via
        :meth:`Simulation.notify_run_end`) — the hook run-health
        protocols use to flush partial windows and emit final verdicts.
        """


def overriding(protocols, hook: str) -> list[tuple[int, object]]:
    """``(index, bound hook)`` of each protocol whose ``hook`` does work.

    A bound method whose function is :class:`Protocol`'s own no-op is
    left out, and so is an absent hook (protocols are duck-typed).
    Anything else is kept: a wrapper function set on the instance is
    called even when it wraps the inherited no-op.
    """
    no_op = getattr(Protocol, hook)
    found = []
    for index, protocol in enumerate(protocols):
        bound = getattr(protocol, hook, None)
        if bound is not None and getattr(bound, "__func__", None) is not no_op:
            found.append((index, bound))
    return found
