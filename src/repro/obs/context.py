"""Ambient observability context.

Experiments build their :class:`~repro.sim.engine.Simulation` objects
several layers below the CLI, so threading a tracer/registry/timer
through every experiment signature would bloat the whole call graph.
Instead an *ambient context* (the pattern stdlib ``logging`` uses) owns
the current observability configuration; ``Simulation.__init__`` reads
it when no explicit tracer/timer is passed::

    from repro.obs import JsonlTracer, observe

    with JsonlTracer("run.jsonl") as tracer, observe(tracer=tracer):
        run_experiment("fig1", quick=True)   # every sim inside traces

Contexts nest; leaving the ``with`` restores the previous one.  The
default context has the null tracer, no shared registry and no shared
timer, so nothing changes for code that never touches this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .metrics import MetricsRegistry
from .timing import PhaseTimer
from .tracer import NULL_TRACER, Tracer

__all__ = ["ObsContext", "RunHealthConfig", "current", "observe", "use"]


@dataclass(frozen=True)
class RunHealthConfig:
    """Configuration of the run-health layer (see :mod:`repro.obs.health`).

    Carried by the ambient context so experiment code several layers
    below the CLI can attach the invariant auditor and the analytic
    residual monitor without new plumbing — and so worker processes can
    inherit the exact same configuration (it is picklable by design).
    """

    #: Simulated-time cadence between invariant audits.
    audit_every: float = 1.0
    #: Raise :class:`~repro.obs.audit.AuditError` on a P1/P2 violation
    #: instead of only recording it.
    strict: bool = False
    #: Simulated-time width of one residual measurement window.
    residual_window: float = 2.0
    #: Relative slack below the analytic lower bound tolerated before a
    #: window (or the final verdict) is flagged.  The measured rate of a
    #: window carrying ``M`` messages fluctuates with relative std
    #: ``~1/sqrt(M)``, so short runs need slack well above the model's
    #: own accuracy; 0.15 absorbs that noise while still catching
    #: genuine regime mismatches (which run tens of percent).
    residual_rtol: float = 0.15

    def __post_init__(self) -> None:
        if self.audit_every <= 0.0:
            raise ValueError(
                f"audit_every must be positive, got {self.audit_every}"
            )
        if self.residual_window <= 0.0:
            raise ValueError(
                f"residual_window must be positive, got {self.residual_window}"
            )
        if self.residual_rtol < 0.0:
            raise ValueError(
                f"residual_rtol must be non-negative, got {self.residual_rtol}"
            )


@dataclass(frozen=True)
class ObsContext:
    """One observability configuration scope.

    ``registry`` and ``timer`` being ``None`` means "per-simulation
    private instances"; a non-None value is shared by every simulation
    constructed inside the scope (runs are distinguished by a ``sim``
    label / phase accumulation respectively).  ``health`` being
    ``None`` means "no run-health protocols are attached".
    """

    tracer: Tracer = NULL_TRACER
    registry: MetricsRegistry | None = None
    timer: PhaseTimer | None = None
    health: RunHealthConfig | None = None


_stack: list[ObsContext] = [ObsContext()]


def current() -> ObsContext:
    """The innermost active context."""
    return _stack[-1]


@contextmanager
def observe(
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    timer: PhaseTimer | None = None,
    health: RunHealthConfig | None = None,
):
    """Push a context for the ``with`` body; unset fields inherit."""
    base = current()
    with use(
        ObsContext(
            tracer=tracer if tracer is not None else base.tracer,
            registry=registry if registry is not None else base.registry,
            timer=timer if timer is not None else base.timer,
            health=health if health is not None else base.health,
        )
    ) as context:
        yield context


@contextmanager
def use(context: ObsContext):
    """Push ``context`` as given for the ``with`` body; nothing inherits."""
    _stack.append(context)
    try:
        yield context
    finally:
        _stack.pop()
