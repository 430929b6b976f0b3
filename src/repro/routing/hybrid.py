"""The hybrid routing protocol: proactive inside, reactive across.

Combines :class:`~repro.routing.intra_cluster.IntraClusterRoutingProtocol`
(proactive, paper Eqn 13 accounting) with backbone route discovery
(:mod:`repro.routing.inter_cluster`) into a complete routing service:

* same-cluster traffic is forwarded from the proactive tables at zero
  marginal control cost;
* cross-cluster traffic triggers a reactive discovery whose result is
  cached and invalidated when one of its links breaks (with an RERR
  notification per surviving upstream hop, AODV-style).

A link → cached-routes index makes a break cost one dict lookup plus
``O(path length)`` per route it actually invalidates, instead of a scan
of the whole cache.  Each link's routes are kept in an insertion-ordered
dict, so they come out in cache insertion order and the RERRs are
recorded in the same order a scan of the cache would produce.

``route(src, dst)`` returns the path actually usable for data delivery;
experiments use the message statistics to compare the hybrid total
against the flat baselines.
"""

from __future__ import annotations

from ..obs.attribution import CAUSE_LINK_BREAK_REPAIR
from ..sim.engine import Protocol, Simulation
from ..clustering.maintenance import ClusterMaintenanceProtocol
from .inter_cluster import DiscoveryResult, discover_route
from .intra_cluster import IntraClusterRoutingProtocol
from .messages import rerr_bits

__all__ = ["HybridRoutingProtocol"]


class HybridRoutingProtocol(Protocol):
    """Cluster-aware hybrid routing with route caching.

    Parameters
    ----------
    maintenance:
        The cluster maintenance protocol owning the cluster state.
    intra:
        The proactive intra-cluster protocol (attached separately to
        the simulation; this class only consumes its tables).
    """

    name = "hybrid-routing"

    def __init__(
        self,
        maintenance: ClusterMaintenanceProtocol,
        intra: IntraClusterRoutingProtocol,
    ) -> None:
        self.maintenance = maintenance
        self.intra = intra
        self._cache: dict[tuple[int, int], list[int]] = {}
        #: Link ``(a, b)`` with ``a < b`` -> cache keys of the routes
        #: over it, in cache insertion order (values unused).
        self._routes_by_link: dict[
            tuple[int, int], dict[tuple[int, int], None]
        ] = {}
        self.discoveries = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def route(self, sim: Simulation, source: int, destination: int) -> list[int] | None:
        """Return a usable path, running a discovery if needed."""
        if source == destination:
            return [source]
        state = self.maintenance.state
        if state.same_cluster(source, destination):
            return self.intra.path(sim, source, destination)

        key = (source, destination)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached

        result: DiscoveryResult = discover_route(sim, state, source, destination)
        self.discoveries += 1
        if not result.found:
            return None
        self._cache[key] = result.path
        for link in _links(result.path):
            self._routes_by_link.setdefault(link, {})[key] = None
        return result.path

    # ------------------------------------------------------------------
    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        """Invalidate cached routes using the broken link, emitting RERRs."""
        link = (u, v) if u < v else (v, u)
        broken = self._routes_by_link.pop(link, None)
        if broken is None:
            return
        index = self._routes_by_link
        for key in broken:
            path = self._cache.pop(key)
            links = _links(path)
            for other in links:
                if other != link:
                    routes = index[other]
                    del routes[key]
                    if not routes:
                        del index[other]
            # One RERR per upstream hop that must learn of the failure.
            upstream = links.index(link) + 1
            # One RERR transmission per upstream node of the break.
            sim.stats.record(
                "route_error",
                upstream,
                upstream * rerr_bits(sim.params.messages),
                cause=CAUSE_LINK_BREAK_REPAIR,
                nodes=path[:upstream],
            )

    # ------------------------------------------------------------------
    @property
    def cached_routes(self) -> int:
        """Number of currently cached cross-cluster routes."""
        return len(self._cache)


def _links(path: list[int]) -> list[tuple[int, int]]:
    """The links of ``path`` in path order, each as ``(min, max)``."""
    return [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]
