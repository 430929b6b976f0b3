"""Max-Min d-cluster formation (Amis, Prakash, Vuong & Huynh, INFOCOM 2000).

A *d*-hop generalization from the paper's related-work set: cluster
members may be up to ``d`` hops from their head.  The algorithm runs
``2d`` synchronous flooding rounds:

1. **Floodmax** (``d`` rounds): every node repeatedly adopts the largest
   node id heard in its closed neighborhood.
2. **Floodmin** (``d`` rounds): starting from the floodmax outcome,
   every node repeatedly adopts the *smallest* value heard.

Head election then follows the three original rules, evaluated in
order:

* Rule 1 — a node that receives its own id back in floodmin is a head;
* Rule 2 — otherwise, if some id appears in both the node's floodmax
  and floodmin round logs (a *node pair*), the node elects the minimum
  such id;
* Rule 3 — otherwise it elects the maximum id seen during floodmax.

Each non-head finally affiliates to the elected head's cluster; since
elected heads are at most ``d`` hops away, affiliation follows a BFS
tree toward the nearest node already in the target cluster.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .base import HEAD, ClusteringAlgorithm, ClusterState

__all__ = ["MaxMinDCluster"]


class MaxMinDCluster(ClusteringAlgorithm):
    """Max-Min heuristic for d-hop dominating-set clustering.

    Parameters
    ----------
    d:
        Maximum hop distance between a member and its cluster-head.
    """

    name = "maxmin"

    def __init__(self, d: int = 2) -> None:
        if d < 1:
            raise ValueError(f"d must be at least 1, got {d}")
        self.d = d

    def form(self, adjacency: np.ndarray, rng=None) -> ClusterState:
        adjacency = np.asarray(adjacency, dtype=bool)
        n = len(adjacency)
        closed = adjacency | np.eye(n, dtype=bool)
        ids = np.arange(n)

        # Floodmax: d synchronous rounds, logging each round's values.
        value = ids.astype(np.int64)
        max_log = [value.copy()]
        for _ in range(self.d):
            value = np.array([value[closed[i]].max() for i in range(n)])
            max_log.append(value.copy())

        # Floodmin: d more rounds from the floodmax outcome.
        min_log = [value.copy()]
        for _ in range(self.d):
            value = np.array([value[closed[i]].min() for i in range(n)])
            min_log.append(value.copy())

        # Election rules.
        elected = np.empty(n, dtype=np.int64)
        for i in range(n):
            seen_max = {int(roundvals[i]) for roundvals in max_log[1:]}
            seen_min = {int(roundvals[i]) for roundvals in min_log[1:]}
            if i in seen_min:
                elected[i] = i  # Rule 1
                continue
            pairs = seen_max & seen_min
            if pairs:
                elected[i] = min(pairs)  # Rule 2
            else:
                elected[i] = max(seen_max)  # Rule 3

        # Every elected id declares itself a head (it may not have
        # elected itself — the original algorithm converts such nodes,
        # since other nodes depend on them).
        state = ClusterState.unassigned(n)
        heads = set(int(h) for h in np.unique(elected)) | {
            i for i in range(n) if elected[i] == i
        }
        for head in heads:
            state.make_head(head)

        # Affiliate the rest by BFS from all heads simultaneously so
        # each node joins its *nearest* head (ties by smaller head id),
        # guaranteeing the d-hop bound on connected components.
        owner = np.full(n, -1, dtype=np.int64)
        distance = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        queue: deque[int] = deque()
        for head in sorted(heads):
            owner[head] = head
            distance[head] = 0
            queue.append(head)
        while queue:
            current = queue.popleft()
            for neighbor in np.flatnonzero(adjacency[current]):
                neighbor = int(neighbor)
                if owner[neighbor] < 0:
                    owner[neighbor] = owner[current]
                    distance[neighbor] = distance[current] + 1
                    queue.append(neighbor)

        for node in range(n):
            if state.roles[node] == HEAD:
                continue
            if owner[node] >= 0:
                state.make_member(node, int(owner[node]))
            else:  # isolated component with no head (cannot happen: every
                # component elects at least one head via Rule 1/3 ids)
                state.make_head(node)  # pragma: no cover - defensive
        return state
