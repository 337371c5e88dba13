"""Small-graph corpora for verification runs.

Exhaustive isomorphism-class lists are built by vertex augmentation with the
deletion half of McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 1998): a new vertex is only attached where it
minimises (degree, sum of its neighbours' degrees).  Candidates are bucketed
by `fingerprint`, a cross-graph colour-refinement key, and `are_isomorphic`
decides within a bucket.  The class counts are pinned in the tests against
the known sequence (all graphs: 1, 2, 4, 11, 34, 156, 1044, 12346).
"""

from __future__ import annotations

import random
from typing import Dict, List

from .graphs import Graph, are_isomorphic, bits, fingerprint, mask_of

_cache: Dict[int, List[Graph]] = {}


def nonisomorphic_graphs(n: int, connected: bool = False) -> List[Graph]:
    """Every graph on n vertices up to isomorphism, by augmentation.

    Each class on n-1 vertices is extended by vertex n-1 with every
    neighbourhood nb under which the new vertex minimises (degree, sum of
    its neighbours' degrees) over the candidate's vertices; the other
    neighbourhoods are skipped before a Graph is built.  This stays
    exhaustive: pick v minimising that invariant in a class G; G - v is
    isomorphic to some class on n-1 vertices, that class extended by the
    image of N(v) is isomorphic to G, and there the new vertex plays v's
    part.  Candidates are then deduplicated.  Results are cached per n;
    connected=True filters the cached list.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n not in _cache:
        if n == 1:
            _cache[1] = [Graph(1, [])]
        else:
            prev = nonisomorphic_graphs(n - 1)
            buckets: Dict[tuple, List[Graph]] = {}
            for base in prev:
                edges = base.edges()
                deg = [base.degree(v) for v in range(n - 1)]
                low = min(deg)
                lowest = mask_of(v for v in range(n - 1) if deg[v] == low)
                for nb in range(1 << (n - 1)):
                    k = nb.bit_count()
                    # old vertex v has degree deg[v] + [v in nb]; none may be below k
                    if k > low and (k > low + 1 or lowest & ~nb):
                        continue
                    if k >= low and not _least_among_ties(base, deg, nb, k):
                        continue
                    cand = Graph(n, edges + [(v, n - 1) for v in bits(nb)])
                    key = fingerprint(cand)
                    bucket = buckets.setdefault(key, [])
                    if not any(are_isomorphic(cand, h) for h in bucket):
                        bucket.append(cand)
            out: List[Graph] = []
            for bucket in buckets.values():
                out.extend(bucket)
            out.sort(key=lambda g: (g.m, sorted(g.degree(v) for v in range(n))))
            _cache[n] = out
    got = _cache[n]
    if connected:
        return [g for g in got if g.is_connected()]
    return list(got)


def _least_among_ties(base: Graph, deg: List[int], nb: int, k: int) -> bool:
    """Whether a new vertex on nb, of degree k, has the least neighbour-degree
    sum among the candidate's vertices of degree k (old degrees: deg)."""
    d = [deg[v] + (nb >> v & 1) for v in range(base.n)]
    own = sum(d[u] for u in bits(nb))
    return all(
        sum(d[u] for u in base.neighbors(v)) + (nb >> v & 1) * k >= own
        for v in range(base.n)
        if d[v] == k
    )


def erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_corpus(count: int, seed: int) -> List[Graph]:
    """Seeded list of connected Erdos-Renyi graphs on 4 to 13 vertices with
    p in {0.2, 0.3, 0.4, 0.5}, each drawn until connected."""
    rng = random.Random(seed)
    out: List[Graph] = []
    while len(out) < count:
        n = rng.randint(4, 13)
        p = rng.choice((0.2, 0.3, 0.4, 0.5))
        g = erdos_renyi(n, p, rng)
        while not g.is_connected():
            g = erdos_renyi(n, p, rng)
        out.append(g)
    return out
