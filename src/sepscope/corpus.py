"""Small-graph corpora for verification runs.

Exhaustive isomorphism-class lists are built by vertex augmentation with
fingerprint-bucketed dedup; the class counts are pinned in the tests against
the known sequence (all graphs: 1, 2, 4, 11, 34, 156, 1044, 12346).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List

from .graphs import Graph, are_isomorphic, fingerprint

_cache: Dict[int, List[Graph]] = {}


def nonisomorphic_graphs(n: int, connected: bool = False) -> List[Graph]:
    """Every graph on n vertices up to isomorphism, by augmentation.

    Each class on n vertices arises from some class on n-1 vertices by
    attaching vertex n-1 with an arbitrary neighborhood, so extending every
    class by every neighborhood and deduplicating is exhaustive.  Results
    are cached per n; connected=True filters the cached list.
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
                edges = list(base.edges())
                for nb in range(1 << (n - 1)):
                    cand = Graph(
                        n, edges + [(v, n - 1) for v in range(n - 1) if nb >> v & 1]
                    )
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


def erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_corpus(
    count: int,
    seed: int,
    n_lo: int = 4,
    n_hi: int = 13,
    ps: Iterable[float] = (0.2, 0.3, 0.4, 0.5),
    max_tries: int = 10_000,
) -> List[Graph]:
    """Seeded list of connected Erdos-Renyi graphs across the size range."""
    rng = random.Random(seed)
    ps = tuple(ps)
    out: List[Graph] = []
    while len(out) < count:
        n = rng.randint(n_lo, n_hi)
        p = rng.choice(ps)
        for _ in range(max_tries):
            g = erdos_renyi(n, p, rng)
            if g.is_connected():
                out.append(g)
                break
        else:
            raise RuntimeError("could not sample a connected graph")
    return out
