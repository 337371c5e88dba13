"""Independent answer checks.

These brute-force routines share no code with sepscope: they read a graph
only through its vertex count and edge list and rebuild everything else, so
a bug in the package cannot make a wrong answer pass its own check.  They
are slow and only meant for the small inputs the benchmark checks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

Adj = List[int]


def adjacency(n: int, edges: Iterable[Sequence[int]]) -> Adj:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def adjacency_of(g) -> Adj:
    """Adjacency masks of a sepscope Graph, read through its public edge list."""
    return adjacency(g.n, g.edges())


def _members(mask: int) -> List[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def components(adj: Adj, within: int) -> List[int]:
    out = []
    rest = within
    while rest:
        comp = rest & -rest
        grew = True
        while grew:
            reach = comp
            for v in _members(comp):
                reach |= adj[v] & within
            grew = reach != comp
            comp = reach
        out.append(comp)
        rest &= ~comp
    return out


def is_minimal_separator(adj: Adj, smask: int) -> bool:
    """S is nonempty and G - S has at least two components with N(C) = S."""
    if not smask:
        return False
    full = (1 << len(adj)) - 1
    fulls = 0
    for comp in components(adj, full & ~smask):
        nb = 0
        for v in _members(comp):
            nb |= adj[v]
        if nb & ~comp == smask:
            fulls += 1
    return fulls >= 2


def minimal_separators(adj: Adj) -> List[Tuple[int, ...]]:
    """Every minimal separator by testing every vertex subset."""
    full = (1 << len(adj)) - 1
    return sorted(
        tuple(_members(s)) for s in range(1, full + 1) if is_minimal_separator(adj, s)
    )


def induced_embedding(gadj: Adj, hadj: Adj) -> Optional[Tuple[int, ...]]:
    """An injective map of H into G preserving edges and non-edges, or None.

    Plain backtracking over H's vertices in index order, checking every
    placed pair; deliberately unlike the package's search.
    """
    gn, hn = len(gadj), len(hadj)
    image: List[int] = []

    def extend() -> bool:
        u = len(image)
        if u == hn:
            return True
        for v in range(gn):
            if v in image:
                continue
            if all(
                bool(hadj[u] >> t & 1) == bool(gadj[v] >> image[t] & 1)
                for t in range(u)
            ):
                image.append(v)
                if extend():
                    return True
                image.pop()
        return False

    return tuple(image) if extend() else None


def is_induced_embedding(gadj: Adj, hadj: Adj, image: Sequence[int]) -> bool:
    hn = len(hadj)
    if len(image) != hn or len(set(image)) != hn:
        return False
    if any(not 0 <= v < len(gadj) for v in image):
        return False
    return all(
        bool(hadj[a] >> b & 1) == bool(gadj[image[a]] >> image[b] & 1)
        for a in range(hn)
        for b in range(a + 1, hn)
    )


def is_induced_cycle(adj: Adj, cycle: Sequence[int]) -> bool:
    """cycle lists the vertices of an induced cycle in cyclic order."""
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    if any(not 0 <= v < len(adj) for v in cycle):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            if bool(adj[cycle[i]] >> cycle[j] & 1) != consecutive:
                return False
    return True


def has_induced_cycle_at_least(adj: Adj, r: int) -> bool:
    """Brute force over vertex subsets: some set of >= r vertices induces a cycle."""
    n = len(adj)
    for s in range(1, 1 << n):
        if bin(s).count("1") < r:
            continue
        if all(bin(adj[v] & s).count("1") == 2 for v in _members(s)):
            if len(components(adj, s)) == 1:
                return True
    return False
