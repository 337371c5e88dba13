"""Reference oracles shared by the tests; nothing in the package uses them."""

from typing import List, Optional, Tuple

from sepscope.graphs import Graph, bits, mask_of


def canonical_form(g: Graph) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Canonical (n, edge tuple) under vertex reordering; exact for n <= 10.

    Branch-and-bound over orderings: vertices are placed one by one, the
    adjacency row against placed vertices is the comparison key, twins are
    collapsed to a single branch.
    """
    n = g.n
    if n > 10:
        raise ValueError("canonical_form supports n <= 10")
    if n == 0:
        return (0, ())
    best: List[Optional[Tuple[int, ...]]] = [None]

    def dfs(placed: List[int], rows: List[int], remaining: List[int]):
        if not remaining:
            key = tuple(rows)
            if best[0] is None or key > best[0]:
                best[0] = key
            return
        unplaced_mask = mask_of(remaining)
        scored = []
        for v in remaining:
            row = 0
            for i, p in enumerate(placed):
                if g.has_edge(v, p):
                    row |= 1 << i
            scored.append((row, v))
        # canonical key is the MAX rows tuple, so try large rows first
        scored.sort(key=lambda rv: (-rv[0], rv[1]))
        seen = set()
        for row, v in scored:
            prefix = tuple(rows + [row])
            if best[0] is not None and prefix < best[0][: len(prefix)]:
                continue
            # twin cuts: candidates interchangeable by an automorphism of the
            # remaining choice produce identical subtrees.  Equal rows plus
            # equal open nbhd among unplaced (false twins) or equal closed
            # nbhd among unplaced (true twins) certify interchangeability.
            k_open = (row, g.nbr_mask(v) & unplaced_mask & ~(1 << v))
            k_closed = (row, (g.nbr_mask(v) | (1 << v)) & unplaced_mask, 1)
            if k_open in seen or k_closed in seen:
                continue
            seen.add(k_open)
            seen.add(k_closed)
            dfs(placed + [v], rows + [row], [u for u in remaining if u != v])

    dfs([], [], list(range(n)))
    rows = best[0]
    assert rows is not None
    edges = []
    for j, row in enumerate(rows):
        for i in bits(row):
            edges.append((i, j))
    return (n, tuple(sorted(edges)))
