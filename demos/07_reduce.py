"""Shrink long degree-2 paths without changing what the graph avoids.

Shortening a long enough induced path whose interior vertices all have
degree 2 (at least h + 3 vertices for patterns on up to h vertices) cannot
create any forbidden induced subgraph that was absent before: a pattern set
either misses an interior vertex, and the vertices past the gap shift back
into the original, or it is the whole interior, a path the original has
too.  The reducer below cuts each long path of a heavily subdivided K4
once, down to h + 2 vertices.
"""

from sepscope import Graph, find_induced_subgraph, reduce_degree_two_paths
from sepscope.families import subdivide


def main():
    base = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    g, _ = subdivide(base, 40)
    print(f"subdivided K4: n={g.n} m={g.m}")
    h = 6
    reduced = reduce_degree_two_paths(g, h)
    print(f"reduced at h={h}: n={reduced.n} m={reduced.m}")

    patterns = {
        "K3": Graph(3, [(0, 1), (0, 2), (1, 2)]),
        "C4": Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "C6": Graph(6, [(i, (i + 1) % 6) for i in range(6)]),
    }
    for name, p in patterns.items():
        before = find_induced_subgraph(g, p).status
        after = find_induced_subgraph(reduced, p).status
        print(f"  {name}: before={before} after={after}")

    again = reduce_degree_two_paths(reduced, h)
    print(f"idempotent: second pass keeps n={again.n}")


if __name__ == "__main__":
    main()
