"""Regenerate the fixed inputs under bench/data (not part of a benchmark run).

    python3 bench/make_data.py

classes_le7.jsonl   every connected graph on 1..7 vertices up to isomorphism,
                    with its minimal separators from the brute force in
                    checks.py.  The class list comes from sepscope's corpus
                    and is checked against the pinned counts, against
                    networkx's graph atlas when networkx is installed, and
                    the separators against sepscope's subset oracle.
patterns.jsonl      every connected graph on 3..5 vertices, flagged "light"
                    when classifying it alone records at most LIGHT_WORK
                    spans under the tracer (a deterministic work count).
families.jsonl      the pool the classify workload draws from: every family
                    of one or two light patterns plus THREE_MEMBER random
                    three-member ones (fixed seed), each with its traced
                    span count as "work", sorted by work.  A run draws one
                    family from each of its equal-rank strata, so every seed
                    gets the same spread of cheap and expensive families.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from sepscope import classifier, corpus, separators  # noqa: E402

CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
LIGHT_WORK = 1000
THREE_MEMBER = 200


def classify_work(members) -> int:
    """Spans recorded while classifying the family: a deterministic cost."""
    t = tracer.Tracer()
    t.install()
    try:
        classifier.classify(classifier.ForbiddenFamily(tuple(members)))
    finally:
        t.uninstall()
    return len(t.start)


def atlas_counts():
    try:
        import networkx as nx
    except ImportError:
        return None
    counts = {}
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() and nx.is_connected(g):
            counts[g.number_of_nodes()] = counts.get(g.number_of_nodes(), 0) + 1
    return counts


def main() -> int:
    atlas = atlas_counts()
    if atlas is not None and atlas != CONNECTED:
        raise SystemExit(f"networkx atlas disagrees with the pinned counts: {atlas}")
    rows = []
    for n in range(1, 8):
        got = corpus.nonisomorphic_graphs(n, connected=True)
        if len(got) != CONNECTED[n]:
            raise SystemExit(f"corpus has {len(got)} connected classes at n={n}")
        for g in got:
            seps = checks.minimal_separators(checks.adjacency_of(g))
            if seps != separators.enumerate_oracle(g):
                raise SystemExit(f"oracle disagrees with the brute force on {g.edges()}")
            rows.append({"n": g.n, "edges": g.edges(), "seps": seps})
    with open(BENCH / "data" / "classes_le7.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    patterns = [g for n in (3, 4, 5) for g in corpus.nonisomorphic_graphs(n, connected=True)]
    light = []
    with open(BENCH / "data" / "patterns.jsonl", "w") as fh:
        for i, g in enumerate(patterns):
            is_light = classify_work((g,)) <= LIGHT_WORK
            if is_light:
                light.append(i)
            row = {"n": g.n, "edges": g.edges(), "light": is_light}
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    picks = [(i,) for i in light] + list(itertools.combinations(light, 2))
    threes = list(itertools.combinations(light, 3))
    picks += random.Random(0).sample(threes, THREE_MEMBER)
    pool = [
        {"members": list(pick), "work": classify_work(patterns[i] for i in pick)}
        for pick in picks
    ]
    pool.sort(key=lambda row: (row["work"], row["members"]))
    with open(BENCH / "data" / "families.jsonl", "w") as fh:
        for row in pool:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    print(f"wrote {len(rows)} classes (atlas check: {'done' if atlas else 'skipped'}), "
          f"{len(light)} light patterns, {len(pool)} families")
    return 0


if __name__ == "__main__":
    sys.exit(main())
