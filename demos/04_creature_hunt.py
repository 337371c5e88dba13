"""Hunt k-creatures: the structure that forces separator blow-up.

A k-creature is two connected camps joined through a perfect matching of
k cross pairs; each pair flips independently, so a graph holding one has
at least 2^k minimal separators.  The hunt below measures how large a
creature each construction really carries.
"""

from sepscope import find_creature, max_creature_order, validate_creature
from sepscope.families import skinny_ladder, twisted_ladder


def main():
    g, _ = twisted_ladder(2)
    print(f"twisted_ladder(2): n={g.n} m={g.m}")
    for k in (1, 2, 3, 4, 5):
        verdict = find_creature(g, k)
        line = f"  {k}-creature: {verdict.status:18s} nodes={verdict.nodes_explored}"
        if verdict.found:
            problems = validate_creature(g, verdict.witness)
            line += f" validated={'yes' if not problems else problems}"
        print(line)
    print(f"  max creature order: {max_creature_order(g, k_max=5)}")
    print()

    g, _ = skinny_ladder(3)
    print(f"skinny_ladder(3): n={g.n} m={g.m}")
    for k in (1, 2, 3):
        verdict = find_creature(g, k)
        print(f"  {k}-creature: {verdict.status:18s} nodes={verdict.nodes_explored}")


if __name__ == "__main__":
    main()
