"""Tame or feral: what forbidding a finite family does to separator growth.

Forbidding all seven obstruction types at some k keeps minimal separator
counts quasi-polynomial (strongly quasi-tame; tame when a clique is also
blocked).  A family whose graphs all avoid some obstruction type is feral:
that type itself is a witness class with exponentially many separators.
"""

from sepscope import ForbiddenFamily, classify
from sepscope.graphs import Graph

P3 = Graph(3, [(0, 1), (1, 2)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
CLAW = Graph(4, [(0, 1), (0, 2), (0, 3)])


def show(name, members):
    verdict = classify(ForbiddenFamily(members))
    print(f"{name}: {verdict.status} (k={verdict.k_certificate})")
    for t, ev in sorted(verdict.evidence.items()):
        if ev.get("forbidden") is False:
            print(f"  avoider: {ev['instance']} with n={ev['n']}")
        elif "instances_checked" in ev:
            print(f"  {t:13s} forbidden from k = {ev['k']}, {ev['instances_checked']} instances checked")
        else:
            print(f"  {t:13s} {ev}")
    print()


def main():
    show("{P3}", (P3,))
    show("{K3}", (K3,))
    show("{K3, claw}", (K3, CLAW))


if __name__ == "__main__":
    main()
