#!/usr/bin/env python3
"""Measures over a group versus its abelianized counterpart.

Random real symmetric-coefficient elements give equal measures over D_m and
Z/m x Z/2 (and over Dic_m and Z/2m x Z/2 under the two-sided reciprocity
conditions); complex or non-reciprocal elements break the equality, as the
two counterexample pairs show.
"""
import argparse
import os
import random
import sys

# reuse the test suite's instance generators, which need no test extras
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

from grmahler import experiments as ex
from grmahler import groups as gr
from grmahler import ring as rg
from grmahler.parsing import parse_poly_over

from instances import dicyclic_theorem_instance, dihedral_theorem_instance, from_alpha_beta


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20250809)
    ap.add_argument("--instances", type=int, default=5)
    args = ap.parse_args()
    rnd = random.Random(args.seed)

    print("## dihedral equality: D_m vs Z/m x Z/2")
    print("m,value_abelian,value_dihedral,verdict")
    done = 0
    while done < args.instances:
        m = rnd.choice([3, 4, 5, 6])
        alpha, beta = dihedral_theorem_instance(m, rnd)
        P = from_alpha_beta(gr.AbelianProduct((m, 2)), alpha, beta)
        if P.is_zero():
            continue
        lam = 0.25 / rg.l1_norm(P)
        res = ex.compare_groups(gr.AbelianProduct((m, 2)), gr.Dihedral(m), P, lam)
        print(f"{m},{res.value_a:.15g},{res.value_b:.15g},{res.verdict}")
        done += 1

    print("\n## dicyclic equality: Dic_m vs Z/2m x Z/2")
    print("m,value_abelian,value_dicyclic,verdict")
    done = 0
    while done < args.instances:
        m = rnd.choice([2, 3])
        alpha, beta = dicyclic_theorem_instance(m, rnd)
        P = from_alpha_beta(gr.AbelianProduct((2 * m, 2)), alpha, beta)
        if P.is_zero():
            continue
        lam = 0.25 / rg.l1_norm(P)
        res = ex.compare_groups(gr.AbelianProduct((2 * m, 2)), gr.Dicyclic(m), P, lam)
        print(f"{m},{res.value_a:.15g},{res.value_b:.15g},{res.verdict}")
        done += 1

    print("\n## counterexamples over Z/3 x Z/2 vs D_3 (lambda-free measure)")
    print("poly,value_abelian,value_dihedral,verdict")
    for poly in ("3 + i*x - i*x^-1 + y", "x + 2*y"):
        P = parse_poly_over(poly, gr.AbelianProduct((3, 2)))
        res = ex.compare_groups(gr.AbelianProduct((3, 2)), gr.Dihedral(3), P)
        print(f'"{poly}",{res.value_a:.15g},{res.value_b:.15g},{res.verdict}')


if __name__ == "__main__":
    main()
