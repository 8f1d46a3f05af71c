#!/usr/bin/env python3
"""Quotient chains approaching their infinite-group measures.

Sweeps the dihedral chain D_m -> D_inf and the chain Z x Z/m -> Z^2, each
Z x Z/m measured by the series (a row with m past the series depth equals
the limit, so its gap is 0), and prints walk-count agreement depths that
drive the convergence.  The
dicyclic section documents how the printed infinite presentation (y^2 = e)
departs from Dic_m (y^2 = x^m): rotation-only elements converge, while any
y-supported element already disagrees in a_2.
"""
import argparse

from grmahler import experiments as ex
from grmahler import groups as gr
from grmahler.parsing import parse_poly_over


def print_rows(rows):
    print("parameter,value,gap")
    for r in rows:
        print(f"{r.parameter},{r.value:.15g},{r.gap:.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.1)
    ap.add_argument("--max-m", type=int, default=64)
    args = ap.parse_args()

    ms = []
    m = 4
    while m <= args.max_m:
        ms.append(m)
        m *= 2

    print("## dihedral chain, P = x + x^-1 + y")
    P = parse_poly_over("x + x^-1 + y", gr.Dihedral(0))
    print_rows(ex.converge("dihedral", P, args.lam, ms))

    print("\n## agreement depth D_m vs D_inf (first disagreement is at n = m)")
    print("m,first_disagreement")
    for m in (4, 6, 8, 10):
        rep = ex.agreement_depth(gr.Dihedral(m), gr.Dihedral(0), P, m + 2)
        print(f"{m},{rep.first_disagreement}")

    print("\n## Z x Z/m -> Z^2 chain by the series, P = x + x^-1 + y + y^-1")
    Pz = parse_poly_over("x + x^-1 + y + y^-1", gr.AbelianProduct((0, 0)))
    print_rows(ex.converge("zxzm", Pz, args.lam, ms + [128]))

    print("\n## dicyclic chain, rotation-only P = x + x^-1 (converges)")
    Pc = parse_poly_over("x + x^-1", gr.Dicyclic(0))
    print_rows(ex.converge("dicyclic", Pc, args.lam, ms))

    print("\n## dicyclic walk counts with y in the support (split at n = 2)")
    Py = parse_poly_over("x + x^-1 + y", gr.Dicyclic(0))
    print("m,first_disagreement")
    for m in (2, 3, 5, 8):
        rep = ex.agreement_depth(gr.Dicyclic(m), gr.Dicyclic(0), Py, 6)
        print(f"{m},{rep.first_disagreement}")


if __name__ == "__main__":
    main()
