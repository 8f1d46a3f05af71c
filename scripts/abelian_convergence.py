#!/usr/bin/env python3
"""Finite-abelian grids converging to the torus measure.

Sweeps m_{Z/m1 x Z/m2}(x + x^-1 + y + y^-1, lambda) over square grids
(G, G) and coprime-ish grids (G, G+1), printing the Boyd-Lawton q(m)
alongside the gap to the free-abelian series value.
"""
import argparse

from grmahler import experiments as ex
from grmahler import groups as gr
from grmahler import mahler as mh
from grmahler.parsing import parse_poly_over


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.1)
    ap.add_argument("--max-grid", type=int, default=64)
    args = ap.parse_args()

    g = gr.AbelianProduct((0, 0))
    P = parse_poly_over("x + x^-1 + y + y^-1", g)
    limit = mh.mahler_series(P, args.lam, 1e-12).value
    print(f"# limit m_Z^2(P, {args.lam}) = {limit:.15g}")

    sizes = []
    G = 4
    while G <= args.max_grid:
        sizes.append(G)
        G *= 2

    for label, grids in (
        ("square (G,G)", [(G, G) for G in sizes]),
        ("coprime (G,G+1)", [(G, G + 1) for G in sizes]),
    ):
        print(f"\n## {label}")
        print("parameter,value,gap,q")
        for row in ex.converge("abelian", P, args.lam, grids):
            print(f"{row.parameter},{row.value:.15g},{row.gap:.3e},{row.q}")


if __name__ == "__main__":
    main()
