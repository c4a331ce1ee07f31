"""Classify metrics by Petrov type through the Newman-Penrose tetrad.

Run with:  python3 demos/petrov_classification.py
"""

import sympy as sp

from tensoralg import (catalog, classify, invariant_I, invariant_J,
                       np_tetrad, petrov_of_metric, render, setup_frame,
                       weyl_scalars)
from tensoralg.curvature import MetricContext

# --- Schwarzschild, straight from the catalog (frame base included) -------
schw = catalog.load("exteriorschwarzschild", frame=True)
print("exterior Schwarzschild:", petrov_of_metric(schw))

# Under the hood: the Weyl tensor is computed in coordinates, carried into
# the orthonormal frame and contracted with the constant null tetrad of
# that frame into the five complex scalars.  For type D only psi_2
# survives.
work = MetricContext(schw.chart, [[-x for x in row] for row in schw.lg],
                     fri=schw.fri, lfg=[[-x for x in row] for row in schw.lfg])
tetrad = np_tetrad(work)
psis = weyl_scalars(work.weyl_frame, tetrad)
print("psi_0..psi_4 =", [render(sp.simplify(p)) for p in psis.psi])
print("I =", render(invariant_I(psis.psi)), " J =",
      render(invariant_J(psis.psi)))

# --- anti-de Sitter (Poincare patch): conformally flat, so type O ---------
ads = setup_frame(
    ["t", "x", "y", "z"],
    [["1/z", "0", "0", "0"], ["0", "1/z", "0", "0"],
     ["0", "0", "1/z", "0"], ["0", "0", "0", "1/z"]],
    [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
     ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
print("anti-de Sitter:", petrov_of_metric(ads))

# --- the decision tree can also be driven directly ------------------------
x = sp.Symbol("x", real=True)
print("psi = (0,0,0,0,x)  ->", classify([0, 0, 0, 0, x]))
print("psi = (0,0,1,3,3)  ->", classify([0, 0, 1, 3, 3]))   # branch case
print("psi = (1,2,3,4,5)  ->", classify([1, 2, 3, 4, 5]))
