"""Derive the curvature of the Schwarzschild metric, step by step.

Run with:  python3 demos/curvature_of_a_metric.py
"""

from tensoralg import setup_metric, render, is_zero

# The exterior Schwarzschild line element, entered as a covariant matrix
# over the chart (t, r, theta, phi) with one constant m (valid for r > 2m).
schw = setup_metric(
    ["t", "r", "theta", "phi"],
    [["(2*m-r)/r", "0", "0", "0"],
     ["0", "r/(r-2*m)", "0", "0"],
     ["0", "0", "r^2", "0"],
     ["0", "0", "0", "r^2*sin(theta)^2"]])

names = [c.name for c in schw.coords]
print("chart:", ", ".join(names))
print("diagonal metric detected:", schw.diagonal)

print("\nnonzero Christoffel symbols of the second kind:")
c2 = schw.christoffel2
for h in range(4):
    for k in range(h, 4):
        for j in range(4):
            if c2[h][k][j] != 0:
                print(f"  Gamma_{{{names[h]} {names[k]}}}^{names[j]} =",
                      render(c2[h][k][j]))

# The vacuum property: every Ricci component reduces to exactly zero.
ricci = schw.ricci
print("\nRicci tensor vanishes identically:",
      all(is_zero(ricci[i][j]) for i in range(4) for j in range(4)))

# Spacetime is curved nonetheless; the Weyl tensor carries the tidal field.
W = schw.weyl
print("a Weyl component, W_trtr =", render(W[0][1][0][1]))
print("scalar curvature:", render(schw.ricci_scalar))

# Einstein tensor: also zero for a vacuum solution.
G = schw.einstein
print("Einstein tensor vanishes:",
      all(is_zero(G[i][j]) for i in range(4) for j in range(4)))
