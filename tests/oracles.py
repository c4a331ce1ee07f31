"""Independent numeric oracles used by the test suite.

Everything here deliberately avoids the symbolic machinery under test:
curvature is reproduced by finite differences of a plain numeric metric
function or connection, the Petrov decision tree is re-implemented over
floating point numbers, and abstract-algebra words are reduced by the
plain one-swap-at-a-time rewriting, and exterior products are the full
alternating sums over every permutation of the labels.  Agreement between
these oracles and the symbolic results is what the cross-checks assert.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import sympy as sp

from tensoralg import scalars
from tensoralg.algebras import MVec
from tensoralg.indicial import IndexExpr, Term, canform


def array_fn(entries, names):
    """Numeric a(x) for a nested list of expressions in the coordinates
    ``names``, evaluated through the independent expression walker."""
    def a(point, constants):
        values = dict(zip(names, point))
        values.update(constants)

        def walk(node):
            if isinstance(node, list):
                return [walk(sub) for sub in node]
            return complex(scalars.evaluate(node, values)).real
        return np.array(walk(entries))
    return a


def metric_fn(ctx):
    """Numeric g(x) for a MetricContext."""
    return array_fn(ctx.lg, [c.name for c in ctx.coords])


def contortion(g, tau):
    """kappa[i][j][k] = -(tau_ij^m g_km + tau_ki^m g_jm + tau_kj^m g_im) / 2."""
    n = len(g)
    return np.array([[[-0.5 * sum(
        tau[i, j, m] * g[k, m] + tau[k, i, m] * g[j, m]
        + tau[k, j, m] * g[i, m] for m in range(n))
        for k in range(n)] for j in range(n)] for i in range(n)])


def nonmetricity_coeffs(g, mu):
    """nu[i][j][k] = (-g_ik mu_j - g_jk mu_i + g_ij mu_k) / 2."""
    n = len(g)
    return np.array([[[0.5 * (-g[i, k] * mu[j] - g[j, k] * mu[i]
                              + g[i, j] * mu[k])
                       for k in range(n)] for j in range(n)]
                     for i in range(n)])


def fd_christoffel2(gfun, x, h=1e-6):
    """Second-kind Christoffel symbols by central differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    dg = np.zeros((n, n, n))  # dg[h][k][l] = d g_kl / d x^h
    for a in range(n):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        dg[a] = (gfun(xp) - gfun(xm)) / (2 * h)
    ginv = np.linalg.inv(gfun(x))
    first = np.zeros((n, n, n))
    for i in range(n):
        for k in range(n):
            for l in range(n):
                first[i, k, l] = (dg[i, k, l] + dg[k, l, i] - dg[l, i, k]) / 2
    return np.einsum("jl,hkl->hkj", ginv, first)


def fd_connection2(gfun, taufun=None, mufun=None):
    """Numeric connection Gamma(x)[h][k][j] = Gamma_hk^j, h the derivative
    index: the Christoffel symbols of ``gfun`` minus the contortion of
    ``taufun`` and the nonmetricity coefficients of ``mufun``, raised."""
    def gamma(x):
        g = gfun(x)
        low = np.zeros((len(g),) * 3)
        if taufun is not None:
            low += contortion(g, taufun(x))
        if mufun is not None:
            low += nonmetricity_coeffs(g, mufun(x))
        return fd_christoffel2(gfun, x) - np.einsum(
            "jl,hkl->hkj", np.linalg.inv(g), low)
    return gamma


def fd_curvature(gamma, x, h=1e-4):
    """Curvature R[h][l][k]^[j] of a numeric connection ``gamma`` by finite
    differences: d_k G_lh^j - d_l G_kh^j + G_km^j G_lh^m - G_lm^j G_kh^m,
    the part of [nabla_k, nabla_l] V^j that multiplies V^h."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    dgam = np.zeros((n, n, n, n))  # dgam[k][a][b][j] = d G_ab^j / dx^k
    for a in range(n):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        dgam[a] = (gamma(xp) - gamma(xm)) / (2 * h)
    gam = gamma(x)
    riem = np.zeros((n, n, n, n))
    for hh, l, k, j in np.ndindex(n, n, n, n):
        riem[hh, l, k, j] = (
            dgam[k, l, hh, j] - dgam[l, k, hh, j]
            + sum(gam[k, m, j] * gam[l, hh, m] - gam[l, m, j] * gam[k, hh, m]
                  for m in range(n)))
    return riem


def fd_riemann(gfun, x, h=1e-4):
    """Riemann tensor R[h][l][k]^[j] of the metric connection of ``gfun``."""
    return fd_curvature(lambda y: fd_christoffel2(gfun, y), x, h)


def weyl(R, g):
    """Weyl tensor W[h][l][k][j], all covariant, from the curvature
    R[h][l][k]^[j] of the metric connection of the numeric metric ``g``:
    the lowered curvature minus its metric and Ricci traces."""
    n = len(g)
    rl = np.einsum("hlkm,mj->hlkj", R, g)
    ric = np.einsum("ijkk->ij", R)
    r = np.einsum("ij,ij->", np.linalg.inv(g), ric)
    gg = np.einsum("hl,jk->hlkj", g, g) - np.einsum("jl,hk->hlkj", g, g)
    gric = (np.einsum("hk,jl->hlkj", g, ric) - np.einsum("jk,hl->hlkj", g, ric)
            - np.einsum("hl,jk->hlkj", g, ric)
            + np.einsum("jl,hk->hlkj", g, ric))
    return rl + r * gg / ((n - 1) * (n - 2)) + gric / (n - 2)


# ---------------------------------------------------------------------------
# abstract-algebra reference


def atensimp_reference(config, element):
    """Words of ``element`` rewritten to non-decreasing index order one
    adjacent swap at a time, each rewritten term pushed on a stack: no
    memo, so a word reached along several paths is rewritten each time."""
    kind = config.algebra_type
    done = {}
    stack = list(element.terms)
    while stack:
        word, coeff = stack.pop()
        rewritten = False
        if kind != "universal":
            for p in range(len(word) - 1):
                a, b = word[p], word[p + 1]
                head, tail = word[:p], word[p + 2:]
                if a == b and kind in ("grassmann", "clifford"):
                    if kind == "clifford":
                        value = config.aform[a - 1][a - 1]
                        if value != 0:
                            stack.append((head + tail, coeff * value))
                    rewritten = True
                    break
                if a > b:
                    swapped = head + (b, a) + tail
                    if kind == "grassmann":
                        stack.append((swapped, -coeff))
                    elif kind == "symmetric":
                        stack.append((swapped, coeff))
                    elif kind == "clifford":
                        # u.v = 2 f_s(u, v) - v.u
                        stack.append((swapped, -coeff))
                        value = config.aform[a - 1][b - 1]
                        if value != 0:
                            stack.append((head + tail, 2 * coeff * value))
                    elif kind == "symplectic":
                        # u.v = v.u + 2 f_a(u, v)
                        stack.append((swapped, coeff))
                        value = config.aform[a - 1][b - 1]
                        if value != 0:
                            stack.append((head + tail, 2 * coeff * value))
                    elif kind == "lie_envelop":
                        # u.v = v.u + 2 v_a(u, v)
                        stack.append((swapped, coeff))
                        entry = int(config.aform[a - 1][b - 1])
                        if entry != 0:
                            sign = 1 if entry > 0 else -1
                            stack.append((head + (abs(entry),) + tail,
                                          2 * sign * coeff))
                    rewritten = True
                    break
        if not rewritten:
            done[word] = done.get(word, sp.S.Zero) + coeff
    return MVec(tuple(done.items()))


# ---------------------------------------------------------------------------
# exterior-calculus reference


def _parity(perm):
    return (-1) ** sum(1 for i, j in itertools.combinations(perm, 2) if i > j)


def wedge_reference(ctx, a, b):
    """canform of a ^ b built as the sum over all (p+q)! permutations of
    the labels of the two forms (sums of single fully covariant objects),
    divided by (p+q)!, or by p!q! with ``ctx.geometric_wedge``."""
    p, q = len(a.terms[0].factors[0].idx), len(b.terms[0].factors[0].idx)
    if ctx.dim is not None and p + q > ctx.dim:
        return IndexExpr()
    norm = sp.Rational(1, math.factorial(p) * math.factorial(q)
                       if ctx.geometric_wedge else math.factorial(p + q))
    out = []
    for ta, tb in itertools.product(a.terms, b.terms):
        (fa,), (fb,) = ta.factors, tb.factors
        labels = [l for l, _ in fa.idx + fb.idx]
        for perm in itertools.permutations(range(p + q)):
            slots = [(labels[i], False) for i in perm]
            out.append(Term(_parity(perm) * ta.coeff * tb.coeff * norm,
                            (replace(fa, idx=tuple(slots[:p])),
                             replace(fb, idx=tuple(slots[p:])))))
    return canform(ctx, IndexExpr(out))


def extdiff_reference(ctx, a, label):
    """canform of d a, with the new index ``label``, built as the sum over
    all (p+1)! permutations of ``label`` and the form's labels, the first
    one taking the derivative slot, divided by (p+1)!, or by p! with
    ``ctx.geometric_wedge``."""
    p = len(a.terms[0].factors[0].idx)
    if ctx.dim is not None and p + 1 > ctx.dim:
        return IndexExpr()
    norm = sp.Rational(1, math.factorial(p if ctx.geometric_wedge else p + 1))
    out = []
    for t in a.terms:
        (f,) = t.factors
        labels = [label] + [l for l, _ in f.idx]
        for perm in itertools.permutations(range(p + 1)):
            slots = tuple((labels[i], False) for i in perm[1:])
            obj = replace(f, idx=slots, deriv=f.deriv + (labels[perm[0]],))
            out.append(Term(_parity(perm) * t.coeff * norm, (obj,)))
    return canform(ctx, IndexExpr(out))


# ---------------------------------------------------------------------------
# numeric Petrov reference


def petrov_reference(psi, tol=1e-9):
    """Petrov type from five complex numbers; an independent float port of
    the decision tree used to cross-check the symbolic classifier."""
    p0, p1, p2, p3, p4 = [complex(p) for p in psi]

    def z(value):
        return abs(value) < tol

    table = (0, "N", "II", "III", "D", "II", "II", 7,
             "II", "I", "I", 11, "II", 13, 14, 15,
             "N", "I", "I", 19, "II", 21, 13, 23,
             "III", 19, 11, 27, 7, 23, 15, 31)
    P = 1
    for weight, p in ((1, p4), (2, p3), (4, p2), (8, p1), (16, p0)):
        if not z(p):
            P += weight
    entry = table[P - 1]
    if entry == 0:
        return "O"
    if isinstance(entry, str):
        return entry
    if entry == 7:
        return "D" if z(p3 ** 2 - 3 * p2 * p4) else "II"
    if entry == 11:
        return "II" if z(27 * p4 ** 2 * p1 + 64 * p3 ** 3) else "I"
    if entry == 13:
        return "II" if z(p1 ** 2 * p4 + 2 * p2 ** 3) else "I"
    if entry == 14:
        return "II" if z(9 * p2 ** 2 - 16 * p1 * p3) else "I"
    if entry == 15:
        return ("II" if z(3 * p2 ** 2 - 4 * p1 * p3)
                and z(p2 * p3 - 3 * p1 * p4) else "I")
    if entry == 19:
        return "II" if z(p0 * p4 ** 3 - 27 * p3 ** 4) else "I"
    if entry == 21:
        return "D" if z(9 * p2 ** 2 - p4 ** 2) else "I"
    if entry == 23:
        i_val = p0 * p4 + 3 * p2 ** 2
        if z(i_val) and z(4 * p2 * p4 - 3 * p3 ** 2):
            return "III"
        j_val = 4 * p2 * p4 - 3 * p3 ** 2
        return ("II" if z(p4 * i_val ** 2
                          - 3 * j_val * (p0 * j_val - 2 * p2 * i_val))
                else "I")
    if entry == 27:
        if z(p0 * p3 ** 2 - p1 ** 2 * p4):
            if z(p0 * p4 + 2 * p1 * p3):
                return "D"
            if z(p0 * p4 - 16 * p1 * p3):
                return "II"
            return "I"
        i_val = p0 * p4 + 2 * p1 * p3
        if z(i_val):
            j_val = -p0 * p3 ** 2 - p1 ** 2 * p4
            if z(j_val):
                return "III"
            if z(i_val ** 3 - 27 * j_val ** 2):
                return "II"
            return "I"
        return "I"
    # entry 31: the general block
    h_val = p0 * p2 - p1 ** 2
    if z(h_val):
        if z(p0 * p3 - p1 * p2):
            return "N" if z(p0 * p4 - p2 ** 2) else "I"
        e_val = p0 * p4 - p2 ** 2
        if z(e_val):
            return "II" if z(37 * p2 ** 2 + 27 * p1 * p3) else "I"
        a_val = p1 * p3 + p2 ** 2
        i_val = e_val - 4 * a_val
        cond = i_val ** 3 - 27 * (p4 * h_val - p3 ** 2 * p0
                                  + p1 * p2 * p3 + p2 * a_val) ** 2
        return "II" if not z(i_val) and z(cond) else "I"
    i_val = p0 * p4 - p2 ** 2 - 4 * (p1 * p3 + p2 ** 2)
    if z(i_val):
        if z(p4 * h_val - p3 ** 2 * p0 + p1 * p2 * p3
             + p2 * (p1 * p3 + p2 ** 2)):
            return "III"
        return "I"
    if z(p0 ** 2 * p3 - p0 * p1 * p2 - 2 * p1 * h_val):
        if z(p0 ** 2 * i_val - 12 * h_val ** 2):
            return "D"
        if z(p0 ** 2 * i_val - 3 * h_val ** 2):
            return "II"
        return "I"
    j_val = p4 * h_val - p3 ** 2 * p0 + p1 * p2 * p3 \
        + p2 * (p1 * p3 + p2 ** 2)
    if not z(j_val) and z(i_val ** 3 - 27 * j_val ** 2):
        return "II"
    return "I"
