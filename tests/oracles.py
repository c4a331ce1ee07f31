"""Independent numeric oracles used by the test suite.

Everything here deliberately avoids the symbolic machinery under test:
curvature is reproduced by finite differences of a plain numeric metric
function or connection, the Petrov decision tree is re-implemented over
floating point numbers, and abstract-algebra words are reduced by the
plain one-swap-at-a-time rewriting, and exterior products are the full
alternating sums over every permutation of the labels.  Agreement between
these oracles and the symbolic results is what the cross-checks assert.

:func:`indicial_ops_golden` is no oracle but a record: the printed results
of seeded index operations and algebra words, compared byte for byte with
``tests/golden/indicial_ops.txt`` so that a change of any printed form shows.
:data:`CLI_GOLDENS` records the commands whose output the JSON files under
``tests/golden`` hold, and :func:`write_cli_goldens` rewrites them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import sympy as sp

from tensoralg import algebras, catalog, cli, indicial, scalars
from tensoralg.algebras import MVec
from tensoralg.indicial import (IndexExpr, Term, TensorContext, anti_group,
                                canform, iobj, sym_group)


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


def kretschmann(ctx):
    """(K, R_abcd R^abcd) of a frame context whose frame metric eta is
    diagonal with entries +-1, in the scalar domain K of its frame stages:
    one ``K.dot`` over the ``riemann_frame`` record R[h][l][k][j], each
    component times its partner across the antisymmetric slots l, k,
    negated and signed by eta.  Reading R_hlkj = -R_hklj from the array
    makes a wrong sign in either half of an antisymmetric pair change the
    value, which plain squares would not."""
    field, R = ctx.printable("riemann_frame")
    K = field or scalars.TREES
    eta = [int(ctx.lfg[a][a]) for a in range(ctx.dim)]
    xs, ys = [], []
    for h, l, k, j in itertools.product(range(ctx.dim), repeat=4):
        xs.append(R[h][l][k][j])
        ys.append(-eta[h] * eta[l] * eta[k] * eta[j] * R[h][k][l][j])
    return K, K.dot(xs, ys)


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
# canonical-form reference


def canform_reference(ctx, e):
    """canform by plain repetition: each term repeats canform's three steps
    (sort slots inside the declared groups, sort factors stably by
    ``sort_key``, rename dummies onto fresh generated labels in order of
    appearance), at most 8 times, until a pass changes nothing; then equal
    products merge, ordered by their factors' sort keys."""
    merged, shapes = {}, {}
    for term in e.terms:
        coeff, factors = term.coeff, list(term.factors)
        labels = [l for f in factors for l, _ in f.labels()]
        dummies = {l for l in labels if labels.count(l) == 2}
        names = indicial._fresh_labels(set(labels) - dummies, len(dummies))
        for _ in range(8):
            old, factors = factors, []
            for f in old:
                groups = indicial._symmetry_groups(ctx, f, shapes)
                f, sign = indicial._apply_symmetries(f, groups)
                coeff *= sign
                factors.append(f)
            if coeff == 0:
                break
            factors.sort(key=lambda f: f.sort_key())
            seen = [l for f in factors for l, _ in f.labels() if l in dummies]
            factors = [f.rename(dict(zip(dict.fromkeys(seen), names)))
                       for f in factors]
            dummies = set(names)
            if factors == old:
                break
        key = tuple(factors)
        merged[key] = merged.get(key, 0) + coeff
    out = []
    for key in sorted(merged, key=lambda fs: [f.sort_key() for f in fs]):
        coeff = scalars.ratsimp(merged[key])
        if not scalars.is_zero(coeff):
            out.append(Term(coeff, key))
    return IndexExpr(out)


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


# ---------------------------------------------------------------------------
# golden record of index operations and algebra words

# name: slot count; W and X are 1-forms, A a 2-form, F a 3-form
GOLDEN_TENSORS = {"S": 2, "A": 2, "F": 3, "R": 4, "M": 2, "W": 1, "X": 1,
                  "g": 2}
GOLDEN_FORMS = {1: ("W", "X"), 2: ("A",), 3: ("F",)}
GOLDEN_LABELS = "abcdefhijklmnpqrstuvwxy"
GOLDEN_ALGEBRAS = (("clifford", 2, 0, 2), ("grassmann", 4), ("symplectic", 4),
                   ("symmetric", 3), ("lie_envelop", 3))


def golden_context():
    """dim 4; S symmetric, A, F and R antisymmetric (R in each pair), with
    split declarations that legacy objects of A and R match; vector V."""
    ctx = TensorContext(dim=4)
    ctx.decsym("S", 2, 0, [sym_group()])
    ctx.decsym("A", 2, 0, [anti_group()])
    ctx.decsym("A", 0, 2, (), [anti_group()])
    ctx.decsym("F", 3, 0, [anti_group()])
    ctx.decsym("R", 4, 0, [anti_group(1, 2), anti_group(3, 4)])
    ctx.decsym("R", 2, 2, [anti_group()], [anti_group()])
    ctx.declare_vector("V")
    return ctx


def _golden_coeff(rng):
    return rng.choice((sp.Integer(-3), sp.S.NegativeOne, sp.Rational(1, 2),
                       sp.Integer(2), sp.Rational(5, 3), sp.Symbol("x"),
                       1 - sp.Symbol("x")))


def _golden_factors(rng, free, names):
    """Objects of ``names`` carrying the (label, up) pairs ``free`` and
    dummy pairs on their other slots; objects with a raised slot are legacy
    (covariant list, contravariant list) about one time in three."""
    slots = [(k, p) for k, n in enumerate(names)
             for p in range(GOLDEN_TENSORS[n])]
    rng.shuffle(slots)
    taken = {l for l, _ in free}
    pool = iter(rng.sample([l for l in GOLDEN_LABELS if l not in taken],
                           len(slots) // 2))
    assign = dict(zip(slots, free))
    rest = slots[len(free):]
    for s, t in zip(rest[::2], rest[1::2]):
        label, up = next(pool), rng.random() < 0.5
        assign[s], assign[t] = (label, up), (label, not up)
    factors = []
    for k, n in enumerate(names):
        mine = [assign[(k, p)] for p in range(GOLDEN_TENSORS[n])]
        if any(up for _, up in mine) and rng.random() < 0.3:
            factors.append(iobj(n, [l for l, up in mine if not up],
                                [l for l, up in mine if up]))
        else:
            factors.append(iobj(n, [("-" if up else "") + l
                                    for l, up in mine]))
    return factors


def _golden_names(rng, nfactors, nfree, pool):
    """``nfactors`` names from ``pool`` with room for ``nfree`` free slots
    and pairs on the rest, or None after 50 draws."""
    for _ in range(50):
        names = rng.choices(pool, k=nfactors)
        extra = sum(GOLDEN_TENSORS[n] for n in names) - nfree
        if extra >= 0 and extra % 2 == 0:
            return names
    return None


def _golden_product(rng, nfactors, pool=sorted(GOLDEN_TENSORS)):
    """A product, or a sum of two products with the same free indices: a
    second random product, or the first with its dummies renamed."""
    names = rng.choices(pool, k=nfactors)
    total = sum(GOLDEN_TENSORS[n] for n in names)
    nfree = rng.choice([n for n in range(4)
                        if n <= total and (total - n) % 2 == 0])
    free = [(l, rng.random() < 0.5)
            for l in rng.sample(GOLDEN_LABELS, nfree)]
    first = _golden_factors(rng, free, names)
    e = IndexExpr.of(*first, coeff=_golden_coeff(rng))
    roll = rng.random()
    if roll < 0.25:
        names = _golden_names(rng, rng.randint(1, nfactors), nfree, pool)
        if names is not None:
            second = _golden_factors(rng, free, names)
            e = e + IndexExpr.of(*second, coeff=_golden_coeff(rng))
    elif roll < 0.4:
        dummies = sorted(e.all_labels() - {l for l, _ in free})
        fresh = rng.sample([l for l in GOLDEN_LABELS
                            if l not in e.all_labels()], len(dummies))
        mapping = dict(zip(dummies, fresh))
        coeff = rng.choice((-e.terms[0].coeff, _golden_coeff(rng)))
        e = e + IndexExpr.of(*(f.rename(mapping) for f in first),
                             coeff=coeff)
    return e


def _golden_form(rng, degree, labels):
    out = IndexExpr()
    names = GOLDEN_FORMS[degree]
    for name in rng.sample(names, rng.randint(1, len(names))):
        out = out + IndexExpr.of(iobj(name, labels), coeff=_golden_coeff(rng))
    return out


def _golden_word_sum(rng, adim):
    out = MVec.zero()
    for _ in range(rng.randint(1, 2)):
        word = [rng.randint(1, adim) for _ in range(rng.randint(2, 6))]
        out = out + MVec.word(word, rng.choice((1, -2, 3, sp.Symbol("x"))))
    return out


def indicial_ops_golden(seed=18):
    """The text of ``tests/golden/indicial_ops.txt``: one line per seeded
    operation, ``op: input -> output`` (or the error it raised), over
    ``canform``, ``contract``, ``covdiff`` + ``expand_christoffels`` +
    ``contract``, ``liediff``, ``wedge``, ``extdiff``, ``inner`` and
    ``atensimp``.  Rewrite the file with

        PYTHONPATH=src:tests python -c "import oracles, sys; \\
            sys.stdout.write(oracles.indicial_ops_golden())" \\
            > tests/golden/indicial_ops.txt
    """
    rng = random.Random(seed)
    ctx = golden_context()
    lines = []

    def record(op, given, run):
        try:
            out = str(run())
        except (ValueError, KeyError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        lines.append(f"{op}: {given} -> {out}")

    for i in range(60):
        e = _golden_product(rng, 1 + i % 4)
        record("canform", e, lambda: indicial.canform(ctx, e))
        record("contract", e, lambda: indicial.contract(ctx, e))
    for i in range(30):
        e = _golden_product(rng, 1 + i % 2)
        record("liediff V", e, lambda: indicial.liediff(ctx, e, "V"))
    for i in range(30):
        e = _golden_product(rng, 1 + i % 2, ("M", "S", "W", "X", "g"))
        record("covdiff z, expand, contract", e,
               lambda: indicial.contract(ctx, indicial.expand_christoffels(
                   ctx, indicial.covdiff(ctx, e, "z"))))
    for i in range(40):
        p, q = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3))[i % 7]
        labels = rng.sample(GOLDEN_LABELS, p + q)
        a = _golden_form(rng, p, labels[:p])
        b = _golden_form(rng, q, labels[p:])
        record("wedge", f"({a}) ^ ({b})", lambda: indicial.wedge(ctx, a, b))
    for i in range(25):
        p = 1 + i % 3
        a = _golden_form(rng, p, rng.sample(GOLDEN_LABELS, p))
        record("extdiff z", a, lambda: indicial.extdiff(ctx, a, "z"))
    for i in range(25):
        p = 1 + i % 3
        a = _golden_form(rng, p, rng.sample(GOLDEN_LABELS, p))
        record("inner V", a, lambda: indicial.inner(ctx, "V", a))
    for kind, *dims in GOLDEN_ALGEBRAS:
        config = algebras.init_atensor(kind, *dims)
        for _ in range(12):
            x = _golden_word_sum(rng, config.adim)
            record(f"atensimp {kind}", x,
                   lambda: algebras.atensimp(config, x))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# golden records of the command line

#: Frames whose frame stages stay on expression trees: the spheroidal ones,
#: which hold abs.
TREE_FRAMES = ("oblatespheroidal", "oblatespheroidalsqrt", "prolatespheroidal",
               "prolatespheroidalsqrt")

#: Frames whose frame stages compute in a kernel field (Kerr's and the
#: Schwarzschild pair's with roots): every other entry with a frame base.
FIELD_FRAMES = tuple(name for name in catalog.list_entries()
                     if catalog.entry(name).fri is not None
                     and name not in TREE_FRAMES)

#: File name under ``tests/golden`` -> the ``tensoralg`` arguments whose
#: output it holds.
CLI_GOLDENS = {
    **{f"{name}.json": ("compute", "--catalog", name, "--tensors", "all",
                        "--format", "json")
       for name in catalog.list_entries()},
    **{f"{name}_frame.json": ("compute", "--catalog", name, "--frame",
                              "--tensors", "all", "--format", "json")
       for name in TREE_FRAMES + FIELD_FRAMES},
    **{f"{name}_rotation.json": ("compute", "--catalog", name, "--frame",
                                 "--tensors", "rotation_coeffs", "--format",
                                 "json")
       for name in ("conical", "toroidal")},
}


def cli_output(argv):
    """What ``cli.main(argv)`` prints on standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


def write_cli_goldens(names=tuple(CLI_GOLDENS)):
    """Rewrite the golden files ``names`` (all by default) from the output
    of their :data:`CLI_GOLDENS` commands:

        PYTHONPATH=src:tests python -c "import oracles; \\
            oracles.write_cli_goldens()"
    """
    folder = Path(__file__).parent / "golden"
    for name in names:
        (folder / name).write_text(cli_output(CLI_GOLDENS[name]),
                                   encoding="utf-8")
