"""Checks that share no code with the package under test.

Text is evaluated by Python's own parser over mpmath numbers, so a rendered
component is judged by its value, never by its spelling.  The Petrov
reference is a port of the decision tree to plain numbers; the remaining
checks are algebraic identities of the results (idempotence, invariance,
symmetry).
"""

from __future__ import annotations

import re

import mpmath

mpmath.mp.dps = 40


class CheckFailed(Exception):
    """A job's output contradicts its oracle; the message is the reason."""


_FUNCS = {name: getattr(mpmath, name) for name in
          ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")}
_FUNCS["abs"] = abs
_INT = re.compile(r"(?<![\w.])(\d+)")


def value(text, point):
    """Value of expression text (``^`` powers, ``%pi``, ``%i``) at ``point``,
    a mapping of symbol names to mpmath numbers."""
    code = _INT.sub(r"_n(\1)", text.replace("^", "**").replace("%pi", "_pi")
                    .replace("%i", "_i"))
    scope = dict(_FUNCS, _n=mpmath.mpf, _pi=mpmath.pi, _i=mpmath.mpc(0, 1))
    scope.update(point)
    return eval(code, {"__builtins__": {}}, scope)


def christoffel2(metric_rows, coords, point, h=mpmath.mpf("1e-12")):
    """Second-kind Christoffel symbols G[h][k][j] of a metric given as text,
    by central differences at ``point``."""
    n = len(coords)

    def g(at):
        return mpmath.matrix([[value(metric_rows[i][j], at) for j in range(n)]
                              for i in range(n)])

    dg = []
    for a in range(n):
        plus, minus = dict(point), dict(point)
        plus[coords[a]] += h
        minus[coords[a]] -= h
        dg.append((g(plus) - g(minus)) / (2 * h))
    ginv = g(point) ** -1
    return [[[sum(ginv[j, l] * (dg[hh][k, l] + dg[k][l, hh] - dg[l][hh, k]) / 2
                  for l in range(n)) for j in range(n)] for k in range(n)]
            for hh in range(n)]


def check_christoffel2(components, metric_rows, coords, point):
    """``components`` maps "x,y,z" index names to text; omitted ones are 0."""
    n = len(coords)
    ref = christoffel2(metric_rows, coords, point)
    scale = max(1, max(abs(ref[a][b][c]) for a in range(n) for b in range(n)
                       for c in range(n)))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                key = ",".join((coords[a], coords[b], coords[c]))
                got = value(components[key], point) if key in components else 0
                if abs(got - ref[a][b][c]) > mpmath.mpf("1e-15") * scale:
                    raise CheckFailed(
                        f"christoffel2[{key}] is {mpmath.nstr(got, 8)}, "
                        f"finite differences give "
                        f"{mpmath.nstr(ref[a][b][c], 8)}")


def check_vanishes(name, components):
    if components:
        first = sorted(components)[0]
        raise CheckFailed(f"{name} has {len(components)} nonzero components, "
                          f"e.g. {name}[{first}] = {components[first]}")


# ---------------------------------------------------------------------------
# Petrov reference


_TABLE = (0, "N", "II", "III", "D", "II", "II", 7,
          "II", "I", "I", 11, "II", 13, 14, 15,
          "N", "I", "I", 19, "II", 21, 13, 23,
          "III", 19, 11, 27, 7, 23, 15, 31)


def petrov_type(psi, tol=1e-9):
    """Petrov type of five numbers by the decision tree.  Given Fractions,
    every zero test is exact; in floating point, a tuple solved onto a
    branch condition had values near 1e8 and missed the tolerance."""
    p0, p1, p2, p3, p4 = psi

    def z(x):
        return abs(x) < tol

    pattern = sum(w for w, p in ((1, p4), (2, p3), (4, p2), (8, p1), (16, p0))
                  if not z(p))
    entry = _TABLE[pattern]
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
        i = p0 * p4 + 3 * p2 ** 2
        j = 4 * p2 * p4 - 3 * p3 ** 2
        if z(i) and z(j):
            return "III"
        return "II" if z(p4 * i ** 2 - 3 * j * (p0 * j - 2 * p2 * i)) else "I"
    if entry == 27:
        if z(p0 * p3 ** 2 - p1 ** 2 * p4):
            if z(p0 * p4 + 2 * p1 * p3):
                return "D"
            return "II" if z(p0 * p4 - 16 * p1 * p3) else "I"
        i = p0 * p4 + 2 * p1 * p3
        if not z(i):
            return "I"
        j = -p0 * p3 ** 2 - p1 ** 2 * p4
        if z(j):
            return "III"
        return "II" if z(i ** 3 - 27 * j ** 2) else "I"
    h = p0 * p2 - p1 ** 2
    if z(h):
        if z(p0 * p3 - p1 * p2):
            return "N" if z(p0 * p4 - p2 ** 2) else "I"
        e = p0 * p4 - p2 ** 2
        if z(e):
            return "II" if z(37 * p2 ** 2 + 27 * p1 * p3) else "I"
        a = p1 * p3 + p2 ** 2
        i = e - 4 * a
        j = p4 * h - p3 ** 2 * p0 + p1 * p2 * p3 + p2 * a
        cond = i ** 3 - 27 * j ** 2
        return "II" if not z(i) and z(cond) else "I"
    i = p0 * p4 - p2 ** 2 - 4 * (p1 * p3 + p2 ** 2)
    j = p4 * h - p3 ** 2 * p0 + p1 * p2 * p3 + p2 * (p1 * p3 + p2 ** 2)
    if z(i):
        return "III" if z(j) else "I"
    if z(p0 ** 2 * p3 - p0 * p1 * p2 - 2 * p1 * h):
        if z(p0 ** 2 * i - 12 * h ** 2):
            return "D"
        return "II" if z(p0 ** 2 * i - 3 * h ** 2) else "I"
    return "II" if not z(j) and z(i ** 3 - 27 * j ** 2) else "I"


# ---------------------------------------------------------------------------
# algebras


#: clifford(0,0,2) over the basis 1, v1, v2, v1.v2 is the quaternion algebra
#: 1, i, j, k; entries are (sign, basis index).
QUATERNIONS = (((1, 0), (1, 1), (1, 2), (1, 3)),
               ((1, 1), (-1, 0), (1, 3), (-1, 2)),
               ((1, 2), (-1, 3), (-1, 0), (1, 1)),
               ((1, 3), (1, 2), (-1, 1), (-1, 0)))
QUATERNION_BASIS = ((), (1,), (2,), (1, 2))


def check_quaternion_table(table):
    for r, row in enumerate(QUATERNIONS):
        for c, (sign, k) in enumerate(row):
            terms = [(tuple(w), int(x)) for w, x in table[r][c].terms]
            if terms != [(QUATERNION_BASIS[k], sign)]:
                raise CheckFailed(f"clifford(0,0,2) table[{r}][{c}] is "
                                  f"{table[r][c]}, quaternions give "
                                  f"{'-' if sign < 0 else ''}e{k}")


def check_canonical_words(element):
    for word, _ in element.terms:
        if any(a > b for a, b in zip(word, word[1:])):
            raise CheckFailed(f"word {word} is not non-decreasing")
