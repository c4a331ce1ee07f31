"""Petrov classification of 4-metrics.

The Weyl tensor is computed in coordinates and carried into the
components of an orthonormal Lorentz frame; there the Newman-Penrose null
tetrad has constant components, two nonzero ones per vector, and the five
complex Weyl scalars are contractions of the frame Weyl tensor with it,
left as unnormalized sums.  The algebraic type follows from a decision
tree driven by which scalars (and which derived invariants) vanish.  Every
condition of the tree is a homogeneous polynomial in the scalars, so
multiplying all five by one nonzero function changes no decision.
:func:`classify`, the one place the scalars are normalized, therefore
reads them straight into numerators N_k over their common denominator D
in one kernel field, roots admitted (:meth:`scalars.KernelField.numerators`),
with no element made and nothing cancelled: a common factor of the N_k
and D is nonzero where D is, and a certificate on a multiple of a value
proves the value nonzero.  When D is not zero, the tree runs once on the
N_k with ring arithmetic, and :meth:`scalars.KernelField.vanishes` decides
each condition: zero when its polynomial reduced by the field's relations
is 0, nonzero when that polynomial holds symbols only, the field is
canonical or the interval certificate proves it, and refused otherwise.
Plain numbers and scalars outside every kernel field (``%i``, ``exp``,
...) are decided on expression trees by :func:`scalars.vanishes`: zero
by the normal form, nonzero by the interval certificate.  A refusal
raises :class:`UnclassifiableError`, so a type is decided or refused,
never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import sympy as sp

from .curvature import MetricContext
from .scalars import TREES, UnclassifiableError, exact, kernel_field, ratsimp


class PetrovType(Enum):
    I = "I"
    II = "II"
    III = "III"
    D = "D"
    N = "N"
    O = "O"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class NPTetrad:
    """Null tetrad vectors, components in an orthonormal frame."""

    k: tuple
    l: tuple
    m: tuple
    mbar: tuple


@dataclass(frozen=True)
class WeylScalars:
    psi: tuple  # psi[0] .. psi[4], complex expressions

    def __getitem__(self, i):
        return self.psi[i]


_SIGNATURES = ((1, -1, -1, -1), (-1, 1, 1, 1))

_S = sp.sqrt(2) / 2
_TETRAD = NPTetrad((_S, _S, 0, 0), (_S, -_S, 0, 0),
                   (0, 0, _S, -sp.I * _S), (0, 0, _S, sp.I * _S))


def np_tetrad(ctx: MetricContext) -> NPTetrad:
    """Null tetrad of an orthonormal Lorentz frame, in frame components.

    The frame metric must be diag(1,-1,-1,-1) or diag(-1,1,1,1); every
    frame context is orthonormal for its metric by construction.  k, l
    combine the timelike and first spacelike legs; m, mbar combine the
    remaining two with the imaginary unit.  In frame components these are
    the same constants for every frame.
    """
    if ctx.dim != 4:
        raise ValueError("a Newman-Penrose tetrad needs four dimensions")
    if not ctx.cframe_flag:
        raise ValueError("this context has no frame base")
    eta = ctx.lfg
    if not (all(eta[a][b] == 0 for a in range(4) for b in range(4) if a != b)
            and tuple(eta[a][a] for a in range(4)) in _SIGNATURES):
        raise ValueError("frame metric must be diag(-1,1,1,1) or "
                         "diag(1,-1,-1,-1)")
    return _TETRAD


def weyl_scalars(weyl, tetrad: NPTetrad) -> WeylScalars:
    """The five complex Weyl scalars as tetrad contractions of the Weyl
    tensor (standard Newman-Penrose convention), both in frame components.

    The curvature arrays keep the transported index first and the
    antisymmetric derivative pair in the middle slots; the Newman-Penrose
    contractions are written for the pairwise arrangement W_{abcd} =
    weyl[c][a][b][d], which is how the array is read here.  Only the
    nonzero tetrad components enter, and each scalar is returned as the
    sum of its products, unnormalized: :func:`classify` normalizes it.
    """
    if len(weyl) != 4:
        raise ValueError("the Weyl array must be four dimensional")
    k, l, m, mb = ([(i, x) for i, x in enumerate(v) if x != 0]
                   for v in (tetrad.k, tetrad.l, tetrad.m, tetrad.mbar))

    def contract4(va, vb, vc, vd):
        return sp.Add(*(weyl[p][q][r][s] * x * y * z * w
                        for q, x in va for r, y in vb
                        for p, z in vc for s, w in vd))

    return WeylScalars((
        contract4(k, m, k, m),
        contract4(k, l, k, m),
        contract4(k, m, mb, l),
        contract4(k, l, mb, l),
        contract4(mb, l, mb, l),
    ))


def invariant_I(psi) -> sp.Expr:
    """I = psi0 psi4 - 4 psi1 psi3 + 3 psi2^2."""
    return ratsimp(psi[0] * psi[4] - 4 * psi[1] * psi[3] + 3 * psi[2] ** 2)


def invariant_J(psi) -> sp.Expr:
    """J = det [[psi0, psi1, psi2], [psi1, psi2, psi3], [psi2, psi3, psi4]]."""
    return ratsimp(
        psi[0] * (psi[2] * psi[4] - psi[3] ** 2)
        - psi[1] * (psi[1] * psi[4] - psi[2] * psi[3])
        + psi[2] * (psi[1] * psi[3] - psi[2] ** 2))


# Lookup table indexed by the zero pattern of the Weyl scalars: strings are
# final types, positive integers name the branch that decides the type.
_TABLE = (0, "N", "II", "III", "D", "II", "II", 7,
          "II", "I", "I", 11, "II", 13, 14, 15,
          "N", "I", "I", 19, "II", 21, 13, 23,
          "III", 19, 11, 27, 7, 23, 15, 31)


def classify(psi) -> PetrovType:
    """Petrov type from the Weyl scalars.

    Direct table hit on the zero pattern where possible; otherwise the
    numbered branch conditions decide, computing auxiliary invariants only
    as needed.  Scalars that are not all numbers are read straight into
    numerators over their common denominator D in one kernel field, roots
    admitted, each shared subexpression once and no element made, and the
    tree runs on the numerators (see the module docstring); outside every
    field it runs on the expressions.  ValueError when D is zero or a
    scalar divides by zero in the field, or a scalar is not finite and
    exact (a float, ``nan``, ``oo``): no rounding decides a type.
    """
    if isinstance(psi, WeylScalars):
        psi = psi.psi
    psi = [sp.sympify(p) for p in psi]
    if len(psi) != 5:
        raise ValueError("expected five Weyl scalars")
    # plain numbers are decided at once by the trees; a kernel field holds
    # no float or undefined value, so only the trees need the check
    K = None if all(p.is_Number for p in psi) else kernel_field(psi)
    if K is None:
        return _decide([exact(p, f"Weyl scalar psi{k}")
                        for k, p in enumerate(psi)], TREES)
    try:
        den, numerators = K.numerators(psi)
    except ZeroDivisionError:
        den = K.zero
    if K.vanishes(den):
        raise ValueError("the Weyl scalars divide by zero")
    return _decide(numerators, K)


def _decide(psi, dom):
    """The decision tree on the five values ``psi`` of the domain ``dom``,
    whose ``vanishes`` decides zero and ``ratsimp`` normalizes."""
    P = 1
    for weight, index in ((1, 4), (2, 3), (4, 2), (8, 1), (16, 0)):
        if not dom.vanishes(psi[index]):
            P += weight
    entry = _TABLE[P - 1]
    if entry == 0:
        return PetrovType.O
    if isinstance(entry, str):
        return PetrovType(entry)
    return _branch(entry, psi, dom)


def _branch(case, psi, dom):
    p0, p1, p2, p3, p4 = psi
    if case == 7:
        return (PetrovType.D if dom.vanishes(p3 ** 2 - 3 * p2 * p4)
                else PetrovType.II)
    if case == 11:
        return (PetrovType.II if dom.vanishes(27 * p4 ** 2 * p1 + 64 * p3 ** 3)
                else PetrovType.I)
    if case == 13:
        return (PetrovType.II if dom.vanishes(p1 ** 2 * p4 + 2 * p2 ** 3)
                else PetrovType.I)
    if case == 14:
        return (PetrovType.II if dom.vanishes(9 * p2 ** 2 - 16 * p1 * p3)
                else PetrovType.I)
    if case == 15:
        return (PetrovType.II
                if dom.vanishes(3 * p2 ** 2 - 4 * p1 * p3)
                and dom.vanishes(p2 * p3 - 3 * p1 * p4)
                else PetrovType.I)
    if case == 19:
        return (PetrovType.II if dom.vanishes(p0 * p4 ** 3 - 27 * p3 ** 4)
                else PetrovType.I)
    if case == 21:
        # The source writes this condition without "=0"; it is ported as a
        # zero test like every sibling branch.
        return (PetrovType.D if dom.vanishes(9 * p2 ** 2 - p4 ** 2)
                else PetrovType.I)
    if case == 23:
        inv_i = dom.ratsimp(p0 * p4 + 3 * p2 ** 2)
        if dom.vanishes(inv_i) and dom.vanishes(4 * p2 * p4 - 3 * p3 ** 2):
            return PetrovType.III
        inv_j = dom.ratsimp(4 * p2 * p4 - 3 * p3 ** 2)
        cond = p4 * inv_i ** 2 - 3 * inv_j * (p0 * inv_j - 2 * p2 * inv_i)
        return PetrovType.II if dom.vanishes(cond) else PetrovType.I
    if case == 27:
        if dom.vanishes(p0 * p3 ** 2 - p1 ** 2 * p4):
            if dom.vanishes(p0 * p4 + 2 * p1 * p3):
                return PetrovType.D
            if dom.vanishes(p0 * p4 - 16 * p1 * p3):
                return PetrovType.II
            return PetrovType.I
        inv_i = dom.ratsimp(p0 * p4 + 2 * p1 * p3)
        if dom.vanishes(inv_i):
            inv_j = dom.ratsimp(-p0 * p3 ** 2 - p1 ** 2 * p4)
            if dom.vanishes(inv_j):
                return PetrovType.III
            if dom.vanishes(inv_i ** 3 - 27 * inv_j ** 2):
                return PetrovType.II
            return PetrovType.I
        return PetrovType.I
    if case == 31:
        return _general_branch(psi, dom)
    raise AssertionError(f"unknown branch {case}")


def _general_branch(psi, dom):
    p0, p1, p2, p3, p4 = psi
    h = dom.ratsimp(p0 * p2 - p1 ** 2)
    if dom.vanishes(h):
        if dom.vanishes(p0 * p3 - p1 * p2):
            if dom.vanishes(p0 * p4 - p2 ** 2):
                return PetrovType.N
            return PetrovType.I
        e = dom.ratsimp(p0 * p4 - p2 ** 2)
        if dom.vanishes(e):
            if dom.vanishes(37 * p2 ** 2 + 27 * p1 * p3):
                return PetrovType.II
            return PetrovType.I
        a = dom.ratsimp(p1 * p3 + p2 ** 2)
        inv_i = dom.ratsimp(e - 4 * a)
        cond = inv_i ** 3 - 27 * (p4 * h - p3 ** 2 * p0
                                  + p1 * p2 * p3 + p2 * a) ** 2
        if not dom.vanishes(inv_i) and dom.vanishes(cond):
            return PetrovType.II
        return PetrovType.I
    inv_i = dom.ratsimp(p0 * p4 - p2 ** 2 - 4 * (p1 * p3 + p2 ** 2))
    if dom.vanishes(inv_i):
        if dom.vanishes(p4 * h - p3 ** 2 * p0 + p1 * p2 * p3
                         + p2 * (p1 * p3 + p2 ** 2)):
            return PetrovType.III
        return PetrovType.I
    if dom.vanishes(p0 ** 2 * p3 - p0 * p1 * p2 - 2 * p1 * h):
        if dom.vanishes(p0 ** 2 * inv_i - 12 * h ** 2):
            return PetrovType.D
        if dom.vanishes(p0 ** 2 * inv_i - 3 * h ** 2):
            return PetrovType.II
        return PetrovType.I
    inv_j = dom.ratsimp(p4 * h - p3 ** 2 * p0 + p1 * p2 * p3
                        + p2 * (p1 * p3 + p2 ** 2))
    if not dom.vanishes(inv_j) and dom.vanishes(inv_i ** 3 - 27 * inv_j ** 2):
        return PetrovType.II
    return PetrovType.I


def petrov_of_metric(ctx: MetricContext) -> PetrovType:
    """Classify a 4-metric given with an orthonormal Lorentz frame.

    Both frame-metric conventions diag(-1,1,1,1) and diag(1,-1,-1,-1) are
    accepted.  Negating the metric negates the lowered Weyl tensor and so
    every Weyl scalar; the decision tree only asks whether homogeneous
    polynomials in the scalars vanish, so the type does not depend on that
    sign.  :func:`np_tetrad` checks the frame before any curvature is
    computed; the Weyl tensor is then the coordinate one in frame
    components, and no rotation coefficients are computed.
    """
    tetrad = np_tetrad(ctx)
    return classify(weyl_scalars(ctx.weyl_frame, tetrad))
