"""Abstract tensor algebras defined by commutation rules.

An algebra type fixes how products of basis vectors reorder: not at all
(universal), with a sign (grassmann/symmetric), or producing scalar or
vector correction terms whose values live in the ``aform`` matrix
(clifford, symplectic, lie enveloping).  Elements are formal sums of
scalar-weighted words of basis vectors; :func:`atensimp` rewrites every
word to non-decreasing index order.  Those words are a basis, so the
normal form is unique, when each overlap c.b.a, c > b > a, resolves
(Bergman's diamond lemma): for lie_envelop exactly when its bracket
satisfies the Jacobi identity, which :class:`AlgebraConfig` checks.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from itertools import combinations

import sympy as sp

from . import scalars

ALGEBRA_TYPES = ("universal", "grassmann", "clifford", "symmetric",
                 "symplectic", "lie_envelop")


@dataclass(frozen=True)
class AlgebraConfig:
    algebra_type: str
    dims: tuple
    adim: int
    aform: tuple | None  # adim x adim matrix of scalars (or encoded indices)

    def __post_init__(self):
        if self.algebra_type not in ALGEBRA_TYPES:
            raise ValueError(f"unknown algebra type {self.algebra_type!r}")
        if self.algebra_type != "lie_envelop":
            return
        # the bracket is alternating: the triples i < j < k decide Jacobi
        for triple in combinations(range(1, self.adim + 1), 3):
            total = {}
            for a, b, c in (triple, triple[1:] + triple[:1],
                            triple[2:] + triple[:2]):
                for m, s in self._bracket(b, c):
                    for k, t in self._bracket(a, m):
                        total[k] = total.get(k, 0) + s * t
            if any(total.values()):
                raise ValueError("the lie_envelop bracket fails the Jacobi "
                                 "identity on v%d, v%d, v%d" % triple)

    def _bracket(self, a, b):
        """[v_a, v_b]/2 as [(index, sign)], by the rule for a > b."""
        sign, (i, j) = (a > b) - (a < b), sorted((a, b))
        e = sign * int(self.aform[j - 1][i - 1])
        return [(abs(e), 1 if e > 0 else -1)] if e else []


def _perm_sign(i, j, n):
    """Sign of the permutation (i, j, 1 .. without i, j .. n) of (1 .. n)."""
    seq = [i, j] + [k for k in range(1, n + 1) if k not in (i, j)]
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def init_atensor(algebra_type: str, *dims) -> AlgebraConfig:
    """Configure an algebra and preinitialize its ``aform`` matrix.

    Clifford takes up to three counts (positive, degenerate, negative
    dimensions), symplectic up to two (regular, degenerate), lie_envelop
    exactly one; the rule-only types take an optional basis dimension
    (default 2).
    """
    if any(isinstance(d, bool) or not hasattr(type(d), "__index__")
           for d in dims):
        raise ValueError(f"dimension counts must be integers: {dims!r}")
    dims = tuple(map(operator.index, dims))
    if any(d < 0 for d in dims):
        raise ValueError("dimension counts must be nonnegative")
    if algebra_type == "clifford":
        if not 1 <= len(dims) <= 3:
            raise ValueError("clifford takes one to three dimension counts")
        pos, deg, neg = (dims + (0, 0, 0))[:3]
        adim = pos + deg + neg
        diag = [1] * pos + [0] * deg + [-1] * neg
        aform = tuple(tuple(sp.Integer(diag[i]) if i == j else sp.S.Zero
                            for j in range(adim)) for i in range(adim))
    elif algebra_type == "symplectic":
        if not 1 <= len(dims) <= 2:
            raise ValueError("symplectic takes one or two dimension counts")
        reg, deg = (dims + (0, 0))[:2]
        adim = reg + deg
        aform = tuple(tuple(
            sp.S.Zero if i == j or i >= reg or j >= reg
            else sp.Integer(1 if i < j else -1)
            for j in range(adim)) for i in range(adim))
    elif algebra_type == "lie_envelop":
        if len(dims) != 1:
            raise ValueError("lie_envelop takes exactly one dimension count")
        n = dims[0]
        adim = n
        aform = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                if i == j:
                    row.append(sp.S.Zero)
                else:
                    value = ((2 * n + 2 - i - j) % n + 1) * _perm_sign(i, j, n)
                    row.append(sp.Integer(value))
            aform.append(tuple(row))
        aform = tuple(aform)
    elif algebra_type in ("universal", "grassmann", "symmetric"):
        if len(dims) > 1:
            raise ValueError(f"{algebra_type} takes at most one dimension")
        adim = dims[0] if dims else 2
        aform = None
    else:
        raise ValueError(f"unknown algebra type {algebra_type!r}")
    return AlgebraConfig(algebra_type, dims, adim, aform)


def _check_index(config, u):
    if not 1 <= u <= config.adim:
        raise ValueError(f"basis index {u} outside 1..{config.adim}")


def sf(config: AlgebraConfig, u: int, v: int) -> sp.Expr:
    """Symmetric scalar anticommutator value f_s(u, v) (clifford)."""
    if config.algebra_type != "clifford":
        raise ValueError("sf is defined for clifford algebras")
    _check_index(config, u)
    _check_index(config, v)
    return config.aform[u - 1][v - 1]


def af(config: AlgebraConfig, u: int, v: int) -> sp.Expr:
    """Antisymmetric scalar commutator value f_a(u, v) (symplectic)."""
    if config.algebra_type != "symplectic":
        raise ValueError("af is defined for symplectic algebras")
    _check_index(config, u)
    _check_index(config, v)
    return config.aform[u - 1][v - 1]


def av(config: AlgebraConfig, u: int, v: int) -> "MVec":
    """Vector-valued commutator v_a(u, v) (lie enveloping).

    The aform entries encode basis-vector indices: an entry of +-k stands
    for +-v_k, and 0 for the zero vector.
    """
    if config.algebra_type != "lie_envelop":
        raise ValueError("av is defined for lie enveloping algebras")
    _check_index(config, u)
    _check_index(config, v)
    return MVec(((k,), s) for k, s in config._bracket(u, v))


class MVec:
    """Element of an abstract tensor algebra: a formal sum of scalar
    coefficients, symbolic ones in ``scalars.ratsimp`` form, times ordered
    words of basis vectors (the empty word is the scalar unit)."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        collected = {}
        for word, coeff in terms:
            word = tuple(int(i) for i in word)
            coeff = sp.sympify(coeff)
            collected[word] = collected.get(word, sp.S.Zero) + coeff
        self.terms = tuple(sorted(
            ((w, c if c.is_Number else scalars.ratsimp(c))
             for w, c in collected.items() if not scalars.is_zero(c)),
            key=lambda t: (len(t[0]), t[0])))

    @staticmethod
    def zero():
        return MVec()

    @staticmethod
    def unit():
        return MVec((((), sp.S.One),))

    @staticmethod
    def vector(i):
        return MVec((((int(i),), sp.S.One),))

    @staticmethod
    def word(indices, coeff=1):
        return MVec(((tuple(indices), coeff),))

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = _as_mvec(other)
        return MVec(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return MVec(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other):
        return self + (-_as_mvec(other))

    def __rsub__(self, other):
        return _as_mvec(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, MVec):
            out = []
            for w1, c1 in self.terms:
                for w2, c2 in other.terms:
                    out.append((w1 + w2, c1 * c2))
            return MVec(out)
        return MVec(tuple((w, c * sp.sympify(other)) for w, c in self.terms))

    def __rmul__(self, other):
        return MVec(tuple((w, sp.sympify(other) * c) for w, c in self.terms))

    def __eq__(self, other):
        if not isinstance(other, MVec):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for word, coeff in self.terms:
            body = ".".join(f"v{i}" for i in word) if word else "1"
            if coeff == 1:
                piece = body
            elif coeff == -1:
                piece = "-" + body
            elif word:
                text = scalars.render(coeff)
                piece = f"({text})*{body}" if coeff.is_Add else f"{text}*{body}"
            else:
                piece = scalars.render(coeff)
            chunks.append(piece)
        text = chunks[0]
        for piece in chunks[1:]:
            text += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return text

    __repr__ = __str__


def _as_mvec(x):
    if isinstance(x, MVec):
        return x
    return MVec((((), sp.sympify(x)),))


def _rewrite(config, word):
    """The first out-of-order or reducible adjacent pair of ``word``
    rewritten by the algebra's rule: (word, factor) terms whose sum equals
    ``word``, or None when ``word`` is canonical.  A swap gives a
    lexicographically smaller word and a correction a shorter one."""
    kind = config.algebra_type
    if kind == "universal":
        return None
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        head, tail = word[:p], word[p + 2:]
        if a == b and kind in ("grassmann", "clifford"):
            return [(head + tail, config.aform[a - 1][a - 1]
                     if kind == "clifford" else 0)]
        if a > b:
            swapped = head + (b, a) + tail
            if kind in ("grassmann", "symmetric"):
                return [(swapped, -1 if kind == "grassmann" else 1)]
            if kind == "lie_envelop":
                # u.v = v.u + 2 v_a(u, v)
                return [(swapped, 1)] + [(head + (k,) + tail, 2 * s)
                                         for k, s in config._bracket(a, b)]
            # clifford: u.v = 2 f_s(u, v) - v.u; symplectic:
            # u.v = v.u + 2 f_a(u, v)
            return [(swapped, -1 if kind == "clifford" else 1),
                    (head + tail, 2 * config.aform[a - 1][b - 1])]
    return None


def atensimp(config: AlgebraConfig, element: MVec) -> MVec:
    """Rewrite every word to canonical (non-decreasing index) form.

    Out-of-order adjacent pairs are swapped using the algebra's commutation
    rule, emitting scalar or vector correction terms; equal adjacent pairs
    reduce for grassmann (to 0) and clifford (to f_s).  The universal
    algebra has no rules, so its words are only collected.

    Pending words are taken longest first and, among equal lengths,
    lexicographically largest first.  Every rewrite only adds to words
    later in that order, so each word collects its whole coefficient
    before it is rewritten once, and a word whose coefficient sums to 0
    is dropped.  Integers are rewritten as Python ``int``; the closing
    ``MVec`` makes them sympy numbers again.
    """
    element = _as_mvec(element)
    for word, _ in element.terms:
        for i in word:
            _check_index(config, i)
    pending, queue, done = {}, [], []

    def add(word, coeff):
        if word not in pending:
            heapq.heappush(queue, (-len(word), [-i for i in word], word))
        pending[word] = pending.get(word, 0) + coeff

    for word, coeff in element.terms:
        add(word, _int(coeff))
    while queue:
        word = heapq.heappop(queue)[2]
        coeff = pending.pop(word)
        if coeff == 0:
            continue
        terms = _rewrite(config, word)
        if terms is None:
            done.append((word, coeff))
            continue
        for new, factor in terms:
            factor = _int(factor)
            if factor != 0:
                add(new, factor * coeff)
    return MVec(done)


def _int(x):
    return int(x) if isinstance(x, sp.Integer) else x


def commutator(config: AlgebraConfig, x: MVec, y: MVec) -> MVec:
    """atensimp(x.y - y.x)."""
    return atensimp(config, x * y - y * x)


def multiplication_table(config: AlgebraConfig):
    """Pairwise products over the basis {1, v1, v2, v1.v2}, reduced.

    Reproduces the quaternion table for clifford(0, 0, 2).
    """
    if config.adim < 2:
        raise ValueError("the multiplication table needs at least two basis "
                         "vectors")
    basis = [(), (1,), (2,), (1, 2)]
    return [[atensimp(config, MVec.word(r) * MVec.word(c)) for c in basis]
            for r in basis]


# ---------------------------------------------------------------------------
# textual elements (CLI surface)


def parse_mvec(text: str) -> MVec:
    """Parse ``"2*v1.v2 - v2.v1"``-style element text."""
    return _as_mvec(_ElementParser(text).parse())


class _ElementParser(scalars._Parser):
    """The shared grammar over basis vectors ``v<k>`` and integers, with
    ``.`` the word product like ``*``, and without ``^``."""

    products = ("*", "/", ".")
    powers = False

    def atom(self):
        kind, value, start = self.peek()
        if kind in ("int", "("):
            return super().atom()
        if kind != "name" or value[0] != "v" or not value[1:].isdigit():
            raise self.error(f"expected v<k> or an integer, found {value!r}",
                             start)
        self.next()
        return MVec.vector(int(value[1:]))
