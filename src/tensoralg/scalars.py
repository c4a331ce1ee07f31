"""Scalar symbolic kernel.

Everything downstream (curvature components, Petrov invariants, tensor
coefficients) is built from the expressions handled here: exact rationals,
symbols, the imaginary unit, and a fixed set of elementary functions.  The
heavy lifting of polynomial arithmetic is delegated to sympy; this module
pins down the grammar, the rational normal form, the limited trigonometric
closure, and the zero decision of the package, one test per scalar domain,
:func:`vanishes` and :meth:`KernelField.vanishes`: zero when the normal
form is 0, nonzero when an interval enclosure that excludes 0 at a
rational point (:func:`certify_nonzero`) or, in a field, the normal form
proves it, and otherwise refused, since zero equivalence of elementary
expressions is undecidable in general (Richardson, 1968).  No float
threshold enters a decision.

As in Maxima's ``ratsimp``, the normal form lives in a field of rational
functions, a :class:`KernelField`: its generators are symbols,
``sin``/``cos``/``sinh``/``cosh`` applications, each sin(u) with cos(u)
and each sinh(u) with cosh(u), so it is closed under d/dx, and square
roots of rational functions, each with its known square, two roots of one
square included, while the normal form stays canonical.  Like Maxima's
canonical rational expressions, its elements are ratios of polynomials
with integer coefficients, and an expression enters with one cancel.
A field is made from its input alone, by :func:`kernel_field`: a symbol
in no entry has zero derivative and changes no normal form.  Input enters
it, roots admitted, in one of two readings.  :func:`in_field` makes
elements, for a single expression as for the inputs of a curvature
context.  :meth:`KernelField.numerators` makes none: it writes expressions
as numerators over one common denominator, uncancelled, for a decision
that is homogeneous in them, as the Petrov type is in the Weyl scalars.
A context whose metric, torsion and nonmetricity lie in one (every catalog
metric does) computes every coordinate stage on its elements, and a frame
context whose frame lies in one its frame stages too:
:meth:`KernelField.diff` is a derivation over the generators,
:meth:`KernelField.reduce_trig` the reduction by the known squares as a
ring operation, and an element becomes an expression once, through the
form :func:`ratsimp` returns.  Other input (``exp``, ``log``, ``tan``,
``tanh``, ``abs``, ``%i``, roots whose squares are dependent but not
equal) keeps expression trees and the functions below, through
:data:`TREES`; :func:`ratsimp` and :func:`trigsimp` read no root.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import itemgetter

import sympy as sp
from mpmath.ctx_iv import MPIntervalContext
from sympy.polys.fields import FracField
from sympy.polys.polyutils import _gens_order, _max_order, _re_gen
from sympy.printing.str import StrPrinter

Expr = sp.Expr

#: What a refused zero test asks, unless its caller names the claim.
_QUESTION = "whether this expression vanishes"

# Functions admitted by the expression grammar.  Anything else is rejected
# at parse time; derivatives of these stay within sympy's elementary set.
FUNCTIONS = {
    "sin": sp.sin,
    "cos": sp.cos,
    "tan": sp.tan,
    "sinh": sp.sinh,
    "cosh": sp.cosh,
    "tanh": sp.tanh,
    "exp": sp.exp,
    "log": sp.log,
    "sqrt": sp.sqrt,
    "abs": sp.Abs,
}

#: Opaque circle constant; deliberately not sympy's pi so that nothing
#: auto-evaluates (sin(%pi) stays as written).
PI = sp.Symbol("%pi", real=True, positive=True)

_symbol_cache: dict[str, sp.Symbol] = {"%pi": PI}


class ExprSyntaxError(ValueError):
    """Raised for malformed input text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def sym(name: str) -> sp.Symbol:
    """Return the canonical symbol for ``name``.

    All package symbols are real; creating them through one helper keeps
    sympy assumptions consistent (two symbols with the same name but
    different assumptions would not compare equal).
    """
    if name not in _symbol_cache:
        _symbol_cache[name] = sp.Symbol(name, real=True)
    return _symbol_cache[name]


def syms(names: str) -> tuple[sp.Symbol, ...]:
    return tuple(sym(n) for n in names.replace(",", " ").split())


# ---------------------------------------------------------------------------
# parsing


_OPERATORS = set("+-*/^(),[].")

#: Values a function may give at a singular point; each is refused.
_UNDEFINED = frozenset((sp.zoo, sp.oo, -sp.oo, sp.nan))


def _tokenize(text, error):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and (text[j].isalpha() or text[j] == "."):
                raise error(f"malformed number {text[i:j + 1]!r}", i)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c == "%":
            for word in ("%pi", "%i"):
                if text.startswith(word, i):
                    tokens.append((word, word, i))
                    i += len(word)
                    break
            else:
                raise error(f"unknown token {text[i:i + 3]!r}", i)
            continue
        raise error(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser for the package's text grammars.

    Precedence (loosest to tightest): ``+ -``, the products ``* /``, unary
    signs, ``^`` (right associative).  Numbers are integers; a ratio is a
    division.  A zero divisor, a negative power of zero and a function
    value at a singular point are syntax errors.  Function calls look like
    ``name(arg)`` and only the names in :data:`FUNCTIONS` are accepted.

    The tensor and algebra grammars subclass this one: each overrides
    :meth:`atom`, refuses ``^`` through :attr:`powers`, may add products
    and raises its own :attr:`error` class.  A divisor is always a scalar.
    """

    error = ExprSyntaxError
    products = ("*", "/")
    powers = True

    def __init__(self, text):
        self.tokens = _tokenize(text, self.error)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        e = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise self.error(f"unexpected {tok[1]!r}", tok[2])
        return e

    def sum(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in self.products:
            op, _, at = self.next()
            rhs = self.factor()
            if op != "/":
                e = e * rhs
            elif not isinstance(rhs, sp.Expr):
                raise self.error("a divisor must be a scalar", at)
            elif rhs == 0:
                raise self.error("division by zero", at)
            else:
                e = e * (1 / rhs)
        return e

    def factor(self):
        if self.peek()[0] == "-":
            self.next()
            return -self.factor()
        if self.peek()[0] == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if not (self.powers and self.peek()[0] == "^"):
            return base
        at = self.next()[2]
        exponent = self.factor()  # right associative, allows x^-2
        if not (exponent.is_Rational and exponent.q in (1, 2)):
            raise self.error(
                "exponent must be an integer (or half-integer from sqrt)", at)
        if base == 0 and exponent < 0:
            raise self.error("negative power of zero", at)
        return base ** exponent

    def atom(self):
        kind, value, start = self.next()
        if kind == "int":
            return sp.Integer(int(value))
        if kind == "%i":
            return sp.I
        if kind == "%pi":
            return PI
        if kind == "(":
            e = self.sum()
            self.expect(")")
            return e
        if kind == "name":
            if self.peek()[0] != "(":
                return sym(value)
            if value not in FUNCTIONS:
                raise self.error(f"unknown function {value!r}", start)
            self.next()
            arg = self.sum()
            if self.peek()[0] == ",":
                raise self.error(f"{value} takes one argument", self.peek()[2])
            self.expect(")")
            result = FUNCTIONS[value](arg)
            if result in _UNDEFINED:
                raise self.error(f"{value} is undefined here", start)
            return result
        raise self.error(f"unexpected {value!r}", start)


def parse(text: str) -> Expr:
    """Parse expression text into a canonical expression."""
    return _Parser(text).parse()


def exact(x, what="entry"):
    """``x`` sympified; ValueError naming ``what`` when it holds a float or
    an undefined value, as the parser refuses in text."""
    e = sp.sympify(x)
    # atoms, as Basic.has keeps every expression it meets in sympy's cache
    if e.atoms(sp.Float, *map(type, _UNDEFINED)):
        raise ValueError(f"{what} {e} is not a finite exact expression")
    return e


# ---------------------------------------------------------------------------
# rendering


class _AsciiPrinter(StrPrinter):
    def _print_ImaginaryUnit(self, expr):
        return "%i"

    def _print_Abs(self, expr):
        return f"abs({self._print(expr.args[0])})"


_printer = _AsciiPrinter()


def render(e: Expr, K=None) -> str:
    """Deterministic text form; ``parse(render(e))`` reproduces ``e``.
    Given a :class:`KernelField` ``K``, ``e`` is an element of it, written
    by :meth:`KernelField.text` as ``render(K.expr(e))`` writes it."""
    if K is not None:
        return K.text(e)
    return _printer.doprint(sp.sympify(e)).replace("**", "^")


# ---------------------------------------------------------------------------
# calculus and simplification


def diff(e: Expr, s) -> Expr:
    """Partial derivative of ``e`` by the symbol ``s``."""
    if isinstance(s, str):
        s = sym(s)
    if not isinstance(s, sp.Symbol):
        raise TypeError(f"can only differentiate by a symbol, got {s!r}")
    return sp.diff(sp.sympify(e), s)


def ratsimp(e: Expr) -> Expr:
    """Rational normal form over symbol and function kernels: one ratio of
    polynomials with common factors cancelled, exactly 0 iff the numerator
    is the zero polynomial.

    A number is returned as it is.  An expression in a kernel field with no
    root (see :func:`kernel_field`) is computed there, where every sum and
    product cancels its gcd as it is formed; its numerator and denominator
    are the pair ``sp.cancel`` gives, so no closing ``cancel`` is needed.

    Here and in :func:`trigsimp` alone, roots are no generators: a root
    b*sqrt(a/b) would print multiplied out and leave denominators.  Nor are
    ``%i``, ``exp`` (sympy merges ``exp(x)*exp(y)``), ``tan``, ``tanh``,
    ``log``, ``abs`` and kernels of non-polynomial arguments: such an
    expression is combined term by term on expression trees, keeping
    intermediate fractions reduced (combining everything first makes the
    gcd step explode on curvature-sized expressions).  Each exp(c + u) with
    a rational c is written exp(u)*exp(c) first: ``sp.cancel`` does so only
    sometimes, and ``ratsimp`` of the result must be the result.
    """
    e = sp.sympify(e)
    if e.is_Number:
        return e
    found = _generators([e]) is not None and in_field([e])
    if found:
        K, (f,) = found
        return K.expr(f)
    e = e.replace(lambda n: n.func is sp.exp, _split_exp)
    terms = sp.Add.make_args(e)
    if len(terms) > 2:
        acc = sp.S.Zero
        for t in terms:
            acc = sp.cancel(acc + sp.cancel(sp.together(t)))
        return acc
    return sp.cancel(sp.together(e))


def _split_exp(n):
    """exp(u)*exp(c) for n = exp(c + u) with c a nonzero rational, else
    ``n``."""
    c, u = n.args[0].as_coeff_Add()
    if n.args[0].is_Add and c.is_Rational and c != 0:
        return sp.exp(u) * sp.exp(c)
    return n


_KERNELS = (sp.sin, sp.cos, sp.sinh, sp.cosh)

#: The exponents of a denominator without base factors, which every leaf
#: shares: no exponent map is changed once made.
_NO_FACTORS = Counter()


def _generators(exprs, radicands=None):
    """Symbols and sin/cos/sinh/cosh applications in ``exprs``, or None if
    one of them is not a rational function of these.  Given a set
    ``radicands``, a half-integer power is admitted too, and its base is
    added to the set and searched."""
    found = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if node.is_Symbol or node.func in _KERNELS:
            found.add(node)
        elif node.is_Add or node.is_Mul:
            stack.extend(node.args)
        elif node.is_Pow and node.exp.is_Integer:
            stack.append(node.base)
        elif (radicands is not None and node.is_Pow and node.exp.is_Rational
              and node.exp.q == 2):
            radicands.add(node.base)
            stack.append(node.base)
        elif not node.is_Rational:
            return None
    return found


def _ordered(gens):
    """``gens`` in sp.cancel's order, the key of sympy's ``_sort_gens``
    on each generator's text: the band of its name, its name, its digit
    suffix.  A first sort by ``sp.default_sort_key`` settles ties."""
    def key(g):
        name, index = _re_gen.match(_gen_text(g) or str(g)).groups()
        return _gens_order.get(name, _max_order), name, int(index or 0)
    return tuple(sorted(sorted(gens, key=sp.default_sort_key), key=key))


def _gen_text(g):
    """The text sympy's printer gives a symbol or a kernel of a symbol,
    written without the printer; None for any other generator."""
    if g.func is sp.Symbol:
        return g.name
    if g.func in _KERNELS and g.args[0].func is sp.Symbol:
        return f"{g.func.__name__}({g.args[0].name})"
    return None


@functools.lru_cache(maxsize=128)
def _fraction_field(gens):
    return FracField(gens, sp.ZZ)


#: The partner of each kernel: d/du of one is +-1 times the other.
_PARTNERS = {sp.sin: (sp.cos, 1), sp.cos: (sp.sin, -1),
             sp.sinh: (sp.cosh, 1), sp.cosh: (sp.sinh, 1)}

#: s of k(u)^2 = 1 + s*partner(u)^2 for k = sin, cosh, so that
#: partner(u)^2 = s*k(u)^2 - s: sin^2 = 1 - cos^2, cosh^2 = 1 + sinh^2.
_SQUARES = {sp.sin: -1, sp.cosh: 1}


def kernel_field(exprs):
    """The :class:`KernelField` of ``exprs``, or None.

    Its generators are the symbols, the symbols of kernel arguments, the
    kernels of ``exprs``, each sin(u) with cos(u) and each sinh(u) with
    cosh(u), and roots, and nothing else: a symbol in no expression, such
    as a coordinate an entry does not depend on, has zero derivative and
    changes no normal form.  None when an expression is not a rational
    function of these or a kernel argument is not a polynomial in symbols.

    As with Maxima's ``algebraic: true``, a half-integer power whose base
    reduces to a ratio a/b of polynomials in the generators other than sin
    and cosh is a power of the generator q = b*sqrt(a/b), with q^2 = a*b.
    The field is returned only when its normal form stays canonical, that
    is when the distinct radicands a*b and the relations 1 - cos(u)^2 and
    1 + sinh(u)^2 are independent modulo squares: no branch of a root is
    ever chosen, and two roots of one a*b stay two generators.
    """
    radicands = set()
    found = _generators(exprs, radicands)
    if found is None:
        return None
    for kernel in [g for g in found if not g.is_Symbol]:
        arg = kernel.args[0]
        inner = _generators([arg])
        if (inner is None or not all(s.is_Symbol for s in inner)
                or not arg.is_polynomial(*inner)):
            return None
        partner = _PARTNERS[kernel.func][0](arg)
        if partner.func not in _KERNELS or partner.args != (arg,):
            return None
        found.update(inner)
        found.add(partner)
    field = KernelField(_ordered(found))
    return _adjoin_roots(field, radicands) if radicands else field


def in_field(inputs):
    """The :func:`kernel_field` of ``inputs`` (expressions, nested lists of
    them, or None), with each input's value in it, or None when there is no
    such field or an input divides by zero."""
    K = kernel_field(sp.flatten([value for value in inputs
                                 if value is not None]))
    if K is None:
        return None
    try:
        return K, [value if value is None else _map(K.element, value)
                   for value in inputs]
    except ZeroDivisionError:
        return None


def _map(fn, value):
    """``fn`` applied to every component of a nested list, or to a scalar."""
    if isinstance(value, list):
        return [_map(fn, v) for v in value]
    return fn(value)


def _adjoin_roots(base, radicands):
    """``base`` with the root of each radicand adjoined, or None when a
    radicand holds a root or is not a ratio a/b of polynomials in the
    generators that are not eliminated, or the distinct radicands a*b are
    not independent modulo squares with the relations of ``base``.  Roots of
    one a*b, as of (r-2m)/r and r/(r-2m), are equal where a/b > 0 and
    opposite where not: their relations q_i^2 = a*b are a Groebner basis,
    a normal form 0 is 0 on both branches, and q_1 - q_2 is a zero divisor."""
    pairs = {}
    for radicand in radicands:
        try:
            f = base.reduce_trig(base.element(radicand))
        except (KeyError, ZeroDivisionError):
            return None
        degrees = (f.numer.degrees(), f.denom.degrees())
        if not f.numer or any(d[i] for d in degrees for i in base._eliminated):
            return None
        pairs[radicand] = (f.numer, f.denom)
    distinct = set(pairs.values())
    if not _independent([square for _, square in base._squares]
                        + list({a * b for a, b in distinct})):
        return None
    roots = {}
    for a, b in distinct:
        a_expr, b_expr = a.as_expr(), b.as_expr()
        q = sp.sqrt(a_expr) if b == 1 else b_expr * sp.sqrt(a_expr / b_expr)
        roots[a, b] = (q, a_expr * b_expr)
    field = KernelField(_ordered(set(base.field.symbols)
                                 | {q for q, _ in roots.values()}),
                        roots.values())
    for radicand, (a, b) in pairs.items():
        # sqrt(a/b) = q/b
        field._roots[radicand] = (field._gens[roots[a, b][0]],
                                  *field._split(b.set_ring(field.ring)))
    return field


def _independent(polys):
    """True when the polynomials are independent in the multiplicative
    group modulo squares: the parity vectors of their irreducible factors,
    of the primes of their contents and of their signs are linearly
    independent over GF(2)."""
    index, basis = {}, []
    for p in polys:
        content, factors = p.factor_list()
        content = sp.Rational(content)
        odd = [f for f, k in factors if k % 2]
        odd += [prime for n in (content.p, content.q)
                for prime, k in sp.factorint(abs(n)).items() if k % 2]
        if content < 0:
            odd.append(-1)
        row = 0
        for key in odd:
            row |= 1 << index.setdefault(key, len(index))
        # basis rows have distinct leading bits, in descending order
        for b in basis:
            row = min(row, row ^ b)
        if not row:
            return False
        basis.append(row)
        basis.sort(reverse=True)
    return True


class KernelField:
    """Q(symbols, sin/cos/sinh/cosh kernels, roots), closed under d/dx.

    Elements are sympy ``FracElement``s over the integers, as in Maxima's
    CRE: a numerator and a denominator in Z[gens] without common factor,
    the denominator leading with a positive coefficient.  :meth:`element`
    reads an expression into that pair in one walk and cancels once, and
    every sum and product is a cancelled ratio: an element is the field
    image of what :func:`ratsimp` returns for the same rational function,
    whatever generators the two fields share, because the generators keep
    sympy's order.  :meth:`diff` mirrors :func:`diff`, :meth:`vanishes`
    :func:`vanishes` and :meth:`expr` the form :func:`ratsimp` returns;
    the one normal form, :meth:`ratsimp`, also :meth:`trigsimp`, is
    :meth:`reduce_trig` of an element (``_reduce_trig_tree`` on trees).

    A field cancels with no polynomial gcd, as Maxima's ``ratfac`` keeps a
    CRE partly factored.  Its factor base holds irreducible primitive
    polynomials with a positive leading coefficient, and its memo maps each
    denominator it has met to its integer content and its exponents over
    the base; only what the base factors leave of a new denominator is
    factored, once.  A numerator is divided by each factor of its
    denominator as often as it goes, up to its exponent, then by the integer
    gcd.  A division is tried only where the factor's value divides the
    numerator's at fixed integer points, and counts only with remainder 0;
    the factors being irreducible, this divides by the exact gcd and gives
    the element ``field.new`` gives.  Base and memo live on the field, and
    so does a read memo: :meth:`_pair` reads each distinct subexpression
    but a rational once per field.  What it keeps is never changed in
    place, and every leaf shares one empty exponent map.  The generators
    keep ``sp.cancel``'s order, which :func:`_ordered` computes from their
    texts, a symbol's or a symbol kernel's written as :meth:`text` writes
    it, without the printer.

    One relation table holds every generator whose square is known,
    gens[i]^2 = p_i with p_i a polynomial in the other generators:
    sin(u)^2 = 1 - cos(u)^2 or its converse, cosh(u)^2 = 1 + sinh(u)^2 or
    its converse, as :meth:`choose_table` decides, and, for a root q
    given in ``roots`` as (q, p), q^2 = p, with dq = q dp/(2p).  Two roots
    may share p (see :func:`_adjoin_roots`), making zero divisors.
    """

    def __init__(self, gens, roots=()):
        self.field = _fraction_field(gens)
        self.ring = self.field.ring
        self.zero, self.one = self.field.zero, self.field.one
        self._gens = dict(zip(gens, self.ring.gens))
        # the factor base, (factor, its values at the test points), and
        # denominator -> (c, {base index: exponent}) with den = c * prod
        self._base, self._split_memo = [], {}
        self._points = [[13 + 19 * i for i in range(len(gens))],
                        [47 + 23 * i for i in range(len(gens))]]
        # radicand expression -> its root as _pair gives it
        self._roots = {}
        # expression -> what _pair gives it, each read once per field
        self._reads = {}
        index = {g: i for i, g in enumerate(gens)}
        roots = dict(roots)
        # (i, p): gens[i] is a root with gens[i]^2 = p
        self._radicals = []
        # (i, j, sign, a, c): d gens[i] = sign*gens[j] da/c, a/c the argument
        self._chains = []
        # per sin/cos or sinh/cosh pair, the relations (i, p) eliminating
        # its sin or cosh and eliminating its partner
        self._pairs = []
        for i, g in enumerate(gens):
            if g in roots:
                self._radicals.append((i, self._pair(roots[g])[0]))
                continue
            if g.is_Symbol:
                continue
            partner, sign = _PARTNERS[g.func]
            j = index[partner(g.args[0])]
            a, c, _ = self._pair(g.args[0])
            self._chains.append((i, j, sign, a, c))
            if g.func in _SQUARES:
                s = _SQUARES[g.func]
                k, p = self.ring.gens[i], self.ring.gens[j]
                self._pairs.append(((i, 1 + s * p ** 2), (j, s * k ** 2 - s)))
        self._scale = math.lcm(*(c for *_, c in self._chains))
        self._radical_set = {i for i, _ in self._radicals}
        # the sets of two or more roots of one square
        shared = {}
        for i, square in self._radicals:
            shared.setdefault(square, set()).add(i)
        self._twins = [ids for ids in shared.values() if len(ids) > 1]
        # the generators that are not symbols: kernels and roots
        self._kernels = [i for i, g in enumerate(gens) if not g.is_Symbol]
        self._eliminate((0,) * len(self._pairs))
        self._derivations = {}
        # what text() needs of the generators, built at the first print
        self._print_order = None

    # -- conversions ----------------------------------------------------------

    def element(self, e):
        """The element of expression ``e``: its numerator and denominator
        read in one walk, then cancelled once, which leaves a denominator
        leading with a positive coefficient.  KeyError when ``e`` is not in
        the field, ZeroDivisionError when it divides by zero."""
        return self._cancel(*self._pair(e))

    def _pair(self, e):
        """(n, c, exps) with ``e`` = n / (c prod base[i]^exps[i]), n in
        Z[gens], not cancelled: a sum is taken over the denominator of the
        largest exponents, and a half-integer power of a radicand is a power
        of its root.  Read once per field and kept, a rational excepted."""
        if e.is_Rational:
            return self.ring(e.p), e.q, _NO_FACTORS
        read = self._reads.get(e)
        if read is None:
            read = self._reads[e] = self._read(e)
        return read

    def _read(self, e):
        """:meth:`_pair` of an expression that is not a rational."""
        if e.is_Add:
            return self._common(list(map(self._pair, e.args)))
        if e.is_Mul:
            num, c, exps = self.ring.one, 1, _NO_FACTORS
            for n, cn, en in map(self._pair, e.args):
                num, c, exps = num * n, c * cn, exps + en if en else exps
            return num, c, exps
        if e.is_Pow and e.exp.is_Rational and e.exp.q <= 2:
            num, c, exps = (self._pair(e.base) if e.exp.q == 1
                            else self._roots[e.base])
            if e.exp.p < 0:
                if not num:
                    raise ZeroDivisionError("negative power of zero")
                num, (c, exps) = self._product(c, exps), self._split(num)
            k = abs(e.exp.p)
            return num ** k, c ** k, exps if k == 1 else Counter(
                {i: j * k for i, j in exps.items()})
        return self._gens[e], 1, _NO_FACTORS

    def expr(self, f):
        """``f`` as the expression :func:`ratsimp` gives for it: numerator
        over denominator, which are the pair ``sp.cancel`` returns, as every
        element's denominator leads with a positive coefficient."""
        if not f.numer:
            return sp.S.Zero
        return f.numer.as_expr() / f.denom.as_expr()

    # -- printing -------------------------------------------------------------

    def text(self, f):
        """``render(self.expr(f))``, written from the terms of numerator and
        denominator as sympy's ``StrPrinter`` writes that expression: terms
        in descending lex order of their exponents and the factors of a term
        in order, both over the generators sorted by ``sp.default_sort_key``,
        and signs and coefficients where ``StrPrinter._print_Mul`` puts them.
        A constant denominator is distributed over the terms, as sympy does.
        An element holding a root, or a kernel of a constant argument, prints
        through :func:`render`: sympy writes a power of a root as one of its
        radicand and folds a constant kernel into a term's coefficient."""
        if self._print_order is None:
            self._print_order = self._print_table()
        key, names, special = self._print_order
        numer, denom = f.numer, f.denom
        if not numer:
            return "0"
        if special and any(m[i] for p in (numer, denom)
                           for m in p.itermonoms() for i in special):
            return render(self.expr(f))
        num = sorted(((key(m), c) for m, c in numer.iterterms()), reverse=True)
        den = sorted(((key(m), c) for m, c in denom.iterterms()), reverse=True)
        if len(den) > 1:
            d, over = Fraction(1), [f"({_sum_text(names, den)})"]
        else:
            lone, d = den[0][0], Fraction(den[0][1])
            over = _factors(names, lone)
            if len(num) == 1 and num[0] == ((0,) * len(lone), d) and (
                    len(over) == 1 and max(lone) > 1):
                # a lone generator to a power -k is a Pow, not a Mul
                return f"{names[lone.index(max(lone))]}^(-{max(lone)})"
        if len(num) == 1:
            m, c = num[0]
            return _product_text(c / d, _factors(names, m), over)
        if not over:
            # sympy spreads a constant 1/d over the terms of a sum
            return _sum_text(names, [(m, c / d) for m, c in num])
        return _product_text(1 / d, [f"({_sum_text(names, num)})"], over)

    def _print_table(self):
        """(exponents in print order of a monomial, generator texts in that
        order, indices of the generators :meth:`text` leaves to
        :func:`render`).  A symbol and a kernel of a symbol are written as
        sympy writes them, without its printer."""
        gens = self.field.symbols
        order = sorted(range(len(gens)),
                       key=lambda i: sp.default_sort_key(gens[i]))
        names = [_gen_text(gens[i]) or render(gens[i]) for i in order]
        return (itemgetter(*order) if len(order) > 1 else tuple, names,
                [i for i, g in enumerate(gens)
                 if i in self._radical_set or not g.free_symbols])

    # -- calculus -------------------------------------------------------------

    def diff(self, f, x):
        """Partial derivative of ``f`` by the symbol ``x``: the derivation
        that maps each generator to its derivative.  Kernel arguments bring
        their common denominator c and a root q of f that of dq = q dp/(2p);
        the derivative is taken over the product of those denominators."""
        table, radicals = self._derivation(x)
        p, q = f.numer, f.denom
        used = [r for r in radicals
                if any(m[r[0]] for g in (p, q) for m in g.itermonoms())]
        w = self.ring.one
        if used:
            for _, _, den in used:
                w *= den
            table = [(i, d * w) for i, d in table]
            for i, num, den in used:
                table.append((i, num * w.exquo(den)))
        dp, dq = _derive(p, table), _derive(q, table)
        (c, exps), (cw, ew) = self._split(q), self._split(w)
        return self._cancel(dp * q - p * dq, c * c * cw * self._scale,
                            exps + exps + ew)

    def _derivation(self, x):
        """[(i, c d gens[i]/dx)] for the symbols and kernels, zero ones left
        out, and [(i, c q p', 2p)] for the roots q = gens[i] with q^2 = p,
        p' = dp/dx nonzero: c clears the denominators of the arguments, so
        every entry is a polynomial."""
        if x not in self._derivations:
            symbols = [(i, self.ring.one)
                       for i, s in enumerate(self.ring.symbols) if s == x]
            table = [(i, self.ring(self._scale)) for i, _ in symbols]
            for i, j, sign, arg, c in self._chains:
                darg = _derive(arg, symbols)
                if darg:
                    table.append((i, darg * self.ring.gens[j]
                                  * (sign * self._scale // c)))
            radicals = []
            for i, square in self._radicals:
                dsquare = _derive(square, table)
                if dsquare:
                    radicals.append(
                        (i, self.ring.gens[i] * dsquare, 2 * square))
            self._derivations[x] = (table, radicals)
        return self._derivations[x]

    # -- the algebraic closure ------------------------------------------------

    def _eliminate(self, choice):
        """Eliminate every root and, of the i-th pair, its sin or cosh when
        choice[i] is 0 and its partner when it is 1."""
        self._squares = sorted(
            [pair[c] for pair, c in zip(self._pairs, choice)]
            + self._radicals, key=lambda square: square[0])
        self._eliminated = [i for i, _ in self._squares]

    def choose_table(self, entries):
        """Eliminate sin or cos and cosh or sinh of each pair so that the
        reduced ``entries`` have the fewest terms, a tie keeping the sin or
        cosh of the earliest pair: a choice by value, so equal entries
        print alike.  A kernel in the square of a root is never eliminated,
        as :meth:`_reduce_even` needs the squares free of eliminated ones."""
        in_roots = {i for _, square in self._radicals
                    for m in square.itermonoms() for i, k in enumerate(m) if k}
        choices = product(*[(0,) if partner in in_roots else (0, 1)
                            for _, (partner, _) in self._pairs])

        def terms(choice):
            self._eliminate(choice)
            return sum(len(r.numer) + len(r.denom)
                       for r in map(self.reduce_trig, entries))
        self._eliminate(min(choices, key=terms))

    def reduce_trig(self, f):
        """The canonical form of ``f``: each square of the relation table
        replaced in numerator and denominator, then each odd root or
        eliminated kernel of the denominator cleared by its conjugate, the
        roots first and then the kernels in generator order, one generator
        per round.  ``f`` itself when nothing changes, so a reduced element
        costs no gcd.  ZeroDivisionError when clearing makes the
        denominator 0, which a zero divisor does."""
        num, den = self._reduce_even(f.numer), self._reduce_even(f.denom)
        for _ in self._eliminated:
            odd = [i for i in self._eliminated
                   if any(m[i] % 2 for m in den.itermonoms())]
            if not odd:
                break
            i = next((i for i in odd if i in self._radical_set), odd[0])
            rest = self.ring.from_dict(
                {m: c for m, c in den.iterterms() if not m[i]})
            # den = rest + linear*k; the conjugate rest - linear*k, or k
            # itself when rest vanishes, clears k from the denominator for
            # good, as no square brings an eliminated generator back
            multiplier = 2 * rest - den if rest else self.ring.gens[i]
            num = self._reduce_even(num * multiplier)
            den = self._reduce_even(den * multiplier)
            if not den:
                raise ZeroDivisionError("division by a zero divisor")
        if num is f.numer and den is f.denom:
            return f
        return self._cancel(num, *self._split(den))

    def zero_divisor(self, f):
        """Whether the element ``f`` has no inverse in a field that holds a
        root: clearing the roots from the denominator of 1/f makes it 0, as
        for q1 - q2 with q1^2 = q2^2.  Always False with no root, as only
        roots bring zero divisors."""
        if not self._radicals:
            return False
        try:
            self.reduce_trig(self.one / f)
        except ZeroDivisionError:
            return True
        return False

    def _reduce_even(self, p, squares=None):
        """gens[i]^2 -> p_i in the polynomial ``p`` for each relation of
        the table, or of ``squares``, exhaustively: p_i holds no eliminated
        generator."""
        for i, square in self._squares if squares is None else squares:
            if all(m[i] < 2 for m in p.itermonoms()):
                continue
            # p = sum_h part_h * gens[i]^(2h)
            parts = {}
            for m, c in p.iterterms():
                half, odd = divmod(m[i], 2)
                parts.setdefault(half, {})[m[:i] + (odd,) + m[i + 1:]] = c
            p = self.ring.zero
            for half, part in parts.items():
                part = self.ring.from_dict(part)
                p += part * square ** half if half else part
        return p

    def ratsimp(self, f):
        """The normal form of the field: :meth:`reduce_trig` of an element,
        and of a polynomial its reduction by the relation table."""
        return self.reduce_trig(f) if hasattr(f, "numer") else (
            self._reduce_even(f))

    trigsimp = ratsimp

    def dot(self, xs, ys):
        """sum x*y over the pairs of ``xs`` and ``ys``, cancelled once: the
        products are added by their pair of denominators, whose exponents
        over the factor base add, and the groups over the common
        denominator of the largest exponents, so no product or partial sum
        takes a gcd.  The squares of roots are replaced in the numerator
        before the cancellation, as no caller keeps them; the squares of
        kernels are left to :meth:`ratsimp`."""
        groups = {}
        for x, y in zip(xs, ys):
            if x and y:
                key = x.denom, y.denom
                groups[key] = (groups.get(key, self.ring.zero)
                               + x.numer * y.numer)
        parts = []
        for (a, b), n in groups.items():
            (ca, ea), (cb, eb) = self._split(a), self._split(b)
            parts.append((n, ca * cb, ea + eb))
        num, c, exps = self._common(parts)
        return self._cancel(self._reduce_even(num, self._radicals), c, exps)

    def numerators(self, exprs):
        """(D, [N_k]) with N_k / D the k-th of the expressions ``exprs``,
        each read by :meth:`_pair` and made no element: D is their common
        denominator, of the lcm of their contents and the largest exponents
        over the factor base, taken with no gcd, and each N_k in Z[gens] is
        reduced by the relation table.  The N_k may share a factor with D;
        a decision homogeneous in them does not depend on it.
        ZeroDivisionError when an expression divides by zero."""
        nums, c, exps = self._over(list(map(self._pair, exprs)))
        return self._product(c, exps), list(map(self._reduce_even, nums))

    def vanishes(self, p, question=_QUESTION):
        """The zero test on an element, or a polynomial over a nonzero
        denominator: True when the numerator reduced by the relation table
        is 0; False when it holds symbols only, or the field is
        :attr:`canonical` (not computed for symbols only) and it holds no
        two roots of one square, or :func:`certify_nonzero` proves the
        element's :meth:`expr` or the reduced polynomial; else
        :class:`UnclassifiableError`.  Two roots of one square are equal
        where a/b > 0 and opposite where not, so a nonzero normal form
        holding both, as q1 - q2, may be 0 on one branch."""
        numer = self.ratsimp(getattr(p, "numer", p))
        if not numer:
            return True
        if ((self.__dict__.get("canonical") and not self._twins)
                or not any(m[i] for m in numer.itermonoms()
                           for i in self._kernels)
                or self.canonical and not self._holds_twins(numer)):
            return False
        value = self.expr(p) if hasattr(p, "numer") else numer.as_expr()
        if certify_nonzero(value):
            return False
        raise UnclassifiableError(value, question)

    def _holds_twins(self, numer):
        """Whether the polynomial ``numer`` holds two roots of one square."""
        held = {i for m in numer.itermonoms() for i, k in enumerate(m) if k}
        return any(len(held & twins) > 1 for twins in self._twins)

    @functools.cached_property
    def canonical(self):
        """Whether a nonzero normal form is a nonzero function: the sin/cos
        arguments, and apart from them the sinh/cosh ones, are nonconstant
        and linearly independent over Q modulo constants (%pi is one), so
        the kernels are algebraically independent (Ax, Ann. Math. 93 (1971)
        252).  Radicands are independent modulo squares by construction,
        but two roots of one square are not: see :meth:`vanishes`."""
        for funcs in ((sp.sin, sp.cos), (sp.sinh, sp.cosh)):
            args = {g.args[0] for g in self.field.symbols if g.func in funcs}
            if all(u.is_Symbol and u is not PI for u in args):
                continue
            # rational coefficients over the monomials not in %pi alone
            rows = [{m: c for c, m in (t.as_coeff_Mul() for t in
                                       sp.Add.make_args(sp.expand(u)))
                     if m.free_symbols - {PI}} for u in args]
            keys = set().union(*rows)
            if sp.Matrix([[row.get(k, 0) for k in keys] for row in rows]
                         ).rank() < len(rows):
                return False
        return True

    # -- cancellation over the factor base -----------------------------------

    def _common(self, parts):
        """(n, c, exps): the sum of the fractions of :meth:`_over`, over
        their common denominator, with no gcd."""
        nums, c, exps = self._over(parts)
        return sum(nums, self.ring.zero), c, exps

    def _over(self, parts):
        """([m_i], c, exps): the fractions n_i / (c_i prod base[j]^exps_i[j])
        given as (n_i, c_i, exps_i), written as m_i / (c prod
        base[j]^exps[j]) over the lcm c of the c_i and the largest
        exponents, with no gcd."""
        c, exps = 1, Counter()
        for _, ci, ei in parts:
            c, exps = math.lcm(c, ci), exps | ei
        return [n if ci == c and ei == exps else
                n * self._product(c // ci, exps - ei)
                for n, ci, ei in parts], c, exps

    def _cancel(self, num, c, exps):
        """The element num/den for den = c * prod base[i]^exps[i]: num
        divided by each base factor as often as it divides, up to its
        exponent, then by the gcd of its content and c, signed as c is.  The
        base factors are irreducible, so this is ``field.new(num, den)``."""
        if not num:
            return self.zero
        at, left = self._at(num) if exps else None, Counter()
        for i, k in exps.items():
            num, at, j = self._strip(num, at, i, k)
            left[i] = k - j
        left = +left
        g = math.gcd(num.content(), c) * (1 if c > 0 else -1)
        num, c = num.quo_ground(g), c // g
        den = self._product(c, left)
        self._split_memo.setdefault(den, (c, left))
        return self.field.raw_new(num, den)

    def _split(self, den):
        """(c, {i: k}) with den = c * prod base[i]^k: den divided by the
        base factors, and the irreducible factors of what is left, if
        anything, added to the base.  Kept in the memo."""
        if den in self._split_memo:
            return self._split_memo[den]
        c, rest = den.primitive()
        if rest.LC < 0:
            c, rest = -c, -rest
        exps, at = Counter(), self._at(rest)
        for i in range(len(self._base)):
            if rest.is_ground:
                break
            rest, at, exps[i] = self._strip(rest, at, i, math.inf)
        exps = +exps
        if not rest.is_ground:
            for factor, k in rest.factor_list()[1]:
                factor = factor if factor.LC > 0 else -factor
                exps[len(self._base)] = k
                self._base.append((factor, self._at(factor)))
        self._split_memo[den] = c, exps
        return c, exps

    def _strip(self, num, at, i, most):
        """(num / p^j, its values at the test points, j) for the base factor
        p = base[i] and the largest j <= ``most`` with p^j dividing num.  A
        division is tried only while p's value divides num's at each test
        point where p's is not 0 or +-1, and counts only with remainder 0."""
        p, values = self._base[i]
        j = 0
        while j < most and all(v in (0, 1, -1) or n % v == 0
                               for n, v in zip(at, values)):
            q = _exquo(num, p)
            if q is None:
                break
            num, j, at = q, j + 1, self._at(q)
        return num, at, j

    def _at(self, p):
        """The values of the polynomial ``p`` at the test points."""
        return [sum(c * math.prod(map(pow, point, m))
                    for m, c in p.iterterms()) for point in self._points]

    def _product(self, c, exps):
        """The polynomial c * prod base[i]^exps[i]."""
        return math.prod((self._base[i][0] ** k for i, k in exps.items()),
                         start=self.ring(c))


def _exquo(num, p):
    """num / p when p divides num, else None: long division in lex order,
    the remainder's terms in a heap, so that no step scans the remainder;
    it stops at the first term that p's leading term does not divide."""
    (lm, lc), *tail = p.terms()
    rem, quo = dict(num), {}
    heap = [(tuple(-e for e in m), m) for m in rem]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = rem.pop(m, 0)
        if not c:
            continue
        d = tuple(a - b for a, b in zip(m, lm))
        if min(d) < 0 or c % lc:
            return None
        quo[d] = c = c // lc
        for mt, ct in tail:
            mm = tuple(a + b for a, b in zip(d, mt))
            if mm not in rem:
                heapq.heappush(heap, (tuple(-e for e in mm), mm))
            rem[mm] = rem.get(mm, 0) - c * ct
    return num.ring.from_dict(quo)


def _derive(p, table):
    """sum_i dp/d gens[i] * d gens[i] for the polynomial ``p``."""
    out = p.ring.zero
    for i, d in table:
        dp = p.diff(i)
        if dp:
            out = out + dp * d
    return out


def _factors(names, exponents):
    """The factor texts of a monomial, in the order of ``names``."""
    return [name if k == 1 else f"{name}^{k}"
            for name, k in zip(names, exponents) if k]


def _product_text(c, numer, denom=()):
    """sympy's text of the product ``c * numer / denom`` for a nonzero
    rational ``c`` and lists of factor texts: the sign in front, the
    numerator of ``c`` before the factors and its denominator before the
    divisors, one divisor as ``/x`` and several as ``/(a*b)``."""
    p, q = abs(c.numerator), c.denominator
    top = (([str(p)] if p != 1 else []) + numer) or ["1"]
    below = ([str(q)] if q != 1 else []) + list(denom)
    text = ("-" if c < 0 else "") + "*".join(top)
    if len(below) > 1:
        return f"{text}/({'*'.join(below)})"
    return f"{text}/{below[0]}" if below else text


def _sum_text(names, terms):
    """sympy's text of the sum of the terms (exponents, coefficient), given
    in descending order of their exponents.  A positive number and a
    negative multiple of one power of a generator print number first, as
    ``Expr.as_ordered_terms`` special-cases them: ``1 - x``."""
    if len(terms) == 2 and not any(terms[1][0]) and terms[1][1] > 0 and (
            terms[0][1] < 0 and sum(1 for k in terms[0][0] if k) == 1):
        terms = terms[::-1]
    parts = []
    for m, c in terms:
        text = _product_text(c, _factors(names, m))
        parts += ["-", text[1:]] if text[0] == "-" else ["+", text]
    return ("-" if parts[0] == "-" else "") + " ".join(parts[1:])


class _Trees:
    """Expression trees with the operations of :class:`KernelField`: the
    scalar domain of input outside every kernel field."""

    zero, one = sp.S.Zero, sp.S.One

    @staticmethod
    def expr(e):
        return e

    element = expr

    @staticmethod
    def diff(e, x):
        return diff(e, x)

    @staticmethod
    def trigsimp(e):
        return trigsimp(e)

    @staticmethod
    def ratsimp(e):
        return ratsimp(e)

    @staticmethod
    def dot(xs, ys):
        return sum((x * y for x, y in zip(xs, ys) if x != 0 and y != 0),
                   sp.S.Zero)

    @staticmethod
    def vanishes(e, question=_QUESTION):
        return vanishes(e, question)


TREES = _Trees()


def trigsimp(e: Expr) -> Expr:
    """Rational normal form with the Pythagorean substitutions applied.

    Only sin^2 -> 1 - cos^2 and cosh^2 -> 1 + sinh^2 are used; denominators
    holding odd powers of the eliminated kernels are rationalized so the
    substitution reaches them too.  A number is returned as it is, and
    other input is read as :func:`ratsimp` reads it, with no root.
    """
    e = sp.sympify(e)
    if e.is_Number:
        return e
    found = _generators([e]) is not None and in_field([e])
    if not found:
        return _reduce_trig_tree(ratsimp(e))
    K, (f,) = found
    return K.expr(K.reduce_trig(f))


def _reduce_trig_tree(e):
    """:func:`trigsimp` on expression trees, from the :func:`ratsimp` form."""
    num, den = e.as_numer_denom()
    num, den = _reduce_even_trig(num), _reduce_even_trig(den)
    for _ in range(16):
        kernels = _odd_kernels(den)
        if not kernels:
            break
        k = kernels[0]
        rest, linear = _split_linear(den, k)
        # den = rest + linear*k; multiply by the conjugate (or by k itself
        # when the kernel-free part vanishes) to clear k from the denominator.
        multiplier = k if rest == 0 else rest - linear * k
        num = _reduce_even_trig(num * multiplier)
        den = _reduce_even_trig(den * multiplier)
    return ratsimp(num / den)


def _reduce_even_trig(poly):
    """sin(u)^2 -> 1 - cos(u)^2 and cosh(u)^2 -> 1 + sinh(u)^2, exhaustively."""
    def rewrite(p):
        base, ex = p.args
        half = ex // 2
        if base.func is sp.sin:
            return (1 - sp.cos(base.args[0]) ** 2) ** half * base ** (ex - 2 * half)
        return (1 + sp.sinh(base.args[0]) ** 2) ** half * base ** (ex - 2 * half)

    def wants(p):
        return (p.is_Pow and p.exp.is_Integer and p.exp >= 2
                and p.base.func in (sp.sin, sp.cosh))

    poly = sp.expand(poly)
    while True:
        new = sp.expand(poly.replace(wants, rewrite))
        if new == poly:
            return new
        poly = new


def _odd_kernels(poly):
    """Kernels sin(u)/cosh(u) occurring to an odd power somewhere in poly."""
    found = []
    for p in sp.Add.make_args(sp.expand(poly)):
        for factor in sp.Mul.make_args(p):
            base, ex = factor.as_base_exp()
            if base.func in (sp.sin, sp.cosh) and ex.is_Integer and ex % 2 == 1:
                if base not in found:
                    found.append(base)
    return found


def _split_linear(poly, kernel):
    """Write poly = rest + linear*kernel (kernel appears at most linearly)."""
    rest, linear = sp.S.Zero, sp.S.Zero
    for term in sp.Add.make_args(sp.expand(poly)):
        factors = sp.Mul.make_args(term)
        if kernel in factors:
            linear += sp.Mul(*[f for f in factors if f != kernel])
        else:
            rest += term
    return rest, linear


class UnclassifiableError(ValueError):
    """A zero test could not be decided; carries the offending expression."""

    def __init__(self, expression, question=_QUESTION):
        super().__init__(f"cannot decide {question}: {render(expression)}")
        self.expression = expression


#: Memo of zero decisions (True, False, or None when refused), evicted
#: first in, first out past the bound.
_ZERO_CACHE_MAX = 4096
_zero_cache: dict = {}


def vanishes(e: Expr, question=_QUESTION) -> bool:
    """The zero decision: True when ``trigsimp(e)`` is the literal constant
    0, False when :func:`certify_nonzero` holds, otherwise
    :class:`UnclassifiableError` asking ``question``.  The certificate is
    asked first, as it needs no simplification, and each expression is
    decided once while it stays in the cache."""
    e = sp.sympify(e)
    if e.is_Number:
        return e == 0
    if e not in _zero_cache:
        if len(_zero_cache) >= _ZERO_CACHE_MAX:
            del _zero_cache[next(iter(_zero_cache))]
        _zero_cache[e] = (False if certify_nonzero(e)
                          else True if trigsimp(e) == 0 else None)
    if _zero_cache[e] is None:
        raise UnclassifiableError(e, question)
    return _zero_cache[e]


def is_zero(e: Expr) -> bool:
    """True iff ``trigsimp(ratsimp(e))`` is the literal constant 0: the
    decision of :func:`vanishes`, with a refusal read as False."""
    try:
        return vanishes(e)
    except UnclassifiableError:
        return False


# ---------------------------------------------------------------------------
# independent numeric evaluation (used by tests as a cross-check) and the
# interval certificate of a nonzero expression


def evaluate(e: Expr, values: dict | None = None) -> complex:
    """Numerically evaluate ``e`` with a plain recursive walker.

    ``values`` maps symbol names (or symbols) to numbers.  This path shares
    no simplification machinery with :func:`ratsimp`/:func:`diff`, which is
    what makes it useful as an independent oracle.
    """
    vals = {}
    for k, v in (values or {}).items():
        vals[k.name if isinstance(k, sp.Symbol) else k] = v
    return _eval(sp.sympify(e), vals, _EXACT)


def certify_nonzero(e: Expr) -> bool:
    """True when ``e`` is provably not identically zero.

    ``e`` is evaluated in interval arithmetic (``mpmath.iv``, 80 bits) at
    each point of :data:`_POINTS` in turn; an enclosure that excludes 0
    contains the exact value, so that value is nonzero.  A complex
    enclosure excludes 0 when its real or its imaginary part does.  A point
    where the enclosure fails (a pole, ``log`` of a negative interval, a
    square root or ``sign`` of an enclosure that meets its branch cut or 0,
    a node that has no interval form) is skipped.  False means only that
    no point gave a certificate.
    """
    e = sp.sympify(e)
    names = sorted(s.name for s in e.free_symbols)
    for point in _POINTS:
        vals = {n: _INTERVAL[sp.Rational](point(i))
                for i, n in enumerate(names)}
        try:
            v = _eval(e, vals, _INTERVAL)
        except (ValueError, ZeroDivisionError):
            continue
        if 0 not in v.real or 0 not in v.imag:
            return True
    return False


#: The certificate's points: the value of the i-th symbol in name order.
#: The values ascend at the first point and descend at the second, so that
#: a radicand such as (r - 2m)/r is positive at one of them; at the third
#: every value lies between 0 and 1.
_POINTS = (lambda i: sp.Rational(13 + 19 * i, 9),
           lambda i: sp.Rational(47, 13 + 11 * i),
           lambda i: sp.Rational(5 + 3 * i, 11 + 7 * i))


def _eval(e, vals, arith):
    """The value of ``e`` in the arithmetic ``arith``: a table from ``sp.I``
    and :data:`PI` to their values and from ``sp.Rational``, ``sp.Pow`` and
    each function to the function giving the value.  Exponents are exact."""
    if e is sp.I or e is PI:
        return arith[e]
    if e.is_Rational:
        return arith[sp.Rational](e)
    if e.is_Symbol:
        try:
            return vals[e.name]
        except KeyError:
            raise ValueError(f"no value supplied for symbol {e.name}")
    if e.is_Add:
        return sum(_eval(a, vals, arith) for a in e.args)
    if e.is_Mul:
        out = 1
        for a in e.args:
            out *= _eval(a, vals, arith)
        return out
    if e.is_Pow:
        return arith[sp.Pow](_eval(e.base, vals, arith),
                             _eval(e.exp, vals, _EXACT))
    if e.func in arith:
        return arith[e.func](_eval(e.args[0], vals, arith))
    raise ValueError(f"cannot evaluate node {e.func.__name__}({e})")


def _exact_power(base, ex):
    """``base ** ex``; an int, Fraction or float base keeps its type under
    an integer power, so a negative value stays on the real axis and not on
    the side of a root's branch cut that a -0.0 imaginary part picks."""
    if isinstance(ex, (int, Fraction)) and ex == int(ex):
        if isinstance(base, (int, Fraction)):
            return Fraction(base) ** int(ex)
        if isinstance(base, float):
            return base ** int(ex)
    return complex(base) ** complex(ex)


#: Exact rationals, and cmath where a value is irrational.
_EXACT = {
    sp.I: 1j, PI: cmath.pi, sp.Pow: _exact_power,
    sp.Rational: lambda q: int(q) if q.is_Integer else Fraction(q.p, q.q),
    sp.sin: cmath.sin, sp.cos: cmath.cos, sp.tan: cmath.tan,
    sp.sinh: cmath.sinh, sp.cosh: cmath.cosh, sp.tanh: cmath.tanh,
    sp.exp: cmath.exp, sp.log: cmath.log, sp.Abs: abs,
    sp.sign: lambda z: 0 if z == 0 else z / abs(z),
}

_IV = MPIntervalContext()
_IV.prec = 80


def _interval_power(base, ex):
    """``base ** ex`` for an integer or half-integer ``ex``."""
    if isinstance(ex, Fraction) and ex.denominator == 2:
        base, ex = _interval_sqrt(base), int(2 * ex)
    if not isinstance(ex, int):
        raise ValueError(f"no interval power {ex} of {base}")
    return (_pole_free(base) if ex < 0 else base) ** ex


def _interval_sqrt(z):
    """The principal square root of an enclosure that does not meet the
    branch cut, the negative real axis with 0: i*sqrt(-z) on a strictly
    negative real one, and sqrt((r+x)/2) + i*sign(y)*sqrt((r-x)/2) with
    r = |z| on a complex one.  Both radicands are >= 0, so their enclosures
    are folded onto their nonnegative part by ``abs``; where ``y`` may be 0,
    ``x`` is positive and the imaginary part is y/(2*real part)."""
    if not isinstance(z, _IV.mpc):
        return _IV.mpc(0, _IV.sqrt(-z)) if z.b < 0 else _IV.sqrt(z)
    x, y = z.real, z.imag
    if 0 in y and x.a <= 0:
        raise ValueError("square root on the branch cut")
    r = _IV.sqrt(x ** 2 + y ** 2)
    u = _IV.sqrt(abs(r + x) / 2)
    if 0 in y:
        return _IV.mpc(u, y / (2 * u))
    v = _IV.sqrt(abs(r - x) / 2)
    return _IV.mpc(u, v if y.a > 0 else -v)


def _pole_free(x):
    """``x`` as a divisor or an argument of ``log``: a pole if it holds 0."""
    if 0 in x:
        raise ZeroDivisionError("pole")
    return x


def _interval_sign(x):
    """The sign, exactly 1 or -1, of a real enclosure that excludes 0."""
    if isinstance(x, _IV.mpc) or 0 in x:
        raise ValueError(f"no interval sign of {x}")
    return _IV.mpf(1 if x.a > 0 else -1)


#: Enclosures in ``mpmath.iv``, which has no sinh, cosh or tanh: they are
#: built from ``iv.exp``, and tan and tanh are quotients whose poles
#: :func:`_pole_free` finds.
_INTERVAL = {
    sp.I: _IV.mpc(0, 1), PI: _IV.pi,
    sp.Rational: lambda q: _IV.mpf(q.p) / q.q,
    sp.Pow: _interval_power, sp.sin: _IV.sin, sp.cos: _IV.cos,
    sp.tan: lambda x: _IV.sin(x) / _pole_free(_IV.cos(x)),
    sp.sinh: lambda x: (_IV.exp(x) - _IV.exp(-x)) / 2,
    sp.cosh: lambda x: (_IV.exp(x) + _IV.exp(-x)) / 2,
    sp.tanh: lambda x: 1 - 2 / _pole_free(_IV.exp(2 * x) + 1),
    sp.exp: _IV.exp, sp.log: lambda x: _IV.ln(_pole_free(x)), sp.Abs: abs,
    sp.sign: _interval_sign,
}
