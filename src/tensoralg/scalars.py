"""Scalar symbolic kernel.

Everything downstream (curvature components, Petrov invariants, tensor
coefficients) is built from the expressions handled here: exact rationals,
symbols, the imaginary unit, and a fixed set of elementary functions.  The
heavy lifting of polynomial arithmetic is delegated to sympy; this module
pins down the grammar, the rational normal form, the limited trigonometric
closure, and the zero test that the rest of the package relies on.

As in Maxima's ``ratsimp``, the normal form lives in a field of rational
functions: symbols and ``sin``/``cos``/``sinh``/``cosh`` applications are its
generators, and any other kernel keeps the expression-tree path.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction

import sympy as sp
from sympy.polys.fields import FracField
from sympy.polys.polyutils import _sort_gens
from sympy.printing.str import StrPrinter

Expr = sp.Expr

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


def sym(name: str, **assumptions) -> sp.Symbol:
    """Return the canonical symbol for ``name``.

    All package symbols are real; creating them through one helper keeps
    sympy assumptions consistent (two symbols with the same name but
    different assumptions would not compare equal).
    """
    if name in _symbol_cache and not assumptions:
        return _symbol_cache[name]
    s = sp.Symbol(name, real=True, **assumptions)
    if not assumptions:
        _symbol_cache[name] = s
    return s


def syms(names: str) -> tuple[sp.Symbol, ...]:
    return tuple(sym(n) for n in names.replace(",", " ").split())


# ---------------------------------------------------------------------------
# parsing


_OPERATORS = set("+-*/^(),")


def _tokenize(text):
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
                raise ExprSyntaxError(f"malformed number {text[i:j + 1]!r}", i)
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
                raise ExprSyntaxError(f"unknown token {text[i:i + 3]!r}", i)
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser for the ASCII expression grammar.

    Precedence (loosest to tightest): ``+ -``, ``* /``, unary minus, ``^``
    (right associative).  Function calls look like ``name(arg, ...)`` and
    only the names in :data:`FUNCTIONS` are accepted.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
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
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        e = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", tok[2])
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
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            e = e * rhs if op == "*" else e / rhs
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
        if self.peek()[0] == "^":
            tok = self.next()
            exponent = self.factor()  # right associative, allows x^-2
            if not (exponent.is_Rational and exponent.q in (1, 2)):
                raise ExprSyntaxError(
                    "exponent must be an integer (or half-integer from sqrt)",
                    tok[2])
            return base ** exponent
        return base

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
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", start)
                self.next()
                args = [self.sum()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.sum())
                self.expect(")")
                return FUNCTIONS[value](*args)
            return sym(value)
        raise ExprSyntaxError(f"unexpected {value!r}", start)


def parse(text: str) -> Expr:
    """Parse expression text into a canonical expression."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering


class _AsciiPrinter(StrPrinter):
    def _print_ImaginaryUnit(self, expr):
        return "%i"

    def _print_Abs(self, expr):
        return f"abs({self._print(expr.args[0])})"


_printer = _AsciiPrinter()


def render(e: Expr) -> str:
    """Deterministic text form; ``parse(render(e))`` reproduces ``e``."""
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
    """Rational normal form over symbol and function kernels.

    The expression is rewritten as a single ratio of polynomials with
    common factors cancelled; it is exactly 0 iff the numerator is the zero
    polynomial.

    An expression built from symbols, rationals, ``+``, ``*``, integer
    powers and ``sin``, ``cos``, ``sinh``, ``cosh`` of any argument is
    computed in the fraction field Q(symbols, kernels), where every sum and
    product cancels its gcd as it is formed.  Its numerator and denominator
    are the pair ``sp.cancel`` gives, once the denominator leads with a
    positive coefficient: coprime over the integers, in sympy's generator
    order.  So no closing ``cancel`` is needed.

    ``sqrt`` and ``%i`` obey algebraic relations and sympy merges
    ``exp(x)*exp(y)``, so these, ``tan``, ``tanh``, ``log`` and ``abs`` are
    no generators: such an expression is combined term by term on
    expression trees, keeping intermediate fractions reduced (combining
    everything first makes the gcd step explode on curvature-sized
    expressions).
    """
    e = sp.sympify(e)
    frac = _as_fraction(e)
    if frac is not None:
        numer, denom = frac.numer, frac.denom
        if not numer:
            return sp.S.Zero
        if denom.LC < 0:
            numer, denom = -numer, -denom
        return numer.as_expr() / denom.as_expr()
    terms = sp.Add.make_args(e)
    if len(terms) > 2:
        acc = sp.S.Zero
        for t in terms:
            acc = sp.cancel(acc + sp.cancel(sp.together(t)))
        return acc
    return sp.cancel(sp.together(e))


def _as_fraction(e):
    """``e`` as an element of Q(symbols and kernels of e), or None if it is
    not a rational function of them or divides by zero."""
    found = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node.is_Symbol or node.func in (sp.sin, sp.cos, sp.sinh, sp.cosh):
            found.add(node)
        elif node.is_Add or node.is_Mul:
            stack.extend(node.args)
        elif node.is_Pow and node.exp.is_Integer:
            stack.append(node.base)
        elif not node.is_Rational:
            return None
    # sp.cancel's generator order; the first sort settles _sort_gens's ties
    field = _fraction_field(_sort_gens(sorted(found, key=sp.default_sort_key)))
    try:
        return field.from_expr(e)
    except ZeroDivisionError:
        return None


@functools.lru_cache(maxsize=128)
def _fraction_field(gens):
    return FracField(gens, sp.QQ)


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


def trigsimp(e: Expr) -> Expr:
    """Rational normal form with the Pythagorean substitutions applied.

    Only sin^2 -> 1 - cos^2 and cosh^2 -> 1 + sinh^2 are used; denominators
    holding odd powers of the eliminated kernels are rationalized so the
    substitution reaches them too.
    """
    return reduce_trig(ratsimp(e))


def reduce_trig(e: Expr) -> Expr:
    """:func:`trigsimp` of an expression already in :func:`ratsimp` form."""
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


#: Memo of zero-test answers, evicted first in, first out past the bound.
_ZERO_CACHE_MAX = 4096
_zero_cache: dict = {}


def is_zero(e: Expr) -> bool:
    """True iff ``trigsimp(ratsimp(e))`` is the literal constant 0."""
    e = sp.sympify(e)
    if e.is_Number:
        return e == 0
    key = e
    if key in _zero_cache:
        return _zero_cache[key]
    result = None
    # Cheap numeric probe first: a value clearly away from zero settles it.
    try:
        v = complex(sp.N(e.subs(_probe_point(e)), 20))
        if v == v and abs(v) > 1e-8:  # not NaN and clearly nonzero
            result = False
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        pass
    if result is None:
        result = trigsimp(e) == 0
    if len(_zero_cache) >= _ZERO_CACHE_MAX:
        del _zero_cache[next(iter(_zero_cache))]
    _zero_cache[key] = result
    return result


def _probe_point(e):
    subs = {}
    for i, s in enumerate(sorted(e.free_symbols, key=lambda s: s.name)):
        subs[s] = sp.Rational(137 + 29 * i, 100 + 7 * i)
    return subs


# ---------------------------------------------------------------------------
# independent numeric evaluation (used by tests as a cross-check and by the
# Petrov routine to certify expressions as nonzero)


def evaluate(e: Expr, values: dict | None = None) -> complex:
    """Numerically evaluate ``e`` with a plain recursive walker.

    ``values`` maps symbol names (or symbols) to numbers.  This path shares
    no simplification machinery with :func:`ratsimp`/:func:`diff`, which is
    what makes it useful as an independent oracle.
    """
    vals = {}
    for k, v in (values or {}).items():
        vals[k.name if isinstance(k, sp.Symbol) else k] = v
    return _eval(sp.sympify(e), vals)


_EVAL_FUNCS = {
    sp.sin: cmath.sin, sp.cos: cmath.cos, sp.tan: cmath.tan,
    sp.sinh: cmath.sinh, sp.cosh: cmath.cosh, sp.tanh: cmath.tanh,
    sp.exp: cmath.exp, sp.log: cmath.log, sp.sqrt: cmath.sqrt,
    sp.Abs: abs, sp.sign: lambda z: 0 if z == 0 else z / abs(z),
}


def _eval(e, vals):
    if e is sp.I:
        return 1j
    if e is PI:
        return cmath.pi
    if e.is_Integer:
        return int(e)
    if e.is_Rational:
        return Fraction(e.p, e.q)
    if e.is_Symbol:
        try:
            return vals[e.name]
        except KeyError:
            raise ValueError(f"no value supplied for symbol {e.name}")
    if e.is_Add:
        return sum(_eval(a, vals) for a in e.args)
    if e.is_Mul:
        out = 1
        for a in e.args:
            out *= _eval(a, vals)
        return out
    if e.is_Pow:
        base, ex = _eval(e.base, vals), _eval(e.exp, vals)
        if isinstance(base, Fraction) and isinstance(ex, (int, Fraction)) and ex == int(ex):
            return base ** int(ex)
        return complex(base) ** complex(ex)
    if e.func in _EVAL_FUNCS:
        return _EVAL_FUNCS[e.func](_eval(e.args[0], vals))
    raise ValueError(f"cannot evaluate node {e.func.__name__}({e})")
