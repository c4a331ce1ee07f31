import cmath
import importlib.util
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st
from sympy.printing.str import StrPrinter

from tensoralg import catalog, cli, scalars
from tensoralg.scalars import (ExprSyntaxError, certify_nonzero, diff,
                               evaluate, is_zero, parse, ratsimp, render, sym,
                               trigsimp)


def test_parse_product_of_powers():
    e = parse("r^2*sin(theta)^2")
    assert e == sym("r") ** 2 * sp.sin(sym("theta")) ** 2


def test_parse_arithmetic_identity():
    assert parse("1/2*(x+x)") == sym("x")


def test_parse_imaginary_unit_square():
    assert parse("%i^2") == sp.Integer(-1)


def test_parse_pi_is_opaque():
    e = parse("sin(%pi)")
    assert e == sp.sin(scalars.PI)  # not evaluated to 0


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + *y")
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*foo(x)")
    assert "unknown function" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse("x^y")  # non-constant exponent
    with pytest.raises(ExprSyntaxError):
        parse("x +")


@pytest.mark.parametrize("text", [
    "1/0", "x/(y-y)", "0^-2", "(x-x)^-1", "log(0)", "sqrt(x, 0)",
    "log(x, 2)", "sin(x, y)",
])
def test_parse_refuses_undefined_values_and_extra_arguments(text):
    # each used to parse, to zoo, to a one-argument call or to a base-2
    # log, or raised TypeError
    with pytest.raises(ExprSyntaxError):
        parse(text)


def test_render_examples():
    assert render(2 * sym("x")) == "2*x"
    assert render(sp.sin(sym("theta")) ** 2) == "sin(theta)^2"
    assert render(sym("x") - sym("y")) == "x - y"


@pytest.mark.parametrize("text", [
    "r^2*sin(theta)^2", "x - y", "1/(cosh(v)-cos(u))^2", "%i*x + %pi",
    "abs(q)*sqrt(r)", "-(x+1)^-2/3", "exp(x)*log(y)/tanh(z)", "2^10",
])
def test_parse_render_round_trip(text):
    e = parse(text)
    assert parse(render(e)) == e


def test_diff_table_and_power():
    assert diff(parse("sin(x)"), "x") == sp.cos(sym("x"))
    assert diff(parse("r^2"), "r") == 2 * sym("r")


def test_diff_quotient_against_finite_differences():
    # d/du 1/(cosh(v)-cos(u))^2 == -2 sin(u)/(cosh(v)-cos(u))^3
    g = parse("1/(cosh(v)-cos(u))^2")
    d = diff(g, "u")
    expected = parse("-2*sin(u)/(cosh(v)-cos(u))^3")
    assert is_zero(d - expected)
    h, point = 1e-6, {"u": 0.3, "v": 0.7}
    fd = (complex(evaluate(g, {"u": 0.3 + h, "v": 0.7}))
          - complex(evaluate(g, {"u": 0.3 - h, "v": 0.7}))) / (2 * h)
    assert abs(complex(evaluate(d, point)) - fd) < 1e-9 * max(1, abs(fd))


def test_diff_requires_symbol():
    with pytest.raises(TypeError):
        diff(parse("x^2"), parse("x+y"))


def test_ratsimp_polynomial_division():
    assert ratsimp(parse("(x^2-1)/(x-1)")) == sym("x") + 1


def test_ratsimp_common_denominator():
    a, b, c, d = (sym(n) for n in "abcd")
    out = ratsimp(parse("a/b + c/d"))
    num, den = out.as_numer_denom()
    assert sp.expand(num - (a * d + b * c)) == 0 and den == b * d


def test_ratsimp_petrov_branch_condition():
    # psi3^2 - 3 psi2 psi4 at (1, 3, 3) vanishes exactly
    assert ratsimp(sp.Integer(3) ** 2 - 3 * sp.Integer(1) * 3) == 0


def test_ratsimp_rational_form_matches_cancel():
    # exterior Schwarzschild g^tt component: the sign stays in the numerator
    assert render(ratsimp(parse("-m/(r^2-2*m*r)"))) == "-m/(-2*m*r + r^2)"
    # the field's denominator may lead with a negative coefficient; the sign
    # moves to the numerator and the coefficients are cleared, as cancel does
    assert render(ratsimp(parse("1/(y - x)"))) == "-1/(x - y)"
    assert render(ratsimp(parse("1/(x/2 - y/3)"))) == "6/(3*x - 2*y)"
    assert render(ratsimp(parse("1/(-2*sin(x))"))) == "-1/(2*sin(x))"
    # an identically zero denominator gives sympy's zoo, as before
    assert ratsimp(parse("1/((x+1)^2 - x^2 - 2*x - 1)")) == sp.zoo


def test_trigsimp_pythagorean():
    assert trigsimp(parse("sin(x)^2 + cos(x)^2")) == 1
    assert trigsimp(parse("cosh(u)^2 - sinh(u)^2")) == 1


def test_simplifying_a_number_builds_no_kernel_field(monkeypatch):
    built = []
    init = scalars.KernelField.__init__
    monkeypatch.setattr(scalars.KernelField, "__init__",
                        lambda self, *args: built.append(args) or init(
                            self, *args))
    for number in (sp.Integer(3), sp.Rational(1, 2)):
        assert trigsimp(number) == number and ratsimp(number) == number
    assert built == []
    assert trigsimp(parse("sin(x)^2 + cos(x)^2")) == 1 and built


def test_simplifiers_keep_roots_out_of_their_fields():
    # roots are no generators in ratsimp and trigsimp, whose results stay
    # the pair sp.cancel gives: a root in a denominator is not cleared
    for text in ("1/(1+sqrt(x))", "1/(sqrt(x/y) + x)"):
        e = parse(text)
        assert trigsimp(e) == ratsimp(e) == sp.cancel(sp.together(e))
    assert render(trigsimp(parse("1/(1+sqrt(x))"))) == "1/(sqrt(x) + 1)"


def test_trigsimp_quotient():
    out = trigsimp(parse("(1-cos(theta)^2)/sin(theta)"))
    assert out == sp.sin(sym("theta"))
    v = complex(evaluate(out - parse("sin(theta)"), {"theta": 0.4}))
    assert abs(v) < 1e-12


def test_is_zero_examples():
    assert is_zero(sp.S.Zero)
    assert is_zero(parse("sin(x)^2 + cos(x)^2 - 1"))
    assert not is_zero(parse("x - y"))


def test_zero_cache_is_bounded(monkeypatch):
    # the bound sits above the ~1,400 entries a Petrov run fills
    assert scalars._ZERO_CACHE_MAX > 1405
    monkeypatch.setattr(scalars, "_ZERO_CACHE_MAX", 8)
    monkeypatch.setattr(scalars, "_zero_cache", {})
    x = sym("x")
    probes = [parse("sin(x)^2 + cos(x)^2 - 1"), parse("x - y"),
              parse("(x^2 - 1)/(x - 1) - x - 1"), parse("cosh(x)^2 - 1")]
    before = [is_zero(e) for e in probes]
    assert before == [True, False, True, False]
    for k in range(30):
        is_zero(x ** 2 + k * x + 1)
        assert len(scalars._zero_cache) <= 8
    assert [is_zero(e) for e in probes] == before
    assert len(scalars._zero_cache) <= 8


def test_is_zero_nested_rational_trig():
    e = parse("(1-cos(t)^2)*(1+cos(t))/(sin(t)^2) - 1 - cos(t)")
    assert is_zero(e)


def test_abs_square_simplifies():
    # abs only appears multiplicatively in the frames; even powers must fold
    e = parse("abs(e)^2 - e^2")
    assert is_zero(e)


def test_evaluate_independent_walker():
    v = evaluate(parse("sin(x) + %i*y"), {"x": 0.5, "y": 2.0})
    assert abs(v - (math.sin(0.5) + 2j)) < 1e-12
    with pytest.raises(ValueError):
        evaluate(parse("x"), {})
    # 1/y at y = -1 is -1 on the real axis, so its root is %i
    for y in (-1, -1.0):
        assert evaluate(parse("sqrt(1/y)"), {"y": y}) == pytest.approx(1j)


# ---------------------------------------------------------------------------
# fuzzed properties


_NAMES = ("x", "y", "z")


def _exprs(depth=3):
    leaves = st.one_of(
        st.sampled_from(_NAMES).map(sym),
        st.integers(-4, 4).map(sp.Integer),
        st.fractions(min_value=-3, max_value=3, max_denominator=5)
        .map(lambda f: sp.Rational(f.numerator, f.denominator)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: t[0] + t[1]),
            st.tuples(children, children).map(lambda t: t[0] * t[1]),
            st.tuples(children, st.integers(1, 3)).map(lambda t: t[0] ** t[1]),
            children.map(sp.sin),
            children.map(sp.cos),
            children.map(lambda e: sp.exp(e / 4)),
        )
    return st.recursive(leaves, extend, max_leaves=8)


def _sample_point(rng):
    return {n: rng.uniform(0.2, 1.8) for n in _NAMES}


def _safe_eval(e, point):
    try:
        v = complex(evaluate(e, point))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    if v != v or abs(v) > 1e6:
        return None
    return v


@settings(max_examples=60, deadline=None)
@given(_exprs())
# sp.cancel splits exp(x/4 - 1/4) into exp(-1/4)*exp(x/4), which it reads
# as exp(x/4)/exp(1/4): ratsimp gave x + exp(-1/4)*exp(x/4), and ratsimp of
# that (x*exp(1/4) + exp(x/4))*exp(-1/4)
@example(parse("x + exp(x/4 - 1/4)"))
@example(parse("exp(x/4 - 1/4)^2 + 1/x"))
@example(parse("exp(2)*x + exp(y + 3)"))
def test_canonicalization_idempotent(e):
    r = ratsimp(e)
    assert ratsimp(r) == r
    t = trigsimp(e)
    assert trigsimp(t) == t


def _rational_exprs():
    leaves = st.one_of(
        st.sampled_from(_NAMES).map(sym),
        st.integers(-4, 4).map(sp.Integer),
        st.tuples(st.sampled_from([sp.sin, sp.cos, sp.sinh, sp.cosh]),
                  st.sampled_from(_NAMES)).map(lambda t: t[0](sym(t[1]))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: t[0] + t[1]),
            st.tuples(children, children).map(lambda t: t[0] * t[1]),
            st.tuples(children, st.sampled_from([-2, -1, 2, 3]))
            .map(lambda t: t[0] ** t[1]),
        )
    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=60, deadline=None)
@given(_rational_exprs())
def test_ratsimp_rational_matches_expression_cancel(e):
    # rational and trigonometric-rational input takes the fraction-field
    # path; its result must be the same expression as cancelling the
    # combined ratio on expression trees
    assume(e != 0 and not e.has(sp.zoo, sp.nan))
    for f in (e, 1 / e):
        assert ratsimp(f) == sp.cancel(sp.together(f))


def test_trig_rational_simplification_needs_no_expression_cancel(
        monkeypatch):
    # christoffel2 sums of the trigonometric ellipsoidal metric are
    # simplified in the fraction field, never by cancel on expression trees;
    # read into the context's field and printed by its rule, both forms
    # are the christoffel2 component
    ctx = catalog.load("ellipsoidal")
    K, c1, ug, n = ctx.field, ctx.christoffel1, ctx.ug, ctx.dim
    picks = [(1, 2, 2), (2, 2, 0), (0, 1, 0)]
    sums = [sum(c1[i][j][m] * ug[m][k] for m in range(n))
            for (i, j, k) in picks]
    assert all(s.has(sp.sin, sp.cos) for s in sums)

    def no_cancel(*args, **kwargs):
        raise AssertionError("sympy.cancel called")

    with monkeypatch.context() as m:
        m.setattr(sp, "cancel", no_cancel)
        out = [[K.expr(K.reduce_trig(K.element(form)))
                for form in (ratsimp(s), trigsimp(s))] for s in sums]
    for (i, j, k), printed in zip(picks, out):
        assert printed == [ctx.christoffel2[i][j][k]] * 2


def _kernel_exprs(max_leaves=8):
    # sin/cos/sinh/cosh of two different arguments and of their sum, and
    # negative odd powers that put odd kernels in denominators
    x, y = sym("x"), sym("y")
    leaves = st.one_of(
        st.sampled_from([x, y]),
        st.integers(-3, 3).map(sp.Integer),
        st.tuples(st.sampled_from([sp.sin, sp.cos, sp.sinh, sp.cosh]),
                  st.sampled_from([x, y, x + y])).map(lambda t: t[0](t[1])),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: t[0] + t[1]),
            st.tuples(children, children).map(lambda t: t[0] * t[1]),
            st.tuples(children, st.sampled_from([-3, -1, 2, 3]))
            .map(lambda t: t[0] ** t[1]),
        )
    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _in_field(e):
    """e's kernel field and element, or an unmet assumption
    when e is not a finite rational function."""
    assume(not e.has(sp.zoo, sp.nan))
    field = scalars.kernel_field([e])
    assert field is not None
    try:
        return field, field.element(e)
    except ZeroDivisionError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(_kernel_exprs(), st.sampled_from(["x", "y"]))
def test_field_derivation_matches_tree_diff(e, name):
    field, f = _in_field(e)
    x = sym(name)
    assert render(field.expr(field.diff(f, x))) == render(
        ratsimp(sp.diff(e, x)))


@settings(max_examples=80, deadline=None)
@given(_kernel_exprs(max_leaves=6))
def test_field_reduce_trig_matches_tree(e):
    field, f = _in_field(e)
    tree = scalars._reduce_trig_tree(ratsimp(e))
    assert render(field.expr(field.reduce_trig(f))) == render(tree)
    assert render(trigsimp(e)) == render(tree)


@settings(max_examples=80, deadline=None)
@given(_kernel_exprs(max_leaves=6), _kernel_exprs(max_leaves=6),
       st.booleans())
def test_field_zero_test_agrees_with_is_zero(a, b, vanish):
    x, y = sym("x"), sym("y")
    # a*(sin^2 + cos^2) - a and b*(cosh^2 - sinh^2) - b vanish only
    # modulo the Pythagorean relations
    e = (a * (sp.sin(x + y) ** 2 + sp.cos(x + y) ** 2) - a
         + b * (sp.cosh(y) ** 2 - sp.sinh(y) ** 2) - b)
    if not vanish:
        e += a * b
    field, f = _in_field(e)
    try:
        decided = field.vanishes(f)
    except scalars.UnclassifiableError:
        # a refusal only for a nonzero numerator in a field that is not
        # canonical, as sin(x) and sin(y) beside sin(x + y)
        assert not (vanish or field.canonical)
    else:
        assert decided == is_zero(e)
        assert decided or not vanish


# ---------------------------------------------------------------------------
# printing field elements from their terms

_PRINT_GENS = tuple(parse(t) for t in (
    "x", "y", "%pi", "sin(2*x)", "cos(2*x)", "sin(x + y)", "cos(x + y)",
    "sinh(y)", "cosh(y)"))


@st.composite
def _printed_quotients(draw):
    # quotients shaped like printed components: rational coefficients,
    # constant, one-term and lone-power denominators, n - c*g^k sums and
    # kernels of compound arguments
    gens = st.sampled_from(_PRINT_GENS)
    coeff = draw(st.lists(st.fractions(-9, 9, max_denominator=4).filter(bool)
                          .map(lambda q: sp.Rational(q.numerator,
                                                     q.denominator)),
                          min_size=12, max_size=12))

    def term():
        powers = draw(st.lists(st.tuples(gens, st.integers(1, 3)),
                               max_size=3))
        return coeff.pop() * sp.Mul(*[g ** k for g, k in powers])

    def part():
        kind = draw(st.sampled_from(["number", "term", "lone", "n - c*g",
                                     "sum"]))
        if kind == "number":
            return coeff.pop()
        if kind == "term":
            return term()
        if kind == "lone":
            return draw(gens) ** draw(st.integers(1, 3))
        if kind == "n - c*g":
            return abs(coeff.pop()) - abs(coeff.pop()) * draw(gens) ** draw(
                st.integers(1, 2))
        return sp.Add(*[term() for _ in range(draw(st.integers(2, 4)))])
    return part() / part()


@settings(max_examples=200, deadline=None)
@given(_printed_quotients(), st.booleans())
@example(parse("1 - x"), False)
@example(parse("-r*sin(x)^2 + 3"), False)
@example(parse("(x + y)/(2*r)"), False)
@example(parse("3/(2*(sin(2*x) + 1))"), False)
@example(parse("1/r^2"), False)
@example(parse("-1/(r*cos(x + y))"), False)
@example(parse("(1 - y)^-3"), False)
def test_field_printer_matches_render_and_reads_back(e, reduce):
    K, f = _in_field(e)
    if reduce:
        f = K.reduce_trig(f)
    text = render(f, K)
    assert text == render(K.expr(f))
    assert f.denom.LC > 0 and K.element(parse(text)) == f


@pytest.mark.parametrize("text, printed", [
    ("sqrt(r)^3", "r^(3/2)"),
    ("r*sin(1) + r*cos(1)", "r*cos(1) + r*sin(1)"),
])
def test_roots_and_constant_kernels_print_through_sympy(text, printed,
                                                         monkeypatch):
    # sympy writes a power of a root as one of its radicand and folds a
    # kernel of a constant into a term's coefficient, so an element holding
    # one is printed by sympy; an element of the same field without them is
    # not
    (K, (e,)), r = _root_field(text), sym("r")
    assert render(K.element(r ** 2), K) == "r^2"
    calls = []
    doprint = StrPrinter.doprint
    monkeypatch.setattr(StrPrinter, "doprint",
                        lambda self, x: calls.append(x) or doprint(self, x))
    assert render(K.element(r ** 2 / 2 - 1), K) == "r^2/2 - 1"
    assert calls == []
    f = K.element(e)
    assert render(f, K) == printed == render(K.expr(f))
    assert calls


@pytest.mark.parametrize("text, x, derivative, reduced, printed", [
    ("x*sin(x/2)^2", "x", "x*sin(x/2)*cos(x/2) + sin(x/2)^2",
     "-x*cos(x/2)^2 + x", "x*sin(x/2)^2"),
    ("cosh(2*x/3) + 1/x", "x", "(2*x^2*sinh(2*x/3) - 3)/(3*x^2)",
     "(x*cosh(2*x/3) + 1)/x", "(x*cosh(2*x/3) + 1)/x"),
    ("r*sin(1/2) + r", "r", "sin(1/2) + 1", "r*sin(1/2) + r",
     "r*sin(1/2) + r"),
])
def test_kernels_of_rational_arguments(text, x, derivative, reduced,
                                       printed):
    # a kernel argument with rational coefficients is an integer polynomial
    # over an integer denominator, which the derivative carries
    K, (f,) = scalars.in_field([parse(text)])
    assert K.text(K.diff(f, sym(x))) == derivative
    assert render(ratsimp(diff(parse(text), x))) == derivative
    assert K.text(K.reduce_trig(f)) == render(trigsimp(parse(text))) == reduced
    assert render(f, K) == render(ratsimp(parse(text))) == printed


HALF_ANGLE_FILE = """\
[chart] coords = u, v
[metric] row = 1, 0
[metric] row = 0, sin(u/2)^2
"""

HALF_ANGLE_TENSORS = """\
christoffel1[u,v,v] = sin(u/2)*cos(u/2)/2
christoffel1[v,u,v] = sin(u/2)*cos(u/2)/2
christoffel1[v,v,u] = -sin(u/2)*cos(u/2)/2
christoffel1: 5 zero components omitted
christoffel2[u,v,v] = cos(u/2)/(2*sin(u/2))
christoffel2[v,u,v] = cos(u/2)/(2*sin(u/2))
christoffel2[v,v,u] = -sin(u/2)*cos(u/2)/2
christoffel2: 5 zero components omitted
einstein: 4 zero components omitted
ricci[u,u] = 1/4
ricci[v,v] = sin(u/2)^2/4
ricci: 2 zero components omitted
riemann[u,u,v,v] = 1/4
riemann[u,v,u,v] = -1/4
riemann[v,u,v,u] = -sin(u/2)^2/4
riemann[v,v,u,u] = sin(u/2)^2/4
riemann: 12 zero components omitted
scalar = 1/2
"""


def test_metric_with_a_half_angle_kernel(tmp_path, capsys):
    path = tmp_path / "half.tm"
    path.write_text(HALF_ANGLE_FILE)
    assert cli.main(["compute", "--metric", str(path), "--tensors",
                     "all"]) == 0
    assert capsys.readouterr().out == HALF_ANGLE_TENSORS


@settings(max_examples=40, deadline=None)
@given(_exprs(), _exprs(), st.fractions(min_value=-3, max_value=3,
                                        max_denominator=4))
def test_diff_linearity(e1, e2, a):
    a = sp.Rational(a.numerator, a.denominator)
    lhs = diff(a * e1 + e2, "x")
    rhs = a * diff(e1, "x") + diff(e2, "x")
    assert is_zero(lhs - rhs)


@settings(max_examples=50, deadline=None)
@given(_exprs(), st.integers(0, 10 ** 6))
def test_ratsimp_numeric_agreement(e, seed):
    rng = random.Random(seed)
    point = _sample_point(rng)
    raw = _safe_eval(e, point)
    assume(raw is not None)
    simplified = _safe_eval(ratsimp(e), point)
    assume(simplified is not None)
    assert abs(simplified - raw) <= 1e-9 * max(1.0, abs(raw))


@settings(max_examples=50, deadline=None)
@given(_exprs(), st.integers(0, 10 ** 6))
def test_diff_matches_finite_differences(e, seed):
    rng = random.Random(seed)
    point = _sample_point(rng)
    d = diff(e, "x")
    exact = _safe_eval(d, point)
    assume(exact is not None and abs(exact) < 1e3)
    h = 1e-5
    up = dict(point, x=point["x"] + h)
    dn = dict(point, x=point["x"] - h)
    fp, fm = _safe_eval(e, up), _safe_eval(e, dn)
    assume(fp is not None and fm is not None)
    assume(abs(fp) < 1e5 and abs(fm) < 1e5)
    fd = (fp - fm) / (2 * h)
    assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact))


@settings(max_examples=40, deadline=None)
@given(_exprs())
# summands near 5e12 leave a double-precision residue near 5e-4
@example(sp.exp(sp.exp(sym("x") + 3) / 4))
# summands near 1e92 leave a 50-digit residue near 1e42
@example(sp.exp(sp.exp(sp.Rational(27, 4)) / 4))
def test_is_zero_soundness(e):
    # e*(x+y) - e*x - e*y is identically zero however e evaluates; the
    # residue is taken from the exact values of the points at 50 digits
    # beyond the digits of the largest summand
    x, y = sym("x"), sym("y")
    z = e * (x + y) - e * x - e * y
    assert is_zero(z)
    names = sorted(s.name for s in z.free_symbols)
    symbols = [sym(n) for n in names]
    residue = sp.lambdify(symbols, z, modules="mpmath")
    summands = [sp.lambdify(symbols, t, modules="mpmath")
                for t in sp.Add.make_args(z)]
    rng = random.Random(1234)
    for _ in range(20):
        point = _sample_point(rng)
        if _safe_eval(z, point) is not None:
            values = [mpmath.mpf(point[n]) for n in names]
            size = max(abs(t(*values)) for t in summands)
            digits = max(0, int(mpmath.log10(size))) if size else 0
            with mpmath.workdps(50 + digits):
                v = residue(*values)
            assert abs(v) < 1e-6


# ---------------------------------------------------------------------------
# roots as kernel-field generators

KERR_POINT = {"a": 1.7, "m": 1.1, "r": 5.0, "theta": 0.9, "t": 0.3,
              "phi": 0.4}
# the radicand (x^2+y)/(3-y) is a/b with b = y - 3 < 0 here
ROOT_POINT = {"x": 1.3, "y": 0.5, "u": 0.7}


def _root_field(*texts):
    exprs = [parse(t) for t in texts]
    return scalars.kernel_field(exprs), exprs


@pytest.mark.parametrize("text, name, point", [
    ("sqrt(a^2-2*m*r+r^2)/sqrt(r^2+a^2*cos(theta)^2)", "r", KERR_POINT),
    ("sqrt(a^2-2*m*r+r^2)/sqrt(r^2+a^2*cos(theta)^2)", "theta", KERR_POINT),
    ("x*sqrt((x^2+y)/(3-y))^3 + sin(u)/sqrt(x*cos(u))", "x", ROOT_POINT),
    ("x*sqrt((x^2+y)/(3-y))^3 + sin(u)/sqrt(x*cos(u))", "y", ROOT_POINT),
    ("x*sqrt((x^2+y)/(3-y))^3 + sin(u)/sqrt(x*cos(u))", "u", ROOT_POINT),
])
def test_root_derivative_matches_central_differences(text, name, point):
    # dq/dx = q (ab)'/(2ab) for the root q = b sqrt(a/b)
    field, (e,) = _root_field(text)
    assert field is not None
    d = field.expr(field.reduce_trig(field.diff(field.element(e),
                                                sym(name))))
    h = 1e-6
    up, down = dict(point), dict(point)
    up[name] += h
    down[name] -= h
    numeric = (complex(evaluate(e, up)) - complex(evaluate(e, down))) / (2 * h)
    got = complex(evaluate(d, point))
    assert abs(got - numeric) < 1e-5 * max(1, abs(numeric)), (got, numeric)


@pytest.mark.parametrize("texts, canonical", [
    (("sin(x)", "sin(2*x)"), False), (("sin(x)", "sin(x+1)"), False),
    (("sin(1)",), False), (("sin(x)", "sinh(x)"), True),
    (("sin(x*y)", "sin(x)"), True)])
def test_canonical_field(texts, canonical):
    # the arguments of the sin/cos kernels, and apart from them those of
    # the sinh/cosh kernels, must be nonconstant and linearly independent
    # over Q modulo constants
    field = scalars.kernel_field([parse(t) for t in texts])
    assert field.canonical is canonical


def test_field_decides_a_kernel_numerator_only_when_canonical():
    x = sym("x")
    field, (f,) = scalars.in_field([sp.sin(2 * x) - 2 * sp.sin(x) * sp.cos(x)])
    with pytest.raises(scalars.UnclassifiableError):
        field.vanishes(f)
    field, (f,) = scalars.in_field([x * sp.sin(x) - sp.cos(x) ** 2])
    assert field.vanishes(f) is False


@pytest.mark.parametrize("name", catalog.list_entries())
def test_catalog_fields_are_canonical(name):
    contexts = [catalog.load(name)]
    if catalog.entry(name).fri is not None:
        contexts.append(catalog.load(name, frame=True))
    for ctx in contexts:
        assert ctx.field is not None and ctx.field.canonical


def test_frame_petrov_tuple_fields_never_compute_canonical(monkeypatch,
                                                           tmp_path):
    # every numerator of a benchmark tuple reduces to one in symbols only,
    # so the zero test decides it before asking whether the field is
    # canonical
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", perfbench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module
    # the benchmark's workloads import its oracles by their plain name
    monkeypatch.setitem(sys.modules, "oracles", load("oracles"))
    workloads = load("workloads")
    asked = []
    canonical = scalars.KernelField.canonical.func
    monkeypatch.setattr(scalars.KernelField, "canonical", property(
        lambda field: (asked.append(field), canonical(field))[1]))
    jobs, _ = workloads.build("frame-petrov", 1, tmp_path)
    tuples = [job for job in jobs if job.kind == "tuple"]
    assert len(tuples) == 294
    for job in tuples:
        job.check(job.run())
    assert asked == []


def _root_generators():
    # the roots q = b*sqrt(a/b) of three independent radicands
    field = scalars.kernel_field([parse(t) for t in (
        "sqrt(x^2+y)", "sqrt((x+2)/(1-y))", "sqrt(r^2+a^2*cos(theta)^2)")])
    return sorted((g for g in field.field.symbols
                   if not (g.is_Symbol or g.func in scalars._KERNELS)),
                  key=sp.default_sort_key)


_SYMBOLS = st.sampled_from(
    # digit suffixes, a letter of each _gens_order band and none
    ["x", "x1", "x2", "x10", "y", "z", "a", "b3", "o", "p", "r", "w12",
     "theta", "phi2", "A", "Z", "%pi"]).map(sym)


@st.composite
def _generator_sets(draw):
    x, y = sym("x"), sym("y")
    arguments = _SYMBOLS | st.sampled_from(
        [x + y, x * y, 2 * x, x ** 2 + 1, x / 3 + y])
    kernels = st.builds(lambda f, u: f(u), st.sampled_from(scalars._KERNELS),
                        arguments)
    return draw(st.sets(_SYMBOLS | kernels | st.sampled_from(
        _root_generators()), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(_generator_sets())
def test_generator_order_is_sympys(gens):
    # sp.cancel's order, computed without printing a symbol or a kernel of
    # a symbol: goldens and table choices depend on it
    from sympy.polys.polyutils import _sort_gens
    assert scalars._ordered(gens) == _sort_gens(
        sorted(gens, key=sp.default_sort_key))


def test_kernel_field_orders_its_generators_without_printing(monkeypatch):
    printed = []
    doprint = StrPrinter.doprint
    monkeypatch.setattr(StrPrinter, "doprint", lambda self, e: (
        printed.append(e), doprint(self, e))[1])
    x1, x10, y = sym("x1"), sym("x10"), sym("y")
    field = scalars.kernel_field([x10 * sp.sin(y) + sp.cosh(x1) / y,
                                  scalars.PI * sp.cos(x1)])
    assert field is not None and printed == []


@pytest.mark.parametrize("radicand", [
    "a^2-2*m*r+r^2", "r^2+a^2*cos(theta)^2", "(x+2)/(1-y)",
    "(u^2-1)*(1-x^2)/(y-3)", "x*cosh(u)^2-7"])
def test_root_squares_to_its_radicand(radicand):
    field, (root, p) = _root_field(f"sqrt({radicand})", radicand)
    assert field is not None
    q, p = field.element(root), field.element(p)
    assert field.vanishes(q * q - p)
    inverse = field.reduce_trig(1 / q)
    assert field.vanishes(field.reduce_trig(inverse * q) - 1)
    assert not field.vanishes(q - 1)


@pytest.mark.parametrize("text", [
    "sqrt((x+2)/(y-1))", "sqrt((x+2)/(1-y))", "x/sqrt((x+2)/(1-y))^3"])
def test_root_of_a_ratio_agrees_with_its_element_where_b_is_negative(text):
    # sqrt(a/b) is q/b with q = b sqrt(a/b), not sqrt(ab)/b, which is its
    # negative where b < 0: here b = y - 1 = -1 and a/b = 3
    point = {"x": 1, "y": 0}
    field, (e,) = _root_field(text)
    assert field is not None
    f = field.element(e)
    want = complex(evaluate(e, point))
    for value, power in ((f, 1), (field.reduce_trig(f), 1),
                         (field.reduce_trig(f * f * f), 3)):
        got = complex(evaluate(field.expr(value), point))
        assert abs(got - want ** power) < 1e-12, (value, got, want)


@pytest.mark.parametrize("root, eliminated", [
    (None, "cos(x), sinh(x)"),
    ("sqrt(2 + cos(x))", "sin(x), sinh(x)"),
    ("sqrt(y + sinh(x))", "cos(x), cosh(x)")])
def test_no_root_relation_holds_an_eliminated_kernel(root, eliminated):
    # the entries have the fewest terms with cos and sinh eliminated, but a
    # kernel in the square of a root stays: _reduce_even needs the squares
    # free of eliminated generators, or is_zero could miss a zero
    entries = ["y*sin(x)^2", "cosh(x)^2 + y"]
    field, exprs = _root_field(*entries + ([root] if root else []))
    field.choose_table([field.element(e) for e in exprs[:2]])
    kernels = {g for i, g in enumerate(field.field.symbols)
               if i in field._eliminated and not g.is_Pow}
    assert kernels == {parse(k) for k in eliminated.split(", ")}
    _assert_roots_hold_no_eliminated_kernel(field)


def test_kerr_frame_root_relations_hold_no_eliminated_kernel():
    field = catalog.load("kerr_newman", frame=True).field
    assert field._radicals
    _assert_roots_hold_no_eliminated_kernel(field)


def _assert_roots_hold_no_eliminated_kernel(field):
    for _, square in field._radicals:
        assert not any(m[i] for m in square.itermonoms()
                       for i in field._eliminated)


# ---------------------------------------------------------------------------
# cancellation over the factor base


def _checked_field():
    """A field with a root and kernels, sin(u) and cosh(x) eliminated in
    favour of cos(u) and sinh(x), whose every split of a denominator
    over the factor base is checked to multiply back to it, and whose every
    cancellation is checked against sympy's full one: ``field.new`` of the
    same numerator and denominator, compared term by term."""
    field, _ = _root_field("sqrt(x^2 + y)", "x*y*sin(u)*cosh(x)")
    split, cancel = field._split, field._cancel

    def checked_split(den):
        c, exps = split(den)
        assert field._product(c, exps) == den
        return c, exps

    def checked_cancel(num, c, exps):
        got = cancel(num, c, exps)
        want = field.field.new(num, field._product(c, exps))
        assert (got.numer, got.denom) == (want.numer, want.denom)
        return got
    field._split, field._cancel = checked_split, checked_cancel
    return field


@st.composite
def _shared_factor_elements(draw):
    """(field, xs, ys): elements c * prod F_i^k_i and sums of two of them,
    over three random polynomials F_i shared by all, k_i in -2..1 and c a
    rational, so that numerators and denominators share factors.  The F_i
    hold no eliminated kernel, which keeps reduce_trig to one conjugate, by
    the root."""
    field = _checked_field()
    gens = [field._gens[parse(t)] for t in (
        "x", "y", "cos(u)", "sinh(x)", "sqrt(x^2 + y)")]
    monomial = st.tuples(st.integers(-3, 3).filter(bool),
                         st.lists(st.sampled_from(gens), max_size=2))
    factors = [p for p in draw(st.lists(st.lists(monomial, min_size=1,
                                                 max_size=2),
                                        min_size=3, max_size=3))
               for p in [sum((c * math.prod(g, start=field.ring.one)
                              for c, g in p), field.ring.zero)]]
    assume(all(factors))

    def product():
        c = draw(st.fractions(-6, 6, max_denominator=6).filter(bool))
        num, den = field.ring(c.numerator), field.ring(c.denominator)
        for f in factors:
            k = draw(st.integers(-2, 1))
            num, den = (num * f ** k, den) if k >= 0 else (num, den * f ** -k)
        return field.field.new(num, den)

    def element():
        return product() + product() if draw(st.booleans()) else product()
    size = draw(st.integers(1, 3))
    return field, [element() for _ in range(size)], [
        element() for _ in range(size)]


@settings(max_examples=30, deadline=None)
@given(_shared_factor_elements(), st.sampled_from(["x", "y", "u"]))
def test_factor_base_cancels_as_sympy_does(data, name):
    # every split and cancellation inside dot, diff and reduce_trig is
    # checked by the field, and dot also whole, against sympy's cancel of
    # the sum over the lcm of its denominators
    field, xs, ys = data
    got = field.dot(xs, ys)
    terms = [(x.numer * y.numer, x.denom * y.denom)
             for x, y in zip(xs, ys) if x and y]
    den = field.ring.one
    for _, d in terms:
        den = den.lcm(d)
    num = sum((n * den.exquo(d) for n, d in terms), field.ring.zero)
    want = field.field.new(field._reduce_even(num, field._radicals), den)
    assert (got.numer, got.denom) == (want.numer, want.denom)
    for f in xs + [got]:
        field.diff(f, sym(name))
        field.reduce_trig(f)


@pytest.mark.parametrize("vanishing", [False, True])
def test_trial_division_counts_only_with_remainder_zero(vanishing,
                                                        monkeypatch):
    # n = p*y + L with L the lcm of p's nonzero values at the test points
    # a: p(a) divides n(a), so the division is tried, and only its
    # remainder L shows that p does not divide n; where p(a) = 0 the point
    # tells nothing
    field = scalars.kernel_field([parse("x*y")])
    x, y = (field._gens[sym(t)] for t in "xy")
    p = x - (field._at(x)[0] if vanishing else 1)
    values = field._at(p)
    n = p * y + math.lcm(*(v for v in values if v))
    assert all(not v or m % v == 0 for m, v in zip(field._at(n), values))
    assert (0 in values) == vanishing
    divisions = []
    exquo = scalars._exquo
    monkeypatch.setattr(scalars, "_exquo",
                        lambda f, g: divisions.append(g) or exquo(f, g))
    f = field.element(scalars.TREES.expr(field.expr(field.field.new(n, p))))
    assert (f.numer, f.denom) == (n, p) and p in divisions
    assert field._base == [(p, values)]


def test_exact_division_needs_every_leading_coefficient_to_divide():
    field = scalars.kernel_field([parse("x*y")])
    x, y = (field._gens[sym(t)] for t in "xy")
    p = 2 * x + 1
    assert scalars._exquo(p * (x - 3 * y) ** 2, p) == (x - 3 * y) ** 2
    # 3xy + y = p*y + xy: every monomial divides by x, 3 not by 2
    assert scalars._exquo(3 * x * y + y, p) is None
    assert scalars._exquo(p * y + 1, p) is None


@pytest.mark.parametrize("texts", [
    ("sqrt((r-2*m)/r)", "sqrt(r)", "sqrt(r-2*m)"),
    ("sqrt(x*y)", "sqrt(x)", "sqrt(y)"),
    ("sqrt(1-cos(x)^2)", "sin(x)"),
    ("sqrt(x^3*y)", "sqrt(x*y)"),
    ("sqrt(x^2*y^2+2*x*y+1)",),
    ("sqrt(sqrt(x))",),
])
def test_dependent_radicands_stay_on_trees(texts):
    # a root that is a product of the others, or of sin(x), up to a square
    # (a square itself included) would need a branch to be written through
    # them; a nested root is no rational function of the generators
    field, _ = _root_field(*texts)
    assert field is None


def test_roots_of_one_square_are_two_generators():
    # sqrt((r-2m)/r) = q1/r and sqrt(r/(r-2m)) = q2/(r-2m) with
    # q1^2 = q2^2 = r(r-2m): q1 = q2 where r > 2m and q1 = -q2 where
    # 0 < r < 2m, so the ring keeps both and identifies neither
    field, _ = _root_field("sqrt((r-2*m)/r)", "sqrt(r/(r-2*m))")
    assert field is not None
    (i, p), (j, p2) = field._radicals
    r, m = (field._gens[sym(t)] for t in "rm")
    assert p == p2 == r * (r - 2 * m)
    q1, q2 = (field.field(field.ring.gens[k]) for k in (i, j))
    assert field.reduce_trig(q1 ** 2 - q2 ** 2) == 0
    assert not field.vanishes(field.reduce_trig(q1 - q2))
    with pytest.raises(ZeroDivisionError):
        field.reduce_trig(field.one / (q1 - q2))


def test_difference_of_two_roots_of_one_square_is_not_canonically_nonzero():
    # y*sqrt(x/y) - x*sqrt(y/x) is 0 wherever x*y > 0: a canonical field
    # holding both roots leaves it to the certificate, which refuses, and
    # it has no inverse
    field, (d, s) = _root_field("y*sqrt(x/y) - x*sqrt(y/x)",
                                "y*sqrt(x/y) + x")
    assert field.canonical
    with pytest.raises(scalars.UnclassifiableError):
        field.vanishes(field.element(d))
    assert not field.vanishes(field.element(s))
    assert field.zero_divisor(field.element(d))
    assert not field.zero_divisor(field.element(s))
    plain = scalars.kernel_field([parse("x - y")])
    assert not plain.zero_divisor(plain.element(parse("x - y")))


#: The walker of :func:`scalars.evaluate` in mpmath: the principal square
#: root, as cmath takes it.
_MP = {sp.I: mpmath.mpc(0, 1), sp.Rational: lambda q: mpmath.mpf(q.p) / q.q,
       sp.Pow: lambda base, ex: (mpmath.sqrt(base) ** int(2 * ex)
                                 if ex.denominator == 2 else base ** ex)}


def _polynomials():
    # integer combinations of 1, x, y, x*y, x^2, y^2, not all zero
    x, y = sym("x"), sym("y")
    monomials = (1, x, y, x * y, x ** 2, y ** 2)
    return st.lists(st.integers(-3, 3), min_size=6, max_size=6).filter(
        any).map(lambda cs: sum(c * t for c, t in zip(cs, monomials)))


@settings(max_examples=30, deadline=None)
@given(_polynomials(), _polynomials())
def test_roots_of_one_square_match_expression_trees(u, v):
    # sums, products and derivatives of sqrt(u/v) and sqrt(v/u) in their
    # ring equal the expression-tree values, at 50 digits, on both sides:
    # where u/v > 0 the two roots are reciprocal, where u/v < 0 their
    # product is -1
    x, y = sym("x"), sym("y")
    p, q = sp.sqrt(u / v), sp.sqrt(v / u)
    grid = [{"x": sp.Rational(a, 2), "y": sp.Rational(b, 3)}
            for a in (-5, -2, 1, 3, 7) for b in (-4, 1, 5)]
    signs = {}
    for point in grid:
        uv = (u * v).subs({x: point["x"], y: point["y"]})
        if uv:
            signs.setdefault(bool(uv > 0), point)
    assume(len(signs) == 2)
    field = scalars.kernel_field([p, q])
    assume(field is not None)
    P, Q = field.element(p), field.element(q)
    pairs = [(P + Q, p + q), (P * Q, p * q),
             (P * P * Q - 3 * Q, p * p * q - 3 * q),
             (field.diff(P, x), diff(p, x)), (field.diff(Q, y), diff(q, y)),
             (field.diff(P * Q + P, x), diff(p * q + p, x))]
    for point in signs.values():
        with mpmath.workdps(50):
            values = {n: _MP[sp.Rational](c) for n, c in point.items()}
            for f, tree in pairs:
                f = field.reduce_trig(f)
                assert not any(m[i] for m in f.denom.itermonoms()
                               for i in field._eliminated)
                got = scalars._eval(field.expr(f), values, _MP)
                want = scalars._eval(tree, values, _MP)
                assert abs(got - want) <= mpmath.mpf(10) ** -40 * max(
                    1, abs(want)), (f, tree, point)


# ---------------------------------------------------------------------------
# the nonzero certificate

_IDENTITIES = (
    lambda u: sp.sin(u) ** 2 + sp.cos(u) ** 2 - 1,
    lambda u: sp.cosh(u) ** 2 - sp.sinh(u) ** 2 - 1,
    lambda u: sp.sin(2 * u) - 2 * sp.sin(u) * sp.cos(u),
    lambda u: sp.tan(u) - sp.sin(u) / sp.cos(u),
)


def _rational_functions():
    # (c0 + c1 x + c2 y) / (d + x^2 + y^2) with some c nonzero and d > 0
    x, y = sym("x"), sym("y")
    coeffs = st.lists(st.integers(-9, 9), min_size=3, max_size=3).filter(any)
    return st.tuples(coeffs, st.integers(1, 20)).map(
        lambda t: (t[0][0] + t[0][1] * x + t[0][2] * y) / (t[1] + x ** 2
                                                          + y ** 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_IDENTITIES),
       st.sampled_from(["x", "y", "2*x - y", "x*y/3"]),
       st.integers(0, 15), _rational_functions())
def test_scaled_zero_identities_never_certify(identity, argument, k, w):
    # an enclosure of an identically zero value always holds 0, however
    # large the scale that magnifies its rounding
    e = identity(parse(argument)) * 10 ** k * w
    assert not certify_nonzero(e)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=5)
       .filter(bool), st.integers(1, 16), st.integers(1, 19),
       st.integers(1, 3))
def test_nonzero_tuple_products_certify(q, a, b, power):
    # the Weyl-scalar family q*(x + a)/(x^2 + b) and its powers
    x = sym("x")
    w = sp.Rational(q.numerator, q.denominator) * (x + a) / (x ** 2 + b)
    assert certify_nonzero(w ** power)


@pytest.mark.parametrize("text", [
    "-m/(r + %i*a*cos(theta))^3", "%i*x", "sqrt((r-2*m)/r) - 1/2",
    "cosh(u)*tanh(u) + tan(x)*exp(-x) + log(x)"])
def test_nonzero_expressions_certify(text):
    assert certify_nonzero(parse(text))


def test_certificate_skips_a_point_where_the_enclosure_fails(monkeypatch):
    # poles and a radicand on the square root's branch cut at the first
    # point; a later one certifies
    first, *rest = scalars._POINTS
    x0 = first(0)
    x = sym("x")
    for e in (1 / (x - x0), sp.cos(1 / (x - x0)) + 2,
              sp.sqrt(sp.I * (x - x0) - 1), sp.sign(x - x0)):
        with monkeypatch.context() as m:
            m.setattr(scalars, "_POINTS", (first,))
            assert not certify_nonzero(e)
        with monkeypatch.context() as m:
            m.setattr(scalars, "_POINTS", tuple(rest))
            assert certify_nonzero(e)
        assert certify_nonzero(e)


def test_node_without_interval_form_is_skipped():
    # atan has no interval form, so no point certifies, and is_zero decides
    # by the normal form
    e = sp.atan(sym("x")) + 2
    assert not certify_nonzero(e)
    assert not is_zero(e)


def test_sign_of_an_enclosure_that_excludes_0_certifies():
    # christoffel1[z,z,z] of a metric with abs(z); sign had no interval
    # form, so compute refused it
    z = sym("z")
    assert certify_nonzero(sp.sign(z) / 2)
    assert certify_nonzero(sp.sign(-z) + sp.Rational(1, 2))
    # a complex enclosure has no sign in interval form
    assert not certify_nonzero(sp.sign(z + sp.I))


def test_sin_2theta_spherical_component_does_not_certify():
    # riemann_lowered[1][1][2][2] of the flat spherical chart written with
    # g_phiphi = r^2 sin(2 theta)^2/(4 cos(theta)^2): identically zero, yet
    # sin(2 theta) and sin(theta) are independent kernels of the field
    e = parse("(-r^2*sin(theta)^2*sin(2*theta)^2"
              " - 2*r^2*sin(theta)*sin(2*theta)*cos(theta)*cos(2*theta)"
              " + r^2*sin(2*theta)^2*cos(theta)^2)/(2*cos(theta)^4)")
    assert not certify_nonzero(e)


@pytest.mark.parametrize("text", [
    "sqrt(%i*x)", "sqrt(x + %i)", "sqrt(-x)", "1/sqrt(%i*x + 1)"])
def test_complex_and_negative_radicands_certify(text):
    # the principal root of a complex or strictly negative enclosure; these
    # used to be refused as undecidable
    assert certify_nonzero(parse(text))
    assert scalars.vanishes(parse(text)) is False


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.booleans())
def test_interval_sqrt_encloses_the_principal_root(x, y, real):
    # a box around the point z holds sqrt(z) and, with room for the
    # rounding of cmath, its float value; only a box that meets the cut
    # (the negative real axis with 0) is refused
    iv = scalars._IV
    z = complex(x, 0 if real else y)
    d = 1e-9 * (1 + abs(z))
    re, im = iv.mpf([x - d, x + d]), iv.mpf([z.imag - d, z.imag + d])
    box = re if real else iv.mpc(re, im)
    try:
        w = scalars._interval_sqrt(box)
    except ValueError:
        assert x - d <= 0 and (real and x + d >= 0 or not real and 0 in im)
        return
    w = w if isinstance(w, iv.mpc) else iv.mpc(w)
    root = cmath.sqrt(z)
    assert root.real in w.real and root.imag in w.imag
