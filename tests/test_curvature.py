import warnings

import numpy as np
import pytest
import sympy as sp

import oracles
from tensoralg import catalog, curvature, scalars
from tensoralg.curvature import (Chart, DimensionError, MetricContext,
                                 setup_frame, setup_metric)
from tensoralg.scalars import is_zero, parse, sym


@pytest.fixture(scope="module")
def polar():
    return setup_metric(["r", "phi"], [["1", "0"], ["0", "r^2"]])


@pytest.fixture(scope="module")
def sphere():
    return setup_metric(["theta", "phi"],
                        [["a^2", "0"], ["0", "a^2*sin(theta)^2"]])


@pytest.fixture(scope="module")
def schwarzschild():
    return setup_metric(
        ["t", "r", "theta", "phi"],
        [["(2*m-r)/r", "0", "0", "0"],
         ["0", "r/(r-2*m)", "0", "0"],
         ["0", "0", "r^2", "0"],
         ["0", "0", "0", "r^2*sin(theta)^2"]])


def _all_zero(array, rank):
    if rank == 0:
        return is_zero(array)
    return all(_all_zero(sub, rank - 1) for sub in array)


# ---------------------------------------------------------------------------
# setup


def test_chart_validation():
    with pytest.raises(DimensionError):
        Chart(("x",))
    with pytest.raises(ValueError):
        Chart(("x", "x"))


@pytest.mark.parametrize("entry", [sp.zoo, sp.oo, -sp.oo, sp.nan,
                                   sp.Float(1.5), 1.5, sym("x") * sp.zoo])
def test_contexts_refuse_undefined_and_inexact_entries(entry):
    # such an entry used to be accepted, and an undefined one gave zero
    # Ricci; text entries are refused by the parser
    with pytest.raises(ValueError, match="finite exact"):
        setup_metric(["x", "y"], [[entry, 0], [0, 1]])
    with pytest.raises(ValueError, match="finite exact"):
        setup_frame(["x", "y"], [[1, 0], [0, 1]], [[1, 0], [0, entry]])
    ctx = setup_metric(["x", "y"], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="finite exact"):
        ctx.set_nonmetricity([entry, 0])
    with pytest.raises(ValueError, match="finite exact"):
        ctx.set_torsion([[[0, 0], [entry, 0]], [[0, 0], [0, 0]]])


def test_setup_metric_polar(polar):
    assert polar.diagonal
    assert polar.ug[0][0] == 1 and polar.ug[1][1] == 1 / sym("r") ** 2


def test_setup_metric_identity():
    flat = setup_metric(["x", "y"], [["1", "0"], ["0", "1"]])
    assert flat.diagonal and flat.ug == [[1, 0], [0, 1]]


def test_setup_metric_offdiagonal_involutory():
    ctx = setup_metric(["x", "y"], [["0", "1"], ["1", "0"]])
    assert not ctx.diagonal
    assert ctx.det == -1
    assert ctx.ug == [[0, 1], [1, 0]]


def test_setup_metric_undecided_offdiagonal_is_not_diagonal():
    # sin(2x) - 2 sin(x) cos(x) is 0, but the field holding sin(2x) beside
    # sin(x) cannot decide it: a refusal reads as not diagonal, and the
    # inverse metric is computed with the entry as it is
    murky = "sin(2*x) - 2*sin(x)*cos(x)"
    ctx = setup_metric(["x", "y"], [["1", murky], [murky, "x"]])
    assert ctx.field is not None and not ctx.field.canonical
    assert not ctx.diagonal
    inverse = sp.Matrix(ctx.lg).inv()
    point = {"x": sp.Rational(3, 2), "y": sp.Rational(1, 3)}
    for i in range(2):
        for j in range(2):
            got = complex(scalars.evaluate(ctx.ug[i][j], point))
            want = complex(scalars.evaluate(inverse[i, j], point))
            assert abs(got - want) < 1e-12


def test_setup_metric_rejects_asymmetric():
    with pytest.raises(ValueError):
        setup_metric(["x", "y"], [["1", "x"], ["0", "1"]])


def test_setup_metric_rejects_singular():
    with pytest.raises(ValueError):
        setup_metric(["x", "y"], [["1", "1"], ["1", "1"]])


def test_setup_frame_polar():
    ctx = setup_frame(["r", "phi"],
                      [["cos(phi)", "-r*sin(phi)"],
                       ["sin(phi)", "r*cos(phi)"]],
                      [["1", "0"], ["0", "1"]])
    assert ctx.cframe_flag
    assert ctx.lg == [[1, 0], [0, sym("r") ** 2]]


def test_setup_frame_identity():
    ctx = setup_frame(["x", "y"], [["1", "0"], ["0", "1"]],
                      [["1", "0"], ["0", "1"]])
    assert ctx.lg == [[1, 0], [0, 1]]


def test_setup_frame_schwarzschild():
    ctx = setup_frame(
        ["t", "r", "theta", "phi"],
        [["sqrt((r-2*m)/r)", "0", "0", "0"],
         ["0", "sqrt(r/(r-2*m))", "0", "0"],
         ["0", "0", "r", "0"],
         ["0", "0", "0", "r*sin(theta)"]],
        [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    expected = setup_metric(
        ["t", "r", "theta", "phi"],
        [["(2*m-r)/r", "0", "0", "0"],
         ["0", "r/(r-2*m)", "0", "0"],
         ["0", "0", "r^2", "0"],
         ["0", "0", "0", "r^2*sin(theta)^2"]])
    for i in range(4):
        for j in range(4):
            assert is_zero(ctx.lg[i][j] - expected.lg[i][j])


def test_frame_context_derives_a_given_metric():
    # a metric given beside the frame is only checked: the context computes
    # with the metric its frame derives, in the derived form
    rows = [["cos(phi)", "-r*sin(phi)"], ["sin(phi)", "r*cos(phi)"]]
    eta = [["1", "0"], ["0", "1"]]
    given = [["1", "0"], ["0", "r^2*(sin(phi)^2+cos(phi)^2)"]]
    ctx = MetricContext(["r", "phi"], given, fri=rows, lfg=eta)
    assert ctx.lg == setup_frame(["r", "phi"], rows, eta).lg
    assert ctx.lg == [[1, 0], [0, sym("r") ** 2]]
    with pytest.raises(ValueError, match="not orthonormal"):
        MetricContext(["r", "phi"], [["1", "0"], ["0", "r"]], fri=rows,
                      lfg=eta)


def test_setup_frame_rejects_singular():
    with pytest.raises(ValueError):
        setup_frame(["x", "y"], [["1", "1"], ["1", "1"]],
                    [["1", "0"], ["0", "1"]])


def test_frame_of_wrong_size_is_refused():
    # a 3x3 frame and a 2x2 frame metric on a four-dimensional chart
    with pytest.raises(ValueError, match="chart dimension"):
        MetricContext(["t", "x", "y", "z"],
                      [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
                       ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                      fri=[["1", "0", "0"], ["0", "1", "0"],
                           ["0", "0", "1"]],
                      lfg=[["1", "0"], ["0", "1"]])


@pytest.mark.parametrize("name", ["polar", "bipolar", "oblatespheroidalsqrt",
                                  "exteriorschwarzschild", "kerr_newman",
                                  "conical"])
def test_inverse_frame_is_exact(name):
    # E = g^-1 F^T eta inverts the frame: sum_i e_(a)^i e^(b)_i = delta_ab
    ctx = catalog.load(name, frame=True)
    E, f, n = ctx.frame_contravariant, ctx.fri, ctx.dim
    for a in range(n):
        for b in range(n):
            assert is_zero(sum(E[a][i] * f[b][i] for i in range(n))
                           - int(a == b)), (a, b)


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_polar_christoffels(polar):
    r = sym("r")
    c1, c2 = polar.christoffel1, polar.christoffel2
    assert c1[0][1][1] == r          # Gamma_{r phi phi}
    assert c1[1][1][0] == -r         # Gamma_{phi phi r}
    assert c2[1][1][0] == -r         # Gamma_{phi phi}^r
    assert c2[0][1][1] == 1 / r      # Gamma_{r phi}^phi
    assert _all_zero(setup_metric(["x", "y"],
                                  [["1", "0"], ["0", "1"]]).christoffel1, 3)


def test_christoffel_first_pair_symmetry(schwarzschild):
    c1 = schwarzschild.christoffel1
    n = 4
    for h in range(n):
        for k in range(n):
            for l in range(n):
                assert is_zero(c1[h][k][l] - c1[k][h][l])


def test_christoffel_independent_count(schwarzschild):
    # n^2 (n+1)/2 independent second-kind slots once (h, k) symmetry is used
    n = 4
    count = sum(1 for h in range(n) for k in range(h, n) for j in range(n))
    assert count == n * n * (n + 1) // 2


def test_christoffel2_matches_finite_differences(schwarzschild):
    gfun_raw = oracles.metric_fn(schwarzschild)
    point = [0.0, 5.0, 0.8, 0.3]
    def gfun(x):
        return gfun_raw(x, {"m": 1.0})
    fd = oracles.fd_christoffel2(gfun, point)
    values = dict(zip("t r theta phi".split(), point), m=1.0)
    c2 = schwarzschild.christoffel2
    for h in range(4):
        for k in range(4):
            for j in range(4):
                exact = complex(scalars.evaluate(c2[h][k][j], values)).real
                assert abs(exact - fd[h][k][j]) < 5e-7 * max(1, abs(exact))


# ---------------------------------------------------------------------------
# torsion and nonmetricity coefficients


def test_contortion_zero_torsion(polar):
    ctx = setup_metric(["r", "phi"], [["1", "0"], ["0", "r^2"]])
    ctx.set_torsion([[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]])
    assert _all_zero(ctx.contortion, 3)


def test_nonmetricity_zero_vector():
    ctx = setup_metric(["x", "y"], [["1", "0"], ["0", "1"]])
    ctx.set_nonmetricity(["0", "0"])
    assert _all_zero(ctx.nonmetricity_coeffs, 3)


def test_torsion_antisymmetry_validated():
    ctx = setup_metric(["x", "y"], [["1", "0"], ["0", "1"]])
    bad = [[["0", "0"], ["1", "0"]], [["1", "0"], ["0", "0"]]]
    with pytest.raises(ValueError):
        ctx.set_torsion(bad)


def test_contortion_and_nonmetricity_against_brute_force():
    # evaluate both formula implementations numerically at a random point
    ctx = setup_metric(["x", "y"], [["1+x^2", "x*y"], ["x*y", "2+y^2"]])
    tau = [[["0", "0"], ["x", "y"]], [["-x", "-y"], ["0", "0"]]]
    mu = ["x+1", "y+2"]
    ctx.set_torsion(tau)
    ctx.set_nonmetricity(mu)
    values = {"x": 0.7, "y": -0.4}

    def ev(e):
        return complex(scalars.evaluate(e, values)).real

    g = np.array([[ev(parse(x)) for x in row]
                  for row in (["1+x^2", "x*y"], ["x*y", "2+y^2"])])
    tau_n = np.array([[[ev(parse(x)) for x in row] for row in plane]
                      for plane in tau])
    mu_n = np.array([ev(parse(x)) for x in mu])
    kappa = oracles.contortion(g, tau_n)
    nu = oracles.nonmetricity_coeffs(g, mu_n)
    for i, j, k in np.ndindex(2, 2, 2):
        assert abs(ev(ctx.contortion[i][j][k]) - kappa[i, j, k]) < 1e-12
        assert abs(ev(ctx.nonmetricity_coeffs[i][j][k]) - nu[i, j, k]) < 1e-12


def test_connection_reductions():
    ctx = setup_metric(["r", "phi"], [["1", "0"], ["0", "r^2"]])
    # no torsion, no nonmetricity: connection is the first-kind Christoffel
    assert ctx.connection == ctx.christoffel1
    ctx2 = setup_metric(["r", "phi"], [["1", "0"], ["0", "r^2"]])
    tau = [[["0", "0"], ["r", "0"]], [["-r", "0"], ["0", "0"]]]
    ctx2.set_torsion(tau)
    n = 2
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert is_zero(ctx2.connection[a][b][c]
                               - ctx2.christoffel1[a][b][c]
                               + ctx2.contortion[a][b][c])


def test_frame_mode_connection_is_coordinate_christoffel1():
    # the connection carries coordinate indices on a frame context too
    ctx = setup_frame(["r", "phi"],
                      [["cos(phi)", "-r*sin(phi)"],
                       ["sin(phi)", "r*cos(phi)"]],
                      [["1", "0"], ["0", "1"]])
    assert ctx.connection == ctx.christoffel1


# ---------------------------------------------------------------------------
# curvature tensors


def test_flat_3d_riemann_zero():
    flat = setup_metric(["x", "y", "z"],
                        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert _all_zero(flat.riemann, 4)


def test_sphere_scalar_curvature(sphere):
    assert is_zero(sphere.ricci_scalar - 2 / sym("a") ** 2)


def test_sphere_ricci_proportional_to_metric(sphere):
    for i in range(2):
        for j in range(2):
            assert is_zero(sphere.ricci[i][j]
                           - sphere.lg[i][j] / sym("a") ** 2)


def test_schwarzschild_is_vacuum(schwarzschild):
    assert _all_zero(schwarzschild.ricci, 2)
    assert _all_zero(schwarzschild.einstein, 2)


def test_riemann_antisymmetry(schwarzschild):
    R = schwarzschild.riemann
    n = 4
    for h in range(n):
        for l in range(n):
            for k in range(n):
                for j in range(n):
                    assert is_zero(R[h][l][k][j] + R[h][k][l][j])


def test_ricci_symmetry(schwarzschild):
    ric = schwarzschild.ricci
    for i in range(4):
        for j in range(4):
            assert is_zero(ric[i][j] - ric[j][i])


def test_riemann_matches_finite_differences(schwarzschild):
    gfun_raw = oracles.metric_fn(schwarzschild)
    point = [0.0, 5.0, 0.8, 0.3]
    def gfun(x):
        return gfun_raw(x, {"m": 1.0})
    fd = oracles.fd_riemann(gfun, point)
    values = dict(zip("t r theta phi".split(), point), m=1.0)
    R = schwarzschild.riemann
    for h in range(4):
        for l in range(4):
            for k in range(4):
                for j in range(4):
                    exact = complex(
                        scalars.evaluate(R[h][l][k][j], values)).real
                    assert abs(exact - fd[h][l][k][j]) < 2e-5 * max(
                        1, abs(exact))


def test_riemann_matches_finite_differences_nondiagonal():
    ctx = setup_metric(["x", "y"], [["1+y^2", "x*y/2"], ["x*y/2", "2+x^2"]])
    gfun_raw = oracles.metric_fn(ctx)
    point = [0.6, -0.3]
    def gfun(xy):
        return gfun_raw(xy, {})
    fd = oracles.fd_riemann(gfun, point)
    values = {"x": 0.6, "y": -0.3}
    R = ctx.riemann
    for h in range(2):
        for l in range(2):
            for k in range(2):
                for j in range(2):
                    exact = complex(
                        scalars.evaluate(R[h][l][k][j], values)).real
                    assert abs(exact - fd[h][l][k][j]) < 2e-5 * max(
                        1, abs(exact))


def test_weyl_dimension_guards():
    flat2 = setup_metric(["x", "y"], [["1", "0"], ["0", "1"]])
    with pytest.raises(DimensionError):
        flat2.weyl
    flat3 = setup_metric(["x", "y", "z"],
                         [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = flat3.weyl
    assert any("three dimensions" in str(c.message) for c in caught)
    assert _all_zero(w, 4)


def test_weyl_trace_free(schwarzschild):
    W, ug = schwarzschild.weyl, schwarzschild.ug
    n = 4
    for j in range(n):
        for l in range(n):
            trace = sum(ug[i][k] * W[i][j][k][l]
                        for i in range(n) for k in range(n))
            assert is_zero(trace)


def test_weyl_of_schwarzschild_nonzero(schwarzschild):
    assert not _all_zero(schwarzschild.weyl, 4)


def test_weyl_matches_finite_differences_nondiagonal():
    # every (pair, pair) component is evaluated once and copied by symmetry;
    # the reference applies the Weyl formula to all n^4 finite-difference
    # components
    ctx = setup_metric(["t", "x", "y", "z"],
                       [["-1-x^2", "0", "0", "0"],
                        ["0", "1", "x*y/4", "0"],
                        ["0", "x*y/4", "2+y^2", "0"],
                        ["0", "0", "0", "1+x^2*z^2"]])
    point = [0.3, 0.6, -0.4, 0.5]
    gfun_raw = oracles.metric_fn(ctx)
    def gfun(x):
        return gfun_raw(x, {})
    ref = oracles.weyl(oracles.fd_riemann(gfun, point),
                       gfun(np.array(point)))
    values = dict(zip("txyz", point))
    W = ctx.weyl
    for i, j, k, l in np.ndindex(4, 4, 4, 4):
        exact = complex(scalars.evaluate(W[i][j][k][l], values)).real
        assert abs(exact - ref[i, j, k, l]) < 2e-5 * max(
            1, abs(ref[i, j, k, l]))
    assert not _all_zero(W, 4)


def test_weyl_does_not_raise_riemann():
    ctx = setup_metric(["t", "r", "theta", "phi"],
                       [["(2*m-r)/r", "0", "0", "0"],
                        ["0", "r/(r-2*m)", "0", "0"],
                        ["0", "0", "r^2", "0"],
                        ["0", "0", "0", "r^2*sin(theta)^2"]])
    ctx.weyl
    assert "riemann_lowered" in ctx._memo and "ricci" in ctx._memo
    assert "riemann" not in ctx._memo


def test_weyl_refuses_torsion():
    ctx = setup_metric(["t", "x", "y", "z"],
                       [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    ctx.set_nonmetricity(["0", "x", "0", "0"])
    with pytest.raises(ValueError):
        ctx.weyl


@pytest.mark.parametrize("coords, metric, tau, mu", [
    (["x", "y"], [["1+x^2", "x*y"], ["x*y", "2+y^2"]],
     {(0, 1, 0): "x", (0, 1, 1): "y"}, ["x+1", "y"]),
    (["x", "y", "z"], [["1", "0", "0"], ["0", "x^2", "0"], ["0", "0", "1"]],
     {(0, 1, 2): "z", (1, 2, 0): "x"}, ["0", "y", "x"]),
])
def test_non_plain_ricci_and_riemann_antisymmetry(coords, metric, tau, mu):
    # with torsion and nonmetricity the Ricci tensor is still contracted
    # from the lowered tensor; it must equal the trace R_ijk^k
    n = len(coords)
    ctx = setup_metric(coords, metric)
    values = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), text in tau.items():
        values[i][j][k] = text
        values[j][i][k] = f"-({text})"
    ctx.set_torsion(values)
    ctx.set_nonmetricity(mu)
    ric = ctx.ricci
    # the trace of the direct curvature: nothing is lowered
    assert "riemann_lowered" not in ctx._memo
    R = ctx.riemann
    assert not _all_zero(R, 4)
    for i in range(n):
        for j in range(n):
            assert is_zero(ric[i][j] - sum(R[i][j][k][k] for k in range(n)))
    for h, l, k, j in np.ndindex(n, n, n, n):
        assert is_zero(R[h][l][k][j] + R[h][k][l][j])


# (coords, metric rows, constant values); the 3D chart is a sphere of
# radius a times a line
PLANE = (["x", "y"], [["1+x^2", "x*y"], ["x*y", "2+y^2"]], {})
SPHERE_LINE = (["theta", "phi", "z"],
               [["a^2", "0", "0"], ["0", "a^2*sin(theta)^2", "0"],
                ["0", "0", "1"]], {"a": 1.3})
# chart, torsion entries tau_ij^k (i < j), nonmetricity vector, sample point
CONNECTIONS = {
    "torsion-2d": (PLANE, {(0, 1, 0): "x", (0, 1, 1): "x*y"}, None,
                   [0.7, -0.4]),
    "nonmetricity-2d": (PLANE, None, ["x*y", "y+1"], [0.7, -0.4]),
    "both-2d": (PLANE, {(0, 1, 0): "y"}, ["x*y", "y+1"], [0.7, -0.4]),
    "torsion-3d": (SPHERE_LINE, {(0, 1, 2): "z", (1, 2, 0): "theta",
                                 (0, 2, 1): "1"}, None, [0.8, 0.3, 0.6]),
    "nonmetricity-3d": (SPHERE_LINE, None, ["z", "theta*phi", "1"],
                        [0.8, 0.3, 0.6]),
    "both-3d": (SPHERE_LINE, {(0, 1, 2): "z", (1, 2, 0): "theta"},
                ["z", "theta*phi", "1"], [0.8, 0.3, 0.6]),
}


def _torsion(n, entries):
    values = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), text in entries.items():
        values[i][j][k] = text
        values[j][i][k] = f"-({text})"
    return values


def _connection_context(ctx, tau, mu):
    if tau:
        ctx.set_torsion(_torsion(ctx.dim, tau))
    if mu:
        ctx.set_nonmetricity(mu)
    return ctx


@pytest.mark.parametrize("case", list(CONNECTIONS))
def test_connection_riemann_matches_finite_differences(case):
    # reference: the curvature of the numeric connection built from g, tau
    # and mu with the brute-force contortion and nonmetricity formulas
    (coords, rows, constants), tau, mu, point = CONNECTIONS[case]
    ctx = _connection_context(setup_metric(coords, rows), tau, mu)

    def numeric(entries):
        fn = oracles.array_fn(entries, coords)
        return lambda x: fn(x, constants)

    gamma = oracles.fd_connection2(
        numeric(ctx.lg), numeric(ctx.torsion_values) if tau else None,
        numeric(ctx.nonmetricity_values) if mu else None)
    fd = oracles.fd_curvature(gamma, point)
    values = dict(zip(coords, point), **constants)
    R = ctx.riemann
    assert not _all_zero(R, 4)
    for h, l, k, j in np.ndindex(fd.shape):
        exact = complex(scalars.evaluate(R[h][l][k][j], values)).real
        assert abs(exact - fd[h, l, k, j]) < 2e-5 * max(1, abs(exact)), \
            (h, l, k, j)


@pytest.mark.parametrize("case", list(CONNECTIONS))
def test_connection_torsion_and_nonmetricity_conventions(case):
    # G_hk^j - G_kh^j = tau_hk^j and nabla_h g_kl = -mu_h g_kl, with h the
    # derivative index of connection2; a metric-compatible connection has a
    # lowered curvature antisymmetric in its metric pair (h, j)
    (coords, rows, _), tau, mu, _ = CONNECTIONS[case]
    ctx = _connection_context(setup_metric(coords, rows), tau, mu)
    n, c2, g, x = ctx.dim, ctx.connection2, ctx.lg, ctx.coords
    T = ctx.torsion_values or np.zeros((n, n, n), dtype=int).tolist()
    M = ctx.nonmetricity_values or [0] * n
    for h, k, l in np.ndindex(n, n, n):
        assert is_zero(c2[h][k][l] - c2[k][h][l] - T[h][k][l]), (h, k, l)
        nabla = sp.diff(g[k][l], x[h]) - sum(
            c2[h][k][m] * g[m][l] + c2[h][l][m] * g[k][m] for m in range(n))
        assert is_zero(nabla + M[h] * g[k][l]), (h, k, l)
    if mu is None:
        RL = ctx.riemann_lowered
        for h, l, k, j in np.ndindex(n, n, n, n):
            assert is_zero(RL[h][l][k][j] + RL[j][l][k][h]), (h, l, k, j)


# ---------------------------------------------------------------------------
# frame quantities


def test_constant_frame_has_no_structure():
    ctx = setup_frame(["x", "y"], [["1", "0"], ["0", "1"]],
                      [["1", "0"], ["0", "1"]])
    assert _all_zero(ctx.frame_bracket, 3)
    assert _all_zero(ctx.rotation_coeffs, 3)
    assert _all_zero(ctx.riemann_frame, 4)


def test_rotation_coeffs_antisymmetry_polar():
    ctx = setup_frame(["r", "phi"],
                      [["cos(phi)", "-r*sin(phi)"],
                       ["sin(phi)", "r*cos(phi)"]],
                      [["1", "0"], ["0", "1"]])
    gam = ctx.rotation_coeffs
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert is_zero(gam[a][b][c] + gam[b][a][c])


def test_rotation_coeffs_antisymmetry_schwarzschild_and_count():
    ctx = setup_frame(
        ["t", "r", "theta", "phi"],
        [["sqrt((r-2*m)/r)", "0", "0", "0"],
         ["0", "sqrt(r/(r-2*m))", "0", "0"],
         ["0", "0", "r", "0"],
         ["0", "0", "0", "r*sin(theta)"]],
        [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    gam = ctx.rotation_coeffs
    n = 4
    nonzero_slots = 0
    for a in range(n):
        for c in range(n):
            assert is_zero(gam[a][a][c])
        for b in range(n):
            for c in range(n):
                assert is_zero(gam[a][b][c] + gam[b][a][c])
                if a < b and not is_zero(gam[a][b][c]):
                    nonzero_slots += 1
    assert nonzero_slots <= n * n * (n - 1) // 2  # 24 in four dimensions


def test_frame_bracket_antisymmetric_last_pair():
    ctx = setup_frame(["theta", "phi"], [["a", "0"], ["0", "a*sin(theta)"]],
                      [["1", "0"], ["0", "1"]])
    lam = ctx.frame_bracket
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert is_zero(lam[a][b][c] + lam[a][c][b])


def _frame_trace(ctx):
    """eta^ab ricci_frame[a][b]: the scalar curvature from the frame Ricci
    tensor."""
    ufg, ric = sp.Matrix(ctx.lfg).inv(), ctx.ricci_frame
    return sum(ufg[a, b] * ric[a][b]
               for a in range(ctx.dim) for b in range(ctx.dim))


def test_frame_coordinate_agreement_polar():
    coord = setup_metric(["r", "phi"], [["1", "0"], ["0", "r^2"]])
    frame = setup_frame(["r", "phi"],
                        [["cos(phi)", "-r*sin(phi)"],
                         ["sin(phi)", "r*cos(phi)"]],
                        [["1", "0"], ["0", "1"]])
    assert is_zero(coord.ricci_scalar - _frame_trace(frame))


def test_frame_coordinate_agreement_sphere():
    # curved case pins the frame-curvature conventions
    coord = setup_metric(["theta", "phi"],
                         [["a^2", "0"], ["0", "a^2*sin(theta)^2"]])
    frame = setup_frame(["theta", "phi"],
                        [["a", "0"], ["0", "a*sin(theta)"]],
                        [["1", "0"], ["0", "1"]])
    assert is_zero(_frame_trace(frame) - coord.ricci_scalar)
    assert is_zero(_frame_trace(frame) - 2 / sym("a") ** 2)


def test_frame_coordinate_agreement_schwarzschild():
    frame = setup_frame(
        ["t", "r", "theta", "phi"],
        [["sqrt((r-2*m)/r)", "0", "0", "0"],
         ["0", "sqrt(r/(r-2*m))", "0", "0"],
         ["0", "0", "r", "0"],
         ["0", "0", "0", "r*sin(theta)"]],
        [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    assert is_zero(frame.ricci_scalar)
    assert is_zero(_frame_trace(frame) - frame.ricci_scalar)


MINUS_PLUS = [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
# curved, not vacuum, with the non-diagonal metric entry g_tx = -y
TWISTED = (["t", "x", "y", "z"],
           [["1", "y", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "x"]], ())
SCHWARZSCHILD = (["t", "r", "theta", "phi"],
                 [["sqrt((r-2*m)/r)", "0", "0", "0"],
                  ["0", "sqrt(r/(r-2*m))", "0", "0"],
                  ["0", "0", "r", "0"],
                  ["0", "0", "0", "r*sin(theta)"]], ("m",))


def test_weyl_frame_matches_coordinate_weyl():
    # reference: the coordinate Weyl tensor with every slot carried into
    # the frame by e_(a)^i
    coords, rows, _ = TWISTED
    ctx = setup_frame(coords, rows, MINUS_PLUS)
    assert not ctx.diagonal and not _all_zero(ctx.ricci, 2)
    W, Wf, E = ctx.weyl, ctx.weyl_frame, ctx.frame_contravariant
    assert not _all_zero(Wf, 4)
    legs = [[i for i in range(4) if E[a][i] != 0] for a in range(4)]
    for a, b, c, d in np.ndindex(4, 4, 4, 4):
        ref = sum(W[i][j][k][l] * E[a][i] * E[b][j] * E[c][k] * E[d][l]
                  for i in legs[a] for j in legs[b] for k in legs[c]
                  for l in legs[d])
        assert is_zero(Wf[a][b][c][d] - ref), (a, b, c, d)


@pytest.mark.parametrize("frame", [TWISTED, SCHWARZSCHILD])
def test_riemann_frame_pair_fill_matches_loop(frame):
    # a zero nonmetricity vector leaves the connection as it is, but every
    # slot of its curvature is then carried into the frame on its own
    coords, rows, _ = frame
    filled = setup_frame(coords, rows, MINUS_PLUS)
    looped = setup_frame(coords, rows, MINUS_PLUS)
    looped.set_nonmetricity(["0"] * 4)
    assert filled.plain_connection and not looped.plain_connection
    A, B = filled.riemann_frame, looped.riemann_frame
    assert not _all_zero(A, 4)
    for d, a, b, c in np.ndindex(4, 4, 4, 4):
        assert is_zero(A[d][a][b][c] - B[d][a][b][c]), (d, a, b, c)


@pytest.mark.parametrize("tau, mu", [({(0, 1, 2): "0"}, None),
                                     (None, ["0"] * 4)])
def test_zero_torsion_or_nonmetricity_keeps_frame_curvature(tau, mu):
    coords, rows, _ = SCHWARZSCHILD
    plain = setup_frame(coords, rows, MINUS_PLUS)
    ctx = _connection_context(setup_frame(coords, rows, MINUS_PLUS), tau, mu)
    assert not ctx.plain_connection
    A, B = plain.riemann, ctx.riemann
    for h, l, k, j in np.ndindex(4, 4, 4, 4):
        assert is_zero(A[h][l][k][j] - B[h][l][k][j]), (h, l, k, j)
    assert _all_zero(ctx.ricci, 2)


IDENTITY3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
POLAR_FRAME = (["r", "phi"], [["1", "0"], ["0", "r"]], ())
SPHERE_FRAME = (["theta", "phi"], [["a", "0"], ["0", "a*sin(theta)"]],
                ("a",))
TWISTED3 = (["x", "y", "z"], [["1", "y", "0"], ["0", "1", "0"],
                              ["0", "0", "x"]], ())
CONSTANT_VALUES = {"m": 1.1, "a": 1.7}
# frame, frame metric, torsion entries, nonmetricity vector, sample point
FRAME_CONNECTIONS = {
    "schwarzschild": (SCHWARZSCHILD, MINUS_PLUS, None, None,
                      [0.3, 5.0, 0.9, 0.4]),
    "twisted": (TWISTED, MINUS_PLUS, None, None, [0.3, 1.4, 0.6, -0.7]),
    "sphere": (SPHERE_FRAME, [["1", "0"], ["0", "1"]], None, None,
               [0.9, 0.4]),
    "polar-cylindrical-nonmetricity": (
        (["r", "phi", "z"], [["1", "0", "0"], ["0", "r", "0"],
                             ["0", "0", "1"]], ()),
        IDENTITY3, None, ["r", "0", "1"], [1.4, 0.6, -0.7]),
    "twisted-torsion-and-nonmetricity": (
        TWISTED3, IDENTITY3, {(0, 1, 2): "z", (1, 2, 0): "x"},
        ["0", "y", "x"], [1.4, 0.6, -0.7]),
    # frames with roots as kernel-field generators, some of them in g
    "roots-3d": ((["x", "y", "z"], [["sqrt(x*y)", "0", "z"],
                                    ["0", "sqrt((x+1)/(y-3))", "0"],
                                    ["x", "0", "1"]], ()),
                 IDENTITY3, None, None, [0.7, 4.3, 0.2]),
    "roots-4d": ((["t", "x", "y", "z"], [["sqrt(1+x^2)", "0", "0", "y"],
                                         ["0", "1/sqrt(1+x^2)", "0", "0"],
                                         ["0", "0", "sqrt(x)*cos(y)", "0"],
                                         ["0", "0", "0", "x"]], ()),
                 MINUS_PLUS, None, None, [0.1, 0.7, 0.4, 0.2]),
}


def _frame_case(case):
    """The context of a frame case and numeric F(x), eta, g(x) and the
    numeric connection Gamma(x)[h][k][j] built from them."""
    (coords, rows, _), eta, tau, mu, point = case
    ctx = _connection_context(setup_frame(coords, rows, eta), tau, mu)

    def numeric(entries):
        fn = oracles.array_fn(entries, coords)
        return lambda x: fn(x, CONSTANT_VALUES)

    F, eta = numeric(rows), np.array(eta, dtype=float)

    def gfun(x):
        return F(x).T @ eta @ F(x)

    gamma = oracles.fd_connection2(
        gfun, numeric(ctx.torsion_values) if tau else None,
        numeric(ctx.nonmetricity_values) if mu else None)
    return ctx, numeric, F, eta, gfun, gamma, np.array(point)


def _close(got, ref):
    # the relative tolerance of the finite-difference tests above
    assert np.all(np.abs(got - ref) < 2e-5 * np.maximum(1, np.abs(ref)))


@pytest.mark.parametrize("case", list(FRAME_CONNECTIONS))
def test_non_metric_frame_curvature_is_frame_components(case):
    # reference: the finite-difference curvature of the numeric connection,
    # lowered with g, with every slot carried into the frame by the inverse
    # of the numeric frame rows; and the coordinate curvature carried into
    # the frame in numpy
    ctx, numeric, F, _, gfun, gamma, point = _frame_case(
        FRAME_CONNECTIONS[case])
    E = np.linalg.inv(F(point)).T
    R, g = oracles.fd_curvature(gamma, point), gfun(point)
    RL = np.einsum("hlkm,mj->hlkj", R, g)
    Rf = numeric(ctx.riemann_frame)(point)
    assert np.abs(Rf).max() > 1e-3
    _close(Rf, np.einsum("hlkj,dh,al,bk,cj->dabc", RL, E, E, E, E))
    _close(numeric(ctx.ricci_frame)(point),
           np.einsum("hlkk,dh,al->da", R, E, E))
    if ctx.plain_connection and ctx.dim == 4:
        _close(numeric(ctx.weyl_frame)(point),
               np.einsum("hlkj,dh,al,bk,cj->dabc", oracles.weyl(R, g),
                         E, E, E, E))
    E = numeric(ctx.frame_contravariant)(point)
    assert np.allclose(Rf, np.einsum("hlkj,dh,al,bk,cj->dabc",
                                     numeric(ctx.riemann_lowered)(point),
                                     E, E, E, E), rtol=1e-9, atol=1e-9)
    assert np.allclose(numeric(ctx.ricci_frame)(point),
                       np.einsum("hl,dh,al->da", numeric(ctx.ricci)(point),
                                 E, E), rtol=1e-9, atol=1e-9)


def _catalog_frame(name):
    ent = catalog.entry(name)
    return (list(ent.coords), [list(row) for row in ent.fri], ent.constants)


ROTATION_FRAMES = {
    "twisted-torsion": (TWISTED3, IDENTITY3,
                        {(0, 1, 2): "z", (1, 2, 0): "x"}, None,
                        [1.4, 0.6, -0.7]),
    "polar": (POLAR_FRAME, [["1", "0"], ["0", "1"]], None, None, [1.3, 0.4]),
    "schwarzschild": FRAME_CONNECTIONS["schwarzschild"],
    "polar-cylindrical-nonmetricity":
        FRAME_CONNECTIONS["polar-cylindrical-nonmetricity"],
    "twisted-torsion-and-nonmetricity":
        FRAME_CONNECTIONS["twisted-torsion-and-nonmetricity"],
    "kerr_newman": (_catalog_frame("kerr_newman"), MINUS_PLUS, None, None,
                    [0.3, 5.0, 0.9, 0.4]),
    "roots-3d": FRAME_CONNECTIONS["roots-3d"],
    "roots-4d": FRAME_CONNECTIONS["roots-4d"],
}


@pytest.mark.parametrize("case", list(ROTATION_FRAMES))
def test_rotation_coeffs_are_frame_components_of_the_connection(case):
    # reference: gamma_abc = E_b^i E_c^k (d_k e_(a)i - Gamma_ki^m e_(a)m)
    # with the numeric connection and central differences of the frame
    ctx, numeric, F, eta, _, gamma, point = _frame_case(
        ROTATION_FRAMES[case])

    def lowered(x):
        return eta @ F(x)

    h, n = 1e-6, ctx.dim
    de = np.array([(lowered(point + h * step) - lowered(point - h * step))
                   / (2 * h) for step in np.eye(n)])  # de[k][a][i]
    cov = (np.einsum("kai->aik", de)
           - np.einsum("kim,am->aik", gamma(point), lowered(point)))
    E = np.linalg.inv(F(point)).T
    got = numeric(ctx.rotation_coeffs)(point)
    assert np.abs(got).max() > 1e-3
    _close(got, np.einsum("aik,bi,ck->abc", cov, E, E))
    # the frame bracket E_b^i E_c^k (d_k e_(a)i - d_i e_(a)k + tau_ik^m
    # e_(a)m), which nonmetricity does not enter
    bracket = np.einsum("kai->aik", de) - np.einsum("iak->aik", de)
    if ctx.torsion_values is not None:
        bracket += np.einsum("ikm,am->aik", numeric(ctx.torsion_values)(point),
                             lowered(point))
    _close(numeric(ctx.frame_bracket)(point),
           np.einsum("aik,bi,ck->abc", bracket, E, E))


def test_frame_ops_require_frame(polar):
    with pytest.raises(ValueError):
        polar.rotation_coeffs


# ---------------------------------------------------------------------------
# memoization


def test_memo_invalidated_by_torsion():
    ctx = setup_metric(["r", "phi"], [["1", "0"], ["0", "r^2"]])
    before = ctx.connection
    ctx.set_torsion([[["0", "0"], ["r", "0"]], [["-r", "0"], ["0", "0"]]])
    after = ctx.connection
    assert before != after


# ---------------------------------------------------------------------------
# scalar domains


STAGES = ("det", "ug", "christoffel1", "christoffel2", "riemann_lowered",
          "riemann", "ricci", "ricci_scalar", "einstein", "weyl")


# metrics holding roots, which are generators of their kernel field
ROOT_METRICS = {
    "sqrt(u)": (["u", "v"], [["sqrt(u)", "v"], ["v", "u^2+1"]]),
    "sqrt(x^2+y)": (["x", "y"], [["sqrt(x^2+y)", "sin(x)"],
                                 ["sin(x)", "cosh(y)"]]),
}


def _load(name):
    if name == "twisted":
        coords, rows, _ = TWISTED
        return setup_frame(coords, rows, MINUS_PLUS)
    if name in ROOT_METRICS:
        return setup_metric(*ROOT_METRICS[name])
    return catalog.load(name)


@pytest.mark.parametrize("name", ["spherical", "toroidal",
                                  "interiorschwarzschild", "twisted",
                                  *ROOT_METRICS])
def test_field_stages_equal_expression_tree_stages(name, monkeypatch):
    # the same metric with its kernel field refused computes every stage
    # on expression trees; each tree component, read into the field and
    # printed by the field's rule, must be the field stage's component.
    # The metric of the twisted frame is not diagonal, so det and ug take
    # the cofactor path.
    in_field = _load(name)
    K = in_field.field
    assert K is not None
    monkeypatch.setattr(scalars, "kernel_field", lambda *args, **kw: None)
    on_trees = _load(name)
    assert on_trees.field is None

    def printed(e):
        return K.expr(K.reduce_trig(K.element(e)))

    for stage in STAGES[:-1] + (("weyl",) if in_field.dim >= 4 else ()):
        assert getattr(in_field, stage) == scalars._map(
            printed, getattr(on_trees, stage)), stage
        assert in_field.vanishing(stage) == on_trees.vanishing(stage), stage


def test_kerr_frame_stages_stay_in_the_field(monkeypatch):
    # the roots of the Kerr frame are field generators: once the frame is
    # read into the field, no frame stage reads a component back from an
    # expression or runs an expression-tree simplifier
    from sympy.polys.fields import FracElement, FracField

    ctx = catalog.load("kerr_newman", frame=True)
    assert ctx.field is not None
    assert any(g.is_Pow for g in ctx.field.field.symbols)
    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(FracField, "from_expr")
    for name in (*oracles.TREE_SIMPLIFIERS, "is_zero", "diff"):
        counted(scalars, name)
    ctx.rotation_coeffs
    ctx.riemann_frame
    ctx.weyl_frame
    assert calls == {}

    def leaves(value):
        if isinstance(value, list):
            return [leaf for sub in value for leaf in leaves(sub)]
        return [value]

    for stage in ("frame_lowered", "frame_contravariant", "rotation_coeffs",
                  "riemann_frame", "weyl_frame"):
        assert all(isinstance(v, FracElement)
                   for v in leaves(ctx._memo[stage][1])), stage
    assert not all(sp.flatten(ctx.vanishing("rotation_coeffs")))


# the stages of a connection with torsion and nonmetricity: the direct
# curvature, lowered, and no Weyl tensor
TORSION_STAGES = ("det", "ug", "christoffel1", "contortion",
                  "nonmetricity_coeffs", "connection", "connection2",
                  "riemann", "riemann_lowered", "ricci", "ricci_scalar",
                  "einstein")


def _spherical_with_torsion(frame):
    ctx = catalog.load("spherical", frame=frame)
    tau = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    tau[0][1][2], tau[1][0][2] = parse("sin(theta)"), -parse("sin(theta)")
    tau[1][2][0], tau[2][1][0] = parse("r*cos(theta)"), -parse("r*cos(theta)")
    ctx.set_torsion(tau)
    ctx.set_nonmetricity(["r", "cos(theta)^2", "sin(theta)/r"])
    return ctx


@pytest.mark.parametrize("name, frame", [("kerr_newman", True),
                                         ("ellipsoidal", False),
                                         ("spherical_torsion", False),
                                         ("spherical_torsion", True)])
def test_stored_field_components_are_canonical(name, frame):
    # a field stage is kept once, in canonical form: each stored component
    # has a denominator leading with a positive coefficient and is its own
    # reduce_trig, so equal values are equal elements; as in a canonical
    # rational expression, numerator and denominator have integer
    # coefficients.  The record keeps what the stage computes, so each
    # stage makes that form itself.
    frame_stages = ("rotation_coeffs", "frame_bracket", "riemann_frame",
                    "ricci_frame")
    if name == "spherical_torsion":
        ctx, stages = _spherical_with_torsion(frame), TORSION_STAGES
    else:
        ctx, stages = catalog.load(name, frame=frame), STAGES[:-1]
        frame_stages += ("weyl_frame",)
    wanted = stages + (frame_stages if frame else ())
    for stage in wanted:
        getattr(ctx, stage)
    assert set(wanted) <= set(ctx._memo)
    for stage, (K, value) in ctx._memo.items():
        assert K is ctx.field, stage
        for f in sp.flatten([value]):
            assert f.denom.LC > 0 and K.reduce_trig(f) == f, stage
            assert all(type(c) is int for p in (f.numer, f.denom)
                       for c in p.coeffs()), stage


FRAME_STAGES = ("frame_lowered", "frame_contravariant", "rotation_coeffs",
                "frame_bracket", "riemann_frame", "ricci_frame", "weyl_frame")
# the stages `compute --tensors all` prints on a 4D frame context
PRINTED = ("christoffel1", "christoffel2", "riemann", "ricci", "ricci_scalar",
           "einstein", "weyl", "rotation_coeffs")


def _frame_context(name):
    if name == "exp":
        # exp is no field kernel: frame and metric stay on trees
        return setup_frame(["t", "r", "theta", "phi"],
                           [["exp(r)", "0", "0", "0"], ["0", "1", "0", "0"],
                            ["0", "0", "r", "0"],
                            ["0", "0", "0", "r*sin(theta)"]], MINUS_PLUS)
    return catalog.load(name, frame=True)


@pytest.mark.parametrize("name", ["kerr_newman", "exteriorschwarzschild",
                                  "oblatespheroidal", "exp"])
def test_public_stages_do_not_depend_on_read_order(name):
    # internal reads take a stage's record and convert nothing; a public
    # read converts its stage once.  Reading every public property first,
    # or printing every stage first, gives the same expressions.  Kerr and
    # the Schwarzschild frame are in a field, the oblate spheroidal frame
    # on trees beside a coordinate field, and the exp frame on trees
    public_first, printed_first = _frame_context(name), _frame_context(name)
    stages = STAGES + ("connection2",) + FRAME_STAGES
    first = {stage: getattr(public_first, stage) for stage in stages}
    for stage in PRINTED:
        printed_first.printable(stage)
        printed_first.vanishing(stage)
    if printed_first._FK is printed_first._K:
        assert printed_first._exprs == {}
    for stage in stages:
        value = getattr(printed_first, stage)
        K, record = printed_first._memo[stage]
        assert value == first[stage] == scalars._map(K.expr, record), stage
        assert getattr(printed_first, stage) is value, stage


def test_internal_reads_run_the_property_getters(monkeypatch):
    # a stage read through printable is still computed inside its property
    # getter, where a wrapper around the getter sees it, as the benchmark's
    # traced run wraps them; and nothing is converted to expressions
    entered = []
    for stage in STAGES[1:]:
        prop = MetricContext.__dict__[stage]

        def getter(self, fget=prop.fget, stage=stage):
            entered.append(stage)
            return fget(self)
        monkeypatch.setattr(MetricContext, stage,
                            property(getter, doc=prop.__doc__))
    ctx = catalog.load("exteriorschwarzschild")
    assert ctx.field is not None
    ctx.printable("riemann")
    assert entered.count("riemann") == 1
    for stage in PRINTED[:-1]:
        ctx.printable(stage)
        ctx.vanishing(stage)
    assert set(entered) == set(STAGES[1:])
    assert ctx._exprs == {}


def test_frame_field_checks_a_given_metric_in_the_field(monkeypatch):
    # the catalog's metric rows lie in the Kerr frame's field and are
    # checked there: no expression tree reaches the zero decision, which
    # sees only the constant entries of the frame metric; rows outside the
    # field are still checked on trees
    trees = []
    vanishes = scalars.vanishes
    monkeypatch.setattr(scalars, "vanishes", lambda e, *question: (
        e.is_Number or trees.append(e), vanishes(e, *question))[1])
    catalog.load("kerr_newman", frame=True)
    assert trees == []
    rows = [["1", "0"], ["0", "r"]]
    eta = [["1", "0"], ["0", "1"]]
    outside = [["1", "0"], ["0", "r^2 + sin(r)^2 + cos(r)^2 - 1"]]
    MetricContext(["r", "phi"], outside, fri=rows, lfg=eta)
    assert trees
    for given in ([["1", "0"], ["0", "r"]],
                  [["1", "0"], ["0", "r^2 + sin(r)"]]):
        with pytest.raises(ValueError, match="not orthonormal"):
            MetricContext(["r", "phi"], given, fri=rows, lfg=eta)


@pytest.mark.parametrize("name", ["oblatespheroidal"])
def test_frame_outside_kernel_field_keeps_expression_trees(name):
    # the spheroidal frames have abs: their frame stages stay on trees,
    # while the metric is in the field
    ctx = catalog.load(name, frame=True)
    assert ctx.field is not None
    assert ctx.printable("frame_contravariant")[0] is None


@pytest.mark.parametrize("name", ["exteriorschwarzschild",
                                  "interiorschwarzschild"])
def test_schwarzschild_frame_stages_compute_in_the_kernel_field(name):
    # the roots of (r-2m)/r and r/(r-2m) share the square r(r-2m) and are
    # two generators, so no branch is taken and every stage is in the field
    ctx = catalog.load(name, frame=True)
    assert ctx.printable("frame_contravariant")[0] is ctx.field
    (_, p), (_, p2) = ctx.field._radicals
    assert p == p2


def _check_christoffel2(entry, in_field):
    ctx = setup_metric(["x", "y"], [["1", "0"], ["0", entry]])
    assert (ctx.field is not None) == in_field
    g = parse(entry)
    x = sym("x")
    expected = -sp.diff(g, x) / 2
    assert is_zero(ctx.christoffel2[1][1][0] - expected)


@pytest.mark.parametrize("entry", ["sin(1/x)", "exp(x)"])
def test_metric_outside_kernel_field_keeps_expression_trees(entry):
    _check_christoffel2(entry, False)


@pytest.mark.parametrize("entry", ["sqrt(x)"])
def test_metric_with_a_root_computes_in_the_kernel_field(entry):
    # a root is a generator in a metric as in a frame
    _check_christoffel2(entry, True)


def test_root_metric_whose_determinant_is_a_zero_divisor_keeps_trees():
    # y*sqrt(x/y) and x*sqrt(y/x) are two roots of the square x*y, so
    # their difference is a zero divisor of the field and has no inverse
    # there: the metric stays on expression trees, whose zero test refuses
    with pytest.raises(scalars.UnclassifiableError,
                       match="whether the metric is singular"):
        setup_metric(["x", "y"],
                     [["y*sqrt(x/y) - x*sqrt(y/x)", "0"], ["0", "1"]])
    # the roots of the Schwarzschild pair differ where r < 2m, which the
    # certificate proves, yet their difference has no inverse in the field
    ctx = setup_metric(["r", "t"], [
        ["r*sqrt((r-2*m)/r) - (r-2*m)*sqrt(r/(r-2*m))", "0"], ["0", "1"]])
    assert ctx.field is None
    assert ctx.ug[1] == [0, 1] and ctx.ug[0][0] != 0


# y*sqrt(x/y) and x*sqrt(y/x), two roots of the one square x*y: equal
# where x*y > 0 and opposite where not
TWINS = "y*sqrt(x/y) - x*sqrt(y/x)"


def test_root_metric_refuses_a_component_zero_on_one_branch():
    # the metric is diag(1, 1) wherever x*y > 0: christoffel2[x,y,y] and
    # riemann[x,x,y,y] hold the difference of the two roots, whose normal
    # form is not 0 though no certificate proves the value nonzero
    ctx = setup_metric(["x", "y"], [["1", "0"], ["0", f"1 + {TWINS}"]])
    assert ctx.field is not None
    for key in ("christoffel2", "riemann"):
        with pytest.raises(scalars.UnclassifiableError,
                           match=rf"whether {key}\[[xy,]+\] vanishes"):
            ctx.vanishing(key)


@pytest.mark.parametrize("where", ["metric", "torsion", "nonmetricity"])
def test_root_input_dividing_by_a_zero_divisor_keeps_trees(where):
    # 1/(y*sqrt(x/y) + x*sqrt(y/x)) is finite wherever x*y > 0, but clearing
    # one root from its denominator leaves q2^2 - q1^2 = 0: the context
    # computes on expression trees instead of raising ZeroDivisionError
    entry = parse("1/(y*sqrt(x/y) + x*sqrt(y/x))")
    ctx = setup_metric(["x", "y"], [[1 + entry if where == "metric" else 1,
                                     0], [0, 1]])
    if where == "torsion":
        ctx.set_torsion([[[0, 0], [0, entry]], [[0, -entry], [0, 0]]])
    elif where == "nonmetricity":
        ctx.set_nonmetricity([entry, 0])
    assert ctx.field is None
    ctx.connection
    assert is_zero(ctx.ug[0][0] * ctx.lg[0][0] - 1)


def test_root_metric_with_torsion_computes_riemann_in_the_field(monkeypatch):
    # a metric and torsion holding sqrt(u): once they are read into the
    # field, the direct curvature of the connection runs no expression-tree
    # simplifier
    ctx = setup_metric(*ROOT_METRICS["sqrt(u)"])
    entry = parse("sqrt(u)*v")
    tau = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    tau[0][1][1], tau[1][0][1] = entry, -entry
    ctx.set_torsion(tau)
    assert ctx.field is not None
    calls = {}

    def counted(name):
        original = getattr(scalars, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(scalars, name, wrapper)

    for name in (*oracles.TREE_SIMPLIFIERS, "vanishes"):
        counted(name)
    ctx.riemann
    assert calls == {}


@pytest.mark.parametrize("name,value", [
    # Henry, ApJ 535 (2000) 350, with c = cos(theta), Sigma = r^2 + a^2 c^2
    ("kerr_newman", "48*m^2*(r^2 - a^2*cos(theta)^2)"
                    "*(r^4 - 14*a^2*r^2*cos(theta)^2 + a^4*cos(theta)^4)"
                    "/(r^2 + a^2*cos(theta)^2)^6"),
    ("exteriorschwarzschild", "48*m^2/r^6"),
    ("interiorschwarzschild", "48*m^2/t^6"),
], ids=["kerr_newman", "exteriorschwarzschild", "interiorschwarzschild"])
def test_kretschmann_scalar_matches_the_literature(name, value):
    # a nonzero curvature invariant against its published value, decided
    # exactly in the frame's kernel field
    K, kretschmann = oracles.kretschmann(catalog.load(name, frame=True))
    assert K is not scalars.TREES
    assert K.vanishes(kretschmann - K.element(parse(value)))


@pytest.mark.parametrize("name", ["kerr_newman", "exteriorschwarzschild"])
def test_frame_field_context_computes_one_metric_determinant(monkeypatch,
                                                             name):
    # the determinant that the choice of domain inverts seeds the det
    # record, which the singularity check and ug read
    sizes = []
    det = curvature._det
    monkeypatch.setattr(curvature, "_det", lambda m, K: (
        sizes.append(len(m)), det(m, K))[1])
    ctx = catalog.load(name, frame=True)
    ctx.ug
    assert ctx.printable("det")[0] is ctx.field is not None
    assert sizes.count(4) == 1
    K, value = ctx._memo["det"]
    assert value == K.reduce_trig(det(ctx._g, K))
