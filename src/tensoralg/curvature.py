"""Component tensor calculus over an explicit chart.

A :class:`MetricContext` holds the coordinates and the covariant metric
(entered directly or built from a rigid frame) and computes the standard
curvature objects lazily: Christoffel symbols, Riemann/Ricci/Einstein/Weyl
tensors, scalar curvature, and, in frame mode, the frame bracket, Ricci
rotation coefficients and the frame-based Riemann tensor.  Torsion and
nonmetricity enter through contortion and nonmetricity coefficients that
replace the plain Christoffel connection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import sympy as sp

from . import scalars
from .scalars import diff, is_zero, ratsimp, reduce_trig, sym, trigsimp


class DimensionError(ValueError):
    """An operation was requested in an unsupported dimension."""


@dataclass(frozen=True)
class Chart:
    coordinates: tuple

    def __post_init__(self):
        coords = tuple(sym(c) if isinstance(c, str) else c
                       for c in self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        if len(coords) < 2:
            raise DimensionError("a chart needs at least two coordinates")
        if len({c.name for c in coords}) != len(coords):
            raise ValueError("coordinate names must be distinct")

    @property
    def dim(self):
        return len(self.coordinates)


def _as_matrix(rows, what="matrix"):
    out = []
    for row in rows:
        out.append([scalars.parse(x) if isinstance(x, str) else sp.sympify(x)
                    for x in row])
    n = len(out)
    if any(len(r) != n for r in out):
        raise ValueError(f"{what} must be square")
    return out


def _zeros(*shape):
    if len(shape) == 1:
        return [sp.S.Zero] * shape[0]
    return [_zeros(*shape[1:]) for _ in range(shape[0])]


def _simp(e):
    """Rational normal form, trying the trigonometric closure when it pays.

    Component arrays stay much smaller when sin^2/cosh^2 combinations are
    folded early (they frequently collapse curvature entries to 0); the
    reduced form is kept only when it is no larger than the plain one.  The
    closure starts from the normal form, so ``ratsimp`` is not run twice.
    """
    e = ratsimp(e)
    if e.has(sp.sin, sp.cosh):
        reduced = reduce_trig(e)
        if sp.count_ops(reduced) <= sp.count_ops(e):
            return reduced
    return e


def _contract_last(array, matrix, simp):
    """out[...][j] = simp(sum_m array[...][m] * matrix[m][j]) for an array of
    any rank; sums that are literally 0 skip the simplifier."""
    if isinstance(array[0], list):
        return [_contract_last(sub, matrix, simp) for sub in array]
    n = len(matrix)
    out = []
    for j in range(n):
        val = sum(array[m] * matrix[m][j] for m in range(n))
        out.append(simp(val) if val != 0 else sp.S.Zero)
    return out


def _pair_fill(n, component, simp):
    """All-covariant 4-index array from its independent components.

    ``component(a, b, c, d)`` gives P_abcd, which is antisymmetric in (a, b)
    and in (c, d) and symmetric under exchange of the two pairs; it is
    evaluated only for a < b, c < d and (a, b) <= (c, d), n^2(n^2-1)/8
    (pair, pair) components (21 in four dimensions).  The result uses the
    curvature slot layout out[h][l][k][j] = P_jhkl: the first standard slot
    moves last.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = _zeros(n, n, n, n)
    for pa, (a, b) in enumerate(pairs):
        for (c, d) in pairs[pa:]:
            val = simp(component(a, b, c, d))
            neg = simp(-val) if val != 0 else sp.S.Zero
            for (i, k, l, m, v) in (
                    (a, b, c, d, val), (b, a, c, d, neg),
                    (a, b, d, c, neg), (b, a, d, c, val)):
                out[k][m][l][i] = v
                out[m][k][i][l] = v
    return out


def _trace(array, inv):
    """sum_km inv[k][m] * array[...][k][m]: the last two slots of an array of
    any rank contracted with an inverse metric.  Coordinate and frame arrays
    share the slot layout, so this gives the Ricci tensor of either
    all-covariant curvature and the scalar curvature of either Ricci tensor.
    """
    if isinstance(array[0][0], list):
        return [_trace(sub, inv) for sub in array]
    n = len(inv)
    return trigsimp(sum(inv[k][m] * array[k][m] for k in range(n)
                        for m in range(n) if inv[k][m] != 0))


class MetricContext:
    """Chart + metric (+ optional frame, torsion, nonmetricity) with a memo
    of every tensor computed so far.

    With a frame base ``fri`` and frame metric ``lfg``, g = F^T eta F is
    derived when ``lg`` is None and checked exactly against ``lg`` otherwise.

    Results are cached; calling :meth:`set_torsion` or
    :meth:`set_nonmetricity` invalidates the cache.  A context is meant to
    be owned by one thread while it is being filled.
    """

    def __init__(self, chart, lg, *, fri=None, lfg=None, constants=(),
                 notes=""):
        self.chart = chart if isinstance(chart, Chart) else Chart(tuple(chart))
        n = self.dim
        self.lg = _as_matrix(lg, "metric") if lg is not None else None
        if self.lg is not None and len(self.lg) != n:
            raise ValueError("metric size does not match the chart dimension")
        self.fri = _as_matrix(fri, "frame") if fri is not None else None
        self.lfg = _as_matrix(lfg, "frame metric") if lfg is not None else None
        self.cframe_flag = self.fri is not None
        if self.cframe_flag:
            f, eta = self.fri, self.lfg
            if eta is None or len(f) != n or len(eta) != n:
                raise ValueError(
                    "frame matrices must match the chart dimension")
            for a in range(n):
                for b in range(a):
                    if not is_zero(eta[a][b] - eta[b][a]):
                        raise ValueError("frame metric must be symmetric")
            g = [[sum(eta[a][b] * f[a][i] * f[b][j]
                      for a in range(n) for b in range(n))
                  for j in range(n)] for i in range(n)]
            if self.lg is None:
                self.lg = [[trigsimp(x) for x in row] for row in g]
            elif not all(is_zero(self.lg[i][j] - g[i][j])
                         for i in range(n) for j in range(n)):
                raise ValueError("frame is not orthonormal for the metric")
        elif self.lg is None:
            raise ValueError("a metric or a frame base is needed")
        self.constants = tuple(constants)
        self.notes = notes
        self.torsion_values = None
        self.nonmetricity_values = None
        self._memo = {}
        for i in range(self.dim):
            for j in range(i):
                if not is_zero(self.lg[i][j] - self.lg[j][i]):
                    raise ValueError("metric must be symmetric")
        if is_zero(self.det):
            raise ValueError("metric is symbolically singular")

    # -- basic structure ----------------------------------------------------

    @property
    def coords(self):
        return self.chart.coordinates

    @property
    def dim(self):
        return self.chart.dim

    @property
    def diagonal(self):
        return self._cached("diagonal", lambda: all(
            self.lg[i][j] == 0 or is_zero(self.lg[i][j])
            for i in range(self.dim) for j in range(self.dim) if i != j))

    @property
    def det(self):
        def compute():
            if self.diagonal:
                return ratsimp(sp.Mul(*(self.lg[i][i]
                                        for i in range(self.dim))))
            return ratsimp(sp.Matrix(self.lg).det(method="berkowitz"))
        return self._cached("det", compute)

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def set_torsion(self, values):
        """Install a torsion tensor tau_ij^k (antisymmetric in i, j)."""
        n = self.dim
        tau = [[[scalars.parse(x) if isinstance(x, str) else sp.sympify(x)
                 for x in row] for row in plane] for plane in values]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if not is_zero(tau[i][j][k] + tau[j][i][k]):
                        raise ValueError(
                            "torsion must be antisymmetric in its covariant "
                            "indices")
        self.torsion_values = tau
        self._memo.clear()

    def set_nonmetricity(self, values):
        """Install the nonmetricity vector mu_k."""
        mu = [scalars.parse(x) if isinstance(x, str) else sp.sympify(x)
              for x in values]
        if len(mu) != self.dim:
            raise ValueError("nonmetricity vector has the wrong length")
        self.nonmetricity_values = mu
        self._memo.clear()

    # -- metric inverse -------------------------------------------------------

    @property
    def ug(self):
        """Contravariant metric (adjugate over determinant, simplified)."""
        def compute():
            n = self.dim
            if self.diagonal:
                out = _zeros(n, n)
                for i in range(n):
                    out[i][i] = ratsimp(1 / self.lg[i][i])
                return out
            m = sp.Matrix(self.lg)
            adj = m.adjugate()
            det = self.det
            return [[trigsimp(adj[i, j] / det) for j in range(n)]
                    for i in range(n)]
        return self._cached("ug", compute)

    # -- connection -----------------------------------------------------------

    @property
    def _dmetric(self):
        """dg[h][k][l] = d g_kl / d x^h, skipping derivatives of literal 0."""
        def compute():
            n = self.dim
            dg = _zeros(n, n, n)
            for k in range(n):
                for l in range(n):
                    if self.lg[k][l] == 0:
                        continue
                    for h in range(n):
                        dg[h][k][l] = diff(self.lg[k][l], self.coords[h])
            return dg
        return self._cached("dmetric", compute)

    @property
    def christoffel1(self):
        """First-kind Christoffel symbols Gamma[h][k][l]."""
        def compute():
            n, dg = self.dim, self._dmetric
            out = _zeros(n, n, n)
            for h in range(n):
                for k in range(n):
                    for l in range(n):
                        out[h][k][l] = ratsimp(
                            (dg[h][k][l] + dg[k][l][h] - dg[l][h][k]) / 2)
            return out
        return self._cached("christoffel1", compute)

    @property
    def contortion(self):
        """Contortion coefficients kappa[i][j][k] from the torsion tensor."""
        def compute():
            if self.torsion_values is None:
                raise ValueError("no torsion tensor has been set")
            n, tau, g = self.dim, self.torsion_values, self.lg
            out = _zeros(n, n, n)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        s = sum(tau[i][j][m] * g[k][m] + tau[k][i][m] * g[j][m]
                                + tau[k][j][m] * g[i][m] for m in range(n))
                        out[i][j][k] = ratsimp(-s / 2)
            return out
        return self._cached("contortion", compute)

    @property
    def nonmetricity_coeffs(self):
        """Nonmetricity coefficients nu[i][j][k] from the vector mu."""
        def compute():
            if self.nonmetricity_values is None:
                raise ValueError("no nonmetricity vector has been set")
            n, mu, g = self.dim, self.nonmetricity_values, self.lg
            out = _zeros(n, n, n)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        out[i][j][k] = ratsimp(
                            (-g[i][k] * mu[j] - g[j][k] * mu[i]
                             + g[i][j] * mu[k]) / 2)
            return out
        return self._cached("nonmetricity_coeffs", compute)

    @property
    def connection(self):
        """First-kind connection coefficients c[a][b][c].

        Coordinate base: Gamma - kappa - nu.  Frame base: gamma - nu, with
        the rotation coefficients standing in for the Christoffel symbols.
        """
        def compute():
            n = self.dim
            if self.cframe_flag:
                base = self.rotation_coeffs
            else:
                base = self.christoffel1
            corrections = []
            if self.torsion_values is not None and not self.cframe_flag:
                corrections.append(self.contortion)
            if self.nonmetricity_values is not None:
                corrections.append(self.nonmetricity_coeffs)
            return [[[ratsimp(base[a][b][c]
                              - sum(corr[a][b][c] for corr in corrections))
                      for c in range(n)] for b in range(n)] for a in range(n)]
        return self._cached("connection", compute)

    @property
    def christoffel2(self):
        """Second-kind Christoffel symbols Gamma[h][k]^[j]."""
        def compute():
            return _contract_last(self.christoffel1, self.ug, _simp)
        return self._cached("christoffel2", compute)

    @property
    def connection2(self):
        """Second-kind connection coefficients c[h][k]^[j] (coordinate base)."""
        def compute():
            if self.plain_connection:
                return self.christoffel2
            return _contract_last(self.connection, self.ug, _simp)
        return self._cached("connection2", compute)

    # -- curvature ------------------------------------------------------------

    @property
    def plain_connection(self):
        """True when no torsion or nonmetricity is set (Levi-Civita)."""
        return (self.torsion_values is None
                and self.nonmetricity_values is None)

    @property
    def riemann(self):
        """Riemann tensor R[h][l][k]^[j] (last index contravariant).

        For the metric connection the lowered tensor is raised, one half of
        the antisymmetric (l, k) pair at a time.
        """
        def compute():
            if not self.plain_connection:
                return self._riemann_direct()
            n, rl, ug = self.dim, self.riemann_lowered, self.ug
            out = _zeros(n, n, n, n)
            for h in range(n):
                for l in range(n):
                    for k in range(l + 1, n):
                        row = _contract_last(rl[h][l][k], ug, _simp)
                        out[h][l][k] = row
                        out[h][k][l] = [_simp(-v) if v != 0 else sp.S.Zero
                                        for v in row]
            return out
        return self._cached("riemann", compute)

    def _riemann_direct(self):
        """Curvature of the (possibly torsionful/nonmetric) connection."""
        n, c2 = self.dim, self.connection2
        coords = self.coords
        dc = _zeros(n, n, n, n)  # dc[k][h][l][j] = d c2[h][l][j] / dx^k
        for h in range(n):
            for l in range(n):
                for j in range(n):
                    if c2[h][l][j] == 0:
                        continue
                    for k in range(n):
                        dc[k][h][l][j] = diff(c2[h][l][j], coords[k])
        out = _zeros(n, n, n, n)
        for h in range(n):
            for l in range(n):
                for k in range(l + 1):
                    for j in range(n):
                        if l == k:
                            continue
                        val = dc[k][h][l][j] - dc[l][h][k][j] + sum(
                            c2[m][k][j] * c2[h][l][m]
                            - c2[m][l][j] * c2[h][k][m] for m in range(n))
                        val = ratsimp(val)
                        out[h][l][k][j] = val
                        out[h][k][l][j] = ratsimp(-val)
        return out

    @property
    def riemann_lowered(self):
        """All-covariant Riemann tensor (contravariant index lowered).

        For the metric connection this is evaluated from second derivatives
        of the metric plus a first-kind/second-kind Christoffel product,
        exploiting the antisymmetry of both index pairs and their exchange
        symmetry; with torsion or nonmetricity present it falls back to
        lowering the direct curvature.
        """
        def compute():
            n = self.dim
            if not self.plain_connection:
                return _contract_last(self.riemann, self.lg, ratsimp)
            coords = self.coords
            dg, c1, c2 = self._dmetric, self.christoffel1, self.christoffel2
            d2 = {}

            def d2g(a, b, c, d):
                c, d = min(c, d), max(c, d)
                key = (a, b, c, d)
                if key not in d2:
                    d2[key] = (diff(dg[c][a][b], coords[d])
                               if dg[c][a][b] != 0 else sp.S.Zero)
                return d2[key]

            def component(i, k, l, m):
                return (d2g(i, m, k, l) + d2g(k, l, i, m)
                        - d2g(i, l, k, m) - d2g(k, m, i, l)) / 2 \
                    + sum(c1[k][l][p] * c2[i][m][p]
                          - c1[k][m][p] * c2[i][l][p] for p in range(n))

            return _pair_fill(n, component, _simp)
        return self._cached("riemann_lowered", compute)

    @property
    def ricci(self):
        """Ricci tensor R[i][j] = R_ijk^k: R_ijkm g^km for the metric
        connection, otherwise the trace of the direct curvature."""
        def compute():
            if self.plain_connection:
                return _trace(self.riemann_lowered, self.ug)
            return _trace(self.riemann, sp.eye(self.dim).tolist())
        return self._cached("ricci", compute)

    @property
    def ricci_scalar(self):
        return self._cached("ricci_scalar",
                            lambda: _trace(self.ricci, self.ug))

    @property
    def einstein(self):
        """Einstein tensor G_ij = R_ij - R g_ij / 2."""
        def compute():
            n, ric, g, r = self.dim, self.ricci, self.lg, self.ricci_scalar
            return [[trigsimp(ric[i][j] - r * g[i][j] / 2) for j in range(n)]
                    for i in range(n)]
        return self._cached("einstein", compute)

    @property
    def weyl(self):
        """Weyl conformal tensor W[i][j][k][l], all covariant."""
        return self._cached("weyl", lambda: self._weyl(lambda: (
            self.riemann_lowered, self.lg, self.ricci, self.ricci_scalar)))

    def _weyl(self, parts):
        """Weyl tensor from the all-covariant curvature, metric, Ricci tensor
        and scalar curvature ``parts()``, in coordinate or frame components.
        It is the trace-free part of a curvature with the pair symmetries of
        the metric connection's, so torsion or nonmetricity is refused."""
        n = self.dim
        if n < 3:
            raise DimensionError(
                "the Weyl tensor needs at least three dimensions")
        if n == 3:
            warnings.warn("the Weyl tensor vanishes identically in three "
                          "dimensions; returning zeros")
            return _zeros(n, n, n, n)
        if not self.plain_connection:
            raise ValueError("the Weyl tensor needs the metric connection "
                             "(no torsion or nonmetricity)")
        P, g, ric, r = parts()

        def component(a, b, c, d):
            return (P[b][d][c][a]
                    + r * (g[b][d] * g[a][c] - g[a][d] * g[b][c])
                    / ((n - 1) * (n - 2))
                    + (g[b][c] * ric[a][d] - g[a][c] * ric[b][d]
                       - g[b][d] * ric[a][c] + g[a][d] * ric[b][c])
                    / (n - 2))

        return _pair_fill(n, component, ratsimp)

    # -- frame quantities -------------------------------------------------------

    def _need_frame(self):
        if not self.cframe_flag:
            raise ValueError("this context has no frame base")

    @property
    def ufg(self):
        """Inverse frame metric."""
        self._need_frame()
        def compute():
            m = sp.Matrix(self.lfg)
            inv = m.inv()
            n = self.dim
            return [[ratsimp(inv[i, j]) for j in range(n)] for i in range(n)]
        return self._cached("ufg", compute)

    @property
    def frame_contravariant(self):
        """Contravariant frame components E[a][i] = e_(a)^i, from F^-1 =
        g^-1 F^T eta: the constructor ties g = F^T eta F."""
        self._need_frame()
        return self._cached("frame_contravariant", lambda: _contract_last(
            self.frame_lowered, self.ug, trigsimp))

    @property
    def frame_lowered(self):
        """Covariant frame with the frame label lowered: e_(a)i."""
        self._need_frame()
        def compute():
            n, eta, f = self.dim, self.lfg, self.fri
            return [[ratsimp(sum(eta[a][b] * f[b][i] for b in range(n)))
                     for i in range(n)] for a in range(n)]
        return self._cached("frame_lowered", compute)

    @property
    def frame_bracket(self):
        """Frame bracket lambda[a][b][c] (antisymmetric in b, c).

        Built from plain partial derivatives of the frame; when torsion is
        present its contribution enters with a minus sign.  Only b < c is
        evaluated; the other half is its negative.
        """
        self._need_frame()
        def compute():
            n = self.dim
            flow, E = self.frame_lowered, self.frame_contravariant
            coords = self.coords
            dflow = [[[diff(flow[a][i], coords[k]) if flow[a][i] != 0 else sp.S.Zero
                       for k in range(n)] for i in range(n)] for a in range(n)]
            tau = self.torsion_values
            out = _zeros(n, n, n)
            for a in range(n):
                for b in range(n):
                    for c in range(b + 1, n):
                        total = sp.S.Zero
                        for i in range(n):
                            for k in range(n):
                                core = dflow[a][i][k] - dflow[a][k][i]
                                if tau is not None:
                                    core -= sum(tau[i][k][m] * flow[a][m]
                                                for m in range(n))
                                if core != 0:
                                    total += core * E[b][i] * E[c][k]
                        out[a][b][c] = trigsimp(total)
                        out[a][c][b] = -out[a][b][c]
            return out
        return self._cached("frame_bracket", compute)

    @property
    def rotation_coeffs(self):
        """Ricci rotation coefficients gamma[a][b][c] = (l_abc+l_bca-l_cab)/2."""
        self._need_frame()
        def compute():
            n, lam = self.dim, self.frame_bracket
            return [[[trigsimp((lam[a][b][c] + lam[b][c][a] - lam[c][a][b]) / 2)
                      for c in range(n)] for b in range(n)] for a in range(n)]
        return self._cached("rotation_coeffs", compute)

    @property
    def riemann_frame(self):
        """Frame-base Riemann tensor R[d][a][b][c].

        Index layout parallels the coordinate array: d is the transported
        label, (a, b) the antisymmetric derivative pair, c the lowered
        fourth label.  Computed from the rotation coefficients, their
        directional derivatives and the frame bracket, for the metric
        connection on the independent components of P_abcd = R[a][c][d][b].
        """
        self._need_frame()
        def compute():
            n = self.dim
            gam = (self.rotation_coeffs if self.plain_connection
                   else self.connection)
            lam, E, ufg = self.frame_bracket, self.frame_contravariant, self.ufg
            coords = self.coords

            def ddir(a, expr):
                if expr == 0:
                    return sp.S.Zero
                return sum(E[a][i] * diff(expr, coords[i]) for i in range(n))

            def up(m, x, y):
                return sum(ufg[m][mp] * gam[mp][x][y] for mp in range(n))

            def value(d, a, b, c):
                return (ddir(a, gam[c][d][b]) - ddir(b, gam[c][d][a])
                        - sum(gam[c][m][a] * up(m, d, b)
                              - gam[c][m][b] * up(m, d, a) for m in range(n))
                        - sum(gam[c][d][m] * sum(
                              ufg[m][mp] * lam[mp][a][b] for mp in range(n))
                              for m in range(n)))

            if self.plain_connection:
                return _pair_fill(n, lambda a, b, c, d: value(a, c, d, b),
                                  trigsimp)
            out = _zeros(n, n, n, n)
            for d in range(n):
                for c in range(n):
                    for a in range(n):
                        for b in range(a):
                            val = trigsimp(value(d, a, b, c))
                            out[d][a][b][c] = val
                            out[d][b][a][c] = trigsimp(-val)
            return out
        return self._cached("riemann_frame", compute)

    @property
    def ricci_frame(self):
        """Frame-label Ricci tensor from the frame Riemann tensor."""
        return self._cached("ricci_frame",
                            lambda: _trace(self.riemann_frame, self.ufg))

    @property
    def ricci_scalar_frame(self):
        """Scalar curvature computed through the frame pipeline."""
        return self._cached("ricci_scalar_frame",
                            lambda: _trace(self.ricci_frame, self.ufg))

    @property
    def weyl_frame(self):
        """Weyl tensor in frame components, laid out like :attr:`weyl`."""
        self._need_frame()
        return self._cached("weyl_frame", lambda: self._weyl(lambda: (
            self.riemann_frame, self.lfg, self.ricci_frame,
            self.ricci_scalar_frame)))


def setup_metric(coords, matrix, constants=()) -> MetricContext:
    """Build a context from coordinates and a covariant metric matrix."""
    return MetricContext(coords, matrix, constants=constants)


def setup_frame(coords, fri, lfg, constants=()) -> MetricContext:
    """Build a context from the covariant frame base e^(a)_i (rows are frame
    labels) and the frame metric; the metric g_ij = eta_ab e^(a)_i e^(b)_j is
    computed and simplified."""
    return MetricContext(coords, None, fri=fri, lfg=lfg, constants=constants)
