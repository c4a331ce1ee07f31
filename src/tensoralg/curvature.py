"""Component tensor calculus over an explicit chart.

A :class:`MetricContext` holds the coordinates and the covariant metric
(entered directly or built from a rigid frame) and computes the standard
curvature objects lazily: Christoffel symbols, Riemann/Ricci/Einstein/Weyl
tensors, scalar curvature, and, in frame mode, the frame bracket, Ricci
rotation coefficients and the frame components of the curvature.

The connection is written once, in coordinates, as Gamma_hk^j with h the
derivative index: nabla_h V^j = d_h V^j + Gamma_hk^j V^k.  Torsion and
nonmetricity enter only there (see :class:`MetricContext` for the signs).
The curvature is computed once, in coordinates, too: a frame is a change
of basis, and the frame Riemann, Ricci and Weyl tensors are the frame
components of the coordinate ones, as the Ricci rotation coefficients are
those of the covariant derivative of the frame.

A context keeps one record per stage: its scalar domain and its
components.  The domain is a :class:`scalars.KernelField` when the inputs
lie in one, square roots included, and expression trees otherwise.  A
frame outside every kernel field keeps its frame stages on trees beside a
coordinate field, that of its derived metric, when there is one.  Zero is
decided by the domain's ``vanishes``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import sympy as sp

from . import scalars
from .scalars import TREES, _map, sym


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


def _scalar(x):
    """An entry as an exact expression: text through the parser, any other
    object through :func:`scalars.exact`."""
    return scalars.parse(x) if isinstance(x, str) else scalars.exact(x)


def _as_matrix(rows, what="matrix"):
    out = [[_scalar(x) for x in row] for row in rows]
    n = len(out)
    if any(len(r) != n for r in out):
        raise ValueError(f"{what} must be square")
    return out


def _zeros(*shape, zero=sp.S.Zero):
    if len(shape) == 1:
        return [zero] * shape[0]
    return [_zeros(*shape[1:], zero=zero) for _ in range(shape[0])]


def _det(m, K):
    """Determinant by cofactor expansion along the first row, in ``K``."""
    if len(m) == 1:
        return m[0][0]
    minors = [_det([row[:j] + row[j + 1:] for row in m[1:]], K) if x != 0
              else x for j, x in enumerate(m[0])]
    return K.dot(m[0], [-d if j % 2 else d for j, d in enumerate(minors)])


def _contract_last(array, matrix, K, simp):
    """out[...][j] = simp(sum_m array[...][m] * matrix[m][j]) for an array of
    any rank, the sums formed by ``K.dot``; sums that are literally 0 skip
    the simplifier."""
    if isinstance(array[0], list):
        return [_contract_last(sub, matrix, K, simp) for sub in array]
    n = len(matrix)
    out = []
    for j in range(n):
        val = K.dot(array, [row[j] for row in matrix])
        out.append(simp(val) if val != 0 else val)
    return out


def _pair_fill(n, component, simp, zero=sp.S.Zero):
    """All-covariant 4-index array from its independent components.

    ``component(a, b, c, d)`` gives P_abcd, which is antisymmetric in (a, b)
    and in (c, d) and symmetric under exchange of the two pairs; it is
    evaluated only for a < b, c < d and (a, b) <= (c, d), n^2(n^2-1)/8
    (pair, pair) components (21 in four dimensions).  The result uses the
    curvature slot layout out[h][l][k][j] = P_jhkl: the first standard slot
    moves last.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = _zeros(n, n, n, n, zero=zero)
    for pa, (a, b) in enumerate(pairs):
        for (c, d) in pairs[pa:]:
            val = simp(component(a, b, c, d))
            neg = simp(-val) if val != 0 else val
            for (i, k, l, m, v) in (
                    (a, b, c, d, val), (b, a, c, d, neg),
                    (a, b, d, c, neg), (b, a, d, c, val)):
                out[k][m][l][i] = v
                out[m][k][i][l] = v
    return out


def _last_first(array, j):
    """array[...][j]: the slice of an array of any rank at index j of its
    last slot."""
    if isinstance(array[0], list):
        return [_last_first(sub, j) for sub in array]
    return array[j]


def _frame_components(array, E, K):
    """out[a][b]... = sum array[i][j]... E[a][i] E[b][j]... for a covariant
    coordinate array of any rank: one slot is carried into the frame at a
    time, the last one, and then moved to the front.  ``K`` is the scalar
    domain."""
    n = len(E)
    ET = [[E[a][i] for a in range(n)] for i in range(n)]
    rank, sub = 0, array
    while isinstance(sub, list):
        rank, sub = rank + 1, sub[0]
    for step in range(rank):
        array = _contract_last(array, ET, K, K.trigsimp if step == rank - 1
                               else K.ratsimp)
        array = [_last_first(array, j) for j in range(n)]
    return array


def _frame_pairs(array, E, K):
    """Frame components of a 4-index covariant array with the pair
    symmetries of the metric connection's curvature, in the
    :func:`_pair_fill` layout P_abcd = array[b][d][c][a].

    Each antisymmetric pair is carried into the frame by the bivectors
    B_ab^ij = E_a^i E_b^j - E_a^j E_b^i, i < j: first
    half[ij][cd] = sum_kl P_ijkl B_cd^kl, then P_abcd = sum_ij B_ab^ij
    half[ij][cd] on the independent components only, in the scalar domain
    ``K``.  The bivectors and the half sums are put in the normal form
    ``K.ratsimp``, and the components are reduced by ``K.trigsimp``.
    """
    n = len(E)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    B = {(a, b): [K.ratsimp(E[a][i] * E[b][j] - E[a][j] * E[b][i])
                  for i, j in pairs] for a, b in pairs}

    half = [{cd: K.ratsimp(K.dot([array[j][l][k][i] for k, l in pairs], bv))
             for cd, bv in B.items()} for i, j in pairs]
    return _pair_fill(n, lambda a, b, c, d: K.dot(
        [h[c, d] for h in half], B[a, b]), K.trigsimp, K.zero)


def _trace(array, inv, K):
    """sum_km inv[k][m] * array[...][k][m]: the last two slots of an array of
    any rank contracted with the inverse metric, which gives the Ricci
    tensor of the all-covariant curvature and the scalar curvature of the
    Ricci tensor."""
    if isinstance(array[0][0], list):
        return [_trace(sub, inv, K) for sub in array]
    return K.trigsimp(K.dot(sum(inv, []), sum(array, [])))


class MetricContext:
    """Chart + metric (+ optional frame, torsion, nonmetricity) with a memo
    of every tensor computed so far.

    With a frame base ``fri`` and frame metric ``lfg``, the metric is
    always g = F^T eta F, derived in the frame's scalar domain; a given
    ``lg`` is only checked exactly against it, once, at construction: in
    the kernel field of the stages when its rows lie in it.

    Each stage is kept once, as a record of its scalar domain and its
    components.  When the metric, torsion and nonmetricity entries are
    rational functions of symbols, sin/cos/sinh/cosh kernels and square
    roots (see :func:`scalars.kernel_field`), ``field`` is their
    :class:`scalars.KernelField`, built from these entries alone, and every
    coordinate stage computes on its elements and makes each component in
    the normal form ``K.ratsimp``.  Stages read one another, and
    :meth:`printable` and :meth:`vanishing` read them, as records, with no
    conversion; only a caller's read of a public property converts its
    stage to expressions, once, cached beside the record.  Otherwise, or
    when an entry or the determinant meets a zero divisor, ``field`` is
    None and the stages work on expression trees, kept as computed.  A
    frame context whose frame rows lie in a kernel field by the same rule,
    as in the Schwarzschild frames, takes that field for every stage, frame
    stages included, and derives its metric there; any other frame keeps
    its frame stages on expression trees.

    The connection ``connection2[h][k][j]`` = Gamma_hk^j, h the derivative
    index, is the Christoffel symbol minus the contortion of tau and the
    nonmetricity coefficients of mu: its torsion Gamma_hk^j - Gamma_kh^j is
    tau_hk^j and nabla_h g_kl = -mu_h g_kl.  On a frame context too, and
    the frame curvature of every connection is the frame components of the
    coordinate curvature.

    Results are cached; :meth:`set_torsion` and :meth:`set_nonmetricity`
    choose the domain again and drop the cache.  A context is meant to be
    owned by one thread while it is being filled.
    """

    def __init__(self, chart, lg, *, fri=None, lfg=None):
        self.chart = chart if isinstance(chart, Chart) else Chart(tuple(chart))
        n = self.dim
        self.lg = _as_matrix(lg, "metric") if lg is not None else None
        if self.lg is not None and len(self.lg) != n:
            raise ValueError("metric size does not match the chart dimension")
        given = self.lg
        self.fri = _as_matrix(fri, "frame") if fri is not None else None
        self.lfg = _as_matrix(lfg, "frame metric") if lfg is not None else None
        self.cframe_flag = self.fri is not None
        if self.cframe_flag:
            eta = self.lfg
            if eta is None or len(self.fri) != n or len(eta) != n:
                raise ValueError(
                    "frame matrices must match the chart dimension")
            if not all(scalars.vanishes(eta[a][b] - eta[b][a], "whether the "
                                        "frame metric is symmetric")
                       for a in range(n) for b in range(a)):
                raise ValueError("frame metric must be symmetric")
        elif self.lg is None:
            raise ValueError("a metric or a frame base is needed")
        self.torsion_values = None
        self.nonmetricity_values = None
        self._memo = {}
        self._exprs = {}
        self._internal = False
        self._choose_domain()
        if self.cframe_flag and given is not None:
            K, g = self._K, self._g
            try:
                given = _map(K.element, given)
            except (KeyError, ZeroDivisionError):
                K, g = TREES, self.lg
            if not all(K.vanishes(a - b, "whether the frame is orthonormal")
                       for a, b in zip(sum(given, []), sum(g, []))):
                raise ValueError("frame is not orthonormal for the metric")
        K, g = self._K, self._g
        if not all(K.vanishes(g[i][j] - g[j][i],
                              "whether the metric is symmetric")
                   for i in range(self.dim) for j in range(i)):
            raise ValueError("metric must be symmetric")
        if K.vanishes(self._values("det"), "whether the metric is singular"):
            raise ValueError("metric is symbolically singular")

    # -- basic structure ----------------------------------------------------

    @property
    def coords(self):
        return self.chart.coordinates

    @property
    def dim(self):
        return self.chart.dim

    def _choose_domain(self):
        """Set the scalar domain ``_K`` of the stages and ``_FK`` of the
        frame stages, put the inputs in them (``_g``, ``_tau``, ``_mu``,
        ``_fri``, ``_eta``) and drop every stage computed so far.

        A frame context whose frame, frame metric, torsion and nonmetricity
        lie in one kernel field (see :meth:`_in_field`) computes every stage
        in it and derives the metric there.  Otherwise the frame stays on
        expression trees, where the metric is derived, and ``_K`` is the
        kernel field of metric, torsion and nonmetricity, or else trees."""
        self._memo.clear()
        self._exprs.clear()
        extra = (self.torsion_values, self.nonmetricity_values)
        found = self.cframe_flag and self._in_field(
            (self.fri, self.lfg) + extra, frame=True)
        if found:
            K, g, (self._fri, self._eta, tau, mu) = found
            self.lg = _map(K.expr, g)
        else:
            if self.cframe_flag:
                self.lg = self._frame_metric(TREES, self.fri, self.lfg)
            self._fri, self._eta = self.fri, self.lfg
            K, g, (_, tau, mu) = (self._in_field((self.lg,) + extra)
                                  or (TREES, self.lg, (None,) + extra))
        self._FK = K if found else TREES
        self.field = None if K is TREES else K
        self._K, self._g, self._tau, self._mu = K, g, tau, mu

    def _in_field(self, inputs, frame=False):
        """(K, g, values): the kernel field of ``inputs``, roots admitted,
        their values in it and the metric, derived from the first two when
        ``frame``; or None when an input, reduced under the table the
        metric chooses, divides by zero, or the determinant, the one
        divisor of the stages, is a zero divisor of K.  The determinant is
        kept as the ``det`` stage.  A coordinate or constant in no entry is
        no generator."""
        found = scalars.in_field(inputs)
        if found is None:
            return None
        K, values = found
        try:
            g = self._frame_metric(K, *values[:2]) if frame else values[0]
            K.choose_table(sum(g, []))
            for value in values[-2:]:
                if value is not None:
                    _map(K.reduce_trig, value)
            det = K.ratsimp(_det(g, K))
        except ZeroDivisionError:
            return None
        if K.zero_divisor(det):
            return None
        self._memo["det"] = (K, det)
        return K, g, values

    def _frame_metric(self, K, f, eta):
        """The metric g_ij = sum_a f_ai e_(a)j, e_(a)j = sum_b eta_ab f_bj,
        of the frame ``f`` in the scalar domain ``K``."""
        n = self.dim
        columns = [[row[i] for row in f] for i in range(n)]
        lowered = [[K.dot(eta[a], columns[j]) for a in range(n)]
                   for j in range(n)]
        return [[K.trigsimp(K.dot(columns[i], lowered[j])) for j in range(n)]
                for i in range(n)]

    @property
    def diagonal(self):
        K, g = self._K, self._g
        try:
            return all(g[i][j] == 0 or K.vanishes(g[i][j]) for i in
                       range(self.dim) for j in range(self.dim) if i != j)
        except scalars.UnclassifiableError:
            return False

    @property
    def det(self):
        return self._public("det", lambda: self._K.ratsimp(
            _det(self._g, self._K)))

    def _record(self, key, fn, K=None):
        """The record (domain, components) of stage ``key``, computed once
        by ``fn`` in the scalar domain ``K``, by default the context's, and
        kept as computed: every stage ends in its domain's ``ratsimp`` or
        ``trigsimp``, so a field stage is in its normal form."""
        if key not in self._memo:
            self._memo[key] = (self._K if K is None else K, fn())
        return self._memo[key]

    def _public(self, key, fn, K=None):
        """Stage ``key`` as its property returns it: the record's components
        inside :meth:`_read`, which converts nothing, and expressions to
        any other caller (see :meth:`_expressions`)."""
        value = self._record(key, fn, K)[1]
        return value if self._internal else self._expressions(key)

    def _expressions(self, key):
        """The components of stage ``key`` as expressions, converted from
        its record by ``K.expr`` (the identity on trees) at the first call
        and cached beside it."""
        K, value = self._memo[key]
        if key not in self._exprs:
            self._exprs[key] = _map(K.expr, value)
        return self._exprs[key]

    def _read(self, key):
        """The record of stage ``key``, computed through its property, so
        the work is done (and timed) there, but read as a record: the
        property converts nothing to expressions, also for the stages it
        reads in turn."""
        outer, self._internal = self._internal, True
        try:
            getattr(self, key)
        finally:
            self._internal = outer
        return self._memo[key]

    def _values(self, key):
        """The components of stage ``key`` in its scalar domain."""
        return self._read(key)[1]

    def _frame_values(self, key):
        """Stage ``key`` in the frame's scalar domain: the record's
        components, or expressions when the frame is on expression trees
        and the stage is not, the one internal read that converts."""
        K, value = self._read(key)
        return value if K is self._FK else self._expressions(key)

    def printable(self, key):
        """Stage ``key`` for printing with :func:`scalars.render`: its
        field, None on expression trees, and its components."""
        K, value = self._read(key)
        return (None if K is TREES else K), value

    def vanishing(self, key):
        """For each component of stage ``key``, whether it is zero by its
        domain's ``vanishes``; a refusal names the stage and the component."""
        K, value = self._read(key)

        def walk(node, index):
            if isinstance(node, list):
                return [walk(sub, index + (i,)) for i, sub in enumerate(node)]
            try:
                return K.vanishes(node)
            except scalars.UnclassifiableError as exc:
                names = ",".join(self.coords[i].name for i in index)
                where = f"{key}[{names}]" if index else key
                raise scalars.UnclassifiableError(
                    exc.expression, f"whether {where} vanishes") from None
        return walk(value, ())

    def set_torsion(self, values):
        """Install a torsion tensor tau_ij^k (antisymmetric in i, j)."""
        tau = [[[_scalar(x) for x in row] for row in plane]
               for plane in values]
        if not all(scalars.vanishes(tau[i][j][k] + tau[j][i][k],
                                    "whether the torsion is antisymmetric")
                   for i, j, k in product(range(self.dim), repeat=3)):
            raise ValueError(
                "torsion must be antisymmetric in its covariant indices")
        self.torsion_values = tau
        self._choose_domain()

    def set_nonmetricity(self, values):
        """Install the nonmetricity vector mu_k."""
        mu = [_scalar(x) for x in values]
        if len(mu) != self.dim:
            raise ValueError("nonmetricity vector has the wrong length")
        self.nonmetricity_values = mu
        self._choose_domain()

    # -- metric inverse -------------------------------------------------------

    @property
    def ug(self):
        """Contravariant metric (adjugate over determinant, simplified)."""
        def compute():
            n, K, g = self.dim, self._K, self._g
            if self.diagonal:
                out = _zeros(n, n, zero=K.zero)
                for i in range(n):
                    out[i][i] = K.ratsimp(1 / g[i][i])
                return out
            inverse = K.one / self._values("det")

            def cofactor(i, j):
                minor = _det([row[:j] + row[j + 1:]
                              for r, row in enumerate(g) if r != i], K)
                return -minor if (i + j) % 2 else minor

            return [[K.trigsimp(K.dot((cofactor(j, i),), (inverse,)))
                     for j in range(n)] for i in range(n)]
        return self._public("ug", compute)

    # -- connection -----------------------------------------------------------

    @property
    def _dmetric(self):
        """dg[h][k][l] = d g_kl / d x^h in normal form, skipping literal 0."""
        def compute():
            n, K, g, x = self.dim, self._K, self._g, self.coords
            dg = _zeros(n, n, n, zero=K.zero)
            for k in range(n):
                for l in range(n):
                    if g[k][l] == 0:
                        continue
                    for h in range(n):
                        dg[h][k][l] = K.ratsimp(K.diff(g[k][l], x[h]))
            return dg
        return self._record("dmetric", compute)[1]

    @property
    def christoffel1(self):
        """First-kind Christoffel symbols Gamma[h][k][l]."""
        def compute():
            n, K, dg = self.dim, self._K, self._dmetric
            half = K.element(sp.S.Half)
            return [[[K.ratsimp(K.dot((dg[h][k][l], dg[k][l][h], dg[l][h][k]),
                                      (half, half, -half)))
                      for l in range(n)] for k in range(n)] for h in range(n)]
        return self._public("christoffel1", compute)

    @property
    def contortion(self):
        """Contortion coefficients kappa[i][j][k] from the torsion tensor."""
        def compute():
            if self._tau is None:
                raise ValueError("no torsion tensor has been set")
            n, K, tau, g = self.dim, self._K, self._tau, self._g
            return [[[K.ratsimp(-sum(
                tau[i][j][m] * g[k][m] + tau[k][i][m] * g[j][m]
                + tau[k][j][m] * g[i][m] for m in range(n)) / 2)
                for k in range(n)] for j in range(n)] for i in range(n)]
        return self._public("contortion", compute)

    @property
    def nonmetricity_coeffs(self):
        """Nonmetricity coefficients nu[i][j][k] from the vector mu."""
        def compute():
            if self._mu is None:
                raise ValueError("no nonmetricity vector has been set")
            n, K, mu, g = self.dim, self._K, self._mu, self._g
            return [[[K.ratsimp((-g[i][k] * mu[j] - g[j][k] * mu[i]
                                 + g[i][j] * mu[k]) / 2)
                      for k in range(n)] for j in range(n)] for i in range(n)]
        return self._public("nonmetricity_coeffs", compute)

    @property
    def connection(self):
        """First-kind connection coefficients c[h][k][l] = Gamma - kappa - nu,
        in coordinates also on a frame context."""
        def compute():
            n, K = self.dim, self._K
            c = self._values("christoffel1")
            parts = [self._values(key) for key, given in (
                ("contortion", self._tau), ("nonmetricity_coeffs", self._mu))
                if given is not None]
            return [[[K.ratsimp(c[a][b][d] - sum(p[a][b][d] for p in parts))
                      for d in range(n)] for b in range(n)] for a in range(n)]
        return self._public("connection", compute)

    @property
    def christoffel2(self):
        """Second-kind Christoffel symbols Gamma[h][k]^[j]."""
        def compute():
            return _contract_last(self._values("christoffel1"),
                                  self._values("ug"), self._K,
                                  self._K.trigsimp)
        return self._public("christoffel2", compute)

    @property
    def connection2(self):
        """Second-kind connection coefficients c[h][k]^[j] = Gamma_hk^j, h the
        derivative index: the Christoffel symbols on a plain connection."""
        def compute():
            if self.plain_connection:
                return self._values("christoffel2")
            return _contract_last(self._values("connection"),
                                  self._values("ug"), self._K,
                                  self._K.trigsimp)
        return self._public("connection2", compute)

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
            n, K = self.dim, self._K
            rl, ug = self._values("riemann_lowered"), self._values("ug")
            out = _zeros(n, n, n, n, zero=K.zero)
            for h in range(n):
                for l in range(n):
                    for k in range(l + 1, n):
                        row = _contract_last(rl[h][l][k], ug, K, K.trigsimp)
                        out[h][l][k] = row
                        out[h][k][l] = [K.trigsimp(-v) if v != 0 else v
                                        for v in row]
            return out
        return self._public("riemann", compute)

    def _riemann_direct(self):
        """Curvature of the connection G = connection2:
        R[h][l][k][j] = d_k G_lh^j - d_l G_kh^j + G_km^j G_lh^m - G_lm^j G_kh^m,
        the part of [nabla_k, nabla_l] V^j that multiplies V^h."""
        n, K, c2 = self.dim, self._K, self._values("connection2")

        def d(k, a, b, j):
            # d c2[a][b][j] / dx^k, wanted once for each k != a
            e = c2[a][b][j]
            return K.diff(e, self.coords[k]) if e != 0 else K.zero

        out = _zeros(n, n, n, n, zero=K.zero)
        for h in range(n):
            for l in range(n):
                for k in range(l):
                    for j in range(n):
                        val = K.trigsimp(d(k, l, h, j) - d(l, k, h, j) + sum(
                            c2[k][m][j] * c2[l][h][m]
                            - c2[l][m][j] * c2[k][h][m] for m in range(n)))
                        out[h][l][k][j] = val
                        out[h][k][l][j] = K.trigsimp(-val)
        return out

    @property
    def riemann_lowered(self):
        """All-covariant Riemann tensor (contravariant index lowered).

        For the metric connection this is evaluated from second derivatives
        of the metric plus a first-kind/second-kind Christoffel product,
        exploiting the antisymmetry of both index pairs and their exchange
        symmetry; with torsion or nonmetricity present it lowers the
        curvature of the connection.
        """
        def compute():
            n, K = self.dim, self._K
            if not self.plain_connection:
                return _contract_last(self._values("riemann"), self._g, K,
                                      K.ratsimp)
            coords, dg = self.coords, self._dmetric
            c1, c2 = self._values("christoffel1"), self._values("christoffel2")
            half, d2 = K.element(sp.S.Half), {}

            def d2g(a, b, c, d):
                c, d = sorted((c, d))
                if (a, b, c, d) not in d2:
                    d2[a, b, c, d] = (K.diff(dg[c][a][b], coords[d])
                                      if dg[c][a][b] != 0 else K.zero)
                return d2[a, b, c, d]

            def component(i, k, l, m):
                return K.dot([d2g(i, m, k, l), d2g(k, l, i, m),
                              d2g(i, l, k, m), d2g(k, m, i, l)]
                             + c1[k][l] + c1[k][m],
                             [half, half, -half, -half] + c2[i][m]
                             + [-v for v in c2[i][l]])

            return _pair_fill(n, component, K.trigsimp, K.zero)
        return self._public("riemann_lowered", compute)

    @property
    def ricci(self):
        """Ricci tensor R[i][j] = R_ijk^k: R_ijkm g^km for the metric
        connection, otherwise the trace of the direct curvature."""
        def compute():
            n, K = self.dim, self._K
            if self.plain_connection:
                return _trace(self._values("riemann_lowered"),
                              self._values("ug"), K)
            R = self._values("riemann")
            return [[K.trigsimp(sum((R[i][j][k][k] for k in range(n)), K.zero))
                     for j in range(n)] for i in range(n)]
        return self._public("ricci", compute)

    @property
    def ricci_scalar(self):
        return self._public("ricci_scalar", lambda: _trace(
            self._values("ricci"), self._values("ug"), self._K))

    @property
    def einstein(self):
        """Einstein tensor G_ij = R_ij - R g_ij / 2."""
        def compute():
            n, K, g = self.dim, self._K, self._g
            ric, r = self._values("ricci"), self._values("ricci_scalar")
            r_half = K.dot((r,), (K.element(sp.S.Half),))
            return [[K.trigsimp(K.dot((ric[i][j], r_half), (K.one, -g[i][j])))
                     for j in range(n)] for i in range(n)]
        return self._public("einstein", compute)

    @property
    def weyl(self):
        """Weyl conformal tensor W[i][j][k][l], all covariant.  It is the
        trace-free part of a curvature with the pair symmetries of the
        metric connection's, so torsion or nonmetricity is refused."""
        def compute():
            n, K, g = self.dim, self._K, self._g
            if n < 3:
                raise DimensionError(
                    "the Weyl tensor needs at least three dimensions")
            if n == 3:
                warnings.warn("the Weyl tensor vanishes identically in three "
                              "dimensions; returning zeros")
                return _zeros(n, n, n, n, zero=K.zero)
            if not self.plain_connection:
                raise ValueError("the Weyl tensor needs the metric connection "
                                 "(no torsion or nonmetricity)")
            P, ric, r = (self._values(key) for key in (
                "riemann_lowered", "ricci", "ricci_scalar"))

            # the Schouten tensor S = (ric - r g / (2 (n - 1))) / (n - 2)
            k = K.element(sp.Rational(1, n - 2))
            rk = K.dot((r,), (k * K.element(sp.Rational(-1, 2 * n - 2)),))
            S = [[K.dot((ric[i][j], rk), (k, g[i][j])) for j in range(n)]
                 for i in range(n)]

            def component(a, b, c, d):
                return K.dot((P[b][d][c][a], g[b][c], g[a][c], g[b][d],
                              g[a][d]),
                             (K.one, S[a][d], -S[b][d], -S[a][c], S[b][c]))

            return _pair_fill(n, component, K.ratsimp, K.zero)
        return self._public("weyl", compute)

    # -- frame quantities -------------------------------------------------------

    def _need_frame(self):
        if not self.cframe_flag:
            raise ValueError("this context has no frame base")

    @property
    def frame_contravariant(self):
        """Contravariant frame components E[a][i] = e_(a)^i, from F^-1 =
        g^-1 F^T eta: the constructor ties g = F^T eta F."""
        self._need_frame()
        K = self._FK
        return self._public("frame_contravariant", lambda: _contract_last(
            self._frame_values("frame_lowered"), self._frame_values("ug"), K,
            K.trigsimp), K)

    @property
    def frame_lowered(self):
        """Covariant frame with the frame label lowered: e_(a)i."""
        self._need_frame()
        def compute():
            n, K, eta, f = self.dim, self._FK, self._eta, self._fri
            return [[K.ratsimp(K.dot(eta[a], [row[i] for row in f]))
                     for i in range(n)] for a in range(n)]
        return self._public("frame_lowered", compute, self._FK)

    @property
    def frame_bracket(self):
        """Frame bracket lambda[a][b][c] = gamma_abc - gamma_acb
        (antisymmetric in b, c), from the rotation coefficients.  It is
        E_b^i E_c^k (d_k e_(a)i - d_i e_(a)k + tau_ik^m e_(a)m): the
        nonmetricity coefficients are symmetric in the two lower indices
        the difference takes apart."""
        self._need_frame()
        def compute():
            n, K, gamma = self.dim, self._FK, self._frame_values(
                "rotation_coeffs")
            out = _zeros(n, n, n, zero=K.zero)
            for a in range(n):
                for b in range(n):
                    for c in range(b + 1, n):
                        out[a][b][c] = K.ratsimp(gamma[a][b][c]
                                                 - gamma[a][c][b])
                        out[a][c][b] = -out[a][b][c]
            return out
        return self._public("frame_bracket", compute, self._FK)

    @property
    def rotation_coeffs(self):
        """Ricci rotation coefficients gamma[a][b][c] =
        E_b^i E_c^k nabla_k e_(a)i, with nabla_k e_(a)i = d_k e_(a)i -
        Gamma_ki^m e_(a)m and Gamma = :attr:`connection2`: the frame
        components of the covariant derivative of the frame.

        They are carried into the frame for a < b only, one coordinate slot
        at a time.  The rest is gamma_bac = (nabla_c g)_ab - gamma_abc, with
        (nabla_c g)_ab = -mu_(c) eta_ab: gamma is antisymmetric in a, b for
        a metric connection, and gamma_aac vanishes there by construction,
        also when the frame has kernels (``abs``) trees cannot decide."""
        self._need_frame()
        def compute():
            n, K, coords, eta = self.dim, self._FK, self.coords, self._eta
            e, G, E = (self._frame_values(key) for key in (
                "frame_lowered", "connection2", "frame_contravariant"))
            mu = self._mu if self._FK is self._K else self.nonmetricity_values
            # mu_(c) = E_c^k mu_k, the frame components of nabla g = -mu g
            mu = None if mu is None else [K.trigsimp(K.dot(E[c], mu))
                                          for c in range(n)]

            def nabla(a, i, k):
                d = K.diff(e[a][i], coords[k]) if e[a][i] != 0 else K.zero
                return d - K.dot(G[k][i], e[a])

            out = _zeros(n, n, n, zero=K.zero)
            for a in range(n):
                if mu is not None:
                    for c in range(n):
                        out[a][a][c] = K.trigsimp(-mu[c] * eta[a][a] / 2)
                if a == n - 1:
                    break
                D = [[nabla(a, i, k) for i in range(n)] for k in range(n)]
                for b in range(a + 1, n):
                    Y = [K.ratsimp(K.dot(E[b], D[k])) for k in range(n)]
                    for c in range(n):
                        g = K.trigsimp(K.dot(E[c], Y))
                        out[a][b][c] = g
                        out[b][a][c] = (K.ratsimp(-g) if mu is None else
                                        K.trigsimp(-mu[c] * eta[a][b] - g))
            return out
        return self._public("rotation_coeffs", compute, self._FK)

    def _frame_stage(self, key, stage, carry):
        """Stage ``key``: the frame components of coordinate stage ``stage``,
        carried into the frame by ``carry``."""
        self._need_frame()
        return self._public(key, lambda: carry(
            self._frame_values(stage),
            self._frame_values("frame_contravariant"), self._FK), self._FK)

    @property
    def riemann_frame(self):
        """Frame-base Riemann tensor R[d][a][b][c] =
        R_hlkj e_(d)^h e_(a)^l e_(b)^k e_(c)^j, the frame components of
        :attr:`riemann_lowered` in its slot layout.  For the metric
        connection only the independent (pair, pair) components are
        evaluated; torsion or nonmetricity breaks the pair exchange
        symmetry, and then every slot is carried into the frame."""
        return self._frame_stage(
            "riemann_frame", "riemann_lowered",
            _frame_pairs if self.plain_connection else _frame_components)

    @property
    def ricci_frame(self):
        """Frame components of the Ricci tensor."""
        return self._frame_stage("ricci_frame", "ricci", _frame_components)

    @property
    def weyl_frame(self):
        """Frame components of the Weyl tensor, laid out like :attr:`weyl`."""
        return self._frame_stage("weyl_frame", "weyl", _frame_pairs)


def setup_metric(coords, matrix) -> MetricContext:
    """Build a context from coordinates and a covariant metric matrix."""
    return MetricContext(coords, matrix)


def setup_frame(coords, fri, lfg) -> MetricContext:
    """Build a context from the covariant frame base e^(a)_i (rows are frame
    labels) and the frame metric; the metric g_ij = eta_ab e^(a)_i e^(b)_j is
    computed and simplified."""
    return MetricContext(coords, None, fri=fri, lfg=lfg)
