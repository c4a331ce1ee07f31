"""Predefined metric and frame library.

Every entry carries the covariant metric for its chart and, where
available, a rigid frame (rows are frame labels, columns coordinates) whose
pullback reproduces the metric.  All charts except the Schwarzschild pair
and kerr_newman describe flat space in curvilinear coordinates, which the
test suite verifies by computing their Riemann tensors; the signature is
Euclidean except for the Schwarzschild and Kerr-Newman entries.

An entry loads through its metric file document, so a frame load derives
the metric from the frame and checks the entry's metric against it; the
tests add the flatness and vacuum checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metricfile
from .curvature import MetricContext


@dataclass(frozen=True)
class MetricEntry:
    name: str
    coords: tuple
    constants: tuple
    constraints: str
    lg: tuple
    fri: tuple | None
    signature: str  # "euclidean" or "lorentzian"

    @property
    def frame_metric(self):
        if self.fri is None:
            return None
        n = len(self.coords)
        if self.signature == "lorentzian":
            return tuple(tuple("-1" if a == b == 0 else "1" if a == b else "0"
                               for b in range(n)) for a in range(n))
        return tuple(tuple("1" if a == b else "0" for b in range(n))
                     for a in range(n))


def _identity(n):
    return tuple(tuple("1" if i == j else "0" for j in range(n))
                 for i in range(n))


def _diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else "0" for j in range(n))
                 for i in range(n))


_D2 = "(cosh(v)-cos(u))^2"

# Frames for the conical and confocal ellipsoidal charts are the signed
# Jacobians of the flat embeddings; the radicals below are real on the
# documented coordinate ranges.
_CON_S1 = "sqrt((e^2-u^2)*(e^2-v^2)/(e^2-f^2))"
_CON_S2 = "sqrt((u^2-f^2)*(f^2-v^2)/(e^2-f^2))"
_CE_P1 = "sqrt((e^2-u)*(e^2-v)*(e^2-w)/((e^2-f^2)*(e^2-g^2)))"
_CE_P2 = "sqrt(-(f^2-u)*(f^2-v)*(f^2-w)/((e^2-f^2)*(f^2-g^2)))"
_CE_P3 = "sqrt((g^2-u)*(g^2-v)*(g^2-w)/((e^2-g^2)*(f^2-g^2)))"

_ENTRIES = (
    MetricEntry(
        "cartesian2d", ("x", "y"), (), "",
        _identity(2), _identity(2), "euclidean"),
    MetricEntry(
        "polar", ("r", "phi"), (), "r > 0",
        _diag("1", "r^2"),
        (("cos(phi)", "-r*sin(phi)"),
         ("sin(phi)", "r*cos(phi)")), "euclidean"),
    MetricEntry(
        "elliptic", ("u", "v"), ("e",), "e > 0",
        _diag("e^2*(cosh(u)^2-cos(v)^2)", "e^2*(cosh(u)^2-cos(v)^2)"),
        (("e*sinh(u)*cos(v)", "-e*cosh(u)*sin(v)"),
         ("e*cosh(u)*sin(v)", "e*sinh(u)*cos(v)")), "euclidean"),
    MetricEntry(
        "confocalelliptic", ("u", "v"), ("e",), "e > 0, v^2 < 1 < u^2",
        _diag("e^2*(u^2-v^2)/(u^2-1)", "e^2*(v^2-u^2)/(v^2-1)"),
        (("e*v", "e*u"),
         ("e*u*(1-v^2)/sqrt((u^2-1)*(1-v^2))",
          "e*v*(1-u^2)/sqrt((u^2-1)*(1-v^2))")), "euclidean"),
    MetricEntry(
        "bipolar", ("u", "v"), ("e",), "e > 0",
        _diag(f"e^2/{_D2}", f"e^2/{_D2}"),
        ((f"-e*sin(u)*sinh(v)/{_D2}", f"e*(1-cos(u)*cosh(v))/{_D2}"),
         (f"e*(cos(u)*cosh(v)-1)/{_D2}", f"-e*sin(u)*sinh(v)/{_D2}")),
        "euclidean"),
    MetricEntry(
        "parabolic", ("u", "v"), (), "",
        _diag("u^2+v^2", "u^2+v^2"),
        (("u", "-v"), ("v", "u")), "euclidean"),
    MetricEntry(
        "cartesian3d", ("x", "y", "z"), (), "",
        _identity(3), _identity(3), "euclidean"),
    MetricEntry(
        "polarcylindrical", ("r", "theta", "z"), (), "r > 0",
        _diag("1", "r^2", "1"),
        (("cos(theta)", "-r*sin(theta)", "0"),
         ("sin(theta)", "r*cos(theta)", "0"),
         ("0", "0", "1")), "euclidean"),
    MetricEntry(
        "ellipticcylindrical", ("u", "v", "z"), ("e",), "e > 0",
        _diag("e^2*(sin(v)^2+sinh(u)^2)", "e^2*(sin(v)^2+sinh(u)^2)", "1"),
        (("e*sinh(u)*cos(v)", "-e*cosh(u)*sin(v)", "0"),
         ("e*cosh(u)*sin(v)", "e*sinh(u)*cos(v)", "0"),
         ("0", "0", "1")), "euclidean"),
    MetricEntry(
        "confocalellipsoidal", ("u", "v", "w"), ("e", "f", "g"),
        "u < e^2 < v < f^2 < w < g^2",
        _diag("(v-u)*(w-u)/(4*(e^2-u)*(u-f^2)*(u-g^2))",
              "(v-u)*(w-v)/(4*(v-e^2)*(v-f^2)*(v-g^2))",
              "(w-u)*(w-v)/(4*(e^2-w)*(w-f^2)*(w-g^2))"),
        ((f"-{_CE_P1}/(2*(e^2-u))", f"-{_CE_P1}/(2*(e^2-v))",
          f"-{_CE_P1}/(2*(e^2-w))"),
         (f"-{_CE_P2}/(2*(f^2-u))", f"-{_CE_P2}/(2*(f^2-v))",
          f"-{_CE_P2}/(2*(f^2-w))"),
         (f"-{_CE_P3}/(2*(g^2-u))", f"-{_CE_P3}/(2*(g^2-v))",
          f"-{_CE_P3}/(2*(g^2-w))")), "euclidean"),
    MetricEntry(
        "bipolarcylindrical", ("u", "v", "z"), ("e",), "e > 0",
        _diag(f"e^2/{_D2}", f"e^2/{_D2}", "1"),
        ((f"-e*sin(u)*sinh(v)/{_D2}", f"e*(1-cos(u)*cosh(v))/{_D2}", "0"),
         (f"e*(cos(u)*cosh(v)-1)/{_D2}", f"-e*sin(u)*sinh(v)/{_D2}", "0"),
         ("0", "0", "1")), "euclidean"),
    MetricEntry(
        "paraboliccylindrical", ("u", "v", "z"), (), "",
        _diag("u^2+v^2", "u^2+v^2", "1"),
        (("u", "-v", "0"), ("v", "u", "0"), ("0", "0", "1")), "euclidean"),
    MetricEntry(
        "paraboloidal", ("u", "v", "phi"), (), "",
        _diag("u^2+v^2", "u^2+v^2", "u^2*v^2"),
        (("v*cos(phi)", "u*cos(phi)", "-u*v*sin(phi)"),
         ("v*sin(phi)", "u*sin(phi)", "u*v*cos(phi)"),
         ("u", "-v", "0")), "euclidean"),
    MetricEntry(
        "conical", ("u", "v", "w"), ("e", "f"), "0 < v^2 < f^2 < u^2 < e^2",
        _diag("(v^2-u^2)*w^2/((u^2-e^2)*(u^2-f^2))",
              "(u^2-v^2)*w^2/((v^2-e^2)*(v^2-f^2))",
              "1"),
        (("v*w/(e*f)", "u*w/(e*f)", "u*v/(e*f)"),
         (f"-u*w*{_CON_S1}/(e*(e^2-u^2))", f"-v*w*{_CON_S1}/(e*(e^2-v^2))",
          f"{_CON_S1}/e"),
         (f"u*w*{_CON_S2}/(f*(u^2-f^2))", f"-v*w*{_CON_S2}/(f*(f^2-v^2))",
          f"{_CON_S2}/f")), "euclidean"),
    MetricEntry(
        "toroidal", ("u", "v", "phi"), ("e",), "e > 0, v > 0",
        _diag(f"e^2/{_D2}", f"e^2/{_D2}", f"e^2*sinh(v)^2/{_D2}"),
        ((f"-e*sinh(v)*cos(phi)*sin(u)/{_D2}",
          f"-e*cos(phi)*(cos(u)*cosh(v)-1)/{_D2}",
          "-e*sinh(v)*sin(phi)/(cosh(v)-cos(u))"),
         (f"-e*sinh(v)*sin(phi)*sin(u)/{_D2}",
          f"-e*sin(phi)*(cos(u)*cosh(v)-1)/{_D2}",
          "e*sinh(v)*cos(phi)/(cosh(v)-cos(u))"),
         (f"e*(cos(u)*cosh(v)-1)/{_D2}", f"-e*sin(u)*sinh(v)/{_D2}", "0")),
        "euclidean"),
    MetricEntry(
        "spherical", ("r", "theta", "phi"), (), "r > 0, 0 < theta < pi",
        _diag("1", "r^2", "r^2*sin(theta)^2"),
        _diag("1", "r", "r*sin(theta)"), "euclidean"),
    MetricEntry(
        "oblatespheroidal", ("u", "v", "phi"), ("e",), "e != 0",
        _diag("e^2*(sin(v)^2+sinh(u)^2)", "e^2*(sin(v)^2+sinh(u)^2)",
              "e^2*cosh(u)^2*cos(v)^2"),
        _diag("abs(e)*sqrt(sin(v)^2+sinh(u)^2)",
              "abs(e)*sqrt(sin(v)^2+sinh(u)^2)",
              "abs(e)*cosh(u)*abs(cos(v))"), "euclidean"),
    MetricEntry(
        "oblatespheroidalsqrt", ("u", "v", "phi"), ("e",),
        "e != 0, u^2 > 1 > v^2",
        _diag("e^2*(u^2-v^2)/(u^2-1)", "e^2*(u^2-v^2)/(1-v^2)",
              "e^2*u^2*v^2"),
        _diag("abs(e)*sqrt(u^2-v^2)/sqrt(u^2-1)",
              "abs(e)*sqrt(u^2-v^2)/sqrt(1-v^2)",
              "abs(e*u*v)"), "euclidean"),
    MetricEntry(
        "prolatespheroidal", ("u", "v", "phi"), ("e",), "e != 0",
        _diag("e^2*(sin(v)^2+sinh(u)^2)", "e^2*(sin(v)^2+sinh(u)^2)",
              "e^2*sin(v)^2*sinh(u)^2"),
        _diag("abs(e)*sqrt(sin(v)^2+sinh(u)^2)",
              "abs(e)*sqrt(sin(v)^2+sinh(u)^2)",
              "abs(e*sinh(u)*sin(v))"), "euclidean"),
    MetricEntry(
        "prolatespheroidalsqrt", ("u", "v", "phi"), ("e",),
        "e != 0, u^2 < 1 < v^2",
        _diag("e^2*(v^2-u^2)/(1-u^2)", "e^2*(v^2-u^2)/(v^2-1)",
              "e^2*(1-u^2)*(v^2-1)"),
        _diag("abs(e)*sqrt(v^2-u^2)/sqrt(1-u^2)",
              "abs(e)*sqrt(v^2-u^2)/sqrt(v^2-1)",
              "abs(e)*sqrt((1-u^2)*(v^2-1))"), "euclidean"),
    MetricEntry(
        "ellipsoidal", ("r", "theta", "phi"), ("a", "b", "c"),
        "a, b, c > 0 pairwise distinct",
        (("(a^2*cos(phi)^2+b^2*sin(phi)^2)*sin(theta)^2+c^2*cos(theta)^2",
          "(a^2*cos(phi)^2+b^2*sin(phi)^2-c^2)*r*cos(theta)*sin(theta)",
          "(b^2-a^2)*cos(phi)*sin(phi)*r*sin(theta)^2"),
         ("(a^2*cos(phi)^2+b^2*sin(phi)^2-c^2)*r*cos(theta)*sin(theta)",
          "r^2*((a^2*cos(phi)^2+b^2*sin(phi)^2)*cos(theta)^2+c^2*sin(theta)^2)",
          "(b^2-a^2)*cos(phi)*sin(phi)*r^2*cos(theta)*sin(theta)"),
         ("(b^2-a^2)*cos(phi)*sin(phi)*r*sin(theta)^2",
          "(b^2-a^2)*cos(phi)*sin(phi)*r^2*cos(theta)*sin(theta)",
          "(a^2*sin(phi)^2+b^2*cos(phi)^2)*r^2*sin(theta)^2")),
        None, "euclidean"),
    MetricEntry(
        "cartesian4d", ("x", "y", "z", "t"), (), "",
        _identity(4), _identity(4), "euclidean"),
    MetricEntry(
        "spherical4d", ("r", "theta", "eta", "phi"), (), "r > 0",
        _diag("1", "r^2", "r^2*sin(theta)^2", "r^2*sin(eta)^2*sin(theta)^2"),
        _diag("1", "r", "r*sin(theta)", "r*sin(eta)*sin(theta)"),
        "euclidean"),
    MetricEntry(
        "exteriorschwarzschild", ("t", "r", "theta", "phi"), ("m",),
        "m > 0, r > 2*m",
        _diag("(2*m-r)/r", "r/(r-2*m)", "r^2", "r^2*sin(theta)^2"),
        _diag("sqrt((r-2*m)/r)", "sqrt(r/(r-2*m))", "r", "r*sin(theta)"),
        "lorentzian"),
    MetricEntry(
        "interiorschwarzschild", ("t", "z", "u", "v"), ("m",),
        "m > 0, t < 2*m",
        _diag("-t/(2*m-t)", "(2*m-t)/t", "t^2", "t^2*sin(u)^2"),
        _diag("sqrt(t/(2*m-t))", "sqrt((2*m-t)/t)", "t", "t*sin(u)"),
        "lorentzian"),
    MetricEntry(
        "kerr_newman", ("t", "r", "theta", "phi"), ("a", "m"),
        "m > 0 (the tabulated form carries no charge parameter)",
        (("(2*m*r-r^2-a^2*cos(theta)^2)/(r^2+a^2*cos(theta)^2)", "0", "0",
          "-2*a*m*r*sin(theta)^2/(r^2+a^2*cos(theta)^2)"),
         ("0", "(r^2+a^2*cos(theta)^2)/(a^2-2*m*r+r^2)", "0", "0"),
         ("0", "0", "r^2+a^2*cos(theta)^2", "0"),
         ("-2*a*m*r*sin(theta)^2/(r^2+a^2*cos(theta)^2)", "0", "0",
          "(r^4+2*a^2*r^2+a^4*cos(theta)^2+(2*a^2*m*r-a^2*r^2)*sin(theta)^2)"
          "*sin(theta)^2/(r^2+a^2*cos(theta)^2)")),
        (("sqrt(a^2-2*m*r+r^2)/sqrt(r^2+a^2*cos(theta)^2)", "0", "0",
          "-a*sin(theta)^2*sqrt(a^2-2*m*r+r^2)/sqrt(r^2+a^2*cos(theta)^2)"),
         ("0", "sqrt(r^2+a^2*cos(theta)^2)/sqrt(a^2-2*m*r+r^2)", "0", "0"),
         ("0", "0", "sqrt(r^2+a^2*cos(theta)^2)", "0"),
         ("-a*sin(theta)/sqrt(r^2+a^2*cos(theta)^2)", "0", "0",
          "(r^2+a^2)*sin(theta)/sqrt(r^2+a^2*cos(theta)^2)")),
        "lorentzian"),
)

_BY_NAME = {e.name: e for e in _ENTRIES}

#: Entries that are curvilinear charts of flat space (identically zero
#: Riemann tensor); the rest are the vacuum Schwarzschild pair and Kerr.
FLAT_ENTRIES = tuple(e.name for e in _ENTRIES if e.name not in
                     ("exteriorschwarzschild", "interiorschwarzschild",
                      "kerr_newman"))


def list_entries():
    """Catalog names in table order."""
    return [e.name for e in _ENTRIES]


def entry(name: str) -> MetricEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown catalog metric {name!r}") from None


def load(name: str, extra_flat=None, frame: bool = False) -> MetricContext:
    """The context of a catalog entry: its metric file document, read by
    :meth:`metricfile.MetricFile.to_context`.

    ``extra_flat=(count, "euclidean" | "minkowski")`` appends ``count`` flat
    dimensions with fresh coordinates (+1 entries for Euclidean, -1 for
    Minkowski).  With ``frame=True`` the metric is derived from the frame
    base (cframe_flag set) and the entry's metric is checked against it;
    ellipsoidal has no frame.
    """
    ent = entry(name)
    if frame and ent.fri is None:
        raise ValueError(f"catalog entry {name!r} has no frame base")
    mf = metricfile.from_entry(ent)
    if extra_flat:
        count, signature = extra_flat
        if type(count) is not int or count < 0:
            raise ValueError("extra_flat count must be a non-negative "
                             "integer")
        if signature not in ("euclidean", "minkowski"):
            raise ValueError("extra_flat signature must be 'euclidean' or "
                             "'minkowski'")
        sign = "1" if signature == "euclidean" else "-1"
        for _ in range(count):
            mf.coords.append(_fresh_coord(mf.coords))
            for rows, last in ((mf.metric_rows, sign), (mf.frame_rows, "1"),
                               (mf.frame_metric, sign)):
                if rows:
                    for row in rows:
                        row.append("0")
                    rows.append(["0"] * len(rows) + [last])
    return mf.to_context(frame)


def _fresh_coord(coords):
    i = 1
    while f"w{i}" in coords:
        i += 1
    return f"w{i}"
