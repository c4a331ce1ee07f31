"""Line-oriented metric definition files.

Sections introduce what a line defines; every content line is
``[section] key = value`` (the section tag may be omitted on continuation
lines).  Example::

    [chart] coords = t, r, theta, phi
    [constants] m
    [metric] row = (2*m-r)/r, 0, 0, 0
    [metric] row = 0, r/(r-2*m), 0, 0
    [metric] row = 0, 0, r^2, 0
    [metric] row = 0, 0, 0, r^2*sin(theta)^2
    [frame] row = sqrt((r-2*m)/r), 0, 0, 0
    ...
    [frame] frame_metric = diag(-1,1,1,1)

Optional ``[torsion] entry = i, j, k, expression`` lines (1-based indices)
install a torsion tensor, and ``[nonmetricity] mu = p, q, ...`` the
nonmetricity vector.  ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scalars
from .curvature import MetricContext, setup_metric


class MetricFileError(ValueError):
    """Malformed metric definition file; message carries the line number."""


@dataclass
class MetricFile:
    coords: list = field(default_factory=list)
    constants: list = field(default_factory=list)
    metric_rows: list = field(default_factory=list)
    frame_rows: list = field(default_factory=list)
    frame_metric: list = field(default_factory=list)
    torsion_entries: list = field(default_factory=list)
    nonmetricity: list | None = None
    #: the expression of each value text, kept where the text is parsed so
    #: that :meth:`to_context` parses no value twice; keyed by the text, and
    #: no constructor parameter, so it always agrees with the texts
    values: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def to_context(self, frame: bool = False) -> MetricContext:
        """The context of this document.  With ``frame``, or with frame rows
        alone, the frame derives the metric and metric rows are checked."""
        n = len(self.coords)
        if n < 2:
            raise MetricFileError("chart must declare at least two coordinates")

        def value(text):
            if text not in self.values:
                self.values[text] = scalars.parse(text)
            return self.values[text]

        def rows(texts):
            return [[value(t) for t in row] for row in texts]
        if frame or (not self.metric_rows and self.frame_rows):
            if not self.frame_rows:
                raise MetricFileError("no [frame] rows to build the metric from")
            eta = self.frame_metric or _identity_rows(n)
            ctx = MetricContext(self.coords, rows(self.metric_rows) or None,
                                fri=rows(self.frame_rows), lfg=rows(eta))
        else:
            if len(self.metric_rows) != n:
                raise MetricFileError(
                    f"expected {n} metric rows, found {len(self.metric_rows)}")
            ctx = setup_metric(self.coords, rows(self.metric_rows))
        if self.torsion_entries:
            tau = [[[0] * n for _ in range(n)] for _ in range(n)]
            for (i, j, k, expr) in self.torsion_entries:
                tau[i - 1][j - 1][k - 1] = value(expr)
                tau[j - 1][i - 1][k - 1] = -value(expr)
            ctx.set_torsion(tau)
        if self.nonmetricity is not None:
            ctx.set_nonmetricity([value(t) for t in self.nonmetricity])
        return ctx

    def render(self) -> str:
        lines = [f"[chart] coords = {', '.join(self.coords)}"]
        if self.constants:
            lines.append(f"[constants] {', '.join(self.constants)}")
        for row in self.metric_rows:
            lines.append(f"[metric] row = {', '.join(row)}")
        for row in self.frame_rows:
            lines.append(f"[frame] row = {', '.join(row)}")
        if self.frame_rows and self.frame_metric:
            diag = _as_diag(self.frame_metric)
            if diag is not None:
                lines.append(f"[frame] frame_metric = diag({','.join(diag)})")
            else:
                for row in self.frame_metric:
                    lines.append(f"[frame] metric_row = {', '.join(row)}")
        for (i, j, k, expr) in self.torsion_entries:
            lines.append(f"[torsion] entry = {i}, {j}, {k}, {expr}")
        if self.nonmetricity is not None:
            lines.append(f"[nonmetricity] mu = {', '.join(self.nonmetricity)}")
        return "\n".join(lines) + "\n"


def _identity_rows(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _as_diag(rows):
    n = len(rows)
    if all(rows[i][j] == "0" for i in range(n) for j in range(n) if i != j):
        return [rows[i][i] for i in range(n)]
    return None


def _split_values(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _expressions(mf, text):
    """Comma-separated expressions, each parsed where its line is read so
    that a syntax error is reported with that line, and kept in
    ``mf.values``."""
    values = _split_values(text)
    for value in values:
        mf.values[value] = scalars.parse(value)
    return values


def parse_metric_file(text: str) -> MetricFile:
    """Parse metric definition text, reporting errors with line numbers."""
    mf = MetricFile()
    section = None
    torsion_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise MetricFileError(f"line {lineno}: unterminated section tag")
            section = line[1:end].strip().lower()
            line = line[end + 1:].strip()
            if not line:
                continue
        if section is None:
            raise MetricFileError(f"line {lineno}: content before any section")
        if "=" in line:
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
        else:
            key, value = None, line
        try:
            _ingest(mf, section, key, value)
        except MetricFileError:
            raise
        except ValueError as exc:
            raise MetricFileError(f"line {lineno}: {exc}") from exc
        if section == "torsion":
            torsion_lines.append(lineno)
    n = len(mf.coords)
    for lineno, entry in zip(torsion_lines, mf.torsion_entries):
        if n and not all(1 <= index <= n for index in entry[:3]):
            raise MetricFileError(
                f"line {lineno}: torsion indices must lie in 1..{n}")
    return mf


def _ingest(mf, section, key, value):
    if section == "chart":
        if key != "coords":
            raise ValueError(f"unknown chart key {key!r}")
        mf.coords = _split_values(value)
    elif section == "constants":
        if key not in (None, "names"):
            raise ValueError(f"unknown constants key {key!r}")
        mf.constants.extend(_split_values(value))
    elif section == "metric":
        if key != "row":
            raise ValueError(f"unknown metric key {key!r}")
        mf.metric_rows.append(_expressions(mf, value))
    elif section == "frame":
        if key == "row":
            mf.frame_rows.append(_expressions(mf, value))
        elif key == "frame_metric":
            value = value.strip()
            if value.startswith("diag(") and value.endswith(")"):
                diag = _expressions(mf, value[5:-1])
                n = len(diag)
                mf.frame_metric = [
                    [diag[i] if i == j else "0" for j in range(n)]
                    for i in range(n)]
            else:
                raise ValueError("frame_metric expects diag(...) syntax")
        elif key == "metric_row":
            mf.frame_metric.append(_expressions(mf, value))
        else:
            raise ValueError(f"unknown frame key {key!r}")
    elif section == "torsion":
        if key != "entry":
            raise ValueError(f"unknown torsion key {key!r}")
        parts = _split_values(value)
        if len(parts) != 4:
            raise ValueError("torsion entry wants: i, j, k, expression")
        mf.values[parts[3]] = scalars.parse(parts[3])
        mf.torsion_entries.append(
            (int(parts[0]), int(parts[1]), int(parts[2]), parts[3]))
    elif section == "nonmetricity":
        if key != "mu":
            raise ValueError(f"unknown nonmetricity key {key!r}")
        mf.nonmetricity = _expressions(mf, value)
    else:
        raise ValueError(f"unknown section [{section}]")


def from_entry(entry) -> MetricFile:
    """Metric file document for a catalog entry."""
    mf = MetricFile(
        coords=list(entry.coords),
        constants=list(entry.constants),
        metric_rows=[list(row) for row in entry.lg])
    if entry.fri is not None:
        mf.frame_rows = [list(row) for row in entry.fri]
        mf.frame_metric = [list(row) for row in entry.frame_metric]
    return mf
