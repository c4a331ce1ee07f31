"""Command line surface.

Subcommands: ``compute`` (curvature tensors of a metric file or catalog
entry), ``classify`` (Petrov type), ``catalog`` (list/show predefined
metrics), ``algebra`` (abstract algebra simplification and tables) and
``indicial`` (abstract-index operations on textual tensor expressions).

Exit codes: 0 success, 1 input error, 2 computation error (for example an
unclassifiable Petrov zero test; ``compute`` exits 2 on a component it
cannot decide, naming the stage and the component).  Setting
TENSOR_TRACE=1 logs steps to stderr.  Output is deterministic: identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import algebras, catalog, indicial, metricfile, petrov, scalars
from .curvature import DimensionError
from .indicial import TensorContext

log = logging.getLogger("tensoralg")

TENSOR_CHOICES = ("christoffel1", "christoffel2", "riemann", "ricci",
                  "scalar", "einstein", "weyl", "rotation_coeffs", "all")

_ARRAY_RANKS = {"christoffel1": 3, "christoffel2": 3, "riemann": 4,
                "ricci": 2, "einstein": 2, "weyl": 4, "rotation_coeffs": 3}


class InputError(ValueError):
    pass


def _load_context(args):
    if getattr(args, "catalog", None):
        try:
            ctx = catalog.load(args.catalog, frame=args.frame)
        except KeyError as exc:
            raise InputError(exc.args[0])
        log.info("loaded catalog metric %s", args.catalog)
        return ctx
    if getattr(args, "metric", None):
        try:
            with open(args.metric, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.metric}: {exc}")
        mf = metricfile.parse_metric_file(text)
        log.info("parsed metric file %s", args.metric)
        return mf.to_context(frame=args.frame)
    raise InputError("one of --metric or --catalog is required")


def _component_items(ctx, name, rank):
    names = [c.name for c in ctx.coords]
    items = {}
    zeros = 0

    def walk(prefix, node, zero, depth):
        nonlocal zeros
        if depth == 0:
            if zero:
                zeros += 1
            else:
                items[",".join(prefix)] = scalars.render(node, K)
            return
        for i, (sub, sub_zero) in enumerate(zip(node, zero)):
            walk(prefix + [names[i]], sub, sub_zero, depth - 1)

    K, values = ctx.printable(name)
    walk([], values, ctx.vanishing(name), rank)
    return {"components": items, "zero_components": zeros}


def _cmd_compute(args):
    ctx = _load_context(args)
    wanted = []
    for part in args.tensors.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in TENSOR_CHOICES:
            raise InputError(f"unknown tensor {part!r} (choices: "
                             f"{', '.join(TENSOR_CHOICES)})")
        wanted.append(part)
    if not wanted:
        raise InputError("no tensors requested")
    if "all" in wanted:
        wanted = ["christoffel1", "christoffel2", "riemann", "ricci",
                  "scalar", "einstein"]
        if ctx.dim >= 4 and ctx.plain_connection:
            wanted.append("weyl")
        if ctx.cframe_flag:
            wanted.append("rotation_coeffs")
    document = {}
    for name in wanted:
        log.info("computing %s", name)
        if name == "scalar":
            K, value = ctx.printable("ricci_scalar")
            document["scalar"] = {"value": scalars.render(value, K),
                                  "zero": bool(ctx.vanishing("ricci_scalar"))}
            continue
        if name == "rotation_coeffs" and not ctx.cframe_flag:
            raise InputError("rotation_coeffs needs a frame base: add --frame "
                             "(a metric file needs a [frame] section)")
        document[name] = _component_items(ctx, name, _ARRAY_RANKS[name])
    _emit(args, document)
    return 0


def _cmd_classify(args):
    ctx = _load_context(args)
    try:
        petrov_type = petrov.petrov_of_metric(ctx)
    except petrov.UnclassifiableError as exc:
        _emit(args, {"petrov_type": "unclassifiable"})
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    _emit(args, {"petrov_type": petrov_type.value})
    return 0


def _cmd_catalog(args):
    if args.action == "list":
        if args.name is not None:
            raise InputError("catalog list takes no metric name")
        if args.format == "json":
            _print(json.dumps({"metrics": catalog.list_entries()}, indent=2,
                              sort_keys=True))
        else:
            for name in catalog.list_entries():
                _print(name)
        return 0
    if args.name is None:
        raise InputError("catalog show needs a metric name")
    try:
        ent = catalog.entry(args.name)
    except KeyError as exc:
        raise InputError(exc.args[0])
    _print(metricfile.from_entry(ent).render(), end="")
    return 0


def _cmd_algebra(args):
    dims = [int(x) for x in args.dims.split(",")] if args.dims else []
    config = algebras.init_atensor(args.type, *dims)
    if args.table:
        table = algebras.multiplication_table(config)
        if args.format == "json":
            _print(json.dumps(
                {"basis": ["1", "v1", "v2", "v1.v2"],
                 "table": [[str(cell) for cell in row] for row in table]},
                indent=2, sort_keys=True))
        else:
            for row in table:
                _print("  ".join(str(cell) for cell in row))
        return 0
    if not args.expr:
        raise InputError("provide --expr or --table")
    element = algebras.parse_mvec(args.expr)
    result = algebras.atensimp(config, element)
    _emit(args, {"result": str(result)})
    return 0


def _decsym_from_text(ctx, text):
    # e.g. "T:2,0:anti(all)" or "g:2,0:sym(1,2)"
    try:
        name, valence, groups = text.split(":")
        ncov, ncontra = (int(x) for x in valence.split(","))
        kind, _, positions = groups.partition("(")
        positions = positions.rstrip(")")
        group = (kind, "all" if positions == "all"
                 else tuple(int(p) for p in positions.split(",")))
        if kind not in ("sym", "anti"):
            raise ValueError(kind)
    except ValueError:
        raise InputError(f"cannot parse symmetry declaration {text!r}")
    if ncov:
        ctx.decsym(name, ncov, ncontra, [group], [])
    else:
        ctx.decsym(name, ncov, ncontra, [], [group])


def _cmd_indicial(args):
    ctx = TensorContext(
        metric=args.metric_name, dim=args.dim,
        torsion=args.torsion, nonmetricity=args.nonmetricity,
        frame=args.frame, geometric_wedge=args.geometric_wedge)
    for decl in args.decsym or ():
        _decsym_from_text(ctx, decl)
    for vec in args.vector or ():
        ctx.declare_vector(vec)
    expr = indicial.parse_tensor_expr(args.expr)
    op = args.op
    log.info("indicial %s", op)
    if op == "canform":
        result = indicial.canform(ctx, expr)
    elif op == "contract":
        result = indicial.contract(ctx, expr)
    elif op == "expand":
        result = indicial.contract(
            ctx, indicial.expand_christoffels(ctx, expr))
    elif op == "covdiff":
        if not args.wrt:
            raise InputError("covdiff needs --wrt LABEL")
        result = indicial.covdiff(ctx, expr, args.wrt)
    elif op == "liediff":
        if not args.vector:
            raise InputError("liediff needs --vector NAME")
        result = indicial.liediff(ctx, expr, args.vector[0])
    elif op == "wedge":
        if not args.second:
            raise InputError("wedge needs --with EXPR")
        result = indicial.wedge(ctx, expr,
                                indicial.parse_tensor_expr(args.second))
    elif op == "extdiff":
        if not args.wrt:
            raise InputError("extdiff needs --wrt LABEL")
        result = indicial.extdiff(ctx, expr, args.wrt)
    elif op == "inner":
        if not args.vector:
            raise InputError("inner needs --vector NAME")
        result = indicial.inner(ctx, args.vector[0], expr)
    else:
        raise InputError(f"unknown operation {op!r}")
    _emit(args, {"result": str(result)})
    return 0


def _emit(args, document):
    if getattr(args, "format", "text") == "json":
        _print(json.dumps(document, indent=2, sort_keys=True))
        return
    for key in sorted(document):
        value = document[key]
        if isinstance(value, dict) and "components" in value:
            for idx in sorted(value["components"]):
                _print(f"{key}[{idx}] = {value['components'][idx]}")
            _print(f"{key}: {value['zero_components']} zero components "
                   f"omitted")
        elif isinstance(value, dict) and "value" in value:
            _print(f"{key} = {value['value']}")
        else:
            _print(f"{key} = {value}")


def _print(text, end="\n"):
    sys.stdout.write(text + end)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensoralg",
        description="Symbolic tensor calculus: curvature, Petrov "
                    "classification, abstract index manipulation, abstract "
                    "algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--metric", help="metric definition file")
        p.add_argument("--catalog", help="catalog metric name")
        p.add_argument("--frame", action="store_true",
                       help="build the context from the frame base")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compute", help="compute curvature tensors")
    add_io(p)
    p.add_argument("--tensors", default="all",
                   help="comma list of: " + ", ".join(TENSOR_CHOICES))
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("classify", help="Petrov classification")
    add_io(p)
    p.set_defaults(func=_cmd_classify, frame=True)

    p = sub.add_parser("catalog", help="predefined metric library")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("algebra", help="abstract tensor algebras")
    p.add_argument("--type", required=True, choices=algebras.ALGEBRA_TYPES)
    p.add_argument("--dims", default="", help="comma list, e.g. 0,0,2")
    p.add_argument("--expr", help="element to simplify, e.g. v2.v1.v1")
    p.add_argument("--table", action="store_true",
                   help="print the 4x4 multiplication table")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("indicial", help="abstract index manipulation")
    p.add_argument("--op", default="canform",
                   choices=("canform", "contract", "expand", "covdiff",
                            "liediff", "wedge", "extdiff", "inner"))
    p.add_argument("--expr", required=True,
                   help="tensor expression, e.g. g([a,b],[])*T([],[b,c])")
    p.add_argument("--with", dest="second", help="second operand (wedge)")
    p.add_argument("--wrt", help="derivative index label")
    p.add_argument("--vector", action="append",
                   help="registered vector name (repeatable)")
    p.add_argument("--decsym", action="append",
                   help="symmetry declaration name:ncov,ncontra:kind(...)")
    p.add_argument("--metric-name", default="g")
    p.add_argument("--dim", type=int)
    p.add_argument("--geometric-wedge", action="store_true")
    p.add_argument("--frame", action="store_true")
    p.add_argument("--torsion", action="store_true")
    p.add_argument("--nonmetricity", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_indicial)
    return parser


def main(argv=None) -> int:
    if os.environ.get("TENSOR_TRACE") == "1":
        logging.basicConfig(level=logging.INFO,
                            format="tensoralg: %(message)s",
                            stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (petrov.UnclassifiableError, DimensionError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except (InputError, scalars.ExprSyntaxError, metricfile.MetricFileError,
            indicial.TensorSyntaxError, indicial.IndexConflictError,
            KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
