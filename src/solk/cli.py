"""Command-line front end.

Subcommands:
    validate FILE          check a presentation file, print findings
    classes FILE           germ classes, induced map, preimages, diagnostics
    ktheory FILE           the full K-theory report
    sft --matrix "1,1;1,1" invariant of a subshift of finite type
    limit --matrix "3"     classify a stationary limit lim(Z^r, T)

Exit codes: 0 success, 1 validation errors, 2 parse or usage errors or an
unreadable input path, 3 internal-consistency errors (a failed exactness,
invariance or well-definedness check), 141 stdout closed by its reader (as
after SIGPIPE; nothing is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from .germs import (
    DegreeNotConstant, GermClass, QuotientSummary, UnreachableVertex, quotient_summary,
)
from .intlin import IntMatrix, NotInvariant
from .ktheory import InvalidPresentation, KTheoryReport, ktheory_report, with_class_order
from .limits import StationaryLimitGroup
from .model import ParseError, parse_presentation, validate
from .sft import SftPresentation, sft_dimension_group, validate_sft


def _class_json(c: GermClass) -> dict:
    return {"vertex": c.vertex, "in": c.in_edge, "out": c.out_edge}


def _limit_json(g: StationaryLimitGroup) -> dict:
    return {
        "ambient_rank": g.ambient_rank,
        "endomorphism": g.endomorphism,
        "eventual_rank": g.eventual_rank,
        "eventual_basis": g.eventual_basis,
        "reduced_endomorphism": g.reduced_endomorphism,
        "classification": str(g.classify()),
    }


def _print_matrix(m: IntMatrix, row_labels: list[str] | None = None, indent: str = "  ") -> None:
    if m.rows == 0 or m.cols == 0:
        print(f"{indent}(empty {m.rows}x{m.cols} matrix)")
        return
    rows = [list(map(str, m.row(i))) for i in range(m.rows)]
    width = max(len(x) for row in rows for x in row)
    label_w = max((len(l) for l in row_labels), default=0) if row_labels else 0
    for i, row in enumerate(rows):
        label = f"{row_labels[i]:>{label_w}} " if row_labels else ""
        print(f"{indent}{label}[ " + "  ".join(x.rjust(width) for x in row) + " ]")


def _parse_matrix_flag(text: str) -> IntMatrix:
    try:
        return IntMatrix.from_rows([[int(x) for x in row.split(",")] for row in text.split(";")])
    except ValueError as exc:
        raise ValueError(f"bad --matrix value: {exc}") from exc


def _load_presentation(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _print_findings(report) -> None:
    for f in report.findings:
        print(f"{f.severity}: [{f.code}] {f.message}")


class _IntText(dict):
    """int -> its JSON text; an int outside the table is written, not stored."""

    __slots__ = ()

    def __missing__(self, key: int) -> str:
        return int.__repr__(key)


# Nearly every int a report writes is -1, 0 or 1, and almost all lie within +-8.
_INT_TEXT = _IntText({i: int.__repr__(i) for i in range(-16, 17)})
_LITERAL_TEXT = {True: "true", False: "false", None: "null"}


def _json_text(value, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)``, byte for byte.

    The stdlib takes its pure-Python encoder whenever ``indent`` is set; here
    a list writes its int and str items inline, without a recursive call, and
    strings go through the C escaper that ``json.dumps`` uses under
    ``ensure_ascii``.  ``int`` is tested by exact type, so a bool is not
    written as an int, and its text comes from a table for -16..16 and from
    ``int.__repr__`` past it; ``true``, ``false`` and ``null`` come from a
    table too.  ``list``, ``tuple`` and ``dict`` are tested by exact type
    first, and their subclasses (a named tuple) by ``isinstance``.  Any other
    scalar, such as a float, goes through ``json.dumps``.  An ``IntMatrix``
    is written as its list of rows, one ``str.join`` per ``IntMatrix.row``.
    Dict keys are ``str``, as in every report solk writes; the escaper raises
    ``TypeError`` on any other key.  ``newline`` is a line break plus the
    indent of the line that holds ``value``.
    """
    t = type(value)
    if t is str:
        return _escape(value)
    if t is int:
        return _INT_TEXT[value]
    if t is bool or value is None:
        return _LITERAL_TEXT[value]
    inner = newline + "  "
    if t is list or t is tuple or (t is not dict and isinstance(value, (list, tuple))):
        if not value:
            return "[]"
        items = [
            _INT_TEXT[v] if type(v) is int
            else _escape(v) if type(v) is str
            else _json_text(v, inner)
            for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if t is dict or isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            _escape(k) + ": " + (_escape(v) if type(v) is str else _json_text(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is IntMatrix:
        deeper, text = inner + "  ", _INT_TEXT.__getitem__
        rows = [
            "[" + deeper + ("," + deeper).join(map(text, row)) + inner + "]" if row else "[]"
            for row in map(value.row, range(value.rows))
        ]
        return "[" + inner + ("," + inner).join(rows) + newline + "]" if rows else "[]"
    return json.dumps(value)


def _cmd_validate(args) -> int:
    p = _load_presentation(args.file)
    report = validate(p)
    _print_findings(report)
    if report.ok:
        print("ok")
        return 0
    return 1


def _cmd_classes(args) -> int:
    p = _load_presentation(args.file)
    report = validate(p)
    if not report.ok:
        _print_findings(report)
        return 1
    summary = quotient_summary(p)
    model = with_class_order(summary.model, args.order)
    labels = list(map(GermClass.label, model.classes))
    if args.json:
        obj = {
            "classes": list(map(_class_json, model.classes)),
            "gtilde": dict(zip(labels, map(labels.__getitem__, model.gtilde))),
            # A tuple is written as a JSON list, so each (edge, index) pair is one.
            "interior_preimages": dict(zip(labels, model.interior_preimage_table)),
            "diagnostics": _diagnostics_json(summary),
        }
        print(_json_text(obj))
        return 0
    print(f"classes ({args.order} order):")
    for label in labels:
        print(f"  {label}")
    print("induced map:")
    for label, j in zip(labels, model.gtilde):
        print(f"  {label} -> {labels[j]}")
    print("interior preimages:")
    for label, preimages in zip(labels, model.interior_preimage_table):
        pairs = ", ".join(f"({e},{i})" for e, i in preimages) or "-"
        print(f"  {label} <- {pairs}")
    _print_diagnostics(summary)
    return 0


def _diagnostics_json(d: QuotientSummary) -> dict:
    return {
        "hausdorff": d.hausdorff,
        "hausdorff_witness": (
            [c.label() for c in d.hausdorff_witness] if d.hausdorff_witness else None
        ),
        "connected": d.connected,
        "degree": d.degree,
        "nuclear_dimension_bound": d.nuclear_dimension_bound,
    }


def _print_diagnostics(d: QuotientSummary) -> None:
    print("diagnostics:")
    print(f"  hausdorff: {'yes' if d.hausdorff else 'no'}")
    if d.hausdorff_witness:
        a, b = d.hausdorff_witness
        print(f"  witness: {a.label()} / {b.label()}")
    print(f"  connected: {'yes' if d.connected else 'no'}")
    if d.degree is not None:
        print(f"  degree: {d.degree}")
    print(f"  nuclear dimension bound: {d.nuclear_dimension_bound}")


def _report_json(r: KTheoryReport) -> dict:
    class_labels = list(map(GermClass.label, r.model.classes))
    return {
        "classes": [_class_json(c) for c in r.model.classes],
        "delta0": {
            "row_labels": list(r.model.edge_points),
            "col_labels": class_labels,
            "entries": r.delta0,
        },
        "k0_basis": {
            "row_labels": class_labels,
            "entries": r.k0_basis,
        },
        "psi0": r.psi0,
        # K1 is free: no torsion, each generator of infinite order (modulus 0).
        "k1": {"free_rank": r.psi1.rows, "torsion": []},
        "psi1": {"entries": r.psi1, "moduli": [0] * r.psi1.rows},
        "k0_limit": _limit_json(r.k0_limit),
        "k1_limit": {"free": _limit_json(r.k1_limit), "torsion_limit": []},
        "diagnostics": {**_diagnostics_json(r.summary), "zn_target": r.zn_target},
    }


def _cmd_ktheory(args) -> int:
    p = _load_presentation(args.file)
    try:
        r = ktheory_report(p, order=args.order)
    except InvalidPresentation as exc:
        _print_findings(exc.report)
        return 1
    if args.json:
        print(_json_text(_report_json(r)))
        return 0
    _print_findings(r.validation)
    class_labels = list(map(GermClass.label, r.model.classes))
    print(f"classes ({r.order} order): " + ", ".join(class_labels))
    print("boundary matrix (rows = edges, cols = classes):")
    _print_matrix(r.delta0, row_labels=list(r.model.edge_points))
    print(f"K0 of the cell algebra: free of rank {r.k0_basis.cols}")
    print("  basis columns (class coordinates):")
    _print_matrix(r.k0_basis, row_labels=class_labels, indent="    ")
    print(f"K1 of the cell algebra: Z^{r.psi1.rows}")
    print("connecting endomorphism on K0 (in the basis above):")
    _print_matrix(r.psi0)
    print("connecting endomorphism on K1 (cokernel generators):")
    _print_matrix(r.psi1)
    print(f"K0 of the limit algebra: {r.k0_limit.classify()}")
    print(f"K1 of the limit algebra: {r.k1_limit.classify()}")
    if r.zn_target:
        print(f"trace target: {r.zn_target}")
    _print_diagnostics(r.summary)
    return 0


def _cmd_sft(args) -> int:
    s = SftPresentation.from_matrix(_parse_matrix_flag(args.matrix).to_rows())
    report = validate_sft(s)
    if not report.ok:
        _print_findings(report)
        return 1
    dg = sft_dimension_group(s)
    if args.json:
        obj = {
            "states": list(s.states),
            "adjacency": s.adjacency,
            "k0": _limit_json(dg.k0),
            "k1": dg.k1,
            "warnings": [f.message for f in report.warnings()],
        }
        print(_json_text(obj))
        return 0
    _print_findings(report)
    print(f"K0: {dg.k0_classification}")
    print(f"K1: {dg.k1}")
    return 0


def _cmd_limit(args) -> int:
    g = StationaryLimitGroup(_parse_matrix_flag(args.matrix))
    if args.json:
        print(_json_text(_limit_json(g)))
        return 0
    print(f"classification: {g.classify()}")
    print(f"eventual rank: {g.eventual_rank}")
    print("eventual basis (columns):")
    _print_matrix(g.eventual_basis)
    print("reduced endomorphism:")
    _print_matrix(g.reduced_endomorphism)
    return 0


# Built on the first call, so importing solk.cli stays cheap; later calls of main reuse it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="solk", description=__doc__)
    matrix_help = 'rows separated by ";", entries by ","; a leading "-" needs --matrix="-1,0;0,2"'
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="validate a presentation file")
    pv.add_argument("file")
    pv.set_defaults(fn=_cmd_validate)

    pc = sub.add_parser("classes", help="germ classes and quotient diagnostics")
    pc.add_argument("file")
    pc.add_argument("--order", choices=["lex", "paper"], default="lex")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=_cmd_classes)

    pk = sub.add_parser("ktheory", help="full K-theory report")
    pk.add_argument("file")
    pk.add_argument("--order", choices=["lex", "paper"], default="lex")
    pk.add_argument("--json", action="store_true")
    pk.set_defaults(fn=_cmd_ktheory)

    ps = sub.add_parser("sft", help="dimension group of a subshift of finite type")
    ps.add_argument("--matrix", required=True, help=matrix_help)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(fn=_cmd_sft)

    pl = sub.add_parser("limit", help="classify a stationary limit lim(Z^r, T)")
    pl.add_argument("--matrix", required=True, help=matrix_help)
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(fn=_cmd_limit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the flush at exit goes to the null device, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (UnreachableVertex, DegreeNotConstant) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotInvariant, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
