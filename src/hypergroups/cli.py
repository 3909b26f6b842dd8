"""Command-line front end.

Subcommands map one-to-one onto library calls; this module owns flag
parsing and file dispatch only. Results go to stdout, diagnostics to
stderr. Exit codes: 0 success/verified, 1 verified-false (axiom or
morphism failure, missing isomorphism, reconstruction diagnostic),
2 usage or data error, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from ._util import canonical_dumps
from .classify import catalog_csv, enumerate_abstract, export_catalog, sweep_standard
from .core import (
    HypergroupOverGroup,
    _hypergroup_json,
    hypergroup_from_json,
    lemma_solve,
    quasigroup_divide,
    standard_construction,
    verify_axioms,
)
from .errors import AlgebraError, InternalInconsistencyError
from .fields import parse_field_spec, verify_field_axioms
from .functors import functor_field, functor_group, functor_vector_space, reconstruct_field
from .groups import (
    FiniteGroup,
    element_orders,
    enumerate_subgroups,
    group_from_cayley_table,
    group_from_spec,
    is_normal,
    parse_cayley_text,
    subgroup_closure,
)
from .morphisms import HgMorphism, find_isomorphism, verify_morphism
from .transversals import enumerate_transversals, make_transversal


@dataclass
class CliConfig:
    subcommand: str
    format: str = "text"
    seed: int = 0
    verbose: bool = False


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    sys.stdout.write(canonical_dumps(obj))


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _read_json(text: str):
    """JSON without NaN, +-Infinity or floats past the float range, none
    of which an integer field can hold, and not nested past the
    decoder's recursion limit."""
    try:
        return json.loads(text, parse_constant=_finite, parse_float=_finite)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _load_group(value: str) -> FiniteGroup:
    path = Path(value)
    if path.is_file():
        text = path.read_text()
        if text.lstrip().startswith("{"):
            data = _read_json(text)
            return group_from_cayley_table(data["table"], name=data.get("name", "G"))
        return parse_cayley_text(text)
    return group_from_spec(value)


def _load_hypergroup(value: str) -> HypergroupOverGroup:
    return hypergroup_from_json(_read_json(Path(value).read_text()))


def _parse_indices(value: str) -> list[int]:
    return [int(part) for part in value.split(",") if part.strip() != ""]


def _write_or_print(args, payload: dict) -> None:
    text = canonical_dumps(payload)
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_group(args, cfg: CliConfig) -> int:
    group = _load_group(args.spec)
    if args.group_cmd == "info":
        info = {
            "name": group.name,
            "order": group.order,
            "identity": group.identity,
            "abelian": group.is_abelian(),
            "element_orders": element_orders(group),
            "table": group.table,
        }
        if cfg.format == "json":
            _emit_json(info)
        else:
            _emit(f"group {group.name}: order {group.order}, "
                  f"{'abelian' if info['abelian'] else 'non-abelian'}, "
                  f"identity {group.identity}")
            _emit("element orders: " + ",".join(map(str, info["element_orders"])))
            for row in group.table.tolist():
                _emit(" ".join(map(str, row)))
        return 0
    subgroups = enumerate_subgroups(group)
    rows = [
        {
            "elements": list(h.elements),
            "order": len(h.elements),
            "index": group.order // len(h.elements),
            "normal": is_normal(h),
        }
        for h in subgroups
    ]
    if cfg.format == "json":
        _emit_json({"group": group.name, "subgroups": rows})
    else:
        _emit(f"{len(rows)} subgroups of {group.name}")
        for r in rows:
            flag = "normal" if r["normal"] else "not normal"
            _emit(f"  {{{','.join(map(str, r['elements']))}}} "
                  f"order {r['order']} index {r['index']} ({flag})")
    return 0


def _cmd_hg_construct(args, cfg: CliConfig) -> int:
    group = _load_group(args.group)
    gens = _parse_indices(args.subgroup)
    h = subgroup_closure(group, gens)
    if args.transversal == "auto":
        t = enumerate_transversals(group, h, limit=1)[0]
    else:
        t = make_transversal(group, h, _parse_indices(args.transversal))
    hg = standard_construction(group, h, t)
    _write_or_print(args, _hypergroup_json(hg))
    if cfg.verbose:
        _note(f"constructed |M|={hg.m_size}, |H|={hg.h.order}")
    return 0


def _cmd_hg_verify(args, cfg: CliConfig) -> int:
    hg = _load_hypergroup(args.file)
    report = verify_axioms(hg)
    if cfg.format == "json":
        _emit_json(report.to_dict())
    else:
        for name, check in report.checks.items():
            if check.ok:
                _emit(f"{name}: pass")
            else:
                _emit(f"{name}: FAIL witness={check.witness} ({check.detail})")
        _emit("overall: " + ("pass" if report.overall else "FAIL"))
    return 0 if report.overall else 1


def _cmd_hg_solve(args, cfg: CliConfig) -> int:
    hg = _load_hypergroup(args.file)
    if args.lemma:
        x = lemma_solve(hg, args.a, args.b)
        method = "lemma"
    else:
        x = quasigroup_divide(hg, args.a, args.b)
        method = "divide"
    if cfg.format == "json":
        _emit_json({"a": args.a, "b": args.b, "method": method, "x": x})
    else:
        _emit(f"x = {x}  (solves [x, {args.a}] = {args.b}, via {method})")
    return 0


def _cmd_hg_iso(args, cfg: CliConfig) -> int:
    hg1 = _load_hypergroup(args.file_a)
    hg2 = _load_hypergroup(args.file_b)
    iso = find_isomorphism(hg1, hg2)
    if iso is None:
        if cfg.format == "json":
            _emit_json({"isomorphic": False})
        else:
            _emit("not isomorphic")
        return 1
    if cfg.format == "json":
        _emit_json({"isomorphic": True, **iso.to_json()})
    else:
        _emit("isomorphic")
        _emit("f0 = " + ",".join(map(str, iso.f0)))
        _emit("f1 = " + ",".join(map(str, iso.f1)))
    return 0


def _cmd_hg_morphism(args, cfg: CliConfig) -> int:
    src = _load_hypergroup(args.source)
    dst = _load_hypergroup(args.target)
    data = _read_json(Path(args.morphism).read_text())
    mor = HgMorphism(source=src, target=dst,
                     f0=list(data["f0"]), f1=list(data["f1"]))
    report = verify_morphism(mor)
    if cfg.format == "json":
        _emit_json(report.to_dict())
    elif report.ok:
        _emit("morphism: pass")
    else:
        _emit(f"morphism: FAIL {report.failed} witness={report.witness}")
    return 0 if report.ok else 1


def _cmd_functor(args, cfg: CliConfig) -> int:
    if args.functor_cmd == "group":
        hg = functor_group(_load_group(args.spec))
    elif args.functor_cmd == "vs":
        hg = functor_vector_space(parse_field_spec(args.field), args.dim)
    else:
        hg = functor_field(parse_field_spec(args.field))
    _write_or_print(args, _hypergroup_json(hg))
    return 0


def _cmd_reconstruct(args, cfg: CliConfig) -> int:
    hg = _load_hypergroup(args.file)
    result = reconstruct_field(hg)
    if cfg.format == "json":
        _emit_json(result.to_dict())
    elif result.ok:
        f = result.field
        _emit(f"field reconstructed: {f.name} (order {f.q})")
        _emit(f"field hypergroup: {result.is_field_hypergroup}"
              + (f" (unit witness a = {result.unit_witness})"
                 if result.unit_witness is not None else ""))
    else:
        _emit(f"reconstruction failed: {result.status}"
              f" witness={result.witness} ({result.detail})")
    return 0 if result.ok else 1


def _cmd_classify(args, cfg: CliConfig) -> int:
    if args.abstract:
        if args.m is None or args.h is None:
            raise AlgebraError("--abstract requires --m and --h")
        catalog = enumerate_abstract(args.m, group_from_spec(args.h))
    else:
        if args.max_order is None:
            raise AlgebraError("classify needs --max-order N or --abstract")
        catalog = sweep_standard(args.max_order,
                                 transversal_cap=args.transversal_cap,
                                 seed=cfg.seed)
    if args.out:
        written = export_catalog(catalog, args.out)
        if cfg.verbose:
            _note(f"wrote {len(written)} files to {args.out}")
    if cfg.format == "json":
        stats = [
            {"m_size": k[0], "h_order": k[1], "xi_is_group": k[2],
             "xi_commutative": k[3], "count": v}
            for k, v in sorted(catalog.stats().items())
        ]
        _emit_json({"n_classes": catalog.n_classes,
                    "n_entries": len(catalog.entries),
                    "stats": stats})
    else:
        _emit(f"classes: {catalog.n_classes}")
        _emit(f"entries: {len(catalog.entries)}")
        sys.stdout.write(catalog_csv(catalog))
    return 0


def _cmd_field(args, cfg: CliConfig) -> int:
    f = parse_field_spec(args.spec)
    report = verify_field_axioms(f)
    if cfg.format == "json":
        _emit_json({"overall": report.overall, "checks": {
            name: {"ok": c.ok, "detail": list(c.witness) if c.witness else None}
            for name, c in report.checks.items()}})
    else:
        _emit(f"field {f.name}: order {f.q}, characteristic {f.p}, "
              f"degree {f.m}")
        _emit("axioms: " + ("pass" if report.overall else "FAIL"))
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergroups",
        description="Hypergroups over a group: construction, verification, "
                    "functors, field reconstruction, classification.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_group = sub.add_parser("group", help="group inspection")
    gsub = p_group.add_subparsers(dest="group_cmd", required=True)
    for name in ("info", "subgroups"):
        p = gsub.add_parser(name)
        p.add_argument("spec", help="group spec (e.g. Z6, S3, Z2xZ4) or file")

    p_hg = sub.add_parser("hg", help="hypergroup operations")
    hsub = p_hg.add_subparsers(dest="hg_cmd", required=True)
    p = hsub.add_parser("construct")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True,
                   help="comma-separated generator indices")
    p.add_argument("--transversal", required=True,
                   help="comma-separated representatives, or 'auto'")
    p.add_argument("-o", "--output")
    p = hsub.add_parser("verify")
    p.add_argument("file")
    p = hsub.add_parser("solve")
    p.add_argument("file")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--lemma", action="store_true",
                   help="use the closed-form solution (needs ambient data)")
    p = hsub.add_parser("iso")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p = hsub.add_parser("morphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("morphism", help="JSON file with f0, f1")

    p_fun = sub.add_parser("functor", help="apply a functor")
    fsub = p_fun.add_subparsers(dest="functor_cmd", required=True)
    p = fsub.add_parser("group")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p = fsub.add_parser("vs")
    p.add_argument("field", help="field spec, e.g. GF(4;x^2+x+1)")
    p.add_argument("dim", type=int)
    p.add_argument("-o", "--output")
    p = fsub.add_parser("field")
    p.add_argument("field", help="field spec, e.g. GF(9)")
    p.add_argument("-o", "--output")

    p = sub.add_parser("reconstruct-field",
                       help="invert the field functor on a hypergroup file")
    p.add_argument("file")

    p = sub.add_parser("classify", help="catalog small hypergroups")
    p.add_argument("--max-order", type=int, default=None,
                   help="standard sweep over builtin groups up to this order")
    p.add_argument("--abstract", action="store_true")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--h", default=None, help="group spec for H")
    p.add_argument("--transversal-cap", type=int, default=10_000)
    p.add_argument("--out", default=None, help="export directory")

    p = sub.add_parser("field", help="build and verify a finite field")
    p.add_argument("spec")

    return parser


_DISPATCH = {
    "group": _cmd_group,
    "reconstruct-field": _cmd_reconstruct,
    "classify": _cmd_classify,
    "functor": _cmd_functor,
    "field": _cmd_field,
}

_HG_DISPATCH = {
    "construct": _cmd_hg_construct,
    "verify": _cmd_hg_verify,
    "solve": _cmd_hg_solve,
    "iso": _cmd_hg_iso,
    "morphism": _cmd_hg_morphism,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), made once per process: parsing leaves a parser as
    it was."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    cfg = CliConfig(subcommand=args.cmd, format=args.format,
                    seed=args.seed, verbose=args.verbose)
    try:
        if args.cmd == "hg":
            return _HG_DISPATCH[args.hg_cmd](args, cfg)
        return _DISPATCH[args.cmd](args, cfg)
    except InternalInconsistencyError as exc:
        _note(f"internal inconsistency: {exc}")
        return 3
    except AlgebraError as exc:
        _note(f"error: {exc}")
        return 2
    except (OSError, KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        _note(f"input error: {exc}")
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
