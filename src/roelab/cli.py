"""Batch command-line front end: models in, JSON/CSV out.

Subcommands: build, classify, kgroup, index, edge-index, verify-bec, sweep,
spectrum.  `index` and `sweep` report the bulk side, `edge-index` the edge
side and `verify-bec` both sides of the model file's (class, d) route in
`bulkedge.ROUTES`; `--formula trace` (sweep config: "formula": "trace")
reports the windowed trace per unit volume of H instead, which is not an
index.  Structured results are JSON (reproducible bit-for-bit given the same
flags and seed, modulo the generated_at stamp); sweeps emit CSV with one row
per (seed, parameter) point.  Exit codes: 0 success / certification pass,
1 computation failure, 2 usage or config error.  ROELAB_JOBS sets the default
sweep parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

from .bulkedge import (BECConfig, BulkEdgeError, _default_windows, bulk_index, edge_index,
                       make_bulk, verify_bec)
from .geometry import GeometryError, PointSet, partition_halfspace
from .indices import PairingError, box_bound, trace_per_unit_volume
from .models import (MODELS, RECIPE, ModelError, build_model, default_pointset, resolve,
                     resolve_params)
from .operators import ControlledOperator, OperatorError
from .symmetry import (CARTAN_LABELS, SymmetryError, SymmetrySpec, classify,
                       kgroup_point, kgroup_reflection, kgroup_rotation)

USER_ERRORS = (GeometryError, SymmetryError, OperatorError, PairingError,
               ModelError, BulkEdgeError)


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path: str | None, doc: dict):
    doc = dict(doc)
    doc["generated_at"] = _stamp()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def save_model(path: str, H: ControlledOperator, spec: SymmetrySpec,
               model: dict | None = None):
    doc = {"format": "roelab-model", "version": 1,
           "model": model or {}, "operator": H.to_json(),
           "symmetry": spec.to_json(), "generated_at": _stamp()}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


_NUMBER = (int, float)                 # json numbers; a bool is not one
# each key of an input file: (the types its value may have, those of its entries, what it must be)
_STRING, _OBJECT, _A_NUMBER = ((str,), None, "a string"), ((dict,), None, "an object"), \
    (_NUMBER, None, "a finite number")
_MODEL_FILE_KEYS = {"format": _STRING, "version": ((int,), None, "an integer"), "model": _OBJECT,
                    "operator": _OBJECT, "symmetry": _OBJECT, "generated_at": _STRING}
_SWEEP_KEYS = {"model": _STRING, "formula": _STRING, "params": _OBJECT, "size": _A_NUMBER,
               "disorder": _A_NUMBER, "fermi": _A_NUMBER, "vary_param": _STRING,
               "values": ((list,), None, "a list"),
               "windows": ((list,), _NUMBER, "a list of finite numbers"),
               "seeds": ((list,), (int,), "a list of integers")}


def _fits(value, kinds) -> bool:
    """`value` has one of the types `kinds`, and is finite if it is a float
    (Python's JSON reader takes NaN and Infinity)."""
    return type(value) in kinds and (type(value) is not float or math.isfinite(value))


def _check_keys(doc, table: dict, name: str):
    """Refuse a `doc` that is not an object or holds a key that `table` does
    not declare or a value of a type it does not allow."""
    if not isinstance(doc, dict):
        raise ValueError(f"the {name} is not a JSON object")
    for key, value in doc.items():
        kinds, entries, desc = table.get(key, ((), None, f"a {name} key: {', '.join(table)}"))
        if not _fits(value, kinds) or entries and not all(_fits(v, entries) for v in value):
            raise ValueError(f"{key} {value!r} is not {desc}")


def load_model(path: str):
    """(H, spec, model metadata) of a model file; a file that cannot be read,
    parsed or decoded raises ModelError, bad operator data OperatorError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "roelab-model":
        raise ModelError(f"{path} is not a roelab model file")
    try:
        _check_keys(doc, _MODEL_FILE_KEYS, "model file")
        H = ControlledOperator.from_json(doc["operator"])
        spec = SymmetrySpec.from_json(doc["symmetry"])
    except USER_ERRORS:
        raise
    except KeyError as exc:
        raise ModelError(f"{path} lacks the key {exc}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise ModelError(f"{path} holds malformed model data: {exc}") from None
    return H, spec, doc.get("model", {})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _numbers(text: str | None, kind) -> tuple:
    """The comma-separated `kind` values of a list option; malformed: a usage error."""
    try:
        return tuple(kind(v) for v in (text or "").split(",") if v)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of {kind.__name__} values") from None


def cmd_build(args, extra_params: dict) -> int:
    params = resolve_params(args.model, extra_params)
    recipe = resolve(RECIPE, {k: getattr(args, k) for k in RECIPE}, "build")
    ps = default_pointset(args.model, recipe["size"], params)
    module, H, spec = build_model(args.model, params, ps,
                                  disorder=recipe["disorder"], seed=recipe["seed"])
    save_model(args.out, H, spec, model={"name": args.model, "params": params, **recipe})
    print(f"wrote {args.out}: {module.n_sites} sites x {module.orbitals_per_site} "
          f"orbitals, class {classify(spec)}")
    return 0


def cmd_classify(args) -> int:
    spec = SymmetrySpec(
        has_T=args.T is not None, T_sq=args.T,
        has_C=args.C is not None, C_sq=args.C,
        has_P=bool(args.P))
    label = classify(spec)
    if args.json or args.out:
        _write_json(args.out, {"label": label})
    else:
        print(label)
    return 0


def cmd_kgroup(args) -> int:
    if not args.reflection and (args.pr_sign, args.tr_sign) != (None, None):
        raise argparse.ArgumentTypeError("--pr-sign and --tr-sign go with --reflection")
    if args.rotation is not None:
        desc = kgroup_rotation(args.label, args.d, args.rotation)
    elif args.reflection:
        desc = kgroup_reflection(args.label, args.d, args.pr_sign, args.tr_sign)
    else:
        desc = kgroup_point(args.label, args.d)
    if args.json or args.out:
        _write_json(args.out, {"label": args.label, "d": args.d,
                               "group": str(desc), "provenance": desc.provenance})
    else:
        print(desc)
    return 0


def _bulk_report(H, spec, formula, windows, fermi=0.0):
    """The bulk index of the file's route, or the windowed trace of H for
    formula "trace"; without windows both derive them from the sample."""
    if formula == "trace":
        est = trace_per_unit_volume(
            H, windows or _default_windows(box_bound(H.module.pointset,
                                                     H.declared_propagation)))
        return {"windows": list(est.windows),
                "values": [[v.real, v.imag] for v in est.values],
                "extrapolated": [est.extrapolated.real, est.extrapolated.imag],
                "error": est.error, "formula": "trace_per_unit_volume"}
    bulk = make_bulk(H.module, H, spec, fermi=fermi)
    return bulk_index(bulk, BECConfig(windows=tuple(windows))).to_json()


def _csv_values(doc: dict) -> dict:
    """raw, snapped and error of a `_bulk_report` for a CSV row.  A windowed
    trace is not snapped; its raw is the real part of its extrapolated value."""
    raw = doc["extrapolated"][0] if "extrapolated" in doc else doc["raw"]
    return {"raw": raw, "snapped": doc.get("snapped"), "error": doc["error"]}


def cmd_index(args) -> int:
    H, spec, meta = load_model(args.model_file)
    doc = _bulk_report(H, spec, args.formula, _numbers(args.windows, float), fermi=args.fermi)
    doc["model"] = meta
    _write_json(args.out, doc)
    if args.csv:
        new = not os.path.exists(args.csv)
        with open(args.csv, "a", newline="") as fh:
            w = csv.writer(fh)
            if new:
                w.writerow(["model", "formula", "raw", "snapped", "error"])
            w.writerow([meta.get("name", "?"), doc["formula"],
                        *_csv_values(doc).values()])
    return 0


def _bulk_and_cut(args):
    """(bulk system, cut, model metadata) of the model file and the cut flags."""
    H, spec, meta = load_model(args.model_file)
    normal = _numbers(args.normal, float)
    bulk = make_bulk(H.module, H, spec, fermi=args.fermi)
    return bulk, partition_halfspace(H.module.pointset, normal, args.offset,
                                     thickness=args.thickness), meta


def cmd_edge_index(args) -> int:
    bulk, part, meta = _bulk_and_cut(args)
    cfg = BECConfig(edge_windows=_numbers(args.windows, float))
    doc = edge_index(bulk, part, cfg).to_json()
    doc["model"] = meta
    _write_json(args.out, doc)
    return 0


def cmd_verify_bec(args) -> int:
    cfg = BECConfig(
        windows=_numbers(args.windows, float),
        edge_windows=_numbers(args.edge_windows, float),
        disorder_strength=args.disorder_strength,
        disorder_seeds=_numbers(args.seeds, int),
        truncation_radii=_numbers(args.truncation_radii, float))
    bulk, part, meta = _bulk_and_cut(args)
    rep = verify_bec(bulk, part, cfg)
    doc = rep.to_json()
    doc["model"] = meta
    _write_json(args.out, doc)
    verdict = "PASS" if rep.passed else f"FAIL ({'; '.join(rep.reasons)})"
    print(f"bulk {rep.bulk.snapped} vs edge {rep.edge.snapped}: {verdict}")
    return 0 if rep.passed else 1


def _sweep_point(cfg: dict, ps: PointSet, params: dict, row: dict) -> dict:
    """The CSV row of one point: `row` (model, seed, varied value) and its report."""
    module, H, spec = build_model(row["model"], params, ps, seed=row["seed"],
                                  disorder=cfg.get("disorder", RECIPE["disorder"]))
    doc = _bulk_report(H, spec, cfg.get("formula"), cfg.get("windows", ()),
                       fermi=cfg.get("fermi", 0.0))
    return {**row, **_csv_values(doc)}


def cmd_sweep(args) -> int:
    name, jobs = ("--jobs", args.jobs) if args.jobs is not None else \
        ("ROELAB_JOBS", os.environ.get("ROELAB_JOBS", "1"))
    if not (jobs.isdecimal() and int(jobs) > 0):
        raise argparse.ArgumentTypeError(f"{name} {jobs!r} is not a positive integer")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        _check_keys(cfg, _SWEEP_KEYS, "sweep config")
        if cfg.get("formula", "trace") != "trace":
            raise ValueError(f"formula {cfg['formula']!r} is not \"trace\"; the index "
                             "follows the model's (class, d) route")
        model, vary, values = cfg.get("model"), cfg.get("vary_param"), cfg.get("values")
        params = resolve_params(model, cfg.get("params"))
        if (vary is None) != (not values):
            raise ValueError("vary_param and a non-empty list of values go together")
        runs = [(resolve_params(model, {**params, vary: v}), {vary: v}) for v in values] \
            if vary else [(params, {})]
        ps = default_pointset(model, cfg.get("size", RECIPE["size"]), params)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    points = [(p, {"model": model, "seed": s, **varied}) for p, varied in runs
              for s in cfg.get("seeds", [RECIPE["seed"]])]
    rows = []
    if points:
        with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
            futs = [pool.submit(_sweep_point, cfg, ps, p, row) for p, row in points]
            rows = [f.result() for f in futs]
    fields = ["model", "seed", *([vary] if vary else []), "raw", "snapped", "error"]
    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for row in rows:
            w.writerow(row)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_spectrum(args) -> int:
    H, spec, meta = load_model(args.model_file)
    w, _ = H.eigh()
    doc = {"model": meta, "dim": int(len(w)),
           "eigenvalues": [float(x) for x in w]}
    _write_json(args.out, doc)
    if args.emit_plot_data:
        with open(args.emit_plot_data, "w", newline="") as fh:
            cw = csv.writer(fh)
            cw.writerow(["index", "energy"])
            for i, x in enumerate(w):
                cw.writerow([i, float(x)])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _sign(text: str) -> int:
    v = int(text)
    if v not in (1, -1):
        raise argparse.ArgumentTypeError("sign must be +1 or -1")
    return v


class _Parser(argparse.ArgumentParser):
    """Argument parser that refuses abbreviated flags and raises usage errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise argparse.ArgumentTypeError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="roelab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    files = _Parser(add_help=False)
    files.add_argument("--model-file", required=True)
    files.add_argument("--out", default=None)
    cut = _Parser(add_help=False)
    cut.add_argument("--normal", required=True, help="cut normal, comma-separated")
    cut.add_argument("--offset", type=float, required=True)
    cut.add_argument("--thickness", type=float, default=None)
    cut.add_argument("--fermi", type=float, default=0.0)

    b = sub.add_parser("build", help="build a model file",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                       epilog="model parameters (--NAME VALUE) and their defaults: "
                       + "; ".join(f"{name} {table}" for name, (_, table) in MODELS.items()))
    b.add_argument("--model", required=True, choices=sorted(MODELS))
    b.add_argument("--out", required=True)
    b.add_argument("--size", "--n", type=float, default=RECIPE["size"], help="sample extent")
    b.add_argument("--disorder", type=float, default=RECIPE["disorder"], help="on-site disorder")
    b.add_argument("--seed", type=float, default=RECIPE["seed"], help="disorder seed")

    c = sub.add_parser("classify", help="Cartan label from symmetry flags")
    c.add_argument("--T", type=_sign, default=None, help="T^2 sign if T present")
    c.add_argument("--C", type=_sign, default=None, help="C^2 sign if C present")
    c.add_argument("--P", action="store_true", help="chiral operator present")
    c.add_argument("--json", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_classify)

    k = sub.add_parser("kgroup", help="classifying group lookup")
    k.add_argument("--label", required=True, choices=CARTAN_LABELS)
    k.add_argument("--d", type=int, required=True)
    point_group = k.add_mutually_exclusive_group()
    point_group.add_argument("--rotation", type=int, default=None, metavar="K",
                             help="refine by a k-fold rotation symmetry")
    point_group.add_argument("--reflection", action="store_true",
                             help="refine by a reflection (--pr-sign, --tr-sign)")
    k.add_argument("--pr-sign", type=_sign, default=None, help="PR = sign RP")
    k.add_argument("--tr-sign", type=_sign, default=None, help="TR = sign RT; with T only")
    k.add_argument("--json", action="store_true")
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_kgroup)

    i = sub.add_parser("index", parents=[files], help="bulk index of a model file")
    i.add_argument("--formula", default=None, choices=["trace"],
                   help="report the windowed trace of H instead of the route's index")
    i.add_argument("--windows", default=None, help="bulk window radii (default: derived)")
    i.add_argument("--fermi", type=float, default=0.0)
    i.add_argument("--csv", default=None)
    i.set_defaults(func=cmd_index)

    e = sub.add_parser("edge-index", parents=[files, cut],
                       help="edge index on a half-space cut")
    e.add_argument("--windows", default=None, help="edge window radii (default: derived)")
    e.set_defaults(func=cmd_edge_index)

    v = sub.add_parser("verify-bec", parents=[files, cut],
                       help="certify bulk index = edge index")
    v.add_argument("--windows", default=None, help="bulk window radii (default: derived)")
    v.add_argument("--edge-windows", default=None, help="edge window radii (default: derived)")
    v.add_argument("--seeds", default=None, help="disorder sweep seeds")
    v.add_argument("--disorder-strength", type=float, default=0.0)
    v.add_argument("--truncation-radii", default=None)
    v.set_defaults(func=cmd_verify_bec)

    s = sub.add_parser("sweep", help="batch sweep from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--jobs", default=None, help="worker threads (default: ROELAB_JOBS, else 1)")
    s.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("spectrum", parents=[files], help="eigenvalues of a model file")
    sp.add_argument("--emit-plot-data", default=None, metavar="CSV")
    sp.set_defaults(func=cmd_spectrum)
    return p


def _parse_extra_params(tokens) -> dict:
    """The --name value pairs that `build` leaves over: model parameters, each a number."""
    parser = _Parser(prog="roelab build")
    for flag in dict.fromkeys(t for t in tokens if t.startswith("--") and len(t) > 2):
        parser.add_argument(flag, dest=flag[2:].replace("-", "_"), type=float)
    return vars(parser.parse_args(tokens))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if args.command == "build":          # the leftover --key value pairs are parameters
            return cmd_build(args, _parse_extra_params(unknown))
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args)
    except SystemExit as exc:            # -h: the help is printed
        return int(exc.code or 0)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
