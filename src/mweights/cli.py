"""Command-line front end: parsing, validation, dispatch, and output files.

Subcommands
-----------
``apconst``      weight-constant report for a weight vector           (JSON)
``maximal``      multilinear maximal bracket for given inputs         (JSON)
``sparse``       stopping-time sparse family for given inputs         (JSON)
``mw-sweep``     maximal-operator sharpness sweep         (CSV + JSON + gnuplot)
``riesz-sweep``  singular-integral sharpness sweep        (CSV + JSON + gnuplot)
``audit``        randomized upper-bound audit                         (JSON)
``selftest``     full invariant battery                     (text, exit code)

Exit codes: 0 success, 2 configuration error (bad flags, bad values, bad
files, an ``--out`` that cannot be written, or a ``ValueError`` from the
library on the values given), 3 invariant failure (sparseness
verification, an audit with no evidence, selftest).
Weight/function specs: ``power:<a>`` (power law on the unit ball),
``power:<a>@pos`` (power law on the positive unit cube), ``const`` or
``const:<c>``, ``grid:<path>`` (file saved by the grid-function writer).
Strength lists: ``2^-2..2^-9`` (dyadic range) or comma-separated values.
``--config <file>`` reads a JSON object of option values, keyed by option
name (``L``, ``g_min``; lists are joined with commas).  The file's values
override the flags given on the command line, and each is parsed exactly
like the flag it names; required flags must still be on the command line.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .grid import G_MIN, GridFunction, Lattice, ShiftedGridFamily, default_box
from .operators import (
    SparsenessError,
    build_sparse_family,
    multilinear_maximal,
)
from .powermass import Ball, Interval, Rect
from .weights import (
    CubeFamily,
    ExponentTuple,
    Weight,
    WeightVector,
    ap_constant,
)
from .experiments import (
    AuditError,
    fit_exponent,
    maximal_problem,
    riesz_problem,
    run_sweep,
    upper_bound_audit,
    write_fit_json,
    write_gnuplot,
    write_sweep_csv,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


class ConfigError(Exception):
    """Anything wrong with flags, config files, or input files."""


# --------------------------------------------------------------- spec parsing
def _exponent(token: str) -> float:
    """A decimal such as ``1.5``, or a ratio of integers such as ``4/3``,
    taken exactly and rounded once."""
    return float(Fraction(token)) if "/" in token else float(token)


def parse_exponents(text: str) -> ExponentTuple:
    try:
        values = tuple(_exponent(tok) for tok in str(text).split(",") if tok.strip())
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        raise ConfigError(f"cannot parse exponent tuple {text!r}: {err}") from None
    if not values:
        raise ConfigError("exponent tuple is empty")
    try:
        return ExponentTuple(values)
    except ValueError as err:
        raise ConfigError(str(err)) from None


_EPS_RANGE = re.compile(r"^2\^-(\d+)\.\.2\^-(\d+)$")
_EPS_SINGLE = re.compile(r"^2\^-(\d+)$")


def parse_eps(text: str) -> Tuple[float, ...]:
    """``2^-a..2^-b`` expands to every dyadic strength between the ends."""
    text = str(text).strip()
    m = _EPS_RANGE.match(text)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        lo, hi = min(a, b), max(a, b)
        return tuple(2.0**-k for k in range(lo, hi + 1))
    out: List[float] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        ms = _EPS_SINGLE.match(tok)
        try:
            val = 2.0 ** -int(ms.group(1)) if ms else float(tok)
        except ValueError as err:
            raise ConfigError(f"cannot parse strength token {tok!r}: {err}") from None
        out.append(val)
    if not out:
        raise ConfigError("strength list is empty")
    for v in out:
        if not 0.0 < v < 1.0:
            raise ConfigError(f"strength {v} must lie strictly between 0 and 1")
    return tuple(out)


def _positive_unit_cube(n: int):
    if n == 1:
        return Interval(0.0, 1.0)
    return Rect((0.0,) * n, (1.0,) * n)


def parse_spec(token: str, lattice: Lattice, what: str):
    """Split one ``power:<a>[@pos]`` / ``const[:c]`` / ``grid:<path>`` token.

    Returns ``("power", a, pos)``, ``("const", c, False)`` or ``("grid", f,
    False)`` with ``f`` the loaded grid function; ``what`` names the kind of
    spec in error messages.
    """
    token = token.strip()
    kind, colon, body = token.partition(":")
    if kind == "grid" and colon:
        try:
            f = GridFunction.load(body)
        except (OSError, ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"cannot load {what} file {body!r}: {err}") from None
        if f.lattice != lattice:
            raise ConfigError(
                f"{what} file {body!r} lives on a different lattice "
                f"(L={f.lattice.L}, n={f.lattice.n})"
            )
        return "grid", f, False
    if kind == "power" and colon:
        pos = body.endswith("@pos")
        number = body[: -len("@pos")] if pos else body
    elif kind == "const":
        pos = False
        number = body if colon else "1"
    else:
        raise ConfigError(
            f"unknown {what} spec {token!r}: use power:<a>[@pos], const[:c], grid:<path>"
        )
    try:
        return kind, float(number), pos
    except ValueError:
        raise ConfigError(f"bad {kind} {what} spec {token!r}") from None


def parse_function_spec(token: str, lattice: Lattice) -> GridFunction:
    kind, value, pos = parse_spec(token, lattice, "function")
    if kind == "grid":
        return value
    if kind == "const" and value < 0.0:
        raise ConfigError("constant functions must be nonnegative")
    if kind == "const":
        return GridFunction(lattice, np.full(lattice.shape, value))
    support = _positive_unit_cube(lattice.n) if pos else Ball(1.0, lattice.n)
    return GridFunction.from_power(lattice, value, support)


def parse_weight_spec(token: str, lattice: Lattice) -> Weight:
    kind, value, pos = parse_spec(token, lattice, "weight")
    if pos:
        raise ConfigError(f"'@pos' applies to function specs only, not weight {token!r}")
    if kind == "grid":
        return Weight.from_values(lattice, value.values)
    if kind == "const":
        return Weight.constant(lattice, value)
    return Weight.power(lattice, value)


def _split_specs(text: str) -> Tuple[str, ...]:
    toks = tuple(tok.strip() for tok in str(text).split(",") if tok.strip())
    if not toks:
        raise ConfigError("empty spec list")
    return toks


# ------------------------------------------------------------ parser assembly
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mweights",
        description="Weighted multilinear operator toolkit: constants, "
        "operators, sharpness sweeps, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument(
            "--config",
            type=str,
            default=None,
            help="JSON object of option values, keyed by option name; they "
            "override the command line and are parsed like the flags they name",
        )
        return sp

    def common(sp):
        sp.add_argument("--n", type=int, default=1, choices=(1, 2), help="dimension")
        sp.add_argument(
            "--L",
            type=int,
            default=6,
            choices=range(1, 17),
            metavar="L",
            help="resolution: 2^L cells per axis, 1..16 (default 6)",
        )
        sp.add_argument("--out", type=str, default=None, help="output path/prefix")

    sp = command("apconst", _cmd_apconst, "weight-constant report")
    sp.add_argument("--p", type=str, required=True, help="exponents, e.g. 2,2 or 4,4/3")
    sp.add_argument("--w", type=str, required=True, help="weight specs per slot")
    sp.add_argument(
        "--family",
        type=str,
        default="shifted",
        choices=("shifted", "aligned", "both"),
        help="cube family to maximize over",
    )
    sp.add_argument("--g-min", type=int, default=G_MIN, help="coarsest generation")
    common(sp)

    sp = command("maximal", _cmd_maximal, "multilinear maximal bracket")
    sp.add_argument("--f", type=str, required=True, help="function specs per slot")
    sp.add_argument("--g-min", type=int, default=G_MIN, help="coarsest generation")
    common(sp)

    sp = command("sparse", _cmd_sparse, "stopping-time sparse family")
    sp.add_argument("--f", type=str, required=True, help="function specs per slot")
    sp.add_argument("--a", type=float, default=None, help="stopping ratio")
    common(sp)

    sp = command(
        "mw-sweep",
        lambda args: _run_sweep(args, maximal_problem, "mw_sweep"),
        "maximal-operator sharpness sweep",
    )
    sp.add_argument("--p", type=str, required=True, help="exponents, e.g. 2,2 or 4,4/3")
    sp.add_argument("--eps", type=str, required=True, help="e.g. 2^-2..2^-9")
    common(sp)

    sp = command(
        "riesz-sweep",
        lambda args: _run_sweep(args, riesz_problem, "riesz_sweep", variant=args.variant),
        "singular-integral sharpness sweep",
    )
    sp.add_argument("--p", type=str, required=True, help="exponents, e.g. 2,2 or 4,4/3")
    sp.add_argument("--eps", type=str, required=True, help="e.g. 2^-2..2^-7")
    sp.add_argument(
        "--variant",
        type=str,
        default="direct",
        choices=("direct", "adjoint_slot1"),
    )
    common(sp)

    sp = command("audit", _cmd_audit, "randomized upper-bound audit")
    sp.add_argument("--p", type=str, required=True, help="exponents, e.g. 2,2 or 4,4/3")
    sp.add_argument(
        "--operator", type=str, default="sparse", choices=("sparse", "maximal")
    )
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--weight-kind", type=str, default="mixed", choices=("mixed", "constant")
    )
    common(sp)

    sp = command("selftest", _cmd_selftest, "full invariant battery")
    sp.add_argument("--seed", type=int, default=0)

    return parser


def _flag_text(value) -> str:
    """One JSON value as flag text: strings verbatim, lists comma-joined."""
    if isinstance(value, list):
        return ",".join(_flag_text(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


def _config_flags(args: argparse.Namespace) -> List[str]:
    """The ``--config`` file of a parsed command as ``--key=value`` flags."""
    try:
        blob = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read config file {args.config!r}: {err}") from None
    if not isinstance(blob, dict):
        raise ConfigError("config file must hold a JSON object")
    options = set(vars(args)) - {"command", "run", "config"}
    flags = []
    for key, value in blob.items():
        if key not in options:
            raise ConfigError(f"config key {key!r} is not an option of {args.command!r}")
        flags.append(f"--{key.replace('_', '-')}={_flag_text(value)}")
    return flags


# ------------------------------------------------------------------- dispatch
def _emit(blob: dict, out: Optional[str]) -> None:
    text = json.dumps(blob, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _lattice(args: argparse.Namespace) -> Lattice:
    return Lattice(default_box(args.n), args.L)


def _cmd_apconst(args: argparse.Namespace) -> int:
    exponents = parse_exponents(args.p)
    specs = _split_specs(args.w)
    if len(specs) != exponents.m:
        raise ConfigError(f"{len(specs)} weight specs for {exponents.m} exponents")
    lattice = _lattice(args)
    wv = WeightVector(tuple(parse_weight_spec(t, lattice) for t in specs), exponents)
    report = ap_constant(wv, CubeFamily(lattice, kind=args.family, g_min=args.g_min))
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_maximal(args: argparse.Namespace) -> int:
    lattice = _lattice(args)
    fs = tuple(parse_function_spec(t, lattice) for t in _split_specs(args.f))
    lower, upper = multilinear_maximal(fs, g_min=args.g_min)
    pos = lower.values > 0.0
    bracket = float(np.max(upper.values[pos] / lower.values[pos])) if pos.any() else 1.0
    blob = {
        "n": args.n,
        "L": args.L,
        "slots": len(fs),
        "max_lower": float(np.max(lower.values)),
        "max_upper": float(np.max(upper.values)),
        "max_bracket_ratio": bracket,
    }
    if args.out:
        lower.save(f"{args.out}-lower.grid")
        upper.save(f"{args.out}-upper.grid")
        blob["files"] = [f"{args.out}-lower.grid", f"{args.out}-upper.grid"]
    _emit(blob, None if not args.out else f"{args.out}.json")
    return EXIT_OK


def _support_root(fs, lattice: Lattice):
    """Smallest covering grid cube of the joint support, if one fits the box."""
    union = np.zeros(lattice.shape, dtype=bool)
    for f in fs:
        union |= f.values != 0.0
    if not union.any():
        raise ConfigError("all input functions vanish; nothing to decompose")
    axes_idx = np.nonzero(union)
    lo = [int(ix.min()) for ix in axes_idx]
    hi = [int(ix.max()) for ix in axes_idx]
    size = max(h - l + 1 for l, h in zip(lo, hi))
    family = ShiftedGridFamily(lattice)
    cube = family.cover(lo, size)
    if not lattice.holds(cube):
        raise ConfigError(
            "no grid cube inside the box covers the joint support; "
            "use inputs supported in a dyadic cube (for example power "
            "functions with @pos)"
        )
    return family.by_id[cube.grid_id], cube


def _cmd_sparse(args: argparse.Namespace) -> int:
    lattice = _lattice(args)
    fs = tuple(parse_function_spec(t, lattice) for t in _split_specs(args.f))
    grid, root = _support_root(fs, lattice)
    fam = build_sparse_family(fs, grid, a=args.a, root=root)
    blob = {
        "grid": fam.grid_id,
        "a": fam.a,
        "lambda0": fam.lambda0,
        "count": len(fam),
        "root": {"g": root.g, "start": list(root.start), "size": root.size},
        "cubes": fam.to_json(),
    }
    _emit(blob, args.out)
    return EXIT_OK


def _run_sweep(args: argparse.Namespace, builder, default_prefix: str, **kwargs) -> int:
    rows = run_sweep(
        builder,
        parse_exponents(args.p),
        parse_eps(args.eps),
        L=args.L,
        n=args.n,
        **kwargs,
    )
    prefix = args.out or default_prefix
    csv_path = Path(f"{prefix}.csv")
    write_sweep_csv(rows, csv_path)
    try:
        fit = fit_exponent(rows)
    except ValueError as err:
        fit, fit_blob = None, {"error": str(err)}
    else:
        write_fit_json(fit, Path(f"{prefix}-fit.json"))
        fit_blob = fit.to_json()
    write_gnuplot(csv_path, Path(f"{prefix}.gp"), fit=fit)
    blob = {
        "rows": len(rows),
        "csv": str(csv_path),
        "gnuplot": f"{prefix}.gp",
        "fit": fit_blob,
    }
    if any(r.quad_min_ratio is not None for r in rows):
        blob["quadrature"] = [
            {
                "eps": r.eps,
                "min_ratio_to_minorant": r.quad_min_ratio,
                "pv_approximate_points": r.pv_points,
            }
            for r in rows
        ]
    print(json.dumps(blob, indent=2))
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    report = upper_bound_audit(
        parse_exponents(args.p),
        L=args.L,
        trials=args.trials,
        seed=args.seed,
        operator=args.operator,
        n=args.n,
        weight_kind=args.weight_kind,
    )
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(seed=args.seed)
    failures = 0
    for name, ok, detail in results:
        tag = "ok  " if ok else "FAIL"
        print(f"{tag} — {name}: {detail}")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return EXIT_INVARIANT
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; flags, library errors and unwritable outputs
    alike exit 2."""
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(argv + _config_flags(args))
        out = getattr(args, "out", None)
        if out and not Path(out).parent.is_dir():
            raise ConfigError(f"--out directory {Path(out).parent} does not exist")
        return args.run(args)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a bad flag
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SparsenessError, AuditError) as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return EXIT_INVARIANT


def main_entry() -> "SystemExit":
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
