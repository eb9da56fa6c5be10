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
files), 3 invariant failure (sparseness verification, selftest).
Weight/function specs: ``power:<a>`` (power law on the unit ball),
``power:<a>@pos`` (power law on the positive unit cube), ``const`` or
``const:<c>``, ``grid:<path>`` (file saved by the grid-function writer).
Strength lists: ``2^-2..2^-9`` (dyadic range) or comma-separated values.
A JSON file given via ``--config`` overrides the flags it names.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .grid import GridFunction, Lattice, ShiftedGridFamily, default_box
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


@dataclass(frozen=True)
class RunConfig:
    """A validated run: everything dispatch needs, nothing argparse-shaped."""

    command: str
    exponents: Optional[ExponentTuple]
    n: int
    L: int
    eps: Tuple[float, ...]
    a: Optional[float]
    weight_specs: Tuple[str, ...]
    function_specs: Tuple[str, ...]
    out: Optional[str]
    seed: int
    variant: str
    operator: str
    trials: int
    weight_kind: str
    family: str
    g_min: int


# --------------------------------------------------------------- spec parsing
def parse_exponents(text: str) -> ExponentTuple:
    try:
        values = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as err:
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
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
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
    try:
        if kind == "const":
            return GridFunction(lattice, np.full(lattice.shape, value))
        support = _positive_unit_cube(lattice.n) if pos else Ball(1.0, lattice.n)
        return GridFunction.from_power(lattice, value, support)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def parse_weight_spec(token: str, lattice: Lattice) -> Weight:
    kind, value, pos = parse_spec(token, lattice, "weight")
    if pos:
        raise ConfigError(f"'@pos' applies to function specs only, not weight {token!r}")
    try:
        if kind == "grid":
            return Weight.from_values(lattice, value.values)
        if kind == "const":
            return Weight.constant(lattice, value)
        return Weight.power(lattice, value)
    except ValueError as err:
        raise ConfigError(str(err)) from None


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

    def common(sp, with_L=True):
        sp.add_argument("--n", type=int, default=1, help="dimension (default 1)")
        if with_L:
            sp.add_argument(
                "--L", type=int, default=6, help="resolution: 2^L cells per axis"
            )
        sp.add_argument("--config", type=str, default=None, help="JSON overrides")
        sp.add_argument("--out", type=str, default=None, help="output path/prefix")

    sp = sub.add_parser("apconst", help="weight-constant report")
    sp.add_argument("--p", type=str, required=True, help="exponents, e.g. 2,2")
    sp.add_argument("--m", type=int, default=None, help="slot count (checked)")
    sp.add_argument("--w", type=str, required=True, help="weight specs per slot")
    sp.add_argument(
        "--family",
        type=str,
        default="shifted",
        choices=("shifted", "aligned", "both"),
        help="cube family to maximize over",
    )
    sp.add_argument("--g-min", type=int, default=-2, help="coarsest generation")
    common(sp)

    sp = sub.add_parser("maximal", help="multilinear maximal bracket")
    sp.add_argument("--f", type=str, required=True, help="function specs per slot")
    sp.add_argument("--g-min", type=int, default=-2, help="coarsest generation")
    common(sp)

    sp = sub.add_parser("sparse", help="stopping-time sparse family")
    sp.add_argument("--f", type=str, required=True, help="function specs per slot")
    sp.add_argument("--a", type=float, default=None, help="stopping ratio")
    common(sp)

    sp = sub.add_parser("mw-sweep", help="maximal-operator sharpness sweep")
    sp.add_argument("--p", type=str, required=True, help="exponents, e.g. 2,2")
    sp.add_argument("--eps", type=str, required=True, help="e.g. 2^-2..2^-9")
    common(sp)

    sp = sub.add_parser("riesz-sweep", help="singular-integral sharpness sweep")
    sp.add_argument("--p", type=str, required=True, help="exponents, e.g. 2,2")
    sp.add_argument("--eps", type=str, required=True, help="e.g. 2^-2..2^-7")
    sp.add_argument(
        "--variant",
        type=str,
        default="direct",
        choices=("direct", "adjoint_slot1"),
    )
    common(sp)

    sp = sub.add_parser("audit", help="randomized upper-bound audit")
    sp.add_argument("--p", type=str, required=True, help="exponents, e.g. 2,2")
    sp.add_argument(
        "--operator", type=str, default="sparse", choices=("sparse", "maximal")
    )
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--weight-kind", type=str, default="mixed", choices=("mixed", "constant")
    )
    common(sp)

    sp = sub.add_parser("selftest", help="full invariant battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config", type=str, default=None, help="JSON overrides")

    return parser


_CONFIG_KEYS = {
    "p",
    "m",
    "w",
    "f",
    "n",
    "L",
    "eps",
    "a",
    "out",
    "seed",
    "variant",
    "operator",
    "trials",
    "weight_kind",
    "family",
    "g_min",
}


def apply_config_file(args: argparse.Namespace) -> argparse.Namespace:
    """Values from the JSON file named by --config override parsed flags."""
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        blob = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}") from None
    if not isinstance(blob, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in blob.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if not hasattr(args, key):
            raise ConfigError(
                f"config key {key!r} does not apply to command {args.command!r}"
            )
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        setattr(args, key, value)
    return args


def resolve_config(args: argparse.Namespace) -> RunConfig:
    args = apply_config_file(args)
    command = args.command
    n = int(getattr(args, "n", 1))
    if n < 1:
        raise ConfigError(f"dimension n={n} must be at least 1")
    L = int(getattr(args, "L", 6))
    if not 1 <= L <= 16:
        raise ConfigError(f"resolution L={L} must lie in 1..16")
    exponents = None
    if getattr(args, "p", None) is not None:
        exponents = parse_exponents(args.p)
        m_flag = getattr(args, "m", None)
        if m_flag is not None and int(m_flag) != exponents.m:
            raise ConfigError(
                f"--m {m_flag} disagrees with {exponents.m} exponents in --p"
            )
    eps: Tuple[float, ...] = ()
    if getattr(args, "eps", None) is not None:
        eps = parse_eps(args.eps)
    a = getattr(args, "a", None)
    if a is not None:
        a = float(a)
    weight_specs: Tuple[str, ...] = ()
    if getattr(args, "w", None) is not None:
        weight_specs = _split_specs(args.w)
        if exponents is not None and len(weight_specs) != exponents.m:
            raise ConfigError(
                f"{len(weight_specs)} weight specs for {exponents.m} exponents"
            )
    function_specs: Tuple[str, ...] = ()
    if getattr(args, "f", None) is not None:
        function_specs = _split_specs(args.f)
    trials = int(getattr(args, "trials", 0) or 0)
    if command == "audit" and trials < 1:
        raise ConfigError(f"--trials {trials} must be at least 1")
    if command in ("riesz-sweep",) and n != 1:
        raise ConfigError("the singular-integral sweep is one-dimensional (n=1)")
    return RunConfig(
        command=command,
        exponents=exponents,
        n=n,
        L=L,
        eps=eps,
        a=a,
        weight_specs=weight_specs,
        function_specs=function_specs,
        out=getattr(args, "out", None),
        seed=int(getattr(args, "seed", 0) or 0),
        variant=getattr(args, "variant", "direct"),
        operator=getattr(args, "operator", "sparse"),
        trials=trials,
        weight_kind=getattr(args, "weight_kind", "mixed"),
        family=getattr(args, "family", "shifted"),
        g_min=int(getattr(args, "g_min", -2)),
    )


# ------------------------------------------------------------------- dispatch
def _emit(blob: dict, out: Optional[str]) -> None:
    text = json.dumps(blob, indent=2)
    print(text)
    if out:
        Path(out).write_text(text + "\n")


def _cmd_apconst(cfg: RunConfig) -> int:
    lattice = Lattice(default_box(cfg.n), cfg.L)
    weights = tuple(parse_weight_spec(t, lattice) for t in cfg.weight_specs)
    try:
        wv = WeightVector(weights, cfg.exponents)
        family = CubeFamily(lattice, kind=cfg.family, g_min=cfg.g_min)
        report = ap_constant(wv, family)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    _emit(report.to_json(), cfg.out)
    return EXIT_OK


def _cmd_maximal(cfg: RunConfig) -> int:
    lattice = Lattice(default_box(cfg.n), cfg.L)
    fs = tuple(parse_function_spec(t, lattice) for t in cfg.function_specs)
    try:
        lower, upper = multilinear_maximal(fs, g_min=cfg.g_min)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    pos = lower.values > 0.0
    bracket = float(np.max(upper.values[pos] / lower.values[pos])) if pos.any() else 1.0
    blob = {
        "n": cfg.n,
        "L": cfg.L,
        "slots": len(fs),
        "max_lower": float(np.max(lower.values)),
        "max_upper": float(np.max(upper.values)),
        "max_bracket_ratio": bracket,
    }
    if cfg.out:
        lower.save(f"{cfg.out}-lower.grid")
        upper.save(f"{cfg.out}-upper.grid")
        blob["files"] = [f"{cfg.out}-lower.grid", f"{cfg.out}-upper.grid"]
    _emit(blob, None if not cfg.out else f"{cfg.out}.json")
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
    cube = family.cover(tuple(lo), size)
    N = lattice.cells_per_axis
    if any(s < 0 or s + cube.size > N for s in cube.start):
        raise ConfigError(
            "no grid cube inside the box covers the joint support; "
            "use inputs supported in a dyadic cube (for example power "
            "functions with @pos)"
        )
    return family.by_id[cube.grid_id], cube


def _cmd_sparse(cfg: RunConfig) -> int:
    lattice = Lattice(default_box(cfg.n), cfg.L)
    fs = tuple(parse_function_spec(t, lattice) for t in cfg.function_specs)
    grid, root = _support_root(fs, lattice)
    try:
        fam = build_sparse_family(fs, grid, a=cfg.a, root=root)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    blob = {
        "grid": fam.grid_id,
        "a": fam.a,
        "lambda0": fam.lambda0,
        "count": len(fam),
        "root": {"g": root.g, "start": list(root.start), "size": root.size},
        "cubes": fam.to_json(),
    }
    _emit(blob, cfg.out)
    return EXIT_OK


def _run_sweep_command(cfg: RunConfig, builder, default_prefix: str, **kwargs) -> int:
    if not cfg.eps:
        raise ConfigError("a strength list is required (--eps)")
    try:
        rows = run_sweep(
            builder,
            cfg.exponents,
            cfg.eps,
            L=cfg.L,
            n=cfg.n,
            **kwargs,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None
    prefix = cfg.out or default_prefix
    csv_path = Path(f"{prefix}.csv")
    write_sweep_csv(rows, csv_path)
    fit_blob = None
    try:
        fit = fit_exponent(rows)
    except ValueError as err:
        fit = None
        fit_blob = {"error": str(err)}
    if fit is not None:
        write_fit_json(fit, Path(f"{prefix}-fit.json"))
        write_gnuplot(csv_path, Path(f"{prefix}.gp"), fit=fit)
        fit_blob = fit.to_json()
    else:
        write_gnuplot(csv_path, Path(f"{prefix}.gp"), fit=None)
    blob = {
        "rows": len(rows),
        "csv": str(csv_path),
        "gnuplot": f"{prefix}.gp",
        "fit": fit_blob,
    }
    print(json.dumps(blob, indent=2))
    return EXIT_OK


def _cmd_audit(cfg: RunConfig) -> int:
    try:
        report = upper_bound_audit(
            cfg.exponents,
            L=cfg.L,
            trials=cfg.trials,
            seed=cfg.seed,
            operator=cfg.operator,
            n=cfg.n,
            weight_kind=cfg.weight_kind,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None
    _emit(report.to_json(), cfg.out)
    return EXIT_OK


def _cmd_selftest(cfg: RunConfig) -> int:
    results = run_selftest(seed=cfg.seed)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        cfg = resolve_config(args)
        if cfg.command == "apconst":
            return _cmd_apconst(cfg)
        if cfg.command == "maximal":
            return _cmd_maximal(cfg)
        if cfg.command == "sparse":
            return _cmd_sparse(cfg)
        if cfg.command == "mw-sweep":
            return _run_sweep_command(cfg, maximal_problem, "mw_sweep")
        if cfg.command == "riesz-sweep":
            return _run_sweep_command(
                cfg, riesz_problem, "riesz_sweep", variant=cfg.variant
            )
        if cfg.command == "audit":
            return _cmd_audit(cfg)
        if cfg.command == "selftest":
            return _cmd_selftest(cfg)
        raise ConfigError(f"unknown command {cfg.command!r}")
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SparsenessError as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return EXIT_INVARIANT


def main_entry() -> "SystemExit":
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
