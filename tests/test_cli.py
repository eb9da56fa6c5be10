"""End-to-end tests of the command-line interface and its exit codes."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mweights import cli, selftest
from mweights.experiments import sweeps
from mweights.cli import main, main_entry, parse_eps, parse_exponents, ConfigError
from mweights.grid import GridFunction, Lattice, default_box
from mweights.operators import SparsenessError


# ------------------------------------------------------------------- parsing
def test_parse_eps_dyadic_range():
    vals = parse_eps("2^-2..2^-5")
    assert vals == (0.25, 0.125, 0.0625, 0.03125)
    # reversed endpoints give the same set
    assert sorted(parse_eps("2^-5..2^-2")) == sorted(vals)


def test_parse_eps_comma_list_and_tokens():
    assert parse_eps("0.25,2^-3") == (0.25, 0.125)
    with pytest.raises(ConfigError):
        parse_eps("1.5")
    with pytest.raises(ConfigError):
        parse_eps("nope")
    with pytest.raises(ConfigError):
        parse_eps("")


def test_parse_exponents_validation():
    et = parse_exponents("2,2")
    assert et.p == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        parse_exponents("1,2")  # endpoint exponent outside (1, inf)
    with pytest.raises(ConfigError):
        parse_exponents("abc")


# ------------------------------------------------------------------- apconst
def test_apconst_reports_json(capsys):
    code = main(
        ["apconst", "--p", "2,2", "--w", "power:0.75,const", "--L", "6"]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {
        "constant", "argmax", "scanned", "family", "degenerate", "scanned_per_generation"
    }
    assert blob["degenerate"] == 0
    assert blob["constant"] > 1.0
    assert blob["scanned"] > 0
    # generations -2..L of the 2^n shifted grids, keyed by their string
    per_generation = blob["scanned_per_generation"]
    assert list(per_generation) == [str(g) for g in range(-2, 7)]
    assert sum(per_generation.values()) == blob["scanned"]


def test_apconst_constant_weights_give_unit_constant(capsys):
    code = main(["apconst", "--p", "2,2", "--w", "const,const", "--L", "5"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["constant"] == pytest.approx(1.0, rel=1e-12)


def test_apconst_weight_spec_count_mismatch(capsys):
    code = main(["apconst", "--p", "2,2", "--w", "const", "--L", "5"])
    assert code == 2


def test_apconst_nonintegrable_power_weight(capsys):
    code = main(["apconst", "--p", "2,2", "--w", "power:-1.5,const", "--L", "5"])
    assert code == 2
    assert "integrable" in capsys.readouterr().err


def step_probe_argv(tmp_path):
    """apconst on two step weights 2^k, k in [-3, 3], at p_1 = 1.01, whose
    dual w^-100 spans 2^600."""
    lattice = Lattice(default_box(2), 4)
    rng = np.random.default_rng(0)
    specs = []
    for k in range(2):
        path = tmp_path / f"w{k}.gridfn"
        GridFunction(lattice, 2.0 ** rng.integers(-3, 4, size=lattice.shape)).save(path)
        specs.append(f"grid:{path}")
    return ["apconst", "--n", "2", "--L", "4", "--p", "1.01,3", "--w", ",".join(specs)]


@pytest.mark.parametrize("family", ["shifted", "aligned", "both"])
def test_apconst_wide_dual_reads_the_same_constant_on_every_family(tmp_path, capsys, family):
    # neither the grid cubes' child sums nor the aligned cubes' doubled runs
    # cancel; prefix differences made the aligned families exit 2 here
    assert main(step_probe_argv(tmp_path) + ["--family", family]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["constant"] == 20.970989981328195
    assert blob["degenerate"] == 0


def test_apconst_nan_supremands_exit_2_without_traceback(tmp_path, capsys, monkeypatch):
    # the scan refuses NaN supremands with their count instead of returning
    # a smaller constant; one is injected into each aligned size's pass
    from mweights import weights

    supremand = weights._supremand

    def first_cube_nan(P, averages):
        vals, degenerate = supremand(P, averages)
        vals[0] = np.nan
        return vals, degenerate

    monkeypatch.setattr(weights, "_supremand", first_cube_nan)
    assert main(step_probe_argv(tmp_path) + ["--family", "aligned"]) == 2
    err = capsys.readouterr().err
    assert re.search(r"error: 16 of 1496 cubes .* NaN supremand", err)
    assert "Traceback" not in err


def test_unknown_flag_prints_usage_and_exits_2(capsys):
    code = main(["apconst", "--p", "2,2", "--w", "const,const", "--bogus", "1"])
    assert code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_2():
    assert main(["transmogrify"]) == 2


COMMANDS = ("apconst", "maximal", "sparse", "mw-sweep", "riesz-sweep", "audit", "selftest")


def test_help_exits_zero(capsys):
    for command in COMMANDS:
        assert main([command, "--help"]) == 0, command
        assert "--config" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mweights", "selftest", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--config" in proc.stdout


def test_main_entry_exits_with_main_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["mweights", "--help"])
    with pytest.raises(SystemExit) as exc:
        main_entry()
    assert exc.value.code == 0
    monkeypatch.setattr("sys.argv", ["mweights", "selftest", "--bogus"])
    with pytest.raises(SystemExit) as exc:
        main_entry()
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["apconst", "--p", "2,2", "--w", "power:0.5,const"],
        ["maximal", "--f", "power:-0.5,const"],
        ["mw-sweep", "--p", "2,2", "--eps", "2^-2..2^-3"],
    ],
    ids=lambda args: args[0],
)
def test_dimension_above_two_is_rejected(args, capsys):
    assert main(args + ["--n", "3", "--L", "2"]) == 2
    assert "--n" in capsys.readouterr().err


# ------------------------------------------------------------------- maximal
def test_maximal_subcommand_bracket(tmp_path, capsys):
    out = tmp_path / "mx"
    code = main(
        ["maximal", "--f", "power:-0.5,const", "--L", "5", "--out", str(out)]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["max_lower"] > 0
    assert blob["max_upper"] >= blob["max_lower"]
    assert blob["max_bracket_ratio"] <= 6.0**2 * 2.0 + 1e-9
    assert (tmp_path / "mx-lower.grid").exists()
    assert (tmp_path / "mx.json").exists()


def test_maximal_planar_positive_quadrant_spec_runs(capsys):
    # @pos in two dimensions is a Rect support, clipped cell by cell
    code = main(["maximal", "--n", "2", "--L", "3", "--f", "power:-0.5@pos,const"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["slots"] == 2 and blob["max_lower"] > 0


def test_maximal_malformed_grid_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "f.gridfn"
    header = '{"n": 1, "L": 3, "box": {"lo": [-2.0], "side": 4.0}, "descriptor": null}'
    path.write_text("\n".join([header, *(f"{i},1.0" for i in range(7)), "-1,5.0"]) + "\n")
    code = main(["maximal", "--f", f"grid:{path},const", "--L", "3"])
    assert code == 2
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, message",
    [
        ('{"n": 1, "L": -1, "box": {"lo": [-2.0], "side": 4.0}, "descriptor": null}', "L = -1"),
        ('{"n": 1, "L": 2.5, "box": {"lo": [-2.0], "side": 4.0}, "descriptor": null}', "L = 2.5"),
        ('{"n": 1, "L": "3", "box": {"lo": [-2.0], "side": 4.0}, "descriptor": null}', "L = '3'"),
        ('[1, 3, [-2.0], 4.0]', "not a JSON object"),
        ('{"n": 1, "L": 3, "box": {"lo": [-2.0, 0.0], "side": 4.0}, "descriptor": null}', "box.lo"),
        ('{"n": 1, "L": 3, "box": {"lo": [-2.0], "side": 0.0}, "descriptor": null}', "box.side"),
        ('{"n": 1, "L": 3, "box": {"lo": [-2.0], "side": 4.0}, "descriptor": [1]}', "cannot load"),
        # 2^45 cells ask for 256 TiB, more than a 64-bit user address space
        ('{"n": 1, "L": 45, "box": {"lo": [-2.0], "side": 4.0}, "descriptor": null}',
         "cells have no row"),
    ],
)
def test_maximal_malformed_grid_file_header_is_config_error(header, message, tmp_path, capsys):
    path = tmp_path / "bad.grid"
    path.write_text("\n".join([header, *(f"{i},1.0" for i in range(8))]) + "\n")
    assert main(["maximal", "--f", f"grid:{path}", "--L", "3"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_lattice_too_large_for_memory_exits_2(monkeypatch, capsys):
    # the allocation fails in a stand-in: a host that overcommits memory
    # could grant a real one and run out later
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.0 GiB")

    monkeypatch.setattr(cli, "multilinear_maximal", too_large)
    assert main(["maximal", "--f", "const,const", "--L", "3"]) == 2
    err = capsys.readouterr().err
    assert "Unable to allocate" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["apconst", "--p", "2,2", "--w", "const,const"],
        ["maximal", "--f", "const,const"],
        ["mw-sweep", "--p", "2,2", "--eps", "2^-2..2^-3"],
    ],
    ids=["apconst", "maximal", "mw-sweep"],
)
def test_unwritable_out_is_config_error(args, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main([*args, "--L", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out.parent) in err and "Traceback" not in err


def test_missing_out_directory_stops_a_sweep_before_it_runs(monkeypatch, tmp_path, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before its --out was checked")

    monkeypatch.setattr(cli, "run_sweep", never)
    out = tmp_path / "missing" / "x"
    argv = ["mw-sweep", "--p", "2,2", "--eps", "2^-2..2^-5", "--L", "3", "--out", str(out)]
    assert main(argv) == 2
    assert f"--out directory {out.parent} does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_apconst_prints_nothing_when_its_out_cannot_be_written(where, tmp_path, capsys):
    # a directory is no file to write, though its parent exists
    out = tmp_path / "missing" / "x" if where == "missing directory" else tmp_path
    argv = ["apconst", "--p", "2,2", "--w", "const,const", "--L", "3", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_maximal_non_finite_constant_is_config_error(capsys):
    assert main(["maximal", "--f", "const:nan,const", "--L", "3"]) == 2
    assert "finite" in capsys.readouterr().err


_G_MIN_COMMANDS = {
    "maximal": ["maximal", "--f", "const", "--L", "3"],
    "apconst": ["apconst", "--p", "2", "--w", "const", "--L", "3"],
}


@pytest.mark.parametrize("command", sorted(_G_MIN_COMMANDS))
def test_g_min_range_is_checked_at_both_ends(command, capsys):
    # cubes of 2^63 cells overflowed int64 with a traceback and exit 1; the
    # coarsest generation at L=3 is now 3 - 60 = -57
    argv = _G_MIN_COMMANDS[command]
    assert main(argv + ["--g-min", "-57"]) == 0
    capsys.readouterr()
    for g_min, match in (("-60", "coarser than -57"), ("-58", "coarser"), ("4", "")):
        assert main(argv + ["--g-min", g_min]) == 2, g_min
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "g_min, message",
    [
        ("7", "error: generation 7 is finer than the lattice resolution L=6"),
        ("-55", "error: generation -55 is coarser than -54, the coarsest at L=6"),
    ],
)
def test_apconst_and_maximal_refuse_a_g_min_out_of_range_alike(g_min, message, capsys):
    # the cube family checks its coarsest generation when it is built, so
    # apconst no longer reports a too-fine family as empty
    for argv in (
        ["apconst", "--p", "2,2", "--w", "power:0.5,const"],
        ["maximal", "--f", "const"],
    ):
        assert main(argv + ["--g-min", g_min, "--L", "6"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == message, err


# -------------------------------------------------------------------- sparse
def test_sparse_subcommand_families(tmp_path, capsys):
    code = main(["sparse", "--f", "power:-0.5@pos,power:-0.25@pos", "--L", "6"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["a"] == pytest.approx(16.0)  # default 2^(mn+2) for m=2, n=1
    assert blob["count"] >= 1
    assert blob["count"] == len(blob["cubes"])
    assert blob["lambda0"] > 0


def test_sparse_ratio_too_small_is_config_error(capsys):
    code = main(
        ["sparse", "--f", "power:-0.5@pos,const:0", "--L", "5", "--a", "2"]
    )
    assert code == 2
    assert "exceed" in capsys.readouterr().err


def test_sparse_uncoverable_support_is_config_error(capsys):
    # constant 1 on the whole box: no in-box grid cube contains it
    code = main(["sparse", "--f", "const,const", "--L", "5"])
    assert code == 2
    assert "cube" in capsys.readouterr().err


# -------------------------------------------------------------------- sweeps
def test_mw_sweep_writes_csv_fit_and_gnuplot(tmp_path, capsys):
    prefix = tmp_path / "sweep"
    code = main(
        [
            "mw-sweep",
            "--p",
            "2,2",
            "--eps",
            "2^-2..2^-5",
            "--L",
            "6",
            "--out",
            str(prefix),
        ]
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,ap_const,lhs_norm,rhs_norm_product,ratio,L,ms"
    assert len(lines) == 5
    fit = json.loads((tmp_path / "sweep-fit.json").read_text())
    assert set(fit) == {"slope", "intercept", "residual", "eps_min", "eps_max"}
    gp = (tmp_path / "sweep.gp").read_text()
    assert "logscale" in gp and "sweep.csv" in gp
    blob = json.loads(capsys.readouterr().out)
    assert blob["rows"] == 4
    assert blob["fit"]["slope"] == pytest.approx(fit["slope"])


def test_mw_sweep_repeated_runs_give_identical_bytes(tmp_path, capsys):
    args = ["mw-sweep", "--p", "2,2", "--eps", "2^-2..2^-5", "--L", "5"]
    assert main(args + ["--out", str(tmp_path / "first")]) == 0
    assert main(args + ["--out", str(tmp_path / "second")]) == 0
    capsys.readouterr()
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


def test_mw_sweep_takes_a_ratio_exponent(tmp_path, capsys):
    # 4/3 is rounded once, to the double that 1.3333333333333333 names
    args = ["mw-sweep", "--eps", "2^-2..2^-5", "--L", "5"]
    assert main(args + ["--p", "4,4/3", "--out", str(tmp_path / "ratio")]) == 0
    assert main(args + ["--p", "4,1.3333333333333333", "--out", str(tmp_path / "decimal")]) == 0
    capsys.readouterr()
    assert (tmp_path / "ratio.csv").read_bytes() == (tmp_path / "decimal.csv").read_bytes()


@pytest.mark.parametrize("p", ["4,4/0", "4,/3", "4,a/3", "4,1/2/3"])
def test_malformed_ratio_exponent_exits_2(p, capsys):
    assert main(["mw-sweep", "--p", p, "--eps", "2^-2..2^-5", "--L", "5"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse exponent tuple" in err and "Traceback" not in err


def test_riesz_sweep_direct_and_regime_error(tmp_path, capsys):
    code = main(
        [
            "riesz-sweep",
            "--p",
            "2,2",
            "--eps",
            "2^-2..2^-5",
            "--L",
            "6",
            "--out",
            str(tmp_path / "rz"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    # exponents in the adjoint regime are rejected for the direct variant
    code = main(
        [
            "riesz-sweep",
            "--p",
            "4,4",
            "--eps",
            "2^-2..2^-5",
            "--L",
            "6",
            "--out",
            str(tmp_path / "rz2"),
        ]
    )
    assert code == 2
    assert "adjoint" in capsys.readouterr().err


def test_riesz_sweep_adjoint_variant(tmp_path, capsys):
    code = main(
        [
            "riesz-sweep",
            "--p",
            "4,4",
            "--variant",
            "adjoint_slot1",
            "--eps",
            "2^-2..2^-5",
            "--L",
            "6",
            "--out",
            str(tmp_path / "adj"),
        ]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["fit"]["slope"] > 0


@pytest.mark.parametrize("p, variant", [("2,2", "direct"), ("4,4", "adjoint_slot1")])
def test_riesz_sweep_reports_the_quadrature_margin_outside_the_csv(tmp_path, capsys, p, variant):
    # each Riesz row's smallest quadrature/minorant ratio and its count of
    # principal-value points go to stdout; the CSV has the same bytes as
    # rows carrying neither
    import dataclasses

    from mweights.experiments import riesz_problem, run_sweep, write_sweep_csv

    prefix = tmp_path / "rz"
    args = ["riesz-sweep", "--p", p, "--variant", variant, "--eps", "2^-2..2^-5", "--L", "6"]
    assert main([*args, "--out", str(prefix)]) == 0
    blob = json.loads(capsys.readouterr().out)
    eps = [0.25, 0.125, 0.0625, 0.03125]
    assert [q["eps"] for q in blob["quadrature"]] == eps
    for q in blob["quadrature"]:
        assert set(q) == {"eps", "min_ratio_to_minorant", "pv_approximate_points"}
        assert q["min_ratio_to_minorant"] >= 1.0
        assert q["pv_approximate_points"] == 0
    rows = run_sweep(riesz_problem, parse_exponents(p), eps, L=6, variant=variant)
    assert [q["min_ratio_to_minorant"] for q in blob["quadrature"]] == pytest.approx(
        [r.quad_min_ratio for r in rows], rel=1e-12
    )
    bare = [dataclasses.replace(r, quad_min_ratio=None, pv_points=None) for r in rows]
    write_sweep_csv(bare, tmp_path / "bare.csv")
    assert (tmp_path / "rz.csv").read_bytes() == (tmp_path / "bare.csv").read_bytes()
    assert main(["mw-sweep", "--p", "2,2", "--eps", "2^-2..2^-5", "--L", "5",
                 "--out", str(tmp_path / "mw")]) == 0
    assert "quadrature" not in json.loads(capsys.readouterr().out)


# --------------------------------------------------------------------- audit
def test_audit_subcommand_json(capsys):
    code = main(
        [
            "audit",
            "--p",
            "2,2",
            "--operator",
            "sparse",
            "--L",
            "6",
            "--trials",
            "6",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["operator"] == "sparse"
    assert blob["trials"] == 6
    assert blob["max_quotient"] > 0
    assert len(blob["quotients"]) + blob["skipped"] == 6
    assert blob["largest_family"] > 1
    assert sum(blob["family_generations"].values()) > 6


def test_audit_bad_operator_rejected_by_parser(capsys):
    assert main(["audit", "--p", "2,2", "--operator", "fourier"]) == 2


def test_audit_needs_positive_trials(capsys):
    code = main(["audit", "--p", "2,2", "--trials", "0", "--L", "5"])
    assert code == 2


# -------------------------------------------------------------------- config
def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"L": 5, "w": ["power:0.5", "const"]}))
    code = main(
        [
            "apconst",
            "--p",
            "2,2",
            "--w",
            "const,const",
            "--L",
            "7",
            "--config",
            str(cfg),
        ]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert "L5" in blob["family"]
    assert blob["constant"] > 1.0  # the override swapped in a power weight


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"banana": 1}))
    code = main(["apconst", "--p", "2,2", "--w", "const,const", "--config", str(cfg)])
    assert code == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, blob",
    [
        (["apconst", "--p", "2,2", "--w", "const,const"], {"L": "abc"}),
        (["apconst", "--p", "2,2", "--w", "const,const"], {"g_min": None}),
        (["sparse", "--f", "power:-0.5@pos,power:-0.25@pos"], {"a": "x"}),
        (["audit", "--p", "2,2"], {"trials": "many"}),
        (["apconst", "--p", "2,2", "--w", "const,const"], {"L": 5.7}),
        (["apconst", "--p", "2,2", "--w", "const,const"], {"L": True}),
    ],
)
def test_config_file_values_parse_like_flags(args, blob, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(blob))
    assert main(args + ["--L", "4", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "Traceback" not in err
    assert f"--{next(iter(blob)).replace('_', '-')}" in err


def test_config_file_bad_json(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{nope")
    assert (
        main(["apconst", "--p", "2,2", "--w", "const,const", "--config", str(cfg)])
        == 2
    )


# ------------------------------------------------------------------ selftest
def test_selftest_passes_clean_tree(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all" in out and "passed" in out
    assert "FAIL" not in out


# ------------------------------------------------------------ exit code 3
SPARSE_ARGS = ["sparse", "--f", "power:-0.5@pos,power:-0.25@pos", "--L", "5"]


def test_sparseness_error_exits_3(monkeypatch, capsys):
    def thin(*args, **kwargs):
        raise SparsenessError("kept region below one half")

    monkeypatch.setattr(cli, "build_sparse_family", thin)
    assert main(SPARSE_ARGS) == 3
    assert "invariant failure" in capsys.readouterr().err


def test_audit_with_root_only_families_exits_3(capsys):
    # seed 7's draws at L=5 never push a child past the stopping threshold
    assert main(["audit", "--p", "2,2", "--L", "5", "--trials", "3", "--seed", "7"]) == 3
    err = capsys.readouterr().err
    assert "invariant failure" in err and "root alone" in err and "Traceback" not in err


def test_audit_with_every_trial_skipped_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(sweeps, "grid_lp_norm", lambda *args: 0.0)
    assert main(["audit", "--p", "2,2", "--L", "5", "--trials", "3", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "invariant failure" in err and "skipped" in err and "Traceback" not in err


def test_failing_selftest_check_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "dualize", lambda wv, i: wv)
    assert main(["selftest"]) == 3
    out = capsys.readouterr().out
    assert "FAIL — duality identity" in out
    assert "1 of 8 checks failed" in out


def test_plain_runtime_error_is_not_an_invariant_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not an invariant")

    monkeypatch.setattr(cli, "build_sparse_family", broken)
    with pytest.raises(RuntimeError, match="not an invariant"):
        main(SPARSE_ARGS)
