"""In-process tests for the command-line harness (exit codes, CSV, JSON)."""

from __future__ import annotations

import json
import math
import re
import warnings

import click
import numpy as np
import pytest

import mirrorvi.cli as cli_module
from mirrorvi import (
    InvalidInput,
    RunTrace,
    ScarfEconomy,
    SolverConfig,
    VIProblem,
    box,
    gap,
    mirror_extragradient_solve,
    mirror_extratatonnement,
    negative_entropy,
    rotation_operator,
    scalar_nonminty_operator,
    simplex,
)
from mirrorvi.cli import CSV_HEADER, load_economy_file, main

CENTER = np.ones(3) / 3.0


def read_csv_rows(path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def write_zero_excess_economy(path) -> None:
    # A Leontief consumer whose valuations equal its endowment demands exactly
    # that endowment, so every price vector is an equilibrium.
    path.write_text(
        json.dumps(
            {
                "n_goods": 2,
                "consumers": [
                    {
                        "utility": "leontief",
                        "valuations": [1.0, 2.0],
                        "endowment": [1.0, 2.0],
                    }
                ],
            }
        )
    )


def test_scarf_run_passes_and_writes_outputs(tmp_path):
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "report.json"
    code = main(
        [
            "scarf",
            "--iters", "2000",
            "--record-every", "5",
            "--csv", str(csv_path),
            "--json", str(json_path),
        ]
    )
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["converged"] is True
    assert np.abs(np.array(report["best_prices"]) - CENTER).max() <= 1e-2
    cert = report["certificate"]
    assert cert["eps_feasibility"] <= 1e-3
    assert cert["walras_residual"] <= 1e-3
    assert "minty_violation" in report  # simplex mode reports the sampled check
    assert report["pathwise_L_max"] <= 12.0
    rows = read_csv_rows(csv_path)
    # early stopping on the default stop gap: fewer rows than the cadence
    # ceiling, and the last recorded gap is at or below eps
    assert 0 < len(rows) < math.ceil(2000 / 5)
    assert float(rows[-1][1]) <= 1e-3
    assert all(len(row) == 7 for row in rows)


def test_scarf_no_stop_records_full_cadence(tmp_path):
    csv_path = tmp_path / "trace.csv"
    code = main(
        [
            "scarf",
            "--method", "gradient",
            "--eta", "0.05",
            "--iters", "300",
            "--eps", "1e-6",
            "--no-stop",
            "--csv", str(csv_path),
            "--json", str(tmp_path / "report.json"),
        ]
    )
    assert code == 2  # plain price adjustment never certifies on this economy
    rows = read_csv_rows(csv_path)
    assert len(rows) == 300
    assert [int(row[0]) for row in rows[:3]] == [0, 1, 2]


def test_a_stopped_run_reports_the_record_that_met_its_stop_gap(tmp_path):
    # This run stops at iteration 447 with gap 8.0e-10, but its least-D_h
    # record is iteration 256, whose gap is 2.7e-8. A stopped run reports its
    # stopping record: the CSV's last row, with a gap at or below the stop gap.
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "report.json"
    code = main(["scarf", "--kernel", "entropy", "--stop-gap", "1e-9", "--seed", "0",
                 "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["converged"] is True
    assert report["best_iter"] == int(read_csv_rows(csv_path)[-1][0])
    assert report["certificate"]["gap"] <= 1e-9


def test_scarf_json_is_deterministic_and_echo_reproduces(tmp_path):
    args = [
        "scarf",
        "--eta", "0.05",
        "--iters", "1500",
        "--record-every", "5",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--csv", str(tmp_path / "a.csv"), "--json", str(first)]) == 0
    assert main(args + ["--csv", str(tmp_path / "b.csv"), "--json", str(second)]) == 0
    report_a = json.loads(first.read_text())
    report_b = json.loads(second.read_text())
    assert report_a == report_b
    # replaying the echoed configuration reproduces the same best iterate
    echo = report_a["config_echo"]
    replay = tmp_path / "c.json"
    code = main(
        [
            "scarf",
            "--space", echo["space"],
            "--kernel", echo["kernel"],
            "--method", echo["method"],
            "--eta", repr(echo["eta_used"]),
            "--iters", str(echo["horizon"]),
            "--record-every", str(echo["record_every"]),
            "--seed", str(echo["seed"]),
            "--p0", ",".join(repr(v) for v in echo["p0"]),
            "--csv", str(tmp_path / "c.csv"),
            "--json", str(replay),
        ]
    )
    assert code == 0
    assert json.loads(replay.read_text())["best_prices"] == report_a["best_prices"]


def test_economy_generator_mode(tmp_path):
    json_path = tmp_path / "report.json"
    code = main(
        [
            "economy",
            "--consumers", "8",
            "--goods", "4",
            "--iters", "3000",
            "--record-every", "10",
            "--seed", "1",
            "--csv", str(tmp_path / "trace.csv"),
            "--json", str(json_path),
        ]
    )
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["converged"] is True
    assert report["config_echo"]["generator"]["n_consumers"] == 8
    assert "minty_violation" not in report  # box mode skips the sampled check
    assert report["normalized_equilibrium"] is not None
    assert max(report["normalized_equilibrium"]) == 1.0


def test_economy_file_mode(tmp_path):
    economy_path = tmp_path / "economy.json"
    write_zero_excess_economy(economy_path)
    loaded = load_economy_file(str(economy_path))
    assert loaded.n_goods == 2
    np.testing.assert_array_equal(loaded.excess(np.array([0.5, 0.8])), [0.0, 0.0])
    json_path = tmp_path / "report.json"
    code = main(
        [
            "economy",
            "--file", str(economy_path),
            "--p0", "0.5,0.8",
            "--iters", "50",
            "--csv", str(tmp_path / "trace.csv"),
            "--json", str(json_path),
        ]
    )
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["best_prices"] == [0.5, 0.8]
    assert report["normalized_equilibrium"] == [0.625, 1.0]
    assert report["config_echo"]["file"] == str(economy_path)


def test_economy_file_and_generator_flags_conflict(tmp_path, capsys):
    economy_path = tmp_path / "economy.json"
    write_zero_excess_economy(economy_path)
    assert main(["economy", "--file", str(economy_path), "--consumers", "5"]) == 1
    # Only --consumers, --goods and --mix defaulted to None, so --file ran and
    # exited 0 with --supply-total given; an option given at its default value
    # (--consumers 10) is rejected too.
    files = ["--csv", str(tmp_path / "t.csv"), "--json", str(tmp_path / "r.json")]
    for option in (["--consumers", "10"], ["--goods", "2"], ["--mix", "leontief=1"],
                   ["--supply-total", "3"]):
        capsys.readouterr()
        argv = ["economy", "--file", str(economy_path), "--iters", "50"] + option + files
        assert main(argv) == 1, option
        assert capsys.readouterr().err == (
            "error: --file and the generator options are mutually exclusive\n")
        assert not (tmp_path / "r.json").exists()


def test_economy_help_shows_the_generator_defaults(capsys):
    with pytest.raises(SystemExit):
        cli_module.cli.main(["economy", "--help"], standalone_mode=True)
    shown = " ".join(capsys.readouterr().out.split())
    for default in ("[default: 10]", "[default: 5]", "[default: 10.0]"):
        assert default in shown


def test_vi_example_rotation(tmp_path):
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "report.json"
    code = main(
        ["vi-example", "rotation", "--csv", str(csv_path), "--json", str(json_path)]
    )
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["final_norm"] <= 1e-8
    assert report["certificate"]["eps_feasibility"] is None
    assert report["certificate"]["walras_residual"] is None
    assert report["certificate"]["gap"] <= 1e-6
    rows = read_csv_rows(csv_path)
    assert rows[0][2] == "nan" and rows[0][3] == "nan"  # no economy residuals


@pytest.mark.parametrize("method", ["extragradient", "gradient"])
@pytest.mark.parametrize(
    "name, problem",
    [
        ("rotation", VIProblem(box(np.full(2, -10.0), np.full(2, 10.0)), rotation_operator())),
        ("nonminty", VIProblem(box(np.zeros(1), np.full(1, 3.0)), scalar_nonminty_operator())),
    ],
    ids=["rotation", "nonminty"],
)
def test_vi_example_gap_is_the_gap_at_best_prices(tmp_path, name, problem, method):
    # The reported gap is read from the best record; evaluated afresh at the
    # reported point it is the same number.
    json_path = tmp_path / "report.json"
    main(["vi-example", name, "--method", method,
          "--csv", str(tmp_path / "trace.csv"), "--json", str(json_path)])
    report = json.loads(json_path.read_text())
    assert report["certificate"]["gap"] == gap(problem, np.array(report["best_prices"]))


def test_vi_example_rotation_gradient_fails(tmp_path):
    code = main(
        [
            "vi-example", "rotation",
            "--method", "gradient",
            "--csv", str(tmp_path / "trace.csv"),
            "--json", str(tmp_path / "report.json"),
        ]
    )
    assert code == 2


def test_vi_example_nonminty_reaches_boundary_solution(tmp_path):
    json_path = tmp_path / "report.json"
    code = main(
        [
            "vi-example", "nonminty",
            "--csv", str(tmp_path / "trace.csv"),
            "--json", str(json_path),
        ]
    )
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["best_prices"] == [3.0]
    assert report["converged"] is True


def test_sweep_aggregates_seed_runs(tmp_path):
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--seeds", "0,1",
            "--consumers", "6",
            "--goods", "4",
            "--iters", "4000",
            "--record-every", "10",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "seed,n_consumers,n_goods,converged,iters_to_eps,pathwise_L_max"
    assert len(lines) == 3
    for seed, line in zip((0, 1), lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(seed)
        assert fields[3] == "true"
        assert int(fields[4]) >= 0
        assert (out_dir / f"trace_seed{seed}.csv").exists()
        report = json.loads((out_dir / f"report_seed{seed}.json").read_text())
        assert report["converged"] is True


def _reference_sweep_row(out_dir, seed, n_consumers, n_goods, eps) -> str:
    # One sweep.csv row rebuilt from the seed's own outputs, each value
    # formatted on its own, the modulus through f"{x:.17g}".
    report = json.loads((out_dir / f"report_seed{seed}.json").read_text())
    gaps = [(int(row[0]), float(row[1])) for row in read_csv_rows(
        out_dir / f"trace_seed{seed}.csv")]
    first = next((k for k, g in gaps if g <= eps), -1)
    converged = "true" if report["converged"] else "false"
    return ",".join([str(seed), str(n_consumers), str(n_goods), converged, str(first),
                     f"{float(report['pathwise_L_max']):.17g}"])


def test_sweep_rows_match_reference_text(tmp_path, monkeypatch):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--seeds", "3,4", "--consumers", "5", "--goods", "3", "--iters", "600",
            "--eps", "1e-4", "--record-every", "7", "--out-dir", str(out_dir)]
    main(argv)
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[1:] == [_reference_sweep_row(out_dir, seed, 5, 3, 1e-4) for seed in (3, 4)]

    # A seed that fails is a row of its own, with the same fields.
    real = cli_module.generate_economy

    def failing(spec):
        if spec.seed == 4:
            raise InvalidInput("no economy for this seed")
        return real(spec)

    monkeypatch.setattr(cli_module, "generate_economy", failing)
    assert main(argv) == 2
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[1:] == [_reference_sweep_row(out_dir, 3, 5, 3, 1e-4), "4,5,3,false,-1,nan"]



@pytest.mark.parametrize(
    "option, message",
    [(["--iters", "0"], "horizon must be >= 1, got 0"),
     (["--record-every", "0"], "record_every must be >= 1, got 0"),
     (["--mix", "leontief=2"], "mix proportions must sum to 1, got 2.0"),
     (["--supply-total", "inf"], "supply_total must be positive and finite, got inf"),
     # --eta takes SolverConfig's one rule: a negative or zero eta was a
     # click usage error with another message.
     (["--eta", "-0.5"], "eta must be positive, got -0.5"),
     (["--eta", "0"], "eta must be positive, got 0.0"),
     (["--eta", "nan"], "eta must be positive, got nan"),
     (["--eta", "inf"], "eta must have a finite effective step 2*eta, got inf")],
    ids=["iters", "record_every", "mix", "supply_total", "eta_negative", "eta_zero", "eta_nan",
         "eta_inf"])
def test_sweep_rejects_shared_options_once_before_any_file(tmp_path, capsys, option, message):
    # An option every seed shares is one error, exit 1, before the output
    # directory exists; not a failed row per seed and exit 2.
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--seeds", "0,1,2", "--consumers", "4", "--goods", "3",
            "--out-dir", str(out_dir)] + option
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()

def test_error_exit_codes(tmp_path, capsys):
    assert main(["sweep", "--seeds", ",", "--out-dir", str(tmp_path / "x")]) == 1
    assert main(["scarf", "--eta", "-0.5"]) == 1
    # A step size that overflows the prox, or is not finite, is an error too.
    files = ["--csv", str(tmp_path / "t.csv"), "--json", str(tmp_path / "r.json")]
    for eta in ("inf", "1e308"):
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["scarf", "--eta", eta] + files) == 1
    # A finite eta whose effective step 2*eta overflows is rejected by name
    # before any step, so numpy never warns (a warning here raises).
    capsys.readouterr()
    for argv in (["scarf", "--space", "box"], ["scarf", "--kernel", "entropy"],
                 ["vi-example", "rotation"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--eta", "1e308"] + files) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eta ") and err.count("\n") == 1
    assert main(["no-such-command"]) == 1
    assert main(["scarf", "--p0", "0.5,abc"]) == 1
    assert main(["economy", "--file", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [(["scarf", "--eta", "abc"], "eta must be a number or 'auto', got 'abc'"),
     (["economy", "--mix", "leontief"], "mix entries look like kind=proportion, got 'leontief'"),
     (["economy", "--mix", "leontief=half"], "bad proportion in mix entry 'leontief=half'")],
    ids=["eta", "mix_entry", "mix_proportion"])
def test_malformed_option_text_is_one_error_line(tmp_path, capsys, argv, message):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "r.json"
    assert main(argv + ["--csv", str(csv_path), "--json", str(json_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
    assert not csv_path.exists() and not json_path.exists()


def test_malformed_economy_file_is_a_user_error(tmp_path):
    # Schema errors in --file and non-integer --seeds exit 1 as user errors.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_goods": 2, "consumers": [{"utility": "leontief"}]}))
    with pytest.raises(InvalidInput):
        load_economy_file(str(bad))
    assert main(["economy", "--file", str(bad)]) == 1
    (tmp_path / "garbled.json").write_text("{not json")
    assert main(["economy", "--file", str(tmp_path / "garbled.json")]) == 1
    assert main(["sweep", "--seeds", "0,a", "--out-dir", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_economy_supply_total_must_be_positive_and_finite(tmp_path, capsys, value):
    # An infinite supply made every endowment NaN, which the consumer check
    # reported as a bad endowment; now the option itself is the one error.
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "r.json"
    argv = ["economy", "--consumers", "3", "--goods", "2", "--iters", "5",
            "--supply-total", value, "--csv", str(csv_path), "--json", str(json_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: supply_total must be positive and finite, got {float(value)}\n")
    assert not csv_path.exists() and not json_path.exists()


@pytest.mark.parametrize("mix", ["leontief=nan", "leontief=nan,cobb_douglas=1",
                                 "leontief=inf"])
def test_economy_mix_must_be_finite(tmp_path, capsys, mix):
    # A NaN proportion ended in a ValueError traceback from the generator.
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "r.json"
    argv = ["economy", "--consumers", "3", "--goods", "2", "--iters", "5", "--mix", mix,
            "--csv", str(csv_path), "--json", str(json_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mix proportions must be finite") and err.count("\n") == 1
    assert not csv_path.exists() and not json_path.exists()


@pytest.mark.parametrize("mix", ["leontief=nan", "leontief=inf"])
def test_sweep_mix_must_be_finite_before_any_file(tmp_path, capsys, mix):
    # The sweep created its empty --out-dir, then ended in a ValueError
    # traceback on the first seed.
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--seeds", "0", "--consumers", "3", "--goods", "2", "--iters", "5",
            "--mix", mix, "--out-dir", str(out_dir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mix proportions must be finite") and err.count("\n") == 1
    assert not out_dir.exists()


def test_economy_file_ces_rho_must_be_finite(tmp_path, capsys):
    # rho = -inf (JSON -Infinity) gives sigma = 0: every good's demand would be
    # budget / sum(p), whatever the valuations.
    path = tmp_path / "economy.json"
    consumer = {"utility": "ces", "valuations": [1.0, 2.0], "endowment": [1.0, 2.0],
                "rho": float("-inf")}
    path.write_text(json.dumps({"n_goods": 2, "consumers": [consumer]}))
    assert "-Infinity" in path.read_text()
    with pytest.raises(InvalidInput, match="CES rho must be finite"):
        load_economy_file(str(path))
    files = ["--csv", str(tmp_path / "t.csv"), "--json", str(tmp_path / "r.json")]
    assert main(["economy", "--file", str(path)] + files) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("field, value, message", [
    ("demand_cap_factor", True, "demand_cap_factor must be a real number, got True"),
    ("demand_cap_factor", "2", "demand_cap_factor must be a real number, got '2'"),
    ("price_floor", "0.5", "price_floor must be a real number, got '0.5'"),
    ("price_floor", True, "price_floor must be a real number, got True"),
    ("rho", "0.5", "CES rho must be a real number, got '0.5'"),
    ("rho", True, "CES rho must be a real number, got True"),
])
def test_economy_file_numbers_must_be_json_numbers(tmp_path, capsys, field, value, message):
    # float() made true a cap factor of 1.0 and "0.5" a floor or a rho; the
    # loader now hands each value to the library unconverted, as n_goods is.
    consumer = {"utility": "ces", "valuations": [1.0, 2.0], "endowment": [1.0, 2.0], "rho": 0.5}
    data = {"n_goods": 2, "consumers": [consumer]}
    (consumer if field == "rho" else data)[field] = value
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        load_economy_file(str(path))
    files = ["--csv", str(tmp_path / "t.csv"), "--json", str(tmp_path / "r.json")]
    assert main(["economy", "--file", str(path)] + files) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("field, values, shown", [("valuations", [True, "2"], "True"),
                                                  ("endowment", ["1", 2], "'1'")])
def test_economy_file_vector_entries_must_be_json_numbers(tmp_path, field, values, shown):
    # np.asarray(..., dtype=float) loaded [true, "2"] and ["1", 2] as [1., 2.].
    consumer = {"utility": "leontief", "valuations": [1.0, 2.0], "endowment": [1.0, 2.0]}
    consumer[field] = values
    path = tmp_path / "economy.json"
    path.write_text(json.dumps({"n_goods": 2, "consumers": [consumer]}))
    message = f"{field} must be a real number, got {shown}"
    with pytest.raises(InvalidInput, match=re.escape(
            f"does not follow the economy schema: InvalidInput({message!r})")):
        load_economy_file(str(path))


@pytest.mark.parametrize("option, name", [("--eps", "eps"), ("--stop-gap", "stop_gap")])
def test_tolerance_message_is_the_library_rule(tmp_path, capsys, option, name):
    # The option repeated the rule in its own words ("must be a finite number
    # >= 0, got nan"); it now reports errors.check_real's message.
    argv = ["scarf", "--iters", "5", "--csv", str(tmp_path / "t.csv"),
            "--json", str(tmp_path / "r.json"), option, "nan"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: Invalid value for '{option}': {name} must be finite and >= 0, got nan\n")


@pytest.mark.parametrize("n_goods", [2.5, 2.0, True, "2", None])
def test_economy_file_n_goods_must_be_an_integer(tmp_path, n_goods):
    # int() would read 2.5 as 2 and true as 1, and the run would go ahead.
    path = tmp_path / "economy.json"
    path.write_text(json.dumps({"n_goods": n_goods, "consumers": [
        {"utility": "leontief", "valuations": [1.0, 2.0], "endowment": [1.0, 2.0]}]}))
    with pytest.raises(InvalidInput, match="does not follow the economy schema.*n_goods"):
        load_economy_file(str(path))
    files = ["--csv", str(tmp_path / "t.csv"), "--json", str(tmp_path / "r.json")]
    assert main(["economy", "--file", str(path)] + files) == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", [["scarf"], ["economy", "--consumers", "3", "--goods", "2"],
                                     ["vi-example", "rotation"]],
                         ids=["scarf", "economy", "vi-example"])
def test_seed_outside_64_bits_is_an_option_error(tmp_path, capsys, command, seed):
    # One line on stderr and exit 1, before any file is written; not a
    # numpy traceback from the start point or the step-size probe.
    csv_path = tmp_path / "t.csv"
    argv = command + ["--iters", "5", "--csv", str(csv_path), "--json", str(tmp_path / "r.json")]
    assert main(argv + ["--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Invalid value for '--seed'") and err.count("\n") == 1
    assert not csv_path.exists()
    assert main(argv + ["--seed", str(2**64 - 1)]) in (0, 2)


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
@pytest.mark.parametrize("option", ["--eps", "--stop-gap"])
@pytest.mark.parametrize("command", [["scarf"], ["economy", "--consumers", "3", "--goods", "2"],
                                     ["vi-example", "rotation"]],
                         ids=["scarf", "economy", "vi-example"])
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, command, option, value):
    # A NaN eps can never pass and a NaN stop gap never stops a run: both are
    # one error line and exit 1, before any file is written.
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "r.json"
    argv = command + ["--iters", "5", "--csv", str(csv_path), "--json", str(json_path)]
    assert main(argv + [option, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: Invalid value for '{option}'") and err.count("\n") == 1
    assert not csv_path.exists() and not json_path.exists()
    assert main(argv + [option, "0"]) in (0, 2)


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
def test_sweep_eps_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--seeds", "0,1", "--consumers", "3", "--goods", "2", "--iters", "5",
            "--out-dir", str(out_dir)]
    assert main(argv + ["--eps", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Invalid value for '--eps'") and err.count("\n") == 1
    assert not out_dir.exists()


def test_sweep_seed_outside_64_bits_is_a_failed_row(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", f"--seeds=-1,0,{2**64}", "--consumers", "3", "--goods", "2",
            "--iters", "50", "--out-dir", str(out_dir)]
    assert main(argv) == 2
    rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
    assert rows[0] == "-1,3,2,false,-1,nan" and rows[2] == f"{2**64},3,2,false,-1,nan"
    assert rows[1].startswith("0,3,2,")
    assert capsys.readouterr().err.count("failed: seed must be a 64-bit unsigned integer") == 2


def test_internal_type_error_propagates(tmp_path, monkeypatch):
    # A TypeError from inside the library is a bug, not bad user input, so
    # main must not turn it into exit code 1.
    def broken(spec):
        raise TypeError("internal failure")

    monkeypatch.setattr(cli_module, "generate_economy", broken)
    with pytest.raises(TypeError, match="internal failure"):
        main(
            [
                "economy", "--consumers", "3", "--goods", "2", "--iters", "5",
                "--csv", str(tmp_path / "t.csv"), "--json", str(tmp_path / "r.json"),
            ]
        )


def _reference_write_csv(path, trace, feasibility=None, walras=None) -> None:
    # The trace CSV written one value at a time, each through f"{x:.17g}".
    def fmt(x):
        return f"{float(x):.17g}"

    rows = [CSV_HEADER]
    for i, (k, _, _) in enumerate(trace.iterates):
        feas = feasibility[i] if feasibility is not None else float("nan")
        res = walras[i] if walras is not None else float("nan")
        rows.append(",".join([str(k), fmt(trace.gaps[i]), fmt(feas), fmt(res),
                              fmt(trace.divergences[i]), fmt(trace.modulus_samples[i]),
                              fmt(trace.elapsed[i])]))
    path.write_text("\n".join(rows) + "\n")


def test_write_csv_matches_reference_text(tmp_path):
    price_run = mirror_extratatonnement(ScarfEconomy(), simplex(3), negative_entropy(), 0.05,
                                        200, np.array([0.5, 0.3, 0.2]), record_every=3)
    rotation = VIProblem(box(np.full(2, -10.0), np.full(2, 10.0)), rotation_operator())
    vi_trace = mirror_extragradient_solve(
        rotation, SolverConfig(eta=0.1, horizon=150, kernel=negative_entropy()),
        np.array([1.0, 0.0]),
    )
    # Every special value the format has to spell: nan, infinities, signed
    # zeros, subnormals and the extremes of the double range.
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-308,
                        1.7976931348623157e308, 0.1, 1.0 / 3.0, -12345.678, 1e-17])
    n = special.size
    synthetic = RunTrace(
        method="mirror_extragradient",
        indices=10 * np.arange(n),
        points=np.zeros((n, 2)),
        half_points=np.zeros((n, 2)),
        gaps=special,
        divergences=np.roll(special, 1),
        operator_deltas=special,
        modulus_samples=np.roll(special, 2),
        wall_time=0.0,
        elapsed=np.roll(special, 3),
    )
    cases = [
        (price_run.trace, price_run.trace.infeasibility, price_run.trace.complementarity),
        (vi_trace, None, None),
        (synthetic, np.roll(special, 4), -special),
        (synthetic, list(np.roll(special, 5)), None),
    ]
    for i, (trace, feasibility, walras) in enumerate(cases):
        ours, reference = tmp_path / f"ours{i}.csv", tmp_path / f"reference{i}.csv"
        cli_module._write_csv(str(ours), trace, feasibility, walras)
        _reference_write_csv(reference, trace, feasibility, walras)
        assert ours.read_text() == reference.read_text()
    assert read_csv_rows(tmp_path / "ours1.csv")[0][2:4] == ["nan", "nan"]


def test_scarf_negative_lo_is_rejected_up_front(tmp_path):
    # Prices are nonnegative, so a box with a negative lower bound is a bad
    # option value, reported before any run starts or any file is written.
    csv_path = tmp_path / "trace.csv"
    argv = ["scarf", "--space", "box", "--lo", "-0.5", "--iters", "50",
            "--csv", str(csv_path), "--json", str(tmp_path / "report.json")]
    with pytest.raises(click.BadParameter, match="--lo"):
        cli_module.cli.main(args=argv, standalone_mode=False)
    assert main(argv) == 1
    assert not csv_path.exists()
    assert main(argv[:4] + ["0.0"] + argv[5:]) in (0, 2)
