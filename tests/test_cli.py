"""In-process tests for the command-line harness (exit codes, CSV, JSON)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import mirrorvi.cli as cli_module
from mirrorvi import InvalidInput
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


def test_economy_file_and_generator_flags_conflict(tmp_path):
    economy_path = tmp_path / "economy.json"
    write_zero_excess_economy(economy_path)
    assert main(["economy", "--file", str(economy_path), "--consumers", "5"]) == 1


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


def test_error_exit_codes(tmp_path):
    assert main(["sweep", "--seeds", ",", "--out-dir", str(tmp_path / "x")]) == 1
    assert main(["scarf", "--eta", "-0.5"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["scarf", "--p0", "0.5,abc"]) == 1
    assert main(["economy", "--file", str(tmp_path / "missing.json")]) == 1


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
