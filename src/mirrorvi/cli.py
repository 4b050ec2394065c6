"""Command-line harness: run price-adjustment and VI examples, emit traces.

Commands
--------
scarf       Run price adjustment on the fixed 3-good economy.
economy     Run price adjustment on a JSON-defined or generated economy.
vi-example  Run a named variational-inequality example (rotation, nonminty).
sweep       Run one generated economy per seed and aggregate the results.

Every run writes a CSV trace (header: iter,gap,feas_violation,
walras_residual,breg_progress,pathwise_L,elapsed_s) and a JSON report. Exit
codes: 0 when the certificate passes the requested epsilon, 2 when the
horizon is exhausted without passing, 1 on error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from .economy import Consumer, ExchangeEconomy, ScarfEconomy
from .errors import InsufficientData, InvalidInput, MirrorVIError, check_number, check_real
from .gen import GenSpec, generate_economy, initial_prices
from .kernels import FeasibleSet, Kernel, box, simplex, unit_box
from .tatonnement import (
    PriceRun,
    _normalized,
    _solve_run,
    mirror_extratatonnement,
    mirror_tatonnement,
)
from .vi import (
    RunTrace,
    SolverConfig,
    VIProblem,
    pathwise_modulus,
    rate_slope,
    rotation_operator,
    scalar_nonminty_operator,
)

CSV_HEADER = "iter,gap,feas_violation,walras_residual,breg_progress,pathwise_L,elapsed_s"

#: One CSV row: the iteration, then every value as f"{x:.17g}" writes it.
CSV_ROW = "%d" + ",%.17g" * 6

DEFAULT_MIX = "cobb_douglas=0.25,leontief=0.25,ces_substitutes=0.25,ces_complements=0.25"


def _parse_eta(ctx, param, text: str):
    """The --eta callback: 'auto' or a number, which SolverConfig checks."""
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise click.BadParameter(f"eta must be a number or 'auto', got {text!r}")


def _check_tolerance(ctx, param, value):
    """The --eps and --stop-gap callback: None or a value errors.check_real accepts."""
    if value is not None:
        try:
            check_real(value, param.name)
        except InvalidInput as exc:
            raise click.BadParameter(str(exc))
    return value


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {text!r}")


def _parse_mix(text: str) -> dict[str, float]:
    mix: dict[str, float] = {}
    for item in text.split(","):
        if "=" not in item:
            raise click.BadParameter(f"mix entries look like kind=proportion, got {item!r}")
        kind, _, value = item.partition("=")
        try:
            mix[kind.strip()] = float(value)
        except ValueError:
            raise click.BadParameter(f"bad proportion in mix entry {item!r}")
    return mix


def _options(*options):
    """Apply click options as if stacked in the order given."""
    def apply(command):
        for option in reversed(options):
            command = option(command)
        return command
    return apply


def _solver_options(iters: int, eps: float = 1e-3, record_every: int = 1):
    """--kernel, --eta, --iters, --eps and --record-every: every command has them."""
    return _options(
        click.option("--kernel", "kernel_name", type=click.Choice(["euclidean", "entropy"]),
                     default="euclidean", show_default=True),
        click.option("--eta", default="auto", show_default=True, callback=_parse_eta,
                     help="Step size, a positive number or 'auto' (probed)."),
        click.option("--iters", type=int, default=iters, show_default=True),
        click.option("--eps", type=float, default=eps, show_default=True,
                     callback=_check_tolerance,
                     help="Certificate tolerance; also the default early-stop gap of a "
                          "price run."),
        click.option("--record-every", type=int, default=record_every, show_default=True),
    )


def _run_options(prefix: str):
    """--method, --stop-gap, --seed, --csv and --json: the options of a single run."""
    return _options(
        click.option("--method", type=click.Choice(["extragradient", "gradient"]),
                     default="extragradient", show_default=True),
        click.option("--stop-gap", type=float, default=None, callback=_check_tolerance,
                     help="Early-stop gap (a price run defaults to eps)."),
        click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True),
        click.option("--csv", "csv_path", default=f"{prefix}_trace.csv", show_default=True),
        click.option("--json", "json_path", default=f"{prefix}_report.json", show_default=True),
    )


def _space_option(default: str):
    return click.option("--space", "space_name", type=click.Choice(["box", "simplex"]),
                        default=default, show_default=True,
                        help="Price space: a box or the unit simplex.")


def _price_options(space: str):
    """--space, --no-stop and --p0: the options of a single price run."""
    return _options(
        _space_option(space),
        click.option("--no-stop", is_flag=True, help="Disable early stopping (fixed horizon)."),
        click.option("--p0", "p0_text", default=None, help="Initial prices, comma-separated."),
    )


def _generator_options(consumers, goods):
    """--consumers, --goods, --mix and --supply-total: the economy generator's options."""
    return _options(
        click.option("--consumers", "n_consumers", type=int, default=consumers,
                     show_default=True, help="Generator: number of consumers."),
        click.option("--goods", "n_goods", type=int, default=goods, show_default=True,
                     help="Generator: number of goods."),
        click.option("--mix", "mix_text", default=DEFAULT_MIX, show_default=True,
                     help="Generator: utility mix, comma-separated kind=proportion entries."),
        click.option("--supply-total", type=float, default=10.0, show_default=True,
                     help="Generator: aggregate supply per good."),
    )


def _write_csv(path: str, trace: RunTrace, feasibility=None, walras=None) -> None:
    # CSV_ROW on Python numbers is f"{x:.17g}" value by value, nan and -0 included.
    missing = [float("nan")] * trace.indices.size

    def column(values):
        return missing if values is None else np.asarray(values, dtype=float).tolist()

    columns = (
        trace.indices.tolist(),
        trace.gaps.tolist(),
        column(feasibility),
        column(walras),
        trace.divergences.tolist(),
        trace.modulus_samples.tolist(),
        trace.elapsed.tolist(),
    )
    rows = [CSV_HEADER]
    rows.extend(CSV_ROW % row for row in zip(*columns))
    Path(path).write_text("\n".join(rows) + "\n")


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _echo(source: dict, eta_used: float, *, method: str, kernel_name: str, eta, iters: int,
          eps: float, stop_gap, record_every: int, seed: int) -> dict:
    """config_echo: the command's own fields, then the solver fields that replay the run."""
    return dict(source, method=method, kernel=kernel_name, eta=eta, eta_used=eta_used,
                horizon=iters, eps=eps, stop_gap=stop_gap, record_every=record_every, seed=seed)


def _report(trace: RunTrace, config_echo: dict, normalized, certificate: tuple,
            converged: bool) -> dict:
    """Report fields every command writes; certificate is (feasibility, walras, gap)."""
    feasibility, walras, gap_value = certificate
    try:
        slope = rate_slope(trace)
    except InsufficientData:
        slope = None
    return {
        "config_echo": config_echo,
        "best_iter": trace.best_index,
        "best_prices": trace.best_iterate.tolist(),
        "normalized_equilibrium": None if normalized is None else normalized.tolist(),
        "certificate": {"eps_feasibility": feasibility, "walras_residual": walras,
                        "gap": gap_value},
        "pathwise_L_max": pathwise_modulus(trace),
        "rate_slope": slope,
        "converged": converged,
    }


def _price_report(run: PriceRun, config_echo: dict, eps: float) -> dict:
    cert = run.certificate
    report = _report(run.trace, config_echo, run.normalized_equilibrium,
                     (cert.eps_feasibility, cert.walras_residual, cert.gap_value),
                     cert.passes(eps))
    if run.minty_violation is not None:
        report["minty_violation"] = run.minty_violation
    return report


def _run_prices(economy, space: FeasibleSet, echo: dict, *, method: str = "extragradient",
                kernel_name: str, eta, iters: int, eps: float, stop_gap=None,
                no_stop: bool = False, record_every: int, seed: int, p0_text: str | None = None,
                csv_path: str, json_path: str) -> tuple[PriceRun, int]:
    """Run, write the CSV trace and JSON report; return the run and its exit code."""
    p0 = _parse_vector(p0_text) if p0_text else initial_prices(seed, space)
    stop = None if no_stop else (eps if stop_gap is None else stop_gap)
    runner = mirror_extratatonnement if method == "extragradient" else mirror_tatonnement
    run = runner(
        economy, space, Kernel(kernel_name), eta, iters, p0,
        stop_gap=stop, record_every=record_every, seed=seed,
    )
    config_echo = _echo(dict(echo, p0=[float(v) for v in p0]), run.eta, method=method,
                        kernel_name=kernel_name, eta=eta, iters=iters, eps=eps, stop_gap=stop,
                        record_every=record_every, seed=seed)
    _write_csv(csv_path, run.trace, run.trace.infeasibility, run.trace.complementarity)
    _write_json(json_path, _price_report(run, config_echo, eps))
    return run, 0 if run.certificate.passes(eps) else 2


def _generated(seed: int, n_consumers: int, n_goods: int, mix: dict,
               supply_total: float) -> tuple[ExchangeEconomy, dict]:
    """A generated economy and the `generator` entry of its config_echo."""
    spec = GenSpec(seed=seed, n_consumers=n_consumers, n_goods=n_goods, mix=mix,
                   supply_total=supply_total)
    return generate_economy(spec), {"generator": dataclasses.asdict(spec)}


@click.group()
def cli() -> None:
    """Mirror-extragradient solvers for variational inequalities and markets."""


@cli.command("scarf")
@_price_options("simplex")
@click.option("--lo", type=float, default=0.1, show_default=True,
              help="Box lower bound (box mode only).")
@_solver_options(iters=5000)
@_run_options("scarf")
def scarf_cmd(space_name, lo, **opts) -> int:
    """Price adjustment on the fixed 3-good economy."""
    if lo < 0.0:
        raise click.BadParameter(f"--lo must be >= 0 (prices are nonnegative), got {lo}")
    space = box(np.full(3, lo), np.ones(3)) if space_name == "box" else simplex(3)
    echo = {"command": "scarf", "space": space_name, "lo": lo}
    return _run_prices(ScarfEconomy(), space, echo, **opts)[1]


def _json_numbers(values, name: str) -> np.ndarray:
    """A JSON array of numbers (errors.check_number) as a float vector."""
    for value in values:
        check_number(value, name)
    return np.asarray(values, dtype=float)


def load_economy_file(path: str) -> ExchangeEconomy:
    """Build an ExchangeEconomy from the documented JSON schema.

    A file that is valid JSON but does not follow the schema raises
    InvalidInput.
    """
    data = json.loads(Path(path).read_text())
    try:
        entries = [
            (
                entry["utility"],
                _json_numbers(entry["valuations"], "valuations"),
                _json_numbers(entry["endowment"], "endowment"),
                entry.get("rho"),
            )
            for entry in data["consumers"]
        ]
        kwargs = {key: data[key] for key in ("demand_cap_factor", "price_floor") if key in data}
        n_goods = data["n_goods"]
        if isinstance(n_goods, bool) or not isinstance(n_goods, int):
            raise TypeError(f"n_goods must be an integer, got {n_goods!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"{path} does not follow the economy schema: {exc!r}") from exc
    consumers = [Consumer(*entry) for entry in entries]
    return ExchangeEconomy(consumers=consumers, n_goods=n_goods, **kwargs)


@cli.command("economy")
@click.option("--file", "file_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Economy definition JSON (mutually exclusive with the generator options).")
@_generator_options(consumers=10, goods=5)
@_price_options("box")
@_solver_options(iters=10000)
@_run_options("economy")
def economy_cmd(file_path, n_consumers, n_goods, mix_text, supply_total, space_name, seed,
                **opts) -> int:
    """Price adjustment on a JSON-defined or generated exchange economy."""
    if file_path is not None:
        # A generator option given with --file, even at its default value, is an error.
        ctx = click.get_current_context()
        if any(ctx.get_parameter_source(name) is not ParameterSource.DEFAULT
               for name in ("n_consumers", "n_goods", "mix_text", "supply_total")):
            raise click.UsageError("--file and the generator options are mutually exclusive")
        economy, source = load_economy_file(file_path), {"file": file_path}
    else:
        economy, source = _generated(seed, n_consumers, n_goods, _parse_mix(mix_text),
                                     supply_total)
    space = unit_box(economy.n_goods) if space_name == "box" else simplex(economy.n_goods)
    echo = {"command": "economy", "space": space_name, **source}
    return _run_prices(economy, space, echo, seed=seed, **opts)[1]


_VI_EXAMPLES = {
    "rotation": {
        "operator": rotation_operator,
        "lo": (-10.0, -10.0),
        "hi": (10.0, 10.0),
        "x0": (1.0, 0.0),
    },
    "nonminty": {
        "operator": scalar_nonminty_operator,
        "lo": (0.0,),
        "hi": (3.0,),
        "x0": (2.0,),
    },
}


@cli.command("vi-example")
@click.argument("name", type=click.Choice(sorted(_VI_EXAMPLES)))
@click.option("--lo", "lo_text", default=None, help="Box lower bounds, comma-separated.")
@click.option("--hi", "hi_text", default=None, help="Box upper bounds, comma-separated.")
@click.option("--x0", "x0_text", default=None, help="Start point, comma-separated.")
@_solver_options(iters=200, eps=1e-6)
@_run_options("vi")
def vi_example_cmd(name, lo_text, hi_text, x0_text, method, kernel_name, eta, iters, eps,
                   stop_gap, record_every, seed, csv_path, json_path) -> int:
    """Run a named VI example on a box; eps bounds the gap at the best iterate."""
    example = _VI_EXAMPLES[name]
    lo = _parse_vector(lo_text) if lo_text else np.array(example["lo"])
    hi = _parse_vector(hi_text) if hi_text else np.array(example["hi"])
    x0 = _parse_vector(x0_text) if x0_text else np.array(example["x0"])
    problem = VIProblem(set=box(lo, hi), operator=example["operator"](), operator_label=name)
    trace, eta_used = _solve_run(problem, Kernel(kernel_name), eta, iters, x0,
                                 extragradient=method == "extragradient", stop_gap=stop_gap,
                                 record_every=record_every, seed=seed)
    best_gap = float(trace.gaps[trace.best_position])
    final_point = trace.half_points[-1]
    source = {"command": "vi-example", "name": name, "lo": lo.tolist(), "hi": hi.tolist(),
              "x0": x0.tolist()}
    echo = _echo(source, eta_used, method=method, kernel_name=kernel_name, eta=eta,
                 iters=iters, eps=eps, stop_gap=stop_gap, record_every=record_every, seed=seed)
    report = _report(trace, echo, _normalized(trace.best_iterate), (None, None, best_gap),
                     best_gap <= eps)
    report["final_point"] = final_point.tolist()
    report["final_norm"] = float(np.linalg.norm(final_point))
    _write_csv(csv_path, trace)
    _write_json(json_path, report)
    return 0 if best_gap <= eps else 2


@cli.command("sweep")
@click.option("--seeds", "seeds_text", required=True,
              help="Comma-separated list of generator seeds.")
@_generator_options(consumers=50, goods=50)
@_space_option("box")
@_solver_options(iters=50000, record_every=10)
@click.option("--out-dir", default="sweep_out", show_default=True)
def sweep_cmd(seeds_text, n_consumers, n_goods, mix_text, supply_total, space_name, eps,
              out_dir, **opts) -> int:
    """Run one generated economy per seed; aggregate results in one CSV."""
    try:
        seeds = [int(part) for part in seeds_text.split(",") if part.strip() != ""]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {seeds_text!r}")
    if not seeds:
        raise click.UsageError("--seeds must list at least one seed")
    mix = _parse_mix(mix_text)
    # Options every seed shares fail once, before any file is written; seed 0
    # stands in for the seeds, whose own failures stay rows.
    GenSpec(seed=0, n_consumers=n_consumers, n_goods=n_goods, mix=mix,
            supply_total=supply_total)
    SolverConfig(eta=1.0 if opts["eta"] == "auto" else opts["eta"], horizon=opts["iters"],
                 kernel=Kernel(opts["kernel_name"]), record_every=opts["record_every"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["seed,n_consumers,n_goods,converged,iters_to_eps,pathwise_L_max"]
    all_converged = True
    for seed in seeds:
        try:
            economy, source = _generated(seed, n_consumers, n_goods, mix, supply_total)
            n = economy.n_goods
            space = unit_box(n) if space_name == "box" else simplex(n)
            run, code = _run_prices(
                economy, space, {"command": "sweep", "space": space_name, **source},
                eps=eps, seed=seed, csv_path=str(out / f"trace_seed{seed}.csv"),
                json_path=str(out / f"report_seed{seed}.json"), **opts,
            )
            converged = code == 0  # exit code 0 is certificate.passes(eps)
            trace = run.trace
            # A run stops at its first iteration with gap <= eps and records it last.
            row = (int(trace.indices[-1]) if trace.converged else -1, pathwise_modulus(trace))
        except MirrorVIError as exc:
            click.echo(f"seed {seed} failed: {exc}", err=True)
            converged, row = False, (-1, float("nan"))
        rows.append("%d,%d,%d,%s,%d,%.17g"
                    % (seed, n_consumers, n_goods, str(converged).lower(), *row))
        all_converged = all_converged and converged
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    return 0 if all_converged else 2


def main(argv=None) -> int:
    """Entry point returning an exit code (0 pass, 2 not converged, 1 error)."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        return 1
    except (MirrorVIError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
