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

import json
import sys
from pathlib import Path

import click
import numpy as np

from .economy import Consumer, ExchangeEconomy, ScarfEconomy
from .errors import DegenerateSolution, InsufficientData, InvalidInput, MirrorVIError
from .gen import GenSpec, generate_economy, initial_prices
from .kernels import FeasibleSet, box, negative_entropy, simplex, squared_euclidean
from .tatonnement import (
    PriceRun,
    mirror_extratatonnement,
    mirror_tatonnement,
    resolve_step_size,
    scale_to_equilibrium,
)
from .vi import (
    RunTrace,
    SolverConfig,
    VIProblem,
    gap,
    mirror_extragradient_solve,
    mirror_gradient_solve,
    pathwise_modulus,
    rate_slope,
    rotation_operator,
    scalar_nonminty_operator,
)

CSV_HEADER = "iter,gap,feas_violation,walras_residual,breg_progress,pathwise_L,elapsed_s"

DEFAULT_MIX = "cobb_douglas=0.25,leontief=0.25,ces_substitutes=0.25,ces_complements=0.25"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_eta(text: str):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise click.BadParameter(f"eta must be a number or 'auto', got {text!r}")
    if value <= 0.0:
        raise click.BadParameter(f"eta must be positive, got {value}")
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


def _kernel_for(name: str):
    return squared_euclidean() if name == "euclidean" else negative_entropy()


def _write_csv(path: str, trace: RunTrace, feasibility=None, walras=None) -> None:
    rows = [CSV_HEADER]
    for i, (k, _, _) in enumerate(trace.iterates):
        feas = feasibility[i] if feasibility is not None else float("nan")
        res = walras[i] if walras is not None else float("nan")
        rows.append(
            ",".join(
                [
                    str(k),
                    _fmt(trace.gaps[i]),
                    _fmt(feas),
                    _fmt(res),
                    _fmt(trace.divergences[i]),
                    _fmt(trace.modulus_samples[i]),
                    _fmt(trace.elapsed[i]),
                ]
            )
        )
    Path(path).write_text("\n".join(rows) + "\n")


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _maybe_rate_slope(trace: RunTrace) -> float | None:
    try:
        return rate_slope(trace)
    except InsufficientData:
        return None


def _price_report(run: PriceRun, config_echo: dict, eps: float) -> dict:
    cert = run.certificate
    report = {
        "config_echo": config_echo,
        "best_iter": int(run.trace.best_index),
        "best_prices": [float(v) for v in run.trace.best_iterate],
        "normalized_equilibrium": (
            None
            if run.normalized_equilibrium is None
            else [float(v) for v in run.normalized_equilibrium]
        ),
        "certificate": {
            "eps_feasibility": cert.eps_feasibility,
            "walras_residual": cert.walras_residual,
            "gap": cert.gap_value,
        },
        "pathwise_L_max": pathwise_modulus(run.trace),
        "rate_slope": _maybe_rate_slope(run.trace),
        "converged": cert.passes(eps),
    }
    if run.minty_violation is not None:
        report["minty_violation"] = run.minty_violation
    return report


def _run_prices(economy, space: FeasibleSet, method: str, kernel_name: str, eta, iters: int,
                eps: float, stop_gap, no_stop: bool, record_every: int, seed: int,
                p0_text: str | None, csv_path: str, json_path: str,
                config_echo: dict) -> tuple[PriceRun, int]:
    """Run, write the CSV trace and JSON report; return the run and its exit code."""
    kernel = _kernel_for(kernel_name)
    p0 = _parse_vector(p0_text) if p0_text else initial_prices(seed, space)
    stop = None if no_stop else (eps if stop_gap is None else stop_gap)
    runner = mirror_extratatonnement if method == "extragradient" else mirror_tatonnement
    run = runner(
        economy, space, kernel, eta, iters, p0,
        stop_gap=stop, record_every=record_every, seed=seed,
    )
    config_echo = dict(
        config_echo,
        method=method,
        kernel=kernel_name,
        eta="auto" if isinstance(eta, str) else eta,
        eta_used=run.eta,
        horizon=iters,
        eps=eps,
        stop_gap=stop,
        record_every=record_every,
        seed=seed,
        p0=[float(v) for v in p0],
    )
    _write_csv(csv_path, run.trace, run.feasibility_series, run.walras_series)
    _write_json(json_path, _price_report(run, config_echo, eps))
    return run, 0 if run.certificate.passes(eps) else 2


@click.group()
def cli() -> None:
    """Mirror-extragradient solvers for variational inequalities and markets."""


@cli.command("scarf")
@click.option("--space", "space_name", type=click.Choice(["box", "simplex"]), default="simplex",
              show_default=True, help="Price space: the unit simplex or a box [lo, 1]^3.")
@click.option("--kernel", "kernel_name", type=click.Choice(["euclidean", "entropy"]),
              default="euclidean", show_default=True)
@click.option("--method", type=click.Choice(["extragradient", "gradient"]),
              default="extragradient", show_default=True)
@click.option("--eta", default="auto", show_default=True,
              help="Step size, a positive number or 'auto' (probed).")
@click.option("--iters", type=int, default=5000, show_default=True)
@click.option("--eps", type=float, default=1e-3, show_default=True,
              help="Certificate tolerance; also the default early-stop gap.")
@click.option("--stop-gap", type=float, default=None, help="Early-stop gap (defaults to eps).")
@click.option("--no-stop", is_flag=True, help="Disable early stopping (fixed horizon).")
@click.option("--lo", type=float, default=0.1, show_default=True,
              help="Box lower bound (box mode only).")
@click.option("--p0", "p0_text", default=None, help="Initial prices, comma-separated.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--record-every", type=int, default=1, show_default=True)
@click.option("--csv", "csv_path", default="scarf_trace.csv", show_default=True)
@click.option("--json", "json_path", default="scarf_report.json", show_default=True)
def scarf_cmd(space_name, kernel_name, method, eta, iters, eps, stop_gap, no_stop, lo,
              p0_text, seed, record_every, csv_path, json_path) -> int:
    """Price adjustment on the fixed 3-good economy."""
    economy = ScarfEconomy()
    if space_name == "box":
        space = box(np.full(3, lo), np.ones(3))
    else:
        space = simplex(3)
    echo = {"command": "scarf", "space": space_name, "lo": lo}
    return _run_prices(economy, space, method, kernel_name, _parse_eta(eta), iters, eps,
                       stop_gap, no_stop, record_every, seed, p0_text, csv_path, json_path,
                       echo)[1]


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
                np.asarray(entry["valuations"], dtype=float),
                np.asarray(entry["endowment"], dtype=float),
                None if entry.get("rho") is None else float(entry["rho"]),
            )
            for entry in data["consumers"]
        ]
        kwargs = {
            key: float(data[key]) for key in ("demand_cap_factor", "price_floor") if key in data
        }
        n_goods = int(data["n_goods"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"{path} does not follow the economy schema: {exc!r}") from exc
    consumers = [Consumer(*entry) for entry in entries]
    return ExchangeEconomy(consumers=consumers, n_goods=n_goods, **kwargs)


@cli.command("economy")
@click.option("--file", "file_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Economy definition JSON (mutually exclusive with the generator options).")
@click.option("--consumers", "n_consumers", type=int, default=None,
              help="Generator: number of consumers.")
@click.option("--goods", "n_goods", type=int, default=None, help="Generator: number of goods.")
@click.option("--mix", "mix_text", default=None,
              help=f"Generator: utility mix, e.g. '{DEFAULT_MIX}'.")
@click.option("--supply-total", type=float, default=10.0, show_default=True,
              help="Generator: aggregate supply per good.")
@click.option("--space", "space_name", type=click.Choice(["box", "simplex"]), default="box",
              show_default=True)
@click.option("--kernel", "kernel_name", type=click.Choice(["euclidean", "entropy"]),
              default="euclidean", show_default=True)
@click.option("--method", type=click.Choice(["extragradient", "gradient"]),
              default="extragradient", show_default=True)
@click.option("--eta", default="auto", show_default=True)
@click.option("--iters", type=int, default=10000, show_default=True)
@click.option("--eps", type=float, default=1e-3, show_default=True)
@click.option("--stop-gap", type=float, default=None)
@click.option("--no-stop", is_flag=True)
@click.option("--p0", "p0_text", default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--record-every", type=int, default=1, show_default=True)
@click.option("--csv", "csv_path", default="economy_trace.csv", show_default=True)
@click.option("--json", "json_path", default="economy_report.json", show_default=True)
def economy_cmd(file_path, n_consumers, n_goods, mix_text, supply_total, space_name,
                kernel_name, method, eta, iters, eps, stop_gap, no_stop, p0_text, seed,
                record_every, csv_path, json_path) -> int:
    """Price adjustment on a JSON-defined or generated exchange economy."""
    generator_opts = [n_consumers, n_goods, mix_text]
    if file_path is not None and any(opt is not None for opt in generator_opts):
        raise click.UsageError("--file and the generator options are mutually exclusive")
    if file_path is not None:
        economy = load_economy_file(file_path)
        source = {"file": file_path}
    else:
        spec = GenSpec(
            seed=seed,
            n_consumers=n_consumers if n_consumers is not None else 10,
            n_goods=n_goods if n_goods is not None else 5,
            mix=_parse_mix(mix_text if mix_text is not None else DEFAULT_MIX),
            supply_total=supply_total,
        )
        economy = generate_economy(spec)
        source = {
            "generator": {
                "seed": spec.seed,
                "n_consumers": spec.n_consumers,
                "n_goods": spec.n_goods,
                "mix": dict(spec.mix),
                "supply_total": spec.supply_total,
            }
        }
    n = economy.n_goods
    space = box(np.zeros(n), np.ones(n)) if space_name == "box" else simplex(n)
    echo = {"command": "economy", "space": space_name, **source}
    return _run_prices(economy, space, method, kernel_name, _parse_eta(eta), iters, eps,
                       stop_gap, no_stop, record_every, seed, p0_text, csv_path, json_path,
                       echo)[1]


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
@click.option("--method", type=click.Choice(["extragradient", "gradient"]),
              default="extragradient", show_default=True)
@click.option("--kernel", "kernel_name", type=click.Choice(["euclidean", "entropy"]),
              default="euclidean", show_default=True)
@click.option("--eta", default="auto", show_default=True)
@click.option("--iters", type=int, default=200, show_default=True)
@click.option("--eps", type=float, default=1e-6, show_default=True,
              help="Pass threshold on the gap at the best iterate.")
@click.option("--stop-gap", type=float, default=None, help="Optional early-stop gap.")
@click.option("--lo", "lo_text", default=None, help="Box lower bounds, comma-separated.")
@click.option("--hi", "hi_text", default=None, help="Box upper bounds, comma-separated.")
@click.option("--x0", "x0_text", default=None, help="Start point, comma-separated.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--record-every", type=int, default=1, show_default=True)
@click.option("--csv", "csv_path", default="vi_trace.csv", show_default=True)
@click.option("--json", "json_path", default="vi_report.json", show_default=True)
def vi_example_cmd(name, method, kernel_name, eta, iters, eps, stop_gap, lo_text, hi_text,
                   x0_text, seed, record_every, csv_path, json_path) -> int:
    """Run a named VI example on a box."""
    example = _VI_EXAMPLES[name]
    lo = _parse_vector(lo_text) if lo_text else np.array(example["lo"])
    hi = _parse_vector(hi_text) if hi_text else np.array(example["hi"])
    x0 = _parse_vector(x0_text) if x0_text else np.array(example["x0"])
    problem = VIProblem(set=box(lo, hi), operator=example["operator"](), operator_label=name)
    kernel = _kernel_for(kernel_name)
    eta_value = _parse_eta(eta)
    eta_used, backoff = resolve_step_size(problem, kernel, eta_value, seed)
    config = SolverConfig(eta=eta_used, horizon=iters, kernel=kernel,
                          record_every=record_every, stop_gap=stop_gap,
                          modulus_backoff=backoff)
    solve = mirror_extragradient_solve if method == "extragradient" else mirror_gradient_solve
    trace = solve(problem, config, x0)
    best_gap = gap(problem, trace.best_iterate)
    final_point = trace.iterates[-1][2]
    try:
        normalized = [float(v) for v in scale_to_equilibrium(trace.best_iterate)]
    except DegenerateSolution:
        normalized = None
    echo = {
        "command": "vi-example",
        "name": name,
        "method": method,
        "kernel": kernel_name,
        "eta": "auto" if isinstance(eta_value, str) else eta_value,
        "eta_used": eta_used,
        "horizon": iters,
        "eps": eps,
        "stop_gap": stop_gap,
        "seed": seed,
        "record_every": record_every,
        "lo": [float(v) for v in lo],
        "hi": [float(v) for v in hi],
        "x0": [float(v) for v in x0],
    }
    report = {
        "config_echo": echo,
        "best_iter": int(trace.best_index),
        "best_prices": [float(v) for v in trace.best_iterate],
        "normalized_equilibrium": normalized,
        "certificate": {"eps_feasibility": None, "walras_residual": None, "gap": best_gap},
        "final_point": [float(v) for v in final_point],
        "final_norm": float(np.linalg.norm(final_point)),
        "pathwise_L_max": pathwise_modulus(trace),
        "rate_slope": _maybe_rate_slope(trace),
        "converged": best_gap <= eps,
    }
    _write_csv(csv_path, trace)
    _write_json(json_path, report)
    return 0 if best_gap <= eps else 2


@cli.command("sweep")
@click.option("--seeds", "seeds_text", required=True,
              help="Comma-separated list of generator seeds.")
@click.option("--consumers", "n_consumers", type=int, default=50, show_default=True)
@click.option("--goods", "n_goods", type=int, default=50, show_default=True)
@click.option("--mix", "mix_text", default=DEFAULT_MIX, show_default=True)
@click.option("--supply-total", type=float, default=10.0, show_default=True)
@click.option("--space", "space_name", type=click.Choice(["box", "simplex"]), default="box",
              show_default=True)
@click.option("--kernel", "kernel_name", type=click.Choice(["euclidean", "entropy"]),
              default="euclidean", show_default=True)
@click.option("--eta", default="auto", show_default=True)
@click.option("--iters", type=int, default=50000, show_default=True)
@click.option("--eps", type=float, default=1e-3, show_default=True)
@click.option("--record-every", type=int, default=10, show_default=True)
@click.option("--out-dir", default="sweep_out", show_default=True)
def sweep_cmd(seeds_text, n_consumers, n_goods, mix_text, supply_total, space_name,
              kernel_name, eta, iters, eps, record_every, out_dir) -> int:
    """Run one generated economy per seed; aggregate results in one CSV."""
    try:
        seeds = [int(part) for part in seeds_text.split(",") if part.strip() != ""]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {seeds_text!r}")
    if not seeds:
        raise click.UsageError("--seeds must list at least one seed")
    mix = _parse_mix(mix_text)
    eta_value = _parse_eta(eta)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["seed,n_consumers,n_goods,converged,iters_to_eps,pathwise_L_max"]
    all_converged = True
    for seed in seeds:
        try:
            spec = GenSpec(seed=seed, n_consumers=n_consumers, n_goods=n_goods, mix=mix,
                           supply_total=supply_total)
            economy = generate_economy(spec)
            n = economy.n_goods
            space = box(np.zeros(n), np.ones(n)) if space_name == "box" else simplex(n)
            echo = {
                "command": "sweep",
                "space": space_name,
                "generator": {
                    "seed": seed,
                    "n_consumers": n_consumers,
                    "n_goods": n_goods,
                    "mix": mix,
                    "supply_total": supply_total,
                },
            }
            run, code = _run_prices(
                economy, space, "extragradient", kernel_name, eta_value, iters, eps,
                None, False, record_every, seed, None,
                str(out / f"trace_seed{seed}.csv"), str(out / f"report_seed{seed}.json"),
                echo,
            )
            converged = run.certificate.passes(eps)
            trace = run.trace
            iters_to_eps = next(
                (int(k) for k, g in zip(trace.indices, trace.gaps) if g <= eps), -1
            )
            rows.append(
                f"{seed},{n_consumers},{n_goods},{str(converged).lower()},"
                f"{iters_to_eps},{_fmt(pathwise_modulus(trace))}"
            )
            all_converged = all_converged and converged and code == 0
        except MirrorVIError as exc:
            click.echo(f"seed {seed} failed: {exc}", err=True)
            rows.append(f"{seed},{n_consumers},{n_goods},false,-1,nan")
            all_converged = False
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
    except MirrorVIError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
