"""The four benchmark workloads: inputs from a seed, one pass, its checks.

Each workload builds its inputs from the workload seed alone, splits one pass
into units of work against the library, and checks every run the pass made.
A pass is what `wall_s` times; its `items` are solver iterations, or sampled
price points on `certify`. The benchmark times each unit and gauges the
machine's speed between units.

Importing this module imports `mirrorvi` from the checkout's own `src/`
directory and nothing else, so a copy of the benchmark without the library
fails at import instead of measuring some installed package.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "mirrorvi" / "__init__.py").is_file():
    raise ImportError(f"no mirrorvi sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import mirrorvi.cli as cli  # noqa: E402
import mirrorvi.economy as economy  # noqa: E402
import mirrorvi.gen as gen  # noqa: E402
import mirrorvi.tatonnement as tatonnement  # noqa: E402
import mirrorvi.vi as vi  # noqa: E402
from mirrorvi.kernels import squared_euclidean, unit_box  # noqa: E402

if Path(cli.__file__).resolve().parent != SRC / "mirrorvi":
    raise ImportError(f"mirrorvi was imported from {cli.__file__}, not from {SRC}")

EPS = 1e-3
MIX = {"cobb_douglas": 0.25, "leontief": 0.25, "ces_substitutes": 0.25, "ces_complements": 0.25}
MIX_TEXT = ",".join(f"{kind}={share!r}" for kind, share in MIX.items())
CENTER = np.ones(3) / 3.0

#: scarf: (kernel, method) of the four runs in one pass.
SCARF_RUNS = (
    ("euclidean", "extragradient"),
    ("euclidean", "gradient"),
    ("entropy", "extragradient"),
    ("entropy", "gradient"),
)
SCARF_ETA = 0.05
#: Enough for the slowest case, entropy extragradient from the farthest
#: allowed start, to come within 5.1e-4 of equal prices.
SCARF_HORIZON = 6000
#: Starts are CENTER + SCARF_START_SCALE * (Dirichlet(1, 1, 1) - CENTER), so
#: they lie at most 0.204 from the center, inside the orbit (distance >= 0.41)
#: that the plain method settles on.
SCARF_START_SCALE = 0.25

#: desk_sweep: economies per pass. The iteration count to 1e-3 varies about
#: 33% between economies; over 40 of them a pass's total varies about 5%
#: between seeds.
SWEEP_ECONOMIES = 40
SWEEP_CALLS = 4
SWEEP_SIZE = 50
SWEEP_HORIZON = 50000
SWEEP_RECORD_EVERY = 10

LEONTIEF_SIZE = 500
LEONTIEF_ECONOMY_SEED = 0
LEONTIEF_HORIZON = 200000
LEONTIEF_RECORD_EVERY = 100

CERTIFY_ECONOMIES = 4
CERTIFY_CONSUMERS = 10
CERTIFY_GOODS = 5
MINTY_DRAWS = 1000
MINTY_TOL = 1e-8
PROBE_PAIRS = 32
WARP_PAIRS = 64
WGS_PAIRS = 64
ELASTICITY_PAIRS = 8


@dataclass
class PassResult:
    """What one pass did: its item and iteration counts and its checked runs."""

    items: int
    iters: int | None
    checks: list[tuple[str, bool]] = field(default_factory=list)


class RunCapture:
    """Keeps the PriceRun of every CLI solve, for checks the reports cannot make.

    It replaces `mirror_extratatonnement` and `mirror_tatonnement` in the
    namespace of `mirrorvi.cli`, which costs one Python call per solve.
    """

    NAMES = ("mirror_extratatonnement", "mirror_tatonnement")

    def __init__(self) -> None:
        self.runs: list = []
        self._saved: dict[str, object] = {}

    def install(self) -> None:
        for name in self.NAMES:
            original = getattr(cli, name)
            self._saved[name] = original
            setattr(cli, name, self._wrap(original))

    def uninstall(self) -> None:
        for name, original in self._saved.items():
            setattr(cli, name, original)
        self._saved.clear()

    def _wrap(self, fn):
        def captured(*args, **kwargs):
            run = fn(*args, **kwargs)
            self.runs.append(run)
            return run

        return captured


def solver_iterations(trace, horizon: int) -> int:
    """Iterations a solve executed: up to the stopping record, else the horizon."""
    return int(trace.indices[-1]) + 1 if trace.converged else horizon


def fingerprint(*parts) -> str:
    """Digest of the arrays and numbers that make up a workload's inputs."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.ascontiguousarray(np.asarray(part, dtype=float)).tobytes())
    return digest.hexdigest()[:16]


def _economy_arrays(econ) -> list[np.ndarray]:
    return [np.concatenate([c.valuations, c.endowment]) for c in econ.consumers]


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _replay_argv(echo: dict, out: Path) -> list[str]:
    """The CLI arguments that rerun a report's `config_echo`."""
    if echo["command"] == "scarf":
        argv = ["scarf", "--space", echo["space"], "--lo", repr(echo["lo"]),
                "--p0", ",".join(repr(v) for v in echo["p0"])]
    else:
        spec = echo["generator"]
        argv = ["economy", "--space", echo["space"],
                "--consumers", str(spec["n_consumers"]), "--goods", str(spec["n_goods"]),
                "--mix", ",".join(f"{k}={v!r}" for k, v in spec["mix"].items()),
                "--supply-total", repr(spec["supply_total"])]
    eta = echo["eta"]
    argv += ["--kernel", echo["kernel"], "--method", echo["method"],
             "--eta", eta if isinstance(eta, str) else repr(eta),
             "--iters", str(echo["horizon"]), "--eps", repr(echo["eps"]),
             "--record-every", str(echo["record_every"]), "--seed", str(echo["seed"]),
             "--csv", str(out / "replay.csv"), "--json", str(out / "replay.json")]
    argv += ["--no-stop"] if echo["stop_gap"] is None else ["--stop-gap", repr(echo["stop_gap"])]
    return argv


def replay_check(report_path: Path, out: Path) -> tuple[str, bool]:
    """Rerun a report's `config_echo`; its `best_prices` must repeat bit-exactly."""
    report = json.loads(report_path.read_text())
    code = cli.main(_replay_argv(report["config_echo"], out))
    replayed = json.loads((out / "replay.json").read_text())
    ok = code in (0, 2) and replayed["best_prices"] == report["best_prices"]
    return f"replay {report_path.name}", ok


class Scarf:
    """`mirrorvi scarf` on the built-in 3-good economy, all four method x kernel runs."""

    name = "scarf"
    REFERENCE_PARTS = ("small", "calls")

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        return [
            CENTER + SCARF_START_SCALE * (rng.dirichlet(np.ones(3)) - CENTER)
            for _ in SCARF_RUNS
        ]

    def fingerprint(self, starts) -> str:
        return fingerprint(*starts)

    def units(self, starts, seed: int, out: Path, capture: RunCapture):
        def unit(i, kernel, method, p0):
            before = len(capture.runs)
            code = cli.main([
                "scarf", "--space", "simplex", "--kernel", kernel, "--method", method,
                "--eta", repr(SCARF_ETA), "--iters", str(SCARF_HORIZON), "--no-stop",
                "--record-every", "1", "--seed", str(seed),
                "--p0", ",".join(repr(float(v)) for v in p0),
                "--csv", str(out / f"trace_{i}.csv"), "--json", str(out / f"report_{i}.json"),
            ])
            return code, capture.runs[before] if len(capture.runs) > before else None

        return [lambda i=i, k=k, m=m, p0=p0: unit(i, k, m, p0)
                for i, ((k, m), p0) in enumerate(zip(SCARF_RUNS, starts))]

    def check(self, starts, outcomes, out: Path) -> PassResult:
        result = PassResult(items=0, iters=0)
        for i, ((kernel, method), p0, (code, run)) in enumerate(zip(SCARF_RUNS, starts, outcomes)):
            label = f"scarf {kernel} {method} run {i}"
            if code == 1 or run is None:
                result.checks.append((label, False))
                continue
            result.iters += solver_iterations(run.trace, SCARF_HORIZON)
            if method == "extragradient":
                best = np.array(json.loads((out / f"report_{i}.json").read_text())["best_prices"])
                ok = float(np.abs(best - CENTER).max()) <= EPS
            else:
                final = run.trace.iterates[-1][2]
                ok = np.linalg.norm(final - CENTER) > np.linalg.norm(p0 - CENTER)
            result.checks.append((label, bool(ok)))
        result.items = result.iters
        return result

    def replay(self, seed: int, out: Path) -> tuple[str, bool]:
        return replay_check(out / f"report_{seed % len(SCARF_RUNS)}.json", _fresh(out / "replay"))


class DeskSweep:
    """`mirrorvi sweep` with the criterion-09 recipe on 50x50 mixed economies.

    A pass is SWEEP_CALLS sweeps of SWEEP_ECONOMIES / SWEEP_CALLS seeds each,
    criterion 09's ten seeds per sweep.
    """

    name = "desk_sweep"
    REFERENCE_PARTS = ("block",)

    def seeds(self, seed: int) -> list[int]:
        return [SWEEP_ECONOMIES * seed + i for i in range(SWEEP_ECONOMIES)]

    def _parts(self, seed: int) -> list[list[int]]:
        seeds = self.seeds(seed)
        size = SWEEP_ECONOMIES // SWEEP_CALLS
        return [seeds[k:k + size] for k in range(0, SWEEP_ECONOMIES, size)]

    def build(self, seed: int):
        return [
            gen.generate_economy(gen.GenSpec(seed=s, n_consumers=SWEEP_SIZE,
                                             n_goods=SWEEP_SIZE, mix=MIX))
            for s in self.seeds(seed)
        ]

    def fingerprint(self, economies) -> str:
        return fingerprint(*(a for econ in economies for a in _economy_arrays(econ)))

    def units(self, economies, seed: int, out: Path, capture: RunCapture):
        def unit(seeds):
            first = len(capture.runs)
            code = cli.main([
                "sweep", "--seeds", ",".join(str(s) for s in seeds),
                "--consumers", str(SWEEP_SIZE), "--goods", str(SWEEP_SIZE), "--mix", MIX_TEXT,
                "--space", "box", "--kernel", "euclidean", "--eta", "auto",
                "--iters", str(SWEEP_HORIZON), "--eps", repr(EPS),
                "--record-every", str(SWEEP_RECORD_EVERY), "--out-dir", str(out),
            ])
            return code, seeds, capture.runs[first:]

        return [lambda part=part: unit(part) for part in self._parts(seed)]

    def check(self, economies, outcomes, out: Path) -> PassResult:
        result = PassResult(items=0, iters=0)
        for code, seeds, runs in outcomes:
            result.iters += sum(solver_iterations(run.trace, SWEEP_HORIZON) for run in runs)
            if code == 1:
                result.checks.append((f"sweep of seeds {seeds[0]}-{seeds[-1]} exit code", False))
            for s in seeds:
                path = out / f"report_seed{s}.json"
                ok = path.is_file()
                if ok:
                    report = json.loads(path.read_text())
                    cert = report["certificate"]
                    ok = (report["converged"] is True and cert["eps_feasibility"] <= EPS
                          and cert["walras_residual"] <= EPS)
                result.checks.append((f"desk_sweep economy seed {s}", ok))
        result.items = result.iters
        return result

    def replay(self, seed: int, out: Path) -> tuple[str, bool]:
        s = self.seeds(seed)[seed % SWEEP_ECONOMIES]
        return replay_check(out / f"report_seed{s}.json", _fresh(out / "replay"))


class Leontief500:
    """`mirror_extratatonnement` on the criterion-09 smoke economy (500x500 Leontief)."""

    name = "leontief_500"
    REFERENCE_PARTS = ("square",)

    def build(self, seed: int):
        econ = gen.generate_economy(gen.GenSpec(
            seed=LEONTIEF_ECONOMY_SEED, n_consumers=LEONTIEF_SIZE, n_goods=LEONTIEF_SIZE,
            mix={"leontief": 1.0}))
        space = unit_box(LEONTIEF_SIZE)
        return econ, space, gen.initial_prices(seed, space)

    def fingerprint(self, inputs) -> str:
        econ, _, p0 = inputs
        return fingerprint(p0, *_economy_arrays(econ))

    def units(self, inputs, seed: int, out: Path, capture: RunCapture):
        econ, space, p0 = inputs
        return [lambda: tatonnement.mirror_extratatonnement(
            econ, space, squared_euclidean(), "auto", LEONTIEF_HORIZON, p0,
            stop_gap=EPS, record_every=LEONTIEF_RECORD_EVERY, seed=seed)]

    def check(self, inputs, outcomes, out: Path) -> PassResult:
        econ = inputs[0]
        (run,) = outcomes
        iters = solver_iterations(run.trace, LEONTIEF_HORIZON)
        best = run.trace.best_iterate
        z = econ.excess(best)
        ok = (run.certificate.passes(EPS) and max(float(z.max()), 0.0) <= EPS
              and abs(float(best.dot(z))) <= EPS)
        return PassResult(items=iters, iters=iters, checks=[("leontief_500 certificate", ok)])

    def replay(self, seed: int, out: Path):
        return None


class Certify:
    """Sampled certificates and market diagnostics on 10x5 mixed economies."""

    name = "certify"
    REFERENCE_PARTS = ("small", "calls")
    #: Price points one economy's samplers evaluate, fixed by their parameters.
    POINTS = (MINTY_DRAWS + 2 * PROBE_PAIRS + 2 * WARP_PAIRS + 2 * WGS_PAIRS
              + ELASTICITY_PAIRS * (1 + 4 * CERTIFY_GOODS))

    def seeds(self, seed: int) -> list[int]:
        return [CERTIFY_ECONOMIES * seed + i for i in range(CERTIFY_ECONOMIES)]

    def build(self, seed: int):
        return [
            (s, gen.generate_economy(gen.GenSpec(seed=s, n_consumers=CERTIFY_CONSUMERS,
                                                 n_goods=CERTIFY_GOODS, mix=MIX)))
            for s in self.seeds(seed)
        ]

    def fingerprint(self, inputs) -> str:
        return fingerprint([s for s, _ in inputs],
                           *(a for _, e in inputs for a in _economy_arrays(e)))

    def units(self, inputs, seed: int, out: Path, capture: RunCapture):
        space = unit_box(CERTIFY_GOODS)

        def unit(s, econ):
            problem = vi.VIProblem(space, lambda p: -econ.excess(p), "-Z")
            violation, _ = vi.minty_certificate(problem, np.zeros(CERTIFY_GOODS), MINTY_DRAWS, s)
            modulus = tatonnement.probe_modulus(problem, squared_euclidean(), PROBE_PAIRS, s)
            warp = economy.check_warp_sample(econ, WARP_PAIRS, s)
            wgs = economy.check_wgs_sample(econ, WGS_PAIRS, s)
            elasticity = economy.elasticity_bound_estimate(econ, ELASTICITY_PAIRS, s)
            return s, violation, modulus, warp, wgs, elasticity

        return [lambda s=s, econ=econ: unit(s, econ) for s, econ in inputs]

    def check(self, inputs, outcomes, out: Path) -> PassResult:
        checks = []
        for s, violation, modulus, warp, wgs, elasticity in outcomes:
            ok = (violation <= MINTY_TOL and np.isfinite(modulus) and modulus > 0.0
                  and 0 <= warp <= WARP_PAIRS and 0 <= wgs
                  and np.isfinite(elasticity) and elasticity >= 0.0)
            checks.append((f"certify economy seed {s}", bool(ok)))
        return PassResult(items=self.POINTS * len(outcomes), iters=None, checks=checks)

    def replay(self, seed: int, out: Path):
        return None


WORKLOADS = {w.name: w for w in (Scarf(), DeskSweep(), Leontief500(), Certify())}
