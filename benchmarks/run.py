"""mirrorvi benchmark: time to a certified equilibrium, end to end and per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload scarf --seed 0 --seconds 20 --trace 0

Workloads: scarf, desk_sweep, leontief_500, certify (see benchmarks/README.md).
One caller runs passes back to back (closed loop, single process). With
`--trace 0` every pass is untraced and the last line of standard output is a
JSON object with the end-to-end metrics. With `--trace 1` half the time runs
untraced and half traced, and the JSON carries the per-layer metrics and the
tracing overhead. Every run made is checked; a run that fails is counted in
`failed`, listed on standard error, and makes `correct` false.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the load is single-threaded Python, and a second thread
# only adds scheduling noise on a shared machine. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
#: A reference burst runs before a phase's first unit of work and after every
#: unit. It lasts REFERENCE_SHARE of the unit before it (REFERENCE_FIRST_S for
#: the first), and at least REFERENCE_MIN_CALLS reference calls.
REFERENCE_SHARE = 0.05
REFERENCE_FIRST_S = 0.05
REFERENCE_MIN_CALLS = 5

#: Declared in BENCHMARK.json: printed in the JSON line with --trace 0.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "items_per_ref": "1/ref", "peak_rss_mb": "MB"}
#: Declared in BENCHMARK.json: printed in the JSON line with --trace 1. Each
#: is defined on every workload (a count of zero calls is a measured zero).
PER_LAYER = {
    "economy.excess.calls": "count",
    "economy.excess.self_s": "s",
    "economy.excess.us_per_call": "us",
    "economy.excess.mb_computed_per_call": "MB",
    "vi.evaluate.self_s": "s",
    "kernels.mirror_step.calls": "count",
    "kernels.bregman_divergence.calls": "count",
    "kernels.bregman_divergence.self_s": "s",
    "tatonnement.post_solve.evals": "count",
    "tatonnement.auto_step_size.evals": "count",
    "tatonnement.backoffs": "count",
    "vi.iters": "count",
    "vi.minty_certificate.points": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}
#: Counts that must repeat exactly between traced passes at one seed.
EXACT_COUNTS = ("economy.excess.calls", "vi.iters", "tatonnement.backoffs")
#: Units of per-layer counts, reported from the first traced pass (the
#: self-check requires the key counts to repeat); every other per-layer value
#: is the median over traced passes.
COUNT_UNITS = ("count", "bytes")


def unit_of(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("mb_computed_per_call"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above its rank."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def environment() -> dict:
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                threads = int(getter())
                break
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "note": "numbers from different machines are not comparable",
    }


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import mirrorvi.cli and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return times


class Reference:
    """Fixed loops, independent of mirrorvi, that gauge the machine's current speed.

    On a shared machine the speed of the same code drifts by 20% or more over
    seconds to minutes. Timing a loop between units of work, and dividing
    each unit's time by it, gives costs that drift far less, provided the
    loop does the same kind of work as the unit: each workload names the
    parts it uses (`REFERENCE_PARTS`).
    """

    def __init__(self, parts: tuple[str, ...]) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.block = rng.uniform(size=(12, 50))
        self.square = rng.uniform(size=(500, 500))
        self.prices = rng.uniform(size=500)
        self.parts = [getattr(self, f"_{name}") for name in parts]

    def _small(self) -> None:
        """numpy ufuncs on a 50-element array."""
        x = self.np.linspace(0.0, 1.0, 50)
        for _ in range(150):
            x = self.np.sqrt(x * x + 1.0) - 0.5

    def _calls(self) -> None:
        """Python calls on a 3-element array, as in a solver loop on a tiny problem."""
        np = self.np
        p = np.array([0.5, 0.3, 0.2])
        for _ in range(300):
            p = np.maximum(p, 1e-8) / p.sum()
            float(p.dot(p))
            np.linalg.norm(p)

    def _block(self) -> None:
        """Row-wise log-sum-exp over a 12x50 block, as in the CES demand."""
        np = self.np
        for _ in range(40):
            shifted = self.block - self.block.max(axis=1, keepdims=True)
            np.log(np.exp(shifted).sum(axis=1))

    def _square(self) -> None:
        """A 500x500 matrix-vector product, then scaling, clipping and summing into
        fresh arrays, as in the Leontief demand."""
        scale = self.square.dot(self.prices) / self.prices.sum()
        self.np.minimum(self.square * scale[:, None], 0.5).sum(axis=0)

    def once(self) -> None:
        for part in self.parts:
            part()

    def burst(self, seconds: float) -> float:
        """Median time of one reference call over a burst of about `seconds`."""
        times = []
        begin = time.perf_counter()
        while len(times) < REFERENCE_MIN_CALLS or time.perf_counter() - begin < seconds:
            start = time.perf_counter()
            self.once()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class Measurement:
    """Passes of one phase: times, costs in reference units, results and failures."""

    def __init__(self) -> None:
        #: Seconds per pass: the sum of its units' times.
        self.durations: list[float] = []
        #: Cost per pass: the sum over its units of unit time divided by the
        #: mean of the reference bursts just before and just after the unit.
        self.relative: list[float] = []
        self.references: list[float] = []
        self.results = []
        self.attempted = 0
        self.failures: list[str] = []

    def record_checks(self, checks) -> None:
        for label, ok in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(label)


def measure(work, inputs, seed: int, out: Path, capture, reference: Reference, budget: float,
            min_passes: int, into: Measurement, tracer=None) -> None:
    """Run passes back to back until the next one would overrun `budget` seconds."""
    from workloads import _fresh

    begin = time.perf_counter()
    before = reference.burst(REFERENCE_FIRST_S)
    while True:
        pass_dir = _fresh(out / "pass")
        if tracer is not None:
            tracer.pass_id = len(into.durations)
        duration = relative = 0.0
        outcomes = []
        try:
            for unit in work.units(inputs, seed, pass_dir, capture):
                if tracer is not None:
                    tracer.active = True
                start = time.perf_counter()
                try:
                    outcomes.append(unit())
                finally:
                    elapsed = time.perf_counter() - start
                    if tracer is not None:
                        tracer.active = False
                after = reference.burst(REFERENCE_SHARE * elapsed)
                into.references.append(after)
                duration += elapsed
                relative += elapsed / ((before + after) / 2)
                before = after
        except Exception:
            # A pass that raises is a failed run: count it, show why, go on.
            traceback.print_exc()
            outcomes = None
        capture.runs.clear()
        if outcomes is None:
            into.attempted += 1
            into.failures.append(f"{work.name} pass {len(into.durations)} raised")
            result = None
        else:
            result = work.check(inputs, outcomes, pass_dir)
            into.record_checks(result.checks)
        into.durations.append(duration)
        into.relative.append(relative)
        into.results.append(result)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(into.durations)
        if len(into.durations) >= min_passes and elapsed + typical > budget:
            return


def end_to_end(work, setup: list[float], phase: Measurement) -> dict:
    results = [r for r in phase.results if r is not None]
    rates = [r.items / d for r, d in zip(phase.results, phase.durations) if r is not None]
    relative = phase.relative
    rates_ref = [r.items / d for r, d in zip(phase.results, relative) if r is not None]
    iters = sorted({r.iters for r in results}) if results else []
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(phase.durations),
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "reference_s": statistics.median(phase.references),
        "wall_ref": statistics.median(relative),
        "items_per_ref": statistics.median(rates_ref) if rates_ref else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iters_to_eps": iters,
    }


def layer_report(tracer, untraced: Measurement, traced: Measurement) -> dict:
    per_pass = [tracer.layer_metrics(i) for i in range(len(traced.durations))]
    report = {}
    for name, value in per_pass[0].items():
        if name == "spans" or unit_of(name) in COUNT_UNITS:
            report[name] = value
        else:
            values = [m[name] for m in per_pass if m[name] is not None]
            report[name] = statistics.median(values) if values else None
    report["gen.generate_economy.s"] = tracer.layer_metrics(-1)["gen.generate_economy.s"]
    report["trace.overhead_frac"] = (
        statistics.median(traced.relative) / statistics.median(untraced.relative) - 1.0)
    return report, per_pass


def self_check(work, seed: int, inputs, layers: dict, per_pass: list, phases) -> list[str]:
    """The benchmark's own checks; each message returned is a failure."""
    problems = []
    for name in EXACT_COUNTS:
        seen = {m[name] for m in per_pass}
        if len(seen) != 1:
            problems.append(f"{name} differs between traced passes: {sorted(seen)}")
    iters = {r.iters for phase in phases for r in phase.results if r is not None}
    if len(iters) != 1:
        problems.append(f"iters_to_eps differs between passes: {sorted(iters, key=str)}")
    elif work.name != "certify" and iters != {layers["vi.iters"]}:
        problems.append(f"iters_to_eps {iters} != traced vi.iters {layers['vi.iters']}")
    if work.fingerprint(inputs) == work.fingerprint(work.build(seed + 1)):
        problems.append(f"seeds {seed} and {seed + 1} give identical inputs")
    for name in PER_LAYER:
        if layers.get(name) is None:
            problems.append(f"declared per-layer metric {name} was not measured")
    return problems


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scarf", "desk_sweep", "leontief_500", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import workloads
    except ImportError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer

    work = workloads.WORKLOADS[args.workload]
    setup = time_setup(args.workload, args.seed)
    inputs = work.build(args.seed)
    out = workloads._fresh(WORK / args.workload)
    capture = workloads.RunCapture()
    capture.install()

    untraced = Measurement()
    traced = Measurement()
    tracer = None
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    reference = Reference(work.REFERENCE_PARTS)
    measure(work, inputs, args.seed, out, capture, reference, budget,
            2 if args.trace == 0 else 1, untraced)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        traced_inputs = work.build(args.seed)
        tracer.active = False
        measure(work, traced_inputs, args.seed, out, capture, reference, budget, 2, traced,
                tracer)

    checks = Measurement()
    try:
        replay = work.replay(args.seed, out / "pass")
    except Exception:
        traceback.print_exc()
        replay = (f"{work.name} replay raised", False)
    if replay is not None:
        checks.record_checks([replay])

    problems = []
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers, per_pass = layer_report(tracer, untraced, traced)
        problems = self_check(work, args.seed, inputs, layers, per_pass, (untraced, traced))
        checks.record_checks([("self-check", not problems)])
        tracer.write(WORK / f"{args.workload}-seed{args.seed}-spans.npz")
    capture.uninstall()
    e2e = end_to_end(work, setup, untraced)
    attempted = untraced.attempted + traced.attempted + checks.attempted
    failures = untraced.failures + traced.failures + checks.failures

    env = environment()
    print(f"# mirrorvi benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# closed loop, one caller, one process; passes run back to back")
    for key, value in env.items():
        print(f"env {key}: {value}")
    tail = tail_percentile(untraced.durations)
    iters = e2e["iters_to_eps"]
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(setup)} fresh interpreters"),
        ("wall_s", e2e["wall_s"], "s", f"median of {len(untraced.durations)} untraced passes"),
        ("wall_s.tail", tail[1] if tail else None, "s",
         f"p{tail[0]} of {len(untraced.durations)} passes" if tail else
         f"no percentile has 10 samples above it in {len(untraced.durations)} passes"),
        ("items_per_s", e2e["items_per_s"], "1/s",
         "sampled price points per second" if work.name == "certify"
         else "solver iterations per second"),
        ("reference_s", e2e["reference_s"], "s", "median reference-loop call"),
        ("wall_ref", e2e["wall_ref"], "ref",
         "median over passes of the sum of unit time / reference-loop time around it"),
        ("items_per_ref", e2e["items_per_ref"], "1/ref", "items per reference-loop time"),
        ("iters_to_eps", iters[0] if len(iters) == 1 else None, "count",
         "not applicable: certify runs no solver" if work.name == "certify"
         else "total solver iterations in one pass"),
        ("fail_frac", len(failures) / attempted if attempted else None, "ratio",
         f"{len(failures)} of {attempted} checked runs failed"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "peak resident memory of this process"),
    ]
    for name, value, unit, note in rows:
        print(f"metric {name} = {fmt(value)} {unit}  ({note})")
    print("passes untraced_s:", " ".join(f"{d:.4f}" for d in untraced.durations))
    if traced.durations:
        print("passes traced_s:", " ".join(f"{d:.4f}" for d in traced.durations))
    if layers is not None:
        print(f"# per-layer, traced: {len(traced.durations)} passes; counts per pass, "
              "times are medians over passes; n/a = layer not reached on this workload")
        for name, value in layers.items():
            print(f"layer {name} = {fmt(value)} {unit_of(name)}")
        for problem in problems:
            print(f"self-check FAILED: {problem}")
        print(f"self-check: {'passed' if not problems else 'FAILED'}")
    for label in failures:
        print(f"FAILED run: {label}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": layers[name] if layers[name] is not None else 0,
                          "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
