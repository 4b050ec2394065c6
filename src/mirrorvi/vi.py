"""Variational-inequality problems, mirror solvers, gaps, and certificates.

A problem is a pair (set, F) of a feasible region and a single-valued operator.
Two solvers are provided: the mirror gradient method and the mirror
extragradient method (two prox steps per iteration, both centered at x_k).
Solution quality is measured by the strong gap max_x <F(x_hat), x_hat - x>.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, InsufficientData, InvalidInput, check_count, check_real, check_seed
from .kernels import (
    BOX,
    SIMPLEX,
    FeasibleSet,
    Kernel,
    _check_step,
    _divergence,
    _finite,
    _point,
    _prox,
    _row_dots,
    bregman_divergence,
    mirror_step,  # noqa: F401  (not called here; benchmarks/tracing.py patches vi.mirror_step)
)

#: Steps with divergence at or below this carry no continuity information and
#: are skipped when estimating the pathwise modulus.
DEGENERATE_STEP_TOL = 1e-16

_FLOAT = np.dtype(float)

MIRROR_GRADIENT = "mirror_gradient"
MIRROR_EXTRAGRADIENT = "mirror_extragradient"


def _step_bound(x: float) -> float:
    """1 / (2 * sqrt(2) * x): the step-size premise 2 * eta <= 1/(sqrt(2) * L)
    at equality. For a modulus x it is the largest step; for a step x it is
    the largest modulus that step admits."""
    return 1.0 / (2.0 * math.sqrt(2.0) * x)


def _modulus_samples(deltas, divergences) -> np.ndarray:
    """||F(x') - F(x)|| / sqrt(2 D_h(x', x)) entry by entry (0-d for scalars), 0
    where D_h <= DEGENERATE_STEP_TOL; the square root is taken only above it,
    since an entropy divergence can round slightly below zero."""
    eligible = divergences > DEGENERATE_STEP_TOL
    return np.where(eligible, deltas / np.sqrt(2.0 * np.where(eligible, divergences, 1.0)), 0.0)


@dataclass(frozen=True)
class VIProblem:
    """A variational inequality (set, F) with a single-valued operator.

    The operator is defined on single points. batched=True is its promise to
    also map a (k, n) stack to the (k, n) stack of its values, each row equal
    to its value at that point alone bit for bit; only then is it handed a
    stack (an operator such as `lambda x: A @ x` would return wrong rows).
    """

    set: FeasibleSet
    operator: Callable[[np.ndarray], np.ndarray]
    operator_label: str = "F"
    batched: bool = False

    def evaluate(self, x) -> np.ndarray:
        """F(x) as a float vector; a value that is not real numbers, of a wrong
        shape or not finite is EvaluationError."""
        out = self.operator(np.asarray(x, dtype=float))
        if getattr(out, "dtype", None) is not _FLOAT:
            out = self._real(out)
        if out.shape != (self.set.n,) or not _finite(out):
            self._reject(out, (self.set.n,))
        return out

    def evaluate_many(self, xs) -> np.ndarray:
        """F at every row of a (k, n) stack, as a C-ordered (k, n) float array.

        A batched operator gets the stack in one call, any other one row at a
        time in row order; either way each row equals evaluate at that point,
        and a value that is not real numbers, of a wrong shape or not finite
        is EvaluationError.
        """
        points = np.asarray(xs, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.set.n:
            raise InvalidInput(
                f"points must be a (k, {self.set.n}) stack, got shape {points.shape}")
        if not self.batched:
            out = np.empty(points.shape)
            for i, x in enumerate(points):
                out[i] = self.evaluate(x)
            return out
        out = self.operator(points)
        if getattr(out, "dtype", None) is not _FLOAT:
            out = self._real(out)
        out = np.asarray(out, order="C")
        if out.shape != points.shape or not _finite(out):
            self._reject(out, points.shape)
        return out

    def _real(self, out) -> np.ndarray:
        """An operator value that is not a float64 array, as one; EvaluationError
        unless it holds integers or floats (no bools, strings, complex numbers
        or ragged lists)."""
        try:
            arr = np.asarray(out)
        except ValueError:  # a ragged list
            arr = None
        if arr is None or arr.dtype.kind not in "iuf":
            raise EvaluationError(
                f"operator {self.operator_label!r} returned values that are not real numbers")
        return arr.astype(float)

    def _reject(self, out: np.ndarray, shape: tuple) -> None:
        """Raise EvaluationError for an operator value of the wrong shape or not finite."""
        if out.shape != shape:
            raise EvaluationError(
                f"operator {self.operator_label!r} returned shape {out.shape}, "
                f"expected {shape}"
            )
        raise EvaluationError(f"operator {self.operator_label!r} returned non-finite values")


@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon, kernel, and recording/stopping options for a run.

    eta must be positive with a finite effective Euclidean step 2 * eta;
    horizon and record_every are counts >= 1; stop_gap, when given, is finite
    and >= 0. A run records every record_every-th iteration. With stop_gap it
    stops at the first iteration whose gap at x_{k+0.5} is at most stop_gap,
    and records it. With modulus_backoff it halves eta whenever a recorded
    modulus sample exceeds 1 / (2 sqrt(2) eta), the largest modulus L that
    the pathwise condition 2 * eta <= 1 / (sqrt(2) * L) admits.
    """

    eta: float
    horizon: int
    kernel: Kernel
    record_every: int = 1
    stop_gap: float | None = None
    modulus_backoff: bool = False

    def __post_init__(self) -> None:
        _check_step(self.eta)
        check_count(self.horizon, "horizon")
        check_count(self.record_every, "record_every")
        if self.stop_gap is not None:
            check_real(self.stop_gap, "stop_gap")


@dataclass
class RunTrace:
    """Recorded trajectory of a solver run: one array row per record.

    The records are the iterations k with k % record_every == 0 and, in a
    run that stopped (converged), the stopping iteration, which is last.
    indices (R,) holds each k, points (R, n) each x_k and half_points (R, n)
    each x_{k+0.5} (x_{k+1} for the mirror gradient method). At x_{k+0.5},
    gaps, complementarity |<F, x>| and infeasibility max(-min_j F_j, 0) are
    the certificate's residuals when F = -Z; divergences D_h(x_{k+0.5}, x_k),
    operator_deltas ||F(x_{k+0.5}) - F(x_k)||, modulus_samples and elapsed
    (seconds since the start) complete each record. The best record,
    best_position, has the least divergence, the earliest on ties.
    """

    method: str
    indices: np.ndarray
    points: np.ndarray
    half_points: np.ndarray
    gaps: np.ndarray
    divergences: np.ndarray
    operator_deltas: np.ndarray
    modulus_samples: np.ndarray
    wall_time: float
    elapsed: np.ndarray
    converged: bool = False
    final_eta: float = 0.0
    complementarity: np.ndarray = field(default_factory=lambda: np.empty(0))
    infeasibility: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def iterates(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """The records as (k, x_k, x_{k+0.5}) triples."""
        return list(zip(self.indices.tolist(), self.points, self.half_points))

    @property
    def best_position(self) -> int:
        """The best record: least D_h(x_{k+0.5}, x_k), the earliest one on ties."""
        return int(np.argmin(self.divergences))

    @property
    def best_index(self) -> int:
        return int(self.indices[self.best_position])

    @property
    def best_iterate(self) -> np.ndarray:
        return self.half_points[self.best_position]

    @property
    def final_gap(self) -> float:
        return float(self.gaps[-1])


def _gap(space: FeasibleSet, x: np.ndarray, fx: np.ndarray):
    """Strong gap max_y <F(x), x - y> from a checked fx, 0-d for a point or one per
    row of a C-ordered stack, each row equal to the point call bit for bit. The
    simplex's -min_j F_j is linear_max's value but for a zero's sign (-Z has no +0.0)."""
    inner = _row_dots(fx, x)
    if space.kind == SIMPLEX:
        return inner - np.minimum.reduce(fx, axis=-1)
    c = -fx
    return inner + _row_dots(c, np.where(c > 0.0, space.hi, space.lo))


def _residuals(space: FeasibleSet, x: np.ndarray, fx: np.ndarray):
    """_gap, |<F(x), x>| and max(-min_j F_j(x), 0) from a checked fx, for a point
    or a stack as _gap takes them."""
    neg = -np.minimum.reduce(fx, axis=-1)
    # max(a, 0.0) keeps a unless 0.0 > a, so a zero keeps its sign as max() does.
    return _gap(space, x, fx), np.abs(_row_dots(fx, x)), np.where(0.0 > neg, 0.0, neg)


def _solve(problem: VIProblem, config: SolverConfig, x0, extragradient: bool) -> RunTrace:
    # x0 is checked once; the iterates stay in the set and evaluate() checks
    # every operator value, so the loop runs the unchecked prox and gap.
    space = problem.set
    kernel = config.kernel
    record_every = config.record_every
    stop_gap = config.stop_gap
    backoff = config.modulus_backoff
    x = _point(space, x0, "x0")

    start = time.perf_counter()
    # (k, x_k, x_{k+0.5}, F(x_{k+0.5}), ||F(x_{k+0.5}) - F(x_k)||, t_k) per record.
    records: list[tuple] = []
    converged = False
    eta = config.eta
    # F at the current iterate when the previous iteration already computed it
    # (the plain method's recorded F(x_{k+1})); None means evaluate.
    fx = None

    for k in range(config.horizon):
        if fx is None:
            fx = problem.evaluate(x)
        x_half = _prox(space, kernel, eta, x, fx)
        record = k % record_every == 0
        if extragradient:
            f_half = problem.evaluate(x_half)
            x_next = _prox(space, kernel, eta, x, f_half)
        else:
            x_next = x_half
            f_half = problem.evaluate(x_half) if record or stop_gap is not None else None
        # The stop test runs every iteration, on the gap the trace records.
        stop = stop_gap is not None and _gap(space, x_half, f_half) <= stop_gap

        if record or stop:
            # Residuals are computed after the loop; the norm is numpy's own.
            d = f_half - fx
            delta = math.sqrt(d.dot(d))
            records.append((k, x, x_half, f_half, delta, time.perf_counter() - start))
            if stop:
                converged = True
                break
            if backoff:
                if _modulus_samples(delta, _divergence(kernel, x_half, x)) > _step_bound(eta):
                    eta *= 0.5
        x = x_next
        fx = None if extragradient else f_half

    indices, x_rows, half_rows, half_values, delta_rows, elapsed = map(np.array, zip(*records))
    gaps, complementarity, infeasibility = _residuals(space, half_rows, half_values)
    divergences = bregman_divergence(kernel, half_rows, x_rows)
    return RunTrace(
        method=MIRROR_EXTRAGRADIENT if extragradient else MIRROR_GRADIENT,
        indices=indices,
        points=x_rows,
        half_points=half_rows,
        gaps=gaps,
        divergences=divergences,
        operator_deltas=delta_rows,
        modulus_samples=_modulus_samples(delta_rows, divergences),
        wall_time=time.perf_counter() - start,
        elapsed=elapsed,
        converged=converged,
        final_eta=eta,
        complementarity=complementarity,
        infeasibility=infeasibility,
    )


def mirror_gradient_solve(problem: VIProblem, config: SolverConfig, x0) -> RunTrace:
    """Run x_{k+1} = mirror_step(set, kernel, eta, x_k, F(x_k)) for the horizon."""
    return _solve(problem, config, x0, extragradient=False)


def mirror_extragradient_solve(problem: VIProblem, config: SolverConfig, x0) -> RunTrace:
    """Run the two-step method: probe with F(x_k), move with F(x_{k+0.5}).

    Both prox steps are centered at x_k. The returned trace's best iterate is
    the x_{k+0.5} minimizing D_h(x_{k+0.5}, x_k) among recorded iterations.
    """
    return _solve(problem, config, x0, extragradient=True)


def gap(problem: VIProblem, x_hat) -> float:
    """Strong gap max_{x in set} <F(x_hat), x_hat - x>, evaluating F once.

    Nonnegative up to floating error; a strong solution gives a value at 0.
    """
    x = _point(problem.set, x_hat, "x_hat")
    return float(_gap(problem.set, x, problem.evaluate(x)))


def is_epsilon_strong(problem: VIProblem, x_hat, eps: float) -> bool:
    """True iff gap(problem, x_hat) <= eps (no flooring of small negatives).

    eps must be finite and >= 0 (errors.check_real).
    """
    check_real(eps, "eps")
    return gap(problem, x_hat) <= eps


def minty_certificate(
    problem: VIProblem, candidate, samples: int, seed
) -> tuple[float, np.ndarray | None]:
    """Sampled check of the weak-solution inequality <F(x), candidate - x> <= 0.

    Draws `samples` uniform points in the set (box: per-coordinate uniform;
    simplex: flat Dirichlet), evaluated in one evaluate_many call, and returns
    the largest violation with its witness, the first point that gives it, or
    None when no value is positive. A NaN value is never the largest.
    """
    cand = _point(problem.set, candidate, "candidate")
    check_count(samples, "samples")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    space = problem.set
    if space.kind == BOX:
        points = rng.uniform(space.lo, space.hi, (samples, space.n))
    else:
        points = rng.dirichlet(np.ones(space.n), samples)
    values = _row_dots(problem.evaluate_many(points), cand - points)
    # argmax takes the first maximum, as a loop keeping strict improvements
    # from -inf does, once a NaN, which such a loop never keeps, is -inf.
    values[np.isnan(values)] = -np.inf
    worst = int(np.argmax(values))
    max_violation = float(values[worst])
    return max_violation, (points[worst].copy() if max_violation > 0.0 else None)


def pathwise_modulus(trace: RunTrace) -> float:
    """Largest recorded ||F(x_{k+0.5}) - F(x_k)|| / sqrt(2 D_h(x_{k+0.5}, x_k)).

    Records with D_h <= DEGENERATE_STEP_TOL sample 0, so 0 is returned when
    no record is eligible.
    """
    return float(np.max(trace.modulus_samples, initial=0.0))


def rate_slope(trace: RunTrace) -> float:
    """Least-squares slope of log(running-min gap) against log(iteration + 1).

    Checks the O(1/sqrt(T)) best-iterate rate: a slope at or below -0.5 (plus
    margin) is consistent with the guarantee. Entries after the running min
    reaches zero or below are dropped (their logs are undefined).
    """
    if trace.indices.size == 0:
        raise InsufficientData("trace has no recorded iterations")
    running = np.minimum.accumulate(trace.gaps)
    positive = running > 0.0
    if not positive.all():
        cutoff = int(np.argmin(positive))
        running = running[:cutoff]
    if running.size < 16:
        raise InsufficientData(
            f"rate fit needs >= 16 recorded iterations with positive running-min "
            f"gaps, got {running.size}"
        )
    t = trace.indices[: running.size] + 1.0
    slope = np.polyfit(np.log(t), np.log(running), 1)[0]
    return float(slope)


def rotation_operator() -> Callable[[np.ndarray], np.ndarray]:
    """The planar rotation field F(x, y) = (-y, x)."""

    def operator(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.array([-v[1], v[0]])

    return operator


def scalar_nonminty_operator() -> Callable[[np.ndarray], np.ndarray]:
    """The scalar field F(x) = 1 - x^2 (strong solutions at -1 and 1)."""

    def operator(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return 1.0 - v * v

    return operator
