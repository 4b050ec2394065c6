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

MIRROR_GRADIENT = "mirror_gradient"
MIRROR_EXTRAGRADIENT = "mirror_extragradient"


def _step_bound(x: float) -> float:
    """1 / (2 * sqrt(2) * x): the step-size premise 2 * eta <= 1/(sqrt(2) * L)
    at equality. For a modulus x it is the largest step; for a step x it is
    the largest modulus that step admits."""
    return 1.0 / (2.0 * math.sqrt(2.0) * x)


def _modulus_samples(deltas, divergences) -> np.ndarray:
    """The modulus samples ||F(x') - F(x)|| / sqrt(2 D_h(x', x)), entry by entry.

    One delta and one divergence give one 0-d sample, arrays of k give k. An
    entry with D_h <= DEGENERATE_STEP_TOL samples 0 (a zero step carries no
    continuity information), and the square root is taken only above it,
    since an entropy divergence can round slightly below zero.
    """
    eligible = divergences > DEGENERATE_STEP_TOL
    return np.where(eligible, deltas / np.sqrt(2.0 * np.where(eligible, divergences, 1.0)), 0.0)


@dataclass(frozen=True)
class VIProblem:
    """A variational inequality (set, F) with a single-valued operator.

    An operator is defined on single points. One that also maps a (k, n)
    stack of points to the (k, n) stack of its values, each row equal to its
    value at that point alone bit for bit, may declare batched=True, and
    evaluate_many then evaluates a whole stack in one call. The declaration
    is the operator's promise: an undeclared one such as `lambda x: A @ x`
    would return wrong rows, without an error, if it were handed a square
    stack, so evaluate_many hands it one point at a time.
    """

    set: FeasibleSet
    operator: Callable[[np.ndarray], np.ndarray]
    operator_label: str = "F"
    batched: bool = False

    def evaluate(self, x) -> np.ndarray:
        """Evaluate F(x), checking its shape and that kernels._finite holds."""
        out = np.asarray(self.operator(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.set.n,) or not _finite(out):
            self._reject(out, (self.set.n,))
        return out

    def evaluate_many(self, xs) -> np.ndarray:
        """F at every row of a (k, n) stack, as a C-ordered (k, n) float array.

        This is the one place that decides how a stack is evaluated. A batched
        operator gets the whole stack in one call, and its value must have
        shape (k, n) and pass kernels._finite (EvaluationError). Any other
        operator is never handed a stack: each row goes through evaluate, in
        row order, and is written into the result. Either way each row is contiguous and
        equals evaluate at that point bit for bit.
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
        out = np.asarray(self.operator(points), dtype=float, order="C")
        if out.shape != points.shape or not _finite(out):
            self._reject(out, points.shape)
        return out

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

    eta must be positive with a finite effective Euclidean step 2 * eta,
    horizon and record_every counts >= 1 by errors.check_count, and stop_gap,
    when given, finite and >= 0 by errors.check_real. With modulus_backoff
    enabled, the step size is halved whenever a recorded iteration's modulus sample exceeds
    _step_bound(current step): the effective Euclidean step is twice eta, so
    this keeps the run within the pathwise step-size condition 2 * eta <= 1/(sqrt(2) * L). Only then does
    the loop take a record's divergence and sample itself. With stop_gap set
    it takes the gap at x_{k+0.5} on every iteration and stops at the first
    one at or below stop_gap, which it records whatever record_every is. The
    trace's residuals, divergences and samples are computed in stacked calls
    after the loop by the same routines, so they equal the loop's own values
    bit for bit.
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
        # A NaN stop_gap would never stop a run.
        if self.stop_gap is not None:
            check_real(self.stop_gap, "stop_gap")


@dataclass
class RunTrace:
    """Recorded trajectory of a solver run: one array row per record.

    The records are the iterations k with k % record_every == 0 and, in a
    run that stopped (converged), the stopping iteration, which is last.
    indices (R,) holds each record's iteration k, points (R, n) its x_k and
    half_points (R, n) its x_{k+0.5}; the mirror gradient method stores
    x_{k+1} in the half slot (see `method`), and iterates derives (k, x_k,
    x_{k+0.5}) triples from the three. gaps, complementarity |<F, x>| and
    infeasibility max(-min_j F_j, 0) hold one value per record at x_{k+0.5}:
    for F = -Z they are the certificate's gap, Walras and feasibility
    residuals, with no further evaluation of F. The loop keeps one tuple per
    record, (k, x_k, x_{k+0.5}, F(x_{k+0.5}), ||F(x_{k+0.5}) - F(x_k)||, t_k),
    and unzips them once after it into indices, points, half_points, the
    F(x_{k+0.5}) rows, operator_deltas and elapsed (t_k, seconds since the
    start). The other values are computed from those arrays, each equal to
    the per-record call bit for bit: the three residuals from one
    stacked _residuals call over the F rows, divergences D_h(x_{k+0.5}, x_k)
    from one stacked bregman_divergence call over half_points and points,
    and modulus_samples from _modulus_samples over the deltas and
    divergences (a record with D_h <= DEGENERATE_STEP_TOL has sample 0).
    The best record is best_position; best_index and best_iterate are its k
    and x_{k+0.5}.
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
    """Strong gap max_y <F(x), x - y> from a checked fx = F(x), at a point or a stack.

    For vectors x and fx it returns one 0-d value; for C-ordered (k, n) stacks
    k values. The row dots go through kernels._row_dots and the minimum is
    taken along the last axis, so each row of a stack equals the vector call
    at that row bit for bit, and the loop's stop test reads the gap the trace
    records. On the box the support value max_y <-F(x), y> is the row dot of
    -F(x) with its maximizing corner, as linear_max takes it; on the simplex
    it is -min_j F_j(x), which equals linear_max's value up to the sign of a
    zero minimum, and that could differ only if F had zeros of both signs
    there (-Z has no +0.0 entries).
    """
    inner = _row_dots(fx, x)
    if space.kind == SIMPLEX:
        return inner - np.minimum.reduce(fx, axis=-1)
    c = -fx
    return inner + _row_dots(c, np.where(c > 0.0, space.hi, space.lo))


def _residuals(space: FeasibleSet, x: np.ndarray, fx: np.ndarray):
    """_gap, |<F(x), x>| and max(-min_j F_j(x), 0) from a checked fx = F(x).

    For vectors x and fx it returns three 0-d values, which float() takes to
    three floats. For C-ordered (k, n) stacks it returns three arrays of k
    values, each row equal to the vector call at that row bit for bit, as
    _gap's are.
    """
    neg = -np.minimum.reduce(fx, axis=-1)
    # max(a, 0.0) keeps a unless 0.0 > a, so a zero keeps its sign as max() does.
    return _gap(space, x, fx), np.abs(_row_dots(fx, x)), np.where(0.0 > neg, 0.0, neg)


def _solve(problem: VIProblem, config: SolverConfig, x0, extragradient: bool) -> RunTrace:
    # x0 is checked here once; the loop's own iterates stay in the set and
    # evaluate() checks every operator value, so the prox and the linear
    # maximization run without the checks of their public forms.
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
            # A record keeps its points, F(x_{k+0.5}) and the operator change
            # (numpy's 1-D norm is sqrt(d.dot(d))); its residuals are computed
            # after the loop. The stopping iteration is always recorded.
            d = f_half - fx
            delta = math.sqrt(d.dot(d))
            records.append((k, x, x_half, f_half, delta, time.perf_counter() - start))
            if stop:
                converged = True
                break
            if backoff:
                # The sample the trace records after the loop, tested against
                # the largest modulus this step admits.
                if _modulus_samples(delta, _divergence(kernel, x_half, x)) > _step_bound(eta):
                    eta *= 0.5
        x = x_next
        fx = None if extragradient else f_half

    indices, x_rows, half_rows, half_values, delta_rows, elapsed = map(np.array, zip(*records))
    gaps, complementarity, infeasibility = _residuals(space, half_rows, half_values)
    # Every record's divergence in one stacked call, each row equal to the
    # vector call.
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
    simplex: flat Dirichlet) and returns the largest violation together with
    the violating point, or None when no sampled point gives a positive value.
    All points are drawn in one generator call, which gives the same points as
    drawing them one at a time, and evaluated in one evaluate_many call; each
    value goes through one row dot, equal to the per-point dot bit for bit
    but for the sign of a zero when n = 1 (a length-1 dot is the bare
    product, which a row dot adds to +0.0). The witness is the first point with the largest value; a NaN value (an
    overflowing dot) is never the largest.
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
    """Largest observed ||F(x_{k+0.5}) - F(x_k)|| / sqrt(2 D_h(x_{k+0.5}, x_k)).

    This is the largest recorded modulus sample: iterations with
    D_h <= DEGENERATE_STEP_TOL record 0 (a zero step carries no continuity
    information), so 0 is returned when no iteration is eligible.
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
