"""Price-adjustment processes over box or simplex price spaces.

Mirror extratatonnement runs the mirror extragradient method on the
variational inequality (price space, -Z); mirror tatonnement runs the plain
mirror gradient method. Both return a PriceRun carrying the solver trace,
per-iteration equilibrium residuals, and a certificate at the best iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSolution, InvalidInput, check_count, check_real, check_seed
from .kernels import (
    BOX,
    SIMPLEX,
    FeasibleSet,
    Kernel,
    _as_vector,
    _check_step,
    _point,
    _row_dots,
    bregman_divergence,
)
from . import vi
from .vi import (
    RunTrace,
    SolverConfig,
    VIProblem,
    _modulus_samples,
    _residuals,
    _step_bound,
    minty_certificate,
    mirror_extragradient_solve,
    mirror_gradient_solve,
)

#: Number of random pairs probed by the automatic step-size rule.
PROBE_PAIRS = 32

#: Sample count for the post-hoc weak-solution check in simplex mode.
MINTY_SAMPLES = 256


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Residuals of the approximate-equilibrium conditions at a price vector.

    eps_feasibility is the positive part of max_j Z_j (excess of demand over
    supply); walras_residual is |p . Z(p)|; gap_value is the strong gap of the
    VI (price space, -Z) at the same point.
    """

    eps_feasibility: float
    walras_residual: float
    gap_value: float

    def passes(self, eps: float) -> bool:
        """Both residuals <= eps, a tolerance finite and >= 0 (errors.check_real)."""
        check_real(eps, "eps")
        return self.eps_feasibility <= eps and self.walras_residual <= eps


@dataclass
class PriceRun:
    """A completed price-adjustment run with its certificate.

    certificate is the reported record of trace (trace.best_position: the
    stopping record in a run that stopped), so it describes
    trace.best_iterate. eta is the step size the run started with (after
    automatic selection, when requested). minty_violation is the post-hoc
    sampled weak-solution check in simplex mode, None on the box.
    """

    economy: object
    price_space: FeasibleSet
    trace: RunTrace
    certificate: EquilibriumCertificate
    normalized_equilibrium: np.ndarray | None
    eta: float
    minty_violation: float | None = None

    @property
    def converged(self) -> bool:
        return self.trace.converged


def _price_problem(economy, space: FeasibleSet) -> VIProblem:
    """(space, -Z), declared batched: every economy's excess maps a stack to its rows."""
    return VIProblem(
        set=space,
        operator=lambda p: -np.asarray(economy.excess(p), dtype=float),
        operator_label="-Z",
        batched=True,
    )


def equilibrium_certificate(economy, p_hat, space: FeasibleSet) -> EquilibriumCertificate:
    """The certificate at p_hat, a point of space, from one evaluation of Z.

    A Z of the wrong shape or not finite is EvaluationError.
    """
    prices = _point(space, p_hat, "p_hat")
    neg_z = _price_problem(economy, space).evaluate(prices)
    gap_value, walras, feasibility = _residuals(space, prices, neg_z)
    return EquilibriumCertificate(float(feasibility), float(walras), float(gap_value))


def scale_to_equilibrium(p) -> np.ndarray:
    """Scale a box solution to the representative with max coordinate 1.

    Degree-0 homogeneity makes every positive multiple of an equilibrium an
    equilibrium; the all-zero vector is the trivial solution and is reported
    as DegenerateSolution instead of scaled. A p that is not a nonempty
    finite vector is InvalidInput.
    """
    arr = _as_vector(p, "p")
    if arr.size == 0:
        raise InvalidInput("p must be a nonempty vector")
    peak = float(np.max(np.abs(arr)))
    if peak == 0.0:
        raise DegenerateSolution("cannot normalize the all-zero price vector")
    return arr / peak


def recommended_step_size(n_goods: int, elasticity_bound: float, demand_bound: float) -> float:
    """Simplex-mode step size 1 / (2 * sqrt(2) * n * elasticity * demand bound).

    n_goods is an integer >= 1 and both bounds are positive and finite
    (InvalidInput naming the argument otherwise).
    """
    check_count(n_goods, "n_goods")
    check_real(elasticity_bound, "elasticity_bound", positive=True)
    check_real(demand_bound, "demand_bound", positive=True)
    return 1.0 / (2.0 * np.sqrt(2.0) * n_goods * elasticity_bound * demand_bound)


def _interior_samples(rng: np.random.Generator, space: FeasibleSet, count: int) -> np.ndarray:
    """count interior points in one generator call, the same points as drawing
    them one at a time."""
    if space.kind == BOX:
        return space.lo + (space.hi - space.lo) * rng.beta(2.0, 2.0, (count, space.n))
    return rng.dirichlet(np.full(space.n, 2.0), count)


def probe_modulus(problem: VIProblem, kernel: Kernel, pairs: int = PROBE_PAIRS, seed=0) -> float:
    """Estimate the Bregman-continuity modulus on random interior point pairs.

    Sampling is interior-biased (Beta(2,2) per box coordinate; Dirichlet(2) on
    the simplex) because the modulus is only needed along iterate paths, which
    the floor/projection keep away from the boundary blow-up of Z. The 2*pairs
    points x_0, y_0, x_1, ... are evaluated in one evaluate_many call, or not
    at all when every pair is degenerate (the value is then 0). The value is
    the largest modulus sample, as a run's trace takes it.
    """
    check_count(pairs, "pairs")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    points = _interior_samples(rng, problem.set, 2 * pairs)
    divergences = bregman_divergence(kernel, points[0::2], points[1::2])
    # The cutoff is read from vi when called, so the trace and the probe share it.
    if not (divergences > vi.DEGENERATE_STEP_TOL).any():
        return 0.0
    values = problem.evaluate_many(points)
    d = values[0::2] - values[1::2]
    return float(np.max(_modulus_samples(np.sqrt(_row_dots(d, d)), divergences)))


def auto_step_size(problem: VIProblem, kernel: Kernel, pairs: int = PROBE_PAIRS, seed=0) -> float:
    """Probe the modulus and return eta = _step_bound(L_hat) = 1 / (2 * sqrt(2) * L_hat).

    A constant operator probes to zero; any step works then, so 1.0 is
    returned. Runs started this way should enable modulus backoff, which
    halves the step if the path reveals a larger modulus than the probe.
    """
    modulus = probe_modulus(problem, kernel, pairs, seed)
    return 1.0 if modulus == 0.0 else _step_bound(modulus)


def _normalized(x) -> np.ndarray | None:
    """scale_to_equilibrium(x), or None for the all-zero vector."""
    try:
        return scale_to_equilibrium(x)
    except DegenerateSolution:
        return None


def _solve_run(problem: VIProblem, kernel: Kernel, eta, horizon: int, x0, *,
               extragradient: bool, stop_gap: float | None, record_every: int,
               seed) -> tuple[RunTrace, float]:
    """Solve with eta as given, or with 'auto' probed (seed) and modulus backoff;
    return (trace, the step size the run started with)."""
    backoff = isinstance(eta, str)
    if backoff:
        if eta != "auto":
            raise InvalidInput(f"eta must be a positive number or 'auto', got {eta!r}")
        eta = auto_step_size(problem, kernel, seed=seed)
    else:
        # Checked before float(), which would take True to 1.0.
        _check_step(eta)
    config = SolverConfig(eta=float(eta), horizon=horizon, kernel=kernel,
                          record_every=record_every, stop_gap=stop_gap,
                          modulus_backoff=backoff)
    solve = mirror_extragradient_solve if extragradient else mirror_gradient_solve
    return solve(problem, config, x0), config.eta


def _run(economy, space: FeasibleSet, kernel: Kernel, eta, horizon: int, p0, *,
         extragradient: bool, stop_gap: float | None, record_every: int, seed) -> PriceRun:
    """Solve (space, -Z); the certificate is read from the best iterate's record."""
    # seed feeds the step-size probe and the simplex Minty check; it is
    # checked even when the run uses neither.
    check_seed(seed)
    # Checked here, under its own name, before an 'auto' step probes the operator.
    p0 = _point(space, p0, "p0")
    problem = _price_problem(economy, space)
    trace, eta_used = _solve_run(problem, kernel, eta, horizon, p0, extragradient=extragradient,
                                 stop_gap=stop_gap, record_every=record_every, seed=seed)
    best = trace.best_position
    certificate = EquilibriumCertificate(float(trace.infeasibility[best]),
                                         float(trace.complementarity[best]),
                                         float(trace.gaps[best]))
    minty = None
    if space.kind == SIMPLEX:
        minty = minty_certificate(problem, trace.best_iterate, MINTY_SAMPLES, seed)[0]
    return PriceRun(
        economy=economy,
        price_space=space,
        trace=trace,
        certificate=certificate,
        normalized_equilibrium=_normalized(trace.best_iterate),
        eta=eta_used,
        minty_violation=minty,
    )


def mirror_extratatonnement(economy, space: FeasibleSet, kernel: Kernel, eta, horizon: int,
                            p0, *, stop_gap: float | None = None, record_every: int = 1,
                            seed=0) -> PriceRun:
    """Extragradient price adjustment on (space, -Z) from p0, a point of space.

    eta is a positive number or 'auto' (probed, with modulus backoff), seed
    feeds the probe and the simplex Minty check, and stop_gap and
    record_every are SolverConfig's. The reported equilibrium is the best
    iterate: the stopping p_{k+0.5} in a run that stopped on stop_gap, and
    otherwise the record with the least D_h(p_{k+0.5}, p_k), not the last one.
    """
    return _run(economy, space, kernel, eta, horizon, p0, extragradient=True,
                stop_gap=stop_gap, record_every=record_every, seed=seed)


def mirror_tatonnement(economy, space: FeasibleSet, kernel: Kernel, eta, horizon: int,
                       p0, *, stop_gap: float | None = None, record_every: int = 1,
                       seed=0) -> PriceRun:
    """Plain mirror-gradient price adjustment, with mirror_extratatonnement's arguments."""
    return _run(economy, space, kernel, eta, horizon, p0, extragradient=False,
                stop_gap=stop_gap, record_every=record_every, seed=seed)
