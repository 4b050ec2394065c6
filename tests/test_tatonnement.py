"""Tests for price-adjustment runs, certificates, and step-size selection."""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest

from mirrorvi import (
    CES,
    COBB_DOUGLAS,
    LEONTIEF,
    Consumer,
    DegenerateSolution,
    EquilibriumCertificate,
    EvaluationError,
    ExchangeEconomy,
    GenSpec,
    InvalidInput,
    ScarfEconomy,
    SolverConfig,
    VIProblem,
    auto_step_size,
    bregman_continuity_bound,
    bregman_divergence,
    box,
    check_homogeneity,
    check_lsd_sample,
    check_warp_sample,
    check_wgs_sample,
    consumer_demand,
    elasticity_bound_estimate,
    equilibrium_certificate,
    gap,
    generate_economy,
    initial_prices,
    mirror_extragradient_solve,
    mirror_extratatonnement,
    mirror_step,
    mirror_tatonnement,
    minty_certificate,
    negative_entropy,
    pathwise_modulus,
    probe_modulus,
    recommended_step_size,
    scale_to_equilibrium,
    simplex,
    squared_euclidean,
    unit_box,
)
import mirrorvi.vi as vi_module
from mirrorvi.tatonnement import _interior_samples, _price_problem
from oracles import cobb_douglas_equilibrium, demand_oracle

EUC = squared_euclidean()
ENT = negative_entropy()
CENTER = np.ones(3) / 3.0
START = np.array([0.5, 0.3, 0.2])
TWO_GOODS = Consumer(COBB_DOUGLAS, np.ones(2), np.ones(2))


class RecipeEconomy:
    """A bare excess-demand function wrapped in the economy evaluation surface."""

    def __init__(self, fn, n: int):
        self._fn = fn
        self.n_goods = n

    def excess(self, p):
        return np.asarray(self._fn(np.asarray(p, dtype=float)), dtype=float)


def zero_excess_economy() -> ExchangeEconomy:
    # A single Leontief consumer whose valuations equal its endowment demands
    # exactly that endowment at every price, so excess demand vanishes.
    return ExchangeEconomy(
        [Consumer(LEONTIEF, np.array([1.0, 2.0, 1.0]), np.array([1.0, 2.0, 1.0]))],
        n_goods=3,
        demand_cap_factor=np.inf,
    )


def cobb_douglas_pair() -> ExchangeEconomy:
    return ExchangeEconomy(
        [
            Consumer(COBB_DOUGLAS, np.array([1.0, 2.0, 1.0]), np.array([1.0, 0.0, 1.0])),
            Consumer(COBB_DOUGLAS, np.array([2.0, 1.0, 3.0]), np.array([0.0, 2.0, 1.0])),
        ],
        n_goods=3,
        demand_cap_factor=np.inf,
    )


@pytest.mark.parametrize("space, kernel", [(unit_box(10), EUC), (simplex(10), ENT)],
                         ids=["box-euclidean", "simplex-entropy"])
def test_cobb_douglas_runs_find_the_eigenvector_equilibrium(space, kernel):
    # The equilibrium of an all-Cobb-Douglas economy is a Perron eigenvector,
    # computed without Z or the solver (oracles.cobb_douglas_equilibrium).
    # Each tolerance is at least 100x the largest value measured over seeds
    # 0-7: |root - 1| 1.1e-15, max |Z| at the eigenvector 1.4e-14, and the
    # relative error of the reported point 1.6e-10. The Minty check at the
    # eigenvector read -1.1 or lower: gross substitutes make it a weak
    # solution, so the check must find no violation there.
    for seed in range(4):
        economy = generate_economy(GenSpec(seed=seed, n_consumers=10, n_goods=10,
                                           mix={COBB_DOUGLAS: 1.0}))
        root, equilibrium = cobb_douglas_equilibrium(economy)
        assert abs(root - 1.0) <= 1e-12
        expected = equilibrium / equilibrium.max() if space.kind == "box" else equilibrium
        assert np.abs(economy.excess(expected)).max() <= 1e-11
        run = mirror_extratatonnement(economy, space, kernel, "auto", 50_000,
                                      initial_prices(seed, space), stop_gap=1e-9, seed=seed)
        assert run.converged
        reported = run.trace.best_iterate
        if space.kind == "box":
            reported = scale_to_equilibrium(reported)
        assert np.abs(reported - expected).max() <= 2e-8 * expected.max()
        violation, witness = minty_certificate(_price_problem(economy, space), expected, 256, seed)
        assert violation <= 0.0 and witness is None


def test_extratatonnement_reaches_equal_prices_on_simplex():
    run = mirror_extratatonnement(ScarfEconomy(), simplex(3), EUC, 0.05, 5000, START)
    assert np.abs(run.trace.best_iterate - CENTER).max() <= 1e-3
    assert run.certificate.passes(1e-3)
    assert run.minty_violation is not None


def test_extratatonnement_box_limit_is_proportional_to_ones():
    space = box(np.full(3, 0.1), np.ones(3))
    run = mirror_extratatonnement(
        ScarfEconomy(), space, EUC, 0.1, 3000, np.array([0.3, 0.9, 0.5])
    )
    np.testing.assert_allclose(run.normalized_equilibrium, np.ones(3), atol=1e-9)
    assert run.minty_violation is None


def test_tatonnement_spirals_away_on_simplex():
    run = mirror_tatonnement(ScarfEconomy(), simplex(3), EUC, 0.05, 5000, START)
    last = run.trace.iterates[-1][2]
    assert np.linalg.norm(last - CENTER) > np.linalg.norm(START - CENTER)
    assert np.abs(last - CENTER).max() > np.abs(START - CENTER).max()


def test_scarf_contrast_between_methods():
    eg = mirror_extratatonnement(ScarfEconomy(), simplex(3), EUC, 0.05, 5000, START)
    mg = mirror_tatonnement(ScarfEconomy(), simplex(3), EUC, 0.05, 5000, START)
    eg_final = np.linalg.norm(eg.trace.iterates[-1][2] - CENTER)
    mg_final = np.linalg.norm(mg.trace.iterates[-1][2] - CENTER)
    assert eg_final < 1e-9 < mg_final
    assert mg_final > np.linalg.norm(START - CENTER)


@pytest.mark.xfail(
    strict=True,
    reason="once plain price adjustment reaches the simplex boundary it orbits "
    "with period ~17 and center distance oscillating in [0.41, 0.61] "
    "(per-step drops near 0.04), so no tail of the distance sequence is "
    "non-decreasing; only the start-to-finish increase holds",
)
def test_tatonnement_distance_tail_nondecreasing():
    run = mirror_tatonnement(ScarfEconomy(), simplex(3), EUC, 0.05, 5000, START)
    dists = np.array(
        [np.linalg.norm(p_half - CENTER) for _, _, p_half in run.trace.iterates]
    )
    tail = dists[dists.size // 2 :]
    assert np.all(np.diff(tail) >= -1e-12)


def test_zero_excess_economy_is_stationary():
    economy = zero_excess_economy()
    p0 = np.array([0.4, 0.25, 0.35])
    run = mirror_extratatonnement(economy, simplex(3), ENT, 0.1, 50, p0)
    for _, p, p_half in run.trace.iterates:
        np.testing.assert_allclose(p, p0, atol=1e-12)
        np.testing.assert_allclose(p_half, p0, atol=1e-12)
    assert run.certificate.passes(0.0)
    assert run.minty_violation == 0.0
    run_box = mirror_tatonnement(economy, unit_box(3), EUC, 0.1, 50, p0)
    for _, p, p_half in run_box.trace.iterates:
        np.testing.assert_array_equal(p, p0)
        np.testing.assert_array_equal(p_half, p0)
    assert run_box.minty_violation is None


def test_wgs_economy_tatonnement_converges_on_simplex():
    economy = cobb_douglas_pair()
    assert np.abs(economy.excess(CENTER)).max() > 1e-3  # start is not already solved
    run = mirror_tatonnement(economy, simplex(3), EUC, 0.05, 3000, CENTER.copy())
    assert run.certificate.passes(1e-3)
    assert run.trace.complementarity[-1] <= 1e-3
    assert run.trace.infeasibility[-1] <= 1e-3


def test_natural_process_updates_are_coordinatewise_on_box():
    # Two economies whose excess demands agree only on coordinate 0 must
    # produce identical half-step updates for that coordinate: separable
    # kernels on the box update each price from its own excess alone.
    space = unit_box(3)
    a = RecipeEconomy(lambda p: np.array([p[0] ** 2, 5.0 * p[1], -3.0]), 3)
    b = RecipeEconomy(lambda p: np.array([p[0] ** 2, -7.0 * p[2], 11.0]), 3)
    p0 = np.array([0.6, 0.5, 0.4])
    for kernel in (EUC, ENT):
        half_a = mirror_extratatonnement(a, space, kernel, 0.05, 1, p0).trace.iterates[0][2]
        half_b = mirror_extratatonnement(b, space, kernel, 0.05, 1, p0).trace.iterates[0][2]
        assert half_a[0] == half_b[0]
        assert half_a[1] != half_b[1]
        assert half_a[2] != half_b[2]


def test_bregman_distance_to_origin_monotone_on_box():
    # The zero vector satisfies <-Z(p), p - 0> = -p.Z(p) >= 0 for capped
    # economies (demand capping only lowers spending), so the extragradient
    # progress inequality makes D(0, p_k) non-increasing once the step
    # respects the pathwise modulus; the probe-based step is halved for margin.
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        consumers = [
            Consumer(
                CES,
                rng.uniform(0.1, 1.0, n),
                rng.uniform(0.0, 1.0, n) + 0.05,
                rho=float(rng.choice([-8.0, -1.5, 0.5, 0.9])),
            )
            for _ in range(m)
        ]
        economy = ExchangeEconomy(consumers, n_goods=n, demand_cap_factor=1.0)
        p0 = rng.uniform(0.2, 1.0, n)
        space = unit_box(n)
        modulus = probe_modulus(_price_problem(economy, space), EUC, pairs=64, seed=trial)
        eta = 0.5 / (2.0 * np.sqrt(2.0) * modulus)
        run = mirror_extratatonnement(economy, space, EUC, eta, 300, p0)
        origin_dist = np.array([0.5 * x.dot(x) for _, x, _ in run.trace.iterates])
        assert np.all(np.diff(origin_dist) <= 1e-10)


def test_certificate_gap_bounds_residuals_on_unit_box():
    # On Box[0,1]^n the gap equals -p.Z + sum_j [Z_j]_+, which dominates both
    # certificate residuals for capped economies; so an eps gap certifies an
    # eps equilibrium.
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        consumers = [
            Consumer(
                CES,
                rng.uniform(0.1, 1.0, n),
                rng.uniform(0.0, 1.0, n) + 0.05,
                rho=float(rng.choice([-8.0, -1.5, 0.5, 0.9])),
            )
            for _ in range(m)
        ]
        economy = ExchangeEconomy(consumers, n_goods=n, demand_cap_factor=1.0)
        p = rng.uniform(0.0, 1.0, n)
        cert = equilibrium_certificate(economy, p, unit_box(n))
        eps = cert.gap_value
        assert cert.eps_feasibility <= eps + 1e-9
        assert cert.walras_residual <= eps + 1e-9
        assert cert.passes(eps + 1e-9)


def test_certificate_oracles():
    cert = equilibrium_certificate(ScarfEconomy(), CENTER, simplex(3))
    assert cert.eps_feasibility == 0.0
    assert cert.walras_residual == 0.0
    assert cert.passes(1e-9)
    off = equilibrium_certificate(ScarfEconomy(), np.array([0.25, 0.25, 0.5]), simplex(3))
    np.testing.assert_allclose(off.eps_feasibility, 1.0 / 6.0, rtol=1e-12)
    assert off.walras_residual <= 1e-12
    assert not off.passes(0.1)
    with pytest.raises(InvalidInput):
        equilibrium_certificate(ScarfEconomy(), np.array([0.5, 0.5, 0.5]), simplex(3))


class FixedExcessEconomy:
    """Returns the same excess-demand vector at every price."""

    def __init__(self, z):
        self.z = z

    def excess(self, p):
        return self.z


@pytest.mark.parametrize("space", [simplex(3), unit_box(3)], ids=["simplex", "box"])
@pytest.mark.parametrize(
    "z, problem",
    [
        (np.array([0.1, np.nan, -0.1]), "non-finite"),
        (np.array([np.inf, 0.0, -0.1]), "non-finite"),
        (np.array([0.1, -0.1]), "shape"),
    ],
    ids=["nan", "inf", "wrong_length"],
)
def test_certificate_rejects_bad_excess_as_evaluation_error(space, z, problem):
    # A bad Z is the operator's fault, not the caller's: it raises the typed
    # error that names -Z, as it would inside a solve.
    with pytest.raises(EvaluationError, match=f"'-Z' returned {problem}"):
        equilibrium_certificate(FixedExcessEconomy(z), CENTER, space)


def test_scale_to_equilibrium_oracles():
    np.testing.assert_array_equal(
        scale_to_equilibrium(np.array([0.5, 0.5, 0.5])), np.ones(3)
    )
    np.testing.assert_array_equal(
        scale_to_equilibrium(np.array([0.2, 0.4])), [0.5, 1.0]
    )
    with pytest.raises(DegenerateSolution):
        scale_to_equilibrium(np.zeros(3))
    # A NaN made every coordinate NaN, and an infinity gave [nan, 0].
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]):
        with pytest.raises(InvalidInput, match="p must be finite"):
            scale_to_equilibrium(np.array(bad))
    # An empty p raised a bare ValueError, and a (2, 2) one was scaled by its
    # overall peak.
    with pytest.raises(InvalidInput, match="p must be a nonempty vector"):
        scale_to_equilibrium([])
    with pytest.raises(InvalidInput, match="p must be a one-dimensional vector"):
        scale_to_equilibrium([[0.2, 0.4], [0.1, 0.8]])


def test_recommended_step_size_formula():
    np.testing.assert_allclose(
        recommended_step_size(3, 1.0, 1.0), 1.0 / (6.0 * np.sqrt(2.0)), rtol=1e-15
    )
    np.testing.assert_allclose(
        recommended_step_size(1, 1.0, 1.0), 1.0 / (2.0 * np.sqrt(2.0)), rtol=1e-15
    )
    np.testing.assert_allclose(
        recommended_step_size(6, 1.0, 1.0),
        recommended_step_size(3, 1.0, 1.0) / 2.0,
        rtol=1e-15,
    )
    for bad in [(0, 1.0, 1.0), (3, 0.0, 1.0), (3, 1.0, -1.0), (3, np.nan, 1.0),
                (3, np.inf, 1.0), (3, 1.0, np.nan)]:
        with pytest.raises(InvalidInput):
            recommended_step_size(*bad)
    # A fractional or boolean good count gave a step (0.1414 and 0.3536).
    for n_goods in (2.5, True):
        with pytest.raises(InvalidInput, match="n_goods must be an integer"):
            recommended_step_size(n_goods, 1.0, 1.0)


def test_probe_modulus_and_auto_step():
    zero_problem = _price_problem(zero_excess_economy(), unit_box(3))
    assert probe_modulus(zero_problem, EUC) == 0.0
    assert auto_step_size(zero_problem, EUC) == 1.0
    identity = VIProblem(
        box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        lambda x: np.asarray(x, dtype=float).copy(),
    )
    np.testing.assert_allclose(probe_modulus(identity, EUC), 1.0, rtol=1e-12)
    np.testing.assert_allclose(
        auto_step_size(identity, EUC), 1.0 / (2.0 * np.sqrt(2.0)), rtol=1e-12
    )
    assert probe_modulus(identity, EUC, seed=3) == probe_modulus(identity, EUC, seed=3)
    for pairs in (0, -1):
        with pytest.raises(InvalidInput):
            probe_modulus(identity, EUC, pairs)
        with pytest.raises(InvalidInput):
            auto_step_size(identity, EUC, pairs)


def _reference_probe_modulus(problem, kernel, pairs, seed):
    # The probe drawing, measuring and evaluating one pair at a time.
    rng = np.random.default_rng(seed)
    space = problem.set
    largest = 0.0
    for _ in range(pairs):
        if space.kind == "box":
            x = space.lo + (space.hi - space.lo) * rng.beta(2.0, 2.0, space.n)
            y = space.lo + (space.hi - space.lo) * rng.beta(2.0, 2.0, space.n)
        else:
            x = rng.dirichlet(np.full(space.n, 2.0))
            y = rng.dirichlet(np.full(space.n, 2.0))
        div = bregman_divergence(kernel, x, y)
        if div <= 1e-16:
            continue
        delta = float(np.linalg.norm(problem.evaluate(x) - problem.evaluate(y)))
        largest = max(largest, delta / np.sqrt(2.0 * div))
    return largest


@pytest.mark.parametrize("space", [box(np.full(3, 0.1), np.ones(3)), simplex(3), unit_box(50),
                                   simplex(50)], ids=["box3", "simplex3", "box50", "simplex50"])
@pytest.mark.parametrize("kernel", [EUC, ENT], ids=["euclidean", "entropy"])
def test_probe_matches_looped_reference_bit_for_bit(space, kernel):
    # One stacked draw and one stacked divergence call give the value, and
    # the sequence of evaluated points, of the probe that went pair by pair.
    if space.n == 3:
        economy = ScarfEconomy()
    else:
        economy = generate_economy(GenSpec(seed=2, n_consumers=30, n_goods=50, mix={
            "cobb_douglas": 0.5, "ces_substitutes": 0.25, "ces_complements": 0.25}))
    def recording(seen):
        def operator(p):
            seen.append(p.copy())
            return -economy.excess(p)
        return VIProblem(space, operator)

    for seed in (0, 5):
        for pairs in (1, 7, 32):
            seen, reference_seen = [], []
            got = probe_modulus(recording(seen), kernel, pairs, seed)
            expected = _reference_probe_modulus(recording(reference_seen), kernel, pairs, seed)
            assert struct.pack("d", got) == struct.pack("d", expected)
            assert np.array(seen).tobytes() == np.array(reference_seen).tobytes()
            assert len(seen) == 2 * pairs


MIXED = {"cobb_douglas": 0.25, "leontief": 0.25, "ces_substitutes": 0.25,
         "ces_complements": 0.25}


@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("space_kind", ["box", "simplex"])
@pytest.mark.parametrize("kernel", [EUC, ENT], ids=["euclidean", "entropy"])
def test_price_problem_probe_is_one_stacked_call_bit_for_bit(kernel, space_kind, n):
    # A price problem is declared batched, so the probe evaluates its pairs
    # as one interleaved stack: one excess call, not two per pair, with the
    # bytes of the probe that evaluates one point at a time.
    space = unit_box(n) if space_kind == "box" else simplex(n)
    economy = generate_economy(GenSpec(seed=n, n_consumers=n if n > 5 else 10, n_goods=n,
                                       mix=MIXED))
    looped = VIProblem(space, lambda p: -economy.excess(p), "-Z")
    assert _price_problem(economy, space).batched and not looped.batched
    for seed in (0, 3):
        for pairs in (1, 7, 32):
            counting = CountingEconomy(economy)
            got = probe_modulus(_price_problem(counting, space), kernel, pairs, seed)
            assert counting.calls == 1
            expected = _reference_probe_modulus(looped, kernel, pairs, seed)
            assert struct.pack("d", got) == struct.pack("d", expected)
            assert struct.pack("d", probe_modulus(looped, kernel, pairs, seed)) == struct.pack(
                "d", expected)


def test_probe_without_a_nondegenerate_pair_evaluates_nothing():
    # On the one-point simplex every pair has divergence 0: no call, modulus 0.
    counting = CountingEconomy(RecipeEconomy(lambda p: np.zeros(p.shape), 1))
    assert probe_modulus(_price_problem(counting, simplex(1)), EUC, 8) == 0.0
    assert counting.calls == 0


def test_probe_and_trace_share_the_degenerate_step_cutoff(monkeypatch):
    # With the cutoff above every divergence, the probe finds no pair to
    # evaluate and every recorded sample of a solve is 0.
    counting = CountingEconomy(ScarfEconomy())
    problem = _price_problem(counting, simplex(3))
    config = SolverConfig(eta=0.05, horizon=20, kernel=EUC)
    assert pathwise_modulus(mirror_extragradient_solve(problem, config, START)) > 0.0
    monkeypatch.setattr(vi_module, "DEGENERATE_STEP_TOL", np.inf)
    counting.calls = 0
    assert probe_modulus(problem, EUC) == 0.0
    assert counting.calls == 0
    trace = mirror_extragradient_solve(problem, config, START)
    assert trace.divergences.max() > 0.0
    assert not trace.modulus_samples.any()


def test_probe_evaluates_every_point_it_draws():
    # On a box 1e-7 wide only 21 of the 32 pairs are above the cutoff; the
    # probe still evaluates all 64 points, in draw order, and its value is
    # that of the loop that skips the other 11 pairs.
    space = box(np.array([0.0]), np.array([1e-7]))
    seen = []

    def operator(x):
        seen.append(x.copy())
        return np.exp(1e7 * x)

    points = _interior_samples(np.random.default_rng(0), space, 64)
    eligible = bregman_divergence(EUC, points[0::2], points[1::2]) > vi_module.DEGENERATE_STEP_TOL
    assert eligible.sum() == 21
    problem = VIProblem(space, operator)
    got = probe_modulus(problem, EUC, 32, 0)
    assert len(seen) == 64
    assert np.array(seen).tobytes() == points.tobytes()
    expected = _reference_probe_modulus(problem, EUC, 32, 0)
    assert got > 0.0
    assert struct.pack("d", got) == struct.pack("d", expected)


def test_auto_step_plumbing_and_validation():
    run = mirror_extratatonnement(
        ScarfEconomy(), simplex(3), EUC, "auto", 200, START, seed=4
    )
    expected = auto_step_size(_price_problem(ScarfEconomy(), simplex(3)), EUC, seed=4)
    assert run.eta == expected
    with pytest.raises(InvalidInput):
        mirror_extratatonnement(ScarfEconomy(), simplex(3), EUC, "fast", 10, START)


COUNTED_CALLS = {
    "horizon": lambda economy, problem, count: SolverConfig(eta=0.1, horizon=count, kernel=EUC),
    "record_every": lambda economy, problem, count: SolverConfig(
        eta=0.1, horizon=5, kernel=EUC, record_every=count),
    "probe_modulus": lambda economy, problem, count: probe_modulus(problem, EUC, count),
    "minty_certificate": lambda economy, problem, count: minty_certificate(
        problem, CENTER, count, 0),
    "check_warp_sample": lambda economy, problem, count: check_warp_sample(economy, count, 0),
    "check_wgs_sample": lambda economy, problem, count: check_wgs_sample(economy, count, 0),
    "check_lsd_sample": lambda economy, problem, count: check_lsd_sample(economy, count, 0),
    "elasticity_bound_estimate": lambda economy, problem, count: elasticity_bound_estimate(
        economy, count, 0),
    "bregman_continuity_bound": lambda economy, problem, count: bregman_continuity_bound(
        economy, CENTER, 1.0, pairs=count),
    "recommended_step_size": lambda economy, problem, count: recommended_step_size(
        count, 1.0, 1.0),
    "demand_oracle": lambda economy, problem, count: demand_oracle(TWO_GOODS, np.ones(2), count),
    "ExchangeEconomy": lambda economy, problem, count: ExchangeEconomy([TWO_GOODS],
                                                                       n_goods=count),
    "unit_box": lambda economy, problem, count: unit_box(count),
    "simplex": lambda economy, problem, count: simplex(count),
}

#: The name and the least value that each counted call's message gives. A
#: box's dimension is the length of its bounds, and simplex_projection's that
#: of its vector, so neither takes a count argument; test_kernels.py checks
#: their messages.
COUNT_RULES = {
    "horizon": ("horizon", 1),
    "record_every": ("record_every", 1),
    "probe_modulus": ("pairs", 1),
    "minty_certificate": ("samples", 1),
    "check_warp_sample": ("the number of sampled pairs", 0),
    "check_wgs_sample": ("the number of sampled pairs", 0),
    "check_lsd_sample": ("the number of sampled pairs", 0),
    "elasticity_bound_estimate": ("the number of sampled pairs", 0),
    "bregman_continuity_bound": ("the number of sampled pairs", 0),
    "recommended_step_size": ("n_goods", 1),
    "demand_oracle": ("resolution", 1),
    "ExchangeEconomy": ("n_goods", 1),
    "unit_box": ("box dimension", 1),
    "simplex": ("simplex dimension", 1),
}


@pytest.mark.parametrize("call", sorted(COUNTED_CALLS))
def test_a_count_must_be_an_integer(call):
    # A bool compares as a count and a float loops a fractional number of
    # times (record_every=2.5 would record only k = 0) or fails inside numpy
    # with a TypeError; each is InvalidInput. A numpy integer is a count.
    economy = generate_economy(GenSpec(seed=5, n_consumers=4, n_goods=3,
                                       mix={"cobb_douglas": 0.5, "ces_substitutes": 0.5}))
    problem = _price_problem(economy, simplex(3))
    for count in (True, False, 2.5, 3.0, np.float64(3.0), "3", None):
        with pytest.raises(InvalidInput, match="must be an integer"):
            COUNTED_CALLS[call](economy, problem, count)
    COUNTED_CALLS[call](economy, problem, np.int64(2))


@pytest.mark.parametrize("call", sorted(COUNTED_CALLS))
def test_a_count_below_its_least_names_it(call):
    # Every count goes through errors.check_count, which names the argument
    # and its least value in one message.
    economy = generate_economy(GenSpec(seed=5, n_consumers=4, n_goods=3,
                                       mix={"cobb_douglas": 0.5, "ces_substitutes": 0.5}))
    problem = _price_problem(economy, simplex(3))
    name, least = COUNT_RULES[call]
    with pytest.raises(InvalidInput, match=f"^{name} must be >= {least}, got {least - 1}$"):
        COUNTED_CALLS[call](economy, problem, least - 1)


#: Every call that takes a real scalar through errors.check_real, with the
#: name its message gives and whether the value must be positive.
REAL_CALLS = {
    "stop_gap": lambda economy, x: SolverConfig(eta=0.1, horizon=5, kernel=EUC, stop_gap=x),
    "check_homogeneity": lambda economy, x: check_homogeneity(economy, CENTER, x),
    "bregman_continuity_bound": lambda economy, x: bregman_continuity_bound(economy, CENTER, x),
    "supply_total": lambda economy, x: GenSpec(seed=0, n_consumers=2, n_goods=2,
                                               mix={"cobb_douglas": 1.0}, supply_total=x),
    "elasticity_bound": lambda economy, x: recommended_step_size(3, x, 1.0),
    "demand_bound": lambda economy, x: recommended_step_size(3, 1.0, x),
    "ScarfEconomy": lambda economy, x: ScarfEconomy(price_floor=x),
    "demand_oracle": lambda economy, x: demand_oracle(TWO_GOODS, np.ones(2), 4, floor=x),
    "consumer_demand": lambda economy, x: consumer_demand(TWO_GOODS, np.ones(2), floor=x),
    "ExchangeEconomy": lambda economy, x: ExchangeEconomy([TWO_GOODS], n_goods=2,
                                                          price_floor=x),
    "passes": lambda economy, x: EquilibriumCertificate(0.0, 0.0, 0.0).passes(x),
}

REAL_RULES = {
    "stop_gap": ("stop_gap", False),
    "check_homogeneity": ("lambda", True),
    "bregman_continuity_bound": ("elasticity", False),
    "supply_total": ("supply_total", True),
    "elasticity_bound": ("elasticity_bound", True),
    "demand_bound": ("demand_bound", True),
    "ScarfEconomy": ("price_floor", True),
    "demand_oracle": ("price_floor", True),
    "consumer_demand": ("price_floor", True),
    "ExchangeEconomy": ("price_floor", True),
    "passes": ("eps", False),
}


@pytest.mark.parametrize("call", sorted(REAL_CALLS))
def test_a_real_scalar_follows_the_one_rule(call):
    # Each of these had its own range test and none tested the type: True
    # passed as 1, a string was a bare TypeError, an infinite price floor gave
    # NaN or zero demand, and a NaN eps made passes return False.
    economy = generate_economy(GenSpec(seed=5, n_consumers=4, n_goods=3,
                                       mix={"cobb_douglas": 0.5, "ces_substitutes": 0.5}))
    name, positive = REAL_RULES[call]
    rule = "positive and finite" if positive else "finite and >= 0"
    cases = [(True, "a real number", "True"), (np.True_, "a real number", "np.True_"),
             ("0.1", "a real number", "'0.1'"), ([0.5], "a real number", "[0.5]"),
             (np.nan, rule, "nan"), (np.inf, rule, "inf"), (-1.0, rule, "-1.0")]
    if positive:
        cases.append((0.0, rule, "0.0"))
    for value, what, shown in cases:
        message = f"{name} must be {what}, got {shown}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            REAL_CALLS[call](economy, value)
    for value in (1, np.int64(1), np.float32(0.5), 0.25):
        REAL_CALLS[call](economy, value)
    if not positive:
        REAL_CALLS[call](economy, 0.0)


#: Scalars with a range of their own take errors.check_number's type test
#: before it; their range messages are unchanged.
NUMBER_CALLS = {
    "eta": lambda x: SolverConfig(eta=x, horizon=5, kernel=EUC),
    "mirror_step": lambda x: mirror_step(simplex(3), EUC, x, CENTER, np.zeros(3)),
    "kernel floor": lambda x: negative_entropy(floor=x),
    "demand_cap_factor": lambda x: ExchangeEconomy([TWO_GOODS], n_goods=2,
                                                   demand_cap_factor=x),
    "CES rho": lambda x: Consumer(CES, np.ones(2), np.ones(2), rho=x),
    "price run eta": lambda x: mirror_extratatonnement(ScarfEconomy(), simplex(3), EUC, x, 3,
                                                       CENTER),
}


@pytest.mark.parametrize("call", sorted(NUMBER_CALLS))
def test_a_scalar_with_its_own_range_must_be_a_real_number(call):
    # SolverConfig(eta=True) stored True and demand_cap_factor=True capped at
    # 1; the string '0.1' was a bare TypeError for each. A price run took
    # float(eta) first, so eta=True ran at 1.0; its one string is 'auto'.
    name = "eta" if call in ("mirror_step", "price run eta") else call
    for value, shown in ((True, "True"), (np.False_, "np.False_"), ("0.1", "'0.1'"),
                         (np.array([0.5]), "array([0.5])")):
        message = f"{name} must be a real number, got {shown}"
        if call == "price run eta" and isinstance(value, str):
            message = f"eta must be a positive number or 'auto', got {shown}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            NUMBER_CALLS[call](value)
    for value in (np.float64(0.5), np.float32(0.5)):
        NUMBER_CALLS[call](1.0 + value if call == "demand_cap_factor" else value)


OUTSIDE = np.array([0.5, 0.5, 0.5])

POINT_CALLS = {
    "x0": lambda problem: mirror_extragradient_solve(
        problem, SolverConfig(eta=0.1, horizon=2, kernel=EUC), OUTSIDE),
    "x_hat": lambda problem: gap(problem, OUTSIDE),
    "candidate": lambda problem: minty_certificate(problem, OUTSIDE, 4, 0),
    "p_hat": lambda problem: equilibrium_certificate(ScarfEconomy(), OUTSIDE, simplex(3)),
    "mirror_step": lambda problem: mirror_step(simplex(3), EUC, 0.1, OUTSIDE, np.zeros(3)),
    "p0": lambda problem: mirror_extratatonnement(ScarfEconomy(), simplex(3), EUC, 0.1, 2, OUTSIDE),
}


@pytest.mark.parametrize("call", sorted(POINT_CALLS))
def test_a_point_outside_its_set_is_named(call):
    # Every point of a set enters through kernels._point. p_hat's message
    # said "the price space" where the others said "the feasible set".
    name = "x0" if call == "mirror_step" else call
    with pytest.raises(InvalidInput, match=f"^{name} lies outside the feasible set$"):
        POINT_CALLS[call](_price_problem(ScarfEconomy(), simplex(3)))


SEEDED_CALLS = {
    "minty_certificate": lambda economy, problem, seed: minty_certificate(
        problem, CENTER, 8, seed),
    "probe_modulus": lambda economy, problem, seed: probe_modulus(problem, EUC, 4, seed),
    "auto_step_size": lambda economy, problem, seed: auto_step_size(problem, EUC, 4, seed),
    "check_wgs_sample": lambda economy, problem, seed: check_wgs_sample(economy, 4, seed),
    "check_warp_sample": lambda economy, problem, seed: check_warp_sample(economy, 4, seed),
    "check_lsd_sample": lambda economy, problem, seed: check_lsd_sample(economy, 4, seed),
    "elasticity_bound_estimate": lambda economy, problem, seed: elasticity_bound_estimate(
        economy, 2, seed),
    # With an elasticity given, and with a fixed step on a box, the call
    # draws nothing; the seed is checked all the same.
    "bregman_continuity_bound": lambda economy, problem, seed: bregman_continuity_bound(
        economy, CENTER, 1.0, seed=seed),
    "mirror_extratatonnement": lambda economy, problem, seed: mirror_extratatonnement(
        economy, unit_box(3), EUC, 0.1, 2, START, seed=seed),
    "mirror_tatonnement": lambda economy, problem, seed: mirror_tatonnement(
        economy, unit_box(3), EUC, 0.1, 2, START, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 2**64, 2.5, 1.0, True], ids=repr)
@pytest.mark.parametrize("call", sorted(SEEDED_CALLS))
def test_a_seed_follows_the_generator_rule(call, seed):
    # These handed the seed to numpy: -1 raised a bare ValueError, 2.5 and
    # 1.0 a bare TypeError, True drew seed 1's points, and 2**64 drew points
    # that GenSpec and initial_prices refuse to key.
    economy = generate_economy(GenSpec(seed=5, n_consumers=4, n_goods=3,
                                       mix={"cobb_douglas": 0.5, "ces_substitutes": 0.5}))
    problem = _price_problem(economy, simplex(3))
    with pytest.raises(InvalidInput, match="seed must be a 64-bit unsigned integer"):
        SEEDED_CALLS[call](economy, problem, seed)
    SEEDED_CALLS[call](economy, problem, np.uint64(2**64 - 1))


def test_price_run_surface():
    run = mirror_extratatonnement(
        ScarfEconomy(), simplex(3), EUC, 0.05, 3000, START, record_every=5,
        stop_gap=1e-6,
    )
    assert run.price_space.kind == "simplex"
    assert len(run.trace.infeasibility) == len(run.trace.iterates)
    assert len(run.trace.complementarity) == len(run.trace.iterates)
    assert run.converged == run.trace.converged
    assert run.eta == 0.05
    for _, p, p_half in run.trace.iterates:
        assert run.price_space.contains(p)
        assert run.price_space.contains(p_half)
    # residual series are evaluated at the half iterates
    _, _, p_half = run.trace.iterates[0]
    z = ScarfEconomy().excess(p_half)
    assert run.trace.infeasibility[0] == max(z.max(), 0.0)
    assert run.trace.complementarity[0] == abs(p_half.dot(z))
    # the run stopped early on the gap and the best iterate sits at the center
    assert run.converged
    assert run.trace.final_gap <= 1e-6
    assert len(run.trace.iterates) < 600
    assert pathwise_modulus(run.trace) <= 12.0


class CountingEconomy:
    """Forwards to an economy and counts excess-demand evaluations."""

    def __init__(self, economy):
        self.economy = economy
        self.n_goods = economy.n_goods
        self.calls = 0

    def excess(self, p):
        self.calls += 1
        return self.economy.excess(p)


@pytest.mark.parametrize("runner", [mirror_extratatonnement, mirror_tatonnement])
def test_a_start_outside_the_set_fails_before_the_step_probe(runner):
    counted = CountingEconomy(ScarfEconomy())
    with pytest.raises(InvalidInput, match="^p0 lies outside the feasible set$"):
        runner(counted, simplex(3), EUC, "auto", 2, np.ones(3))
    assert counted.calls == 0


@pytest.mark.parametrize(
    "runner, solve_evals",
    [(mirror_extratatonnement, 2 * 300), (mirror_tatonnement, 300 + 1)],
    ids=["extragradient", "gradient"],
)
@pytest.mark.parametrize(
    "space, post_evals",
    [(simplex(3), 1), (box(np.full(3, 0.1), np.ones(3)), 0)],
    ids=["simplex", "box"],
)
def test_run_spends_only_solve_certificate_and_minty_evaluations(
    runner, solve_evals, space, post_evals
):
    # The residual series and the certificate come from the solve's own
    # evaluations; after the solve a run evaluates Z only at the Minty sample
    # points, on the simplex, as one stack of 256 points.
    economy = CountingEconomy(ScarfEconomy())
    runner(economy, space, EUC, 0.05, 300, START)
    assert economy.calls == solve_evals + post_evals



def test_solver_calls_scarf_excess_once_per_evaluation(monkeypatch):
    # The solver evaluates the Scarf operator through the class attribute
    # ScarfEconomy.excess, once per evaluation: the checks on its prices run
    # inside that call, not on a path around it. A counting wrapper on the
    # class sees 2 evaluations per extragradient iteration and one stack of
    # the 256 Minty points, on the simplex.
    calls = []
    original = ScarfEconomy.excess

    def counting(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(ScarfEconomy, "excess", counting)
    run = mirror_extratatonnement(ScarfEconomy(), simplex(3), EUC, 0.05, 300, START)
    assert len(calls) == 2 * 300 + 1
    assert calls[-1].shape == (256, 3)
    monkeypatch.undo()
    # The wrapper does not change the run.
    plain = mirror_extratatonnement(ScarfEconomy(), simplex(3), EUC, 0.05, 300, START)
    assert run.trace.half_points.tobytes() == plain.trace.half_points.tobytes()


def test_solver_calls_exchange_excess_once_per_evaluation(monkeypatch):
    # A small exchange economy evaluates one price vector on its own path,
    # inside ExchangeEconomy.excess, the class attribute a tracer counts: a
    # run stopped at iteration K on the box makes 2 (K + 1) one-vector calls
    # and one call for the step-size probe's stack, and nothing else.
    calls = []
    original = ExchangeEconomy.excess

    def counting(self, p):
        calls.append(np.shape(p))
        return original(self, p)

    monkeypatch.setattr(ExchangeEconomy, "excess", counting)
    economy = generate_economy(GenSpec(seed=0, n_consumers=10, n_goods=5, mix=MIXED))
    run = mirror_extratatonnement(economy, unit_box(5), EUC, "auto", 5000, np.full(5, 0.5),
                                  stop_gap=1e-6)
    assert run.converged
    last = int(run.trace.indices[-1])
    assert len(calls) == 2 * (last + 1) + 1
    assert calls.count((5,)) == 2 * (last + 1)


def dirichlet_starts() -> list[np.ndarray]:
    """Twenty flat-Dirichlet starts on Simplex(3) from one seed-0 generator."""
    rng = np.random.default_rng(0)
    return [rng.dirichlet(np.ones(3)) for _ in range(20)]


@pytest.mark.parametrize("index", [1, 3])
def test_euclidean_extragradient_converges_from_starts_near_the_boundary(index):
    # Starts 1 and 3 lie near the boundary: start 3 is (0.648, 0.352, 1.4e-4).
    p0 = dirichlet_starts()[index]
    assert p0.min() < 2e-3
    run = mirror_extratatonnement(ScarfEconomy(), simplex(3), EUC, "auto", 50_000, p0,
                                  stop_gap=1e-9)
    assert run.converged
    assert run.trace.indices[-1] < 1000
    assert np.abs(run.trace.best_iterate - CENTER).max() <= 1e-3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="from start 3, (0.648, 0.352, 1.4e-4), the entropy kernel's run stalls "
    "near the vertex (0, 1, 0), its gap 0.114 at the 50,000 horizon; the Euclidean "
    "kernel converges from the same start in 625 iterations",
)
def test_entropy_extragradient_converges_from_a_start_near_a_vertex():
    p0 = dirichlet_starts()[3]
    run = mirror_extratatonnement(ScarfEconomy(), simplex(3), ENT, "auto", 50_000, p0,
                                  stop_gap=1e-9)
    assert run.converged


def generated_economy() -> ExchangeEconomy:
    return generate_economy(GenSpec(
        seed=5, n_consumers=30, n_goods=20,
        mix={"cobb_douglas": 0.25, "leontief": 0.25, "ces_substitutes": 0.25,
             "ces_complements": 0.25}))


@pytest.mark.parametrize(
    "runner", [mirror_extratatonnement, mirror_tatonnement], ids=["extragradient", "gradient"]
)
@pytest.mark.parametrize(
    "economy, space, kernel, p0",
    [
        (ScarfEconomy(), simplex(3), EUC, START),
        (generated_economy(), unit_box(20), EUC, np.linspace(0.2, 0.9, 20)),
        (generated_economy(), simplex(20), ENT, np.linspace(1.0, 3.0, 20) / 40.0),
    ],
    ids=["scarf_simplex", "mixed_box", "mixed_simplex_entropy"],
)
def test_residual_series_equal_excess_at_every_half_iterate(runner, economy, space, kernel,
                                                            p0):
    run = runner(economy, space, kernel, 0.02, 200, p0, record_every=3)
    assert len(run.trace.infeasibility) == len(run.trace.iterates) == 67
    for i, (_, _, p_half) in enumerate(run.trace.iterates):
        z = economy.excess(p_half)
        assert run.trace.infeasibility[i] == max(z.max(), 0.0)
        assert run.trace.complementarity[i] == abs(p_half.dot(z))
    # The run's certificate is its best record, and it equals the certificate
    # evaluated afresh at the reported point, bit for bit.
    fresh = equilibrium_certificate(economy, run.trace.best_iterate, space)
    for name in ("eps_feasibility", "walras_residual", "gap_value"):
        ours = getattr(run.certificate, name)
        assert type(ours) is float
        assert struct.pack("<d", ours) == struct.pack("<d", getattr(fresh, name))
