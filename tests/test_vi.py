"""Tests for VI problems, the two mirror solvers, gaps, and certificates."""

from __future__ import annotations

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mirrorvi import (
    COBB_DOUGLAS,
    Consumer,
    EvaluationError,
    ExchangeEconomy,
    GenSpec,
    InsufficientData,
    InvalidInput,
    RunTrace,
    ScarfEconomy,
    SolverConfig,
    VIProblem,
    box,
    bregman_divergence,
    equilibrium_certificate,
    gap,
    generate_economy,
    linear_max,
    minty_certificate,
    mirror_extragradient_solve,
    mirror_extratatonnement,
    mirror_gradient_solve,
    negative_entropy,
    pathwise_modulus,
    rate_slope,
    rotation_operator,
    scalar_nonminty_operator,
    simplex,
    squared_euclidean,
    unit_box,
)
import mirrorvi.vi as vi_module
from mirrorvi.tatonnement import _price_problem, _solve_run
from mirrorvi.vi import DEGENERATE_STEP_TOL, _gap, _residuals

EUC = squared_euclidean()
CENTER3 = np.ones(3) / 3.0
scarf_excess = ScarfEconomy().excess


def rotation_problem() -> VIProblem:
    return VIProblem(
        box(np.array([-2.0, -2.0]), np.array([2.0, 2.0])), rotation_operator()
    )


MIXED = {"cobb_douglas": 0.25, "leontief": 0.25, "ces_substitutes": 0.25,
         "ces_complements": 0.25}


def subclassed(economy, excess=None):
    """economy rebuilt as an instance of a subclass of its type, whose excess
    is the given function when one is given."""
    body = {} if excess is None else {"excess": lambda self, p: excess(p)}
    cls = type(f"Sub{type(economy).__name__}", (type(economy),), body)
    return cls(*(getattr(economy, f.name) for f in dataclasses.fields(economy) if f.init))


def scarf_problem(space) -> VIProblem:
    return VIProblem(space, lambda p: -scarf_excess(p))


def synthetic_trace(gaps) -> RunTrace:
    gaps = np.asarray(gaps, dtype=float)
    n = gaps.size
    return RunTrace(
        method="mirror_extragradient",
        indices=np.arange(n),
        points=np.zeros((n, 2)),
        half_points=np.zeros((n, 2)),
        gaps=gaps,
        divergences=np.ones(n),
        operator_deltas=np.ones(n),
        modulus_samples=np.ones(n),
        wall_time=0.0,
        elapsed=np.zeros(n),
    )


def test_problem_evaluate_rejects_wrong_shape():
    space = box(np.array([0.0]), np.array([1.0]))
    problem = VIProblem(space, lambda x: np.array([1.0, 2.0]), operator_label="bad")
    with pytest.raises(EvaluationError):
        problem.evaluate(np.array([0.5]))


def test_problem_evaluate_rejects_nonfinite():
    space = box(np.array([0.0]), np.array([1.0]))
    problem = VIProblem(space, lambda x: np.array([np.nan]))
    with pytest.raises(EvaluationError):
        problem.evaluate(np.array([0.5]))


def test_problem_evaluate_accepts_values_whose_squares_overflow():
    # The value check tests a sum of squares first; a finite value whose
    # squares overflow must still pass, and an inf beside it must not.
    space = box(np.zeros(2), np.ones(2))
    huge = np.array([1e200, -1e200])
    x = np.full(2, 0.5)
    assert VIProblem(space, lambda p: huge).evaluate(x).tobytes() == huge.tobytes()
    stack = VIProblem(space, lambda p: np.tile(huge, (len(p), 1)), batched=True)
    np.testing.assert_array_equal(stack.evaluate_many(np.array([x, x])), [huge, huge])
    bad = np.array([1e200, np.inf])
    with pytest.raises(EvaluationError, match="non-finite"):
        VIProblem(space, lambda p: bad).evaluate(x)
    with pytest.raises(EvaluationError, match="non-finite"):
        VIProblem(space, lambda p: np.tile(bad, (len(p), 1)), batched=True).evaluate_many(
            np.array([x, x]))


def test_operator_values_that_are_not_real_numbers_are_evaluation_errors():
    # Left to numpy, strings and ragged lists raise a bare ValueError, and a
    # complex value loses its imaginary part with only a ComplexWarning. The
    # price operator's own float conversion also took bools and numeric
    # strings as numbers.
    space = simplex(3)
    x = CENTER3
    for value in ([True, False, False], ["0.1", "-0.05", "-0.05"],
                  np.array([0.1 + 2.0j, -0.05, -0.05]), [0.1, [-0.05, 0.0], -0.05]):
        def operator(p, v=value):
            return [v] * len(p) if p.ndim == 2 else v

        with pytest.raises(EvaluationError, match="^operator 'F' returned values that are "
                                                  "not real numbers$"):
            VIProblem(space, operator).evaluate(x)
        for batched in (False, True):
            stacked = VIProblem(space, operator, batched=batched)
            with pytest.raises(EvaluationError, match="not real numbers"):
                stacked.evaluate_many(np.array([x, x]))
        # A price problem's -Z passes the same rule on every path: a solve's
        # first evaluation, the stacked probe of eta='auto', and a certificate,
        # for a foreign economy and for a subclass of each built-in one.
        for economy in (SimpleNamespace(excess=operator), subclassed(ScarfEconomy(), operator),
                        subclassed(ExchangeEconomy([Consumer(COBB_DOUGLAS, np.ones(3),
                                                             np.ones(3))], 3), operator)):
            for price_path in (lambda: mirror_extratatonnement(economy, space, EUC, 0.1, 10, x),
                               lambda: mirror_extratatonnement(economy, space, EUC, "auto", 10,
                                                               x),
                               lambda: equilibrium_certificate(economy, x, space)):
                with pytest.raises(EvaluationError, match="^operator '-Z' returned values that "
                                                          "are not real numbers$"):
                    price_path()
    # Integers and float32 values are real numbers, returned as float64. -Z
    # negates them after that conversion, so unsigned integers keep their sign.
    for value in ([1, 2, 3], np.array([1, 2, 3], dtype=np.uint8),
                  np.array([1.0, 2.0, 3.0], dtype=np.float32)):
        out = VIProblem(space, lambda p, v=value: v).evaluate(x)
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0, 3.0]
        neg_z = _price_problem(SimpleNamespace(excess=lambda p, v=value: v), space).evaluate(x)
        assert neg_z.dtype == np.float64 and neg_z.tolist() == [-1.0, -2.0, -3.0]


def test_a_built_in_economys_minus_z_rests_on_the_economys_own_checks(monkeypatch):
    # An economy of exactly a built-in type returns a C-ordered float64 Z that
    # is finite by its own checks (exchange demand's overflow test, Scarf's
    # floors), so its -Z is tested for shape alone: no second finiteness test.
    # A foreign economy and a subclass of a built-in one get the full rule.
    cases = [(ScarfEconomy(), simplex(3)),
             (generate_economy(GenSpec(seed=0, n_consumers=10, n_goods=5, mix=MIXED)),
              unit_box(5))]
    finite = vi_module._finite
    tests = []
    monkeypatch.setattr(vi_module, "_finite", lambda a: tests.append(a) or finite(a))
    rng = np.random.default_rng(0)
    for economy, space in cases:
        n = space.n
        x = np.full(n, 1.0 / n)
        for other, count in ((economy, 0), (SimpleNamespace(excess=economy.excess), 1),
                             (subclassed(economy), 1)):
            tests.clear()
            out = _price_problem(other, space).evaluate(x)
            assert len(tests) == count
            assert out.flags.c_contiguous and out.tobytes() == (-economy.excess(x)).tobytes()
        # Every value is -Z's bits, Z negated.
        problem = _price_problem(economy, space)
        if space.kind == "simplex":
            points = rng.dirichlet(np.ones(n), 200)
        else:
            points = rng.uniform(0.0, 1.0, (200, n))
        for p in points:
            assert problem.evaluate(p).tobytes() == (-economy.excess(p)).tobytes()
        # A stack handed to evaluate fails the shape test.
        with pytest.raises(EvaluationError, match=rf"^operator '-Z' returned shape \(2, {n}\), "
                                                  rf"expected \({n},\)$"):
            problem.evaluate(np.array([x, x]))
        # A subclass whose excess is wrong gets the full rule's messages.
        for value, message in (
                (np.full(n, np.nan), "returned non-finite values"),
                (np.zeros(n + 1), rf"returned shape \({n + 1},\), expected \({n},\)"),
                (np.zeros(n, dtype=bool), "returned values that are not real numbers")):
            bad = subclassed(economy, lambda p, v=value: v)
            with pytest.raises(EvaluationError, match=f"^operator '-Z' {message}$"):
                _price_problem(bad, space).evaluate(x)
    # At equal prices Scarf's Z is three +0.0, so -Z is three -0.0, as the
    # simplex gap's -min_j F_j relies on.
    neg_z = _price_problem(ScarfEconomy(), simplex(3)).evaluate(CENTER3)
    assert neg_z.tolist() == [0.0, 0.0, 0.0] and np.signbit(neg_z).all()
    # The economy's own overflow check stands in for the second one.
    overflowing = ExchangeEconomy([Consumer(COBB_DOUGLAS, np.ones(2), np.ones(2))], n_goods=2,
                                  demand_cap_factor=np.inf)
    space = box(np.zeros(2), np.full(2, 1e305))
    p = np.array([1e305, 0.0])
    message = r"^aggregate demand overflow at p=\[1\.e\+305 1\.e-0+8\]$"
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match=message):
        _price_problem(overflowing, space).evaluate(p)
    with pytest.raises(EvaluationError, match=message):
        mirror_extratatonnement(overflowing, space, EUC, 0.1, 3, p)


def test_a_strided_operator_value_gives_its_copys_bits():
    # A column of a (50, 2) array is a strided vector, and a BLAS dot over it
    # can differ in the last bit from one over its C-ordered copy. evaluate
    # returned the view, so gap read other bits than the copy's, and a solve's
    # stop test read them while its trace recorded the stacked copy's gap.
    rng = np.random.default_rng(0)
    space = box(-np.ones(50), np.ones(50))
    for _ in range(200):
        columns = rng.standard_normal((50, 2))
        x = rng.uniform(-1.0, 1.0, 50)
        strided = VIProblem(space, lambda p, c=columns: c[:, 0])
        copied = VIProblem(space, lambda p, c=columns: c[:, 0].copy())
        assert strided.evaluate(x).flags.c_contiguous
        assert gap(strided, x).hex() == gap(copied, x).hex()
        half = mirror_extragradient_solve(strided, SolverConfig(0.1, 1, EUC), x).half_points[0]
        stop_gap = gap(strided, half)
        config = SolverConfig(0.1, 1, EUC, stop_gap=stop_gap)
        trace = mirror_extragradient_solve(strided, config, x)
        assert trace.converged and trace.gaps[-1].hex() == stop_gap.hex()


def test_evaluate_many_checks_the_stack_contract():
    space = simplex(3)
    stack = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], CENTER3])
    problem = VIProblem(space, lambda p: -scarf_excess(p), "-Z", batched=True)
    values = problem.evaluate_many(stack)
    assert values.shape == (3, 3) and values.flags.c_contiguous
    for x, row in zip(stack, values):
        assert row.tobytes() == problem.evaluate(x).tobytes()
    # A value of the wrong shape, or with a NaN, is the operator's fault.
    for operator, message in [(lambda p: p[:, :2], r"shape \(3, 2\), expected \(3, 3\)"),
                              (lambda p: p[0], r"shape \(3,\), expected \(3, 3\)"),
                              (lambda p: np.where(p > 0.9, np.nan, p), "non-finite")]:
        with pytest.raises(EvaluationError, match=message):
            VIProblem(space, operator, batched=True).evaluate_many(stack)
    # Points that are not a (k, n) stack are the caller's fault.
    for bad in (stack[0], stack[:, :2], stack[None]):
        with pytest.raises(InvalidInput):
            problem.evaluate_many(bad)
    # An undeclared operator is never handed a stack: it sees each row as a
    # point, once and in row order, and each row of the result is evaluate's.
    seen = []

    def pointwise(p):
        seen.append(p.copy())
        return -scarf_excess(p)

    undeclared = VIProblem(space, pointwise)
    values = undeclared.evaluate_many(stack)
    assert [p.ndim for p in seen] == [1, 1, 1]
    assert np.array(seen).tobytes() == stack.tobytes()
    assert values.shape == (3, 3) and values.flags.c_contiguous
    for x, row in zip(stack, values):
        assert row.tobytes() == undeclared.evaluate(x).tobytes()


def test_solver_config_rejects_a_stop_gap_that_is_not_finite_and_nonnegative():
    for stop_gap in (np.nan, np.inf, -1e-3):
        with pytest.raises(InvalidInput, match="stop_gap must be finite and >= 0"):
            SolverConfig(eta=0.1, horizon=10, kernel=EUC, stop_gap=stop_gap)
    assert SolverConfig(eta=0.1, horizon=10, kernel=EUC, stop_gap=0.0).stop_gap == 0.0


def test_solver_config_validation():
    with pytest.raises(InvalidInput):
        SolverConfig(eta=0.0, horizon=10, kernel=EUC)
    with pytest.raises(InvalidInput):
        SolverConfig(eta=-0.1, horizon=10, kernel=EUC)
    with pytest.raises(InvalidInput):
        SolverConfig(eta=np.inf, horizon=10, kernel=EUC)
    with pytest.raises(InvalidInput, match="eta"):
        # Finite, but its effective Euclidean step 2*eta overflows.
        SolverConfig(eta=1e308, horizon=10, kernel=EUC)
    with pytest.raises(InvalidInput):
        SolverConfig(eta=0.1, horizon=0, kernel=EUC)
    with pytest.raises(InvalidInput):
        SolverConfig(eta=0.1, horizon=10, kernel=EUC, record_every=0)


def test_solve_rejects_infeasible_start():
    config = SolverConfig(eta=0.1, horizon=5, kernel=EUC)
    with pytest.raises(InvalidInput):
        mirror_extragradient_solve(rotation_problem(), config, np.array([5.0, 0.0]))
    with pytest.raises(InvalidInput):
        mirror_gradient_solve(rotation_problem(), config, np.array([5.0, 0.0]))


def test_rotation_gradient_norms_grow():
    # Each plain step multiplies the squared norm by exactly 1 + (2 eta)^2
    # while the box does not bind, so the method spirals outward.
    eta = 0.05
    config = SolverConfig(eta=eta, horizon=120, kernel=EUC)
    trace = mirror_gradient_solve(rotation_problem(), config, np.array([1.0, 0.0]))
    assert trace.method == "mirror_gradient"
    norms = np.array([np.linalg.norm(x) for _, x, _ in trace.iterates])
    assert np.all(np.diff(norms) > 0.0)
    assert norms.size - 1 >= 50
    ratios = (norms[1:51] / norms[:50]) ** 2
    np.testing.assert_allclose(ratios, 1.0 + (2.0 * eta) ** 2, rtol=1e-9)


def test_rotation_extragradient_contracts_to_origin():
    # With tau = 2 eta = 0.5 the squared norm shrinks by (1 - tau^2)^2 + tau^2
    # = 0.8125 each step, so the run reaches the origin to solver precision.
    config = SolverConfig(eta=0.25, horizon=200, kernel=EUC)
    trace = mirror_extragradient_solve(
        rotation_problem(), config, np.array([1.0, 0.0])
    )
    assert trace.method == "mirror_extragradient"
    xs = [x for _, x, _ in trace.iterates]
    ratios = [xs[k + 1].dot(xs[k + 1]) / xs[k].dot(xs[k]) for k in range(30)]
    np.testing.assert_allclose(ratios, 0.8125, rtol=1e-6)
    assert np.linalg.norm(xs[-1]) <= 1e-8
    assert np.linalg.norm(trace.best_iterate) <= 1e-8


def test_nonminty_increases_to_upper_boundary():
    # F(x) = 1 - x^2 is negative on (1, 3], so from x0 = 2 both methods push
    # the iterate up until it pins at the boundary solution x = 3.
    space = box(np.array([0.0]), np.array([3.0]))
    problem = VIProblem(space, scalar_nonminty_operator())
    for solver in (mirror_extragradient_solve, mirror_gradient_solve):
        config = SolverConfig(eta=0.1, horizon=400, kernel=EUC)
        trace = solver(problem, config, np.array([2.0]))
        values = np.array([x[0] for _, x, _ in trace.iterates])
        interior = values[values < 3.0 - 1e-12]
        assert np.all(np.diff(interior) > 0.0)
        assert np.all(np.diff(values) >= -1e-15)
        assert abs(values[-1] - 3.0) <= 1e-6


def test_nonminty_converges_to_interior_solution():
    # On [-2, 0.5] the only solution of F(x) = 1 - x^2 is x = -1, where F is
    # locally monotone; the extragradient run lands on it.
    space = box(np.array([-2.0]), np.array([0.5]))
    problem = VIProblem(space, scalar_nonminty_operator())
    config = SolverConfig(eta=0.05, horizon=2000, kernel=EUC)
    trace = mirror_extragradient_solve(problem, config, np.array([0.0]))
    assert abs(trace.iterates[-1][1][0] - (-1.0)) <= 1e-6


def test_gap_zero_at_equal_prices():
    problem = scarf_problem(simplex(3))
    assert gap(problem, CENTER3) <= 1e-9
    assert gap(problem, CENTER3) >= -1e-15


def test_gap_oracle_off_equilibrium():
    # At p = (1/4, 1/4, 1/2) the excess demand is (1/6, -1/6, 0); the gap is
    # -p.Z + max_j Z_j = 1/6 because the budget identity kills the inner term.
    problem = scarf_problem(simplex(3))
    np.testing.assert_allclose(
        gap(problem, np.array([0.25, 0.25, 0.5])), 1.0 / 6.0, rtol=1e-12
    )


def test_gap_zero_operator():
    for space in (box(np.zeros(2), np.ones(2)), simplex(3)):
        problem = VIProblem(space, lambda x: np.zeros(space.n))
        x_hat = np.full(space.n, 1.0 / space.n)
        assert gap(problem, x_hat) == 0.0


def test_gap_rejects_infeasible_point():
    problem = scarf_problem(simplex(3))
    with pytest.raises(InvalidInput):
        gap(problem, np.array([0.5, 0.5, 0.5]))


def test_gap_dominates_feasible_inner_products():
    rng = np.random.default_rng(7)
    space = box(np.zeros(3), np.ones(3))
    for _ in range(50):
        matrix = rng.normal(size=(3, 3))
        problem = VIProblem(space, lambda x, m=matrix: m @ x)
        x_hat = rng.uniform(0.0, 1.0, size=3)
        value = gap(problem, x_hat)
        fx = problem.evaluate(x_hat)
        for _ in range(8):
            y = rng.uniform(0.0, 1.0, size=3)
            assert value >= fx.dot(x_hat - y) - 1e-12


def test_minty_certificate_rotation_origin():
    # The rotation field satisfies <F(x), 0 - x> = 0 everywhere, so the origin
    # passes the sampled weak-solution check to floating-point accuracy.
    violation, _ = minty_certificate(rotation_problem(), np.zeros(2), 500, 1)
    assert violation <= 1e-9


def test_minty_certificate_negative_case_has_no_witness():
    space = box(np.array([-1.0]), np.array([1.0]))
    problem = VIProblem(space, lambda x: np.asarray(x, dtype=float).copy())
    violation, witness = minty_certificate(problem, np.zeros(1), 200, 3)
    assert violation < 0.0
    assert witness is None


def test_minty_certificate_flags_nonminty_candidate():
    space = box(np.array([0.0]), np.array([3.0]))
    problem = VIProblem(space, scalar_nonminty_operator())
    violation, witness = minty_certificate(problem, np.array([3.0]), 200, 2)
    assert violation > 0.0
    assert witness is not None
    assert 0.0 <= witness[0] < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="equal prices are not a sampled weak solution for the fixed 3-good "
    "excess demand: uniform simplex sampling finds strictly positive "
    "violations (see the companion test freezing the observed maximum), so "
    "this documented expectation cannot hold",
)
def test_minty_certificate_equal_prices_documented_expectation():
    problem = scarf_problem(simplex(3))
    violation, witness = minty_certificate(problem, CENTER3, 1000, 0)
    assert violation <= 1e-9
    assert witness is None


def test_minty_certificate_equal_prices_observed_violation():
    # Frozen observed behavior: the largest sampled violation at equal prices
    # is strictly positive, with a witness near the boundary where one price
    # dominates. This pins the actual geometry the solver must cope with.
    problem = scarf_problem(simplex(3))
    violation, witness = minty_certificate(problem, CENTER3, 1000, 0)
    np.testing.assert_allclose(violation, 0.31690080410173926, rtol=1e-12)
    assert witness is not None
    np.testing.assert_allclose(
        witness, [1.27377031e-04, 1.75846582e-02, 9.82287965e-01], rtol=1e-6
    )
    fw = problem.evaluate(witness)
    np.testing.assert_allclose(fw.dot(CENTER3 - witness), violation, rtol=1e-12)


def test_minty_certificate_validation():
    problem = scarf_problem(simplex(3))
    with pytest.raises(InvalidInput):
        minty_certificate(problem, np.array([0.5, 0.5, 0.5]), 10, 0)
    with pytest.raises(InvalidInput):
        minty_certificate(problem, CENTER3, 0, 0)


def test_pathwise_modulus_constant_operator_is_zero():
    space = box(np.zeros(2), np.ones(2))
    problem = VIProblem(space, lambda x: np.array([1.0, 1.0]))
    config = SolverConfig(eta=0.1, horizon=10, kernel=EUC)
    trace = mirror_extragradient_solve(problem, config, np.array([0.7, 0.7]))
    assert pathwise_modulus(trace) == 0.0


def test_pathwise_modulus_identity_operator_is_one():
    space = box(np.array([-1.0]), np.array([1.0]))
    problem = VIProblem(space, lambda x: np.asarray(x, dtype=float).copy())
    config = SolverConfig(eta=0.1, horizon=20, kernel=EUC)
    trace = mirror_extragradient_solve(problem, config, np.array([1.0]))
    np.testing.assert_allclose(pathwise_modulus(trace), 1.0, rtol=1e-12)


def test_pathwise_modulus_matches_recorded_samples():
    config = SolverConfig(eta=0.25, horizon=100, kernel=EUC)
    trace = mirror_extragradient_solve(
        rotation_problem(), config, np.array([1.0, 0.0])
    )
    np.testing.assert_allclose(
        pathwise_modulus(trace), trace.modulus_samples.max(), rtol=1e-12
    )


def test_pathwise_modulus_respects_price_floor_bound():
    # On the box [1/2, 1]^3 the fixed 3-good excess demand has Lipschitz
    # modulus at most 3 / (1/2)^2 = 12, so every trajectory sample stays under
    # that bound.
    space = box(np.full(3, 0.5), np.ones(3))
    problem = scarf_problem(space)
    config = SolverConfig(eta=0.05, horizon=300, kernel=EUC)
    trace = mirror_extragradient_solve(problem, config, np.array([0.5, 0.9, 0.6]))
    estimate = pathwise_modulus(trace)
    assert 0.0 < estimate <= 12.0


def test_rate_slope_requires_enough_points():
    config = SolverConfig(eta=0.25, horizon=10, kernel=EUC)
    trace = mirror_extragradient_solve(
        rotation_problem(), config, np.array([1.0, 0.0])
    )
    with pytest.raises(InsufficientData):
        rate_slope(trace)
    with pytest.raises(InsufficientData):
        rate_slope(synthetic_trace(np.array([])))


def test_rate_slope_recovers_power_law():
    ks = np.arange(200, dtype=float)
    trace = synthetic_trace((ks + 1.0) ** -0.5)
    np.testing.assert_allclose(rate_slope(trace), -0.5, atol=1e-8)


def test_rate_slope_truncates_at_first_nonpositive_gap():
    ks = np.arange(20, dtype=float)
    gaps = np.concatenate([(ks + 1.0) ** -0.5, [0.0], [50.0] * 10])
    np.testing.assert_allclose(rate_slope(synthetic_trace(gaps)), -0.5, atol=1e-8)
    short = np.concatenate([np.array([1.0, 0.5, 0.25, 0.0]), [9.0] * 30])
    with pytest.raises(InsufficientData):
        rate_slope(synthetic_trace(short))


def test_trace_recording_cadence():
    config = SolverConfig(eta=0.25, horizon=100, kernel=EUC, record_every=7)
    trace = mirror_extragradient_solve(
        rotation_problem(), config, np.array([1.0, 0.0])
    )
    assert len(trace.iterates) == 15
    np.testing.assert_array_equal(trace.indices, np.arange(0, 100, 7))
    for series in (
        trace.gaps,
        trace.divergences,
        trace.operator_deltas,
        trace.modulus_samples,
        trace.elapsed,
    ):
        assert series.shape == (15,)


def test_trace_stop_gap_halts_run():
    space = box(np.array([0.0]), np.array([3.0]))
    problem = VIProblem(space, scalar_nonminty_operator())
    config = SolverConfig(eta=0.1, horizon=400, kernel=EUC, stop_gap=1e-6)
    trace = mirror_extragradient_solve(problem, config, np.array([2.0]))
    assert trace.converged
    assert len(trace.iterates) == 2
    assert trace.gaps[-1] <= 1e-6
    no_stop = mirror_extragradient_solve(
        problem, SolverConfig(eta=0.1, horizon=400, kernel=EUC), np.array([2.0])
    )
    assert not no_stop.converged
    assert len(no_stop.iterates) == 400


def test_modulus_backoff_halves_step_until_admissible():
    # F(x) = 100 x has modulus sample exactly 100 at every recorded iteration;
    # the step halves until 100 <= 1/(2 sqrt(2) eta), i.e. six times from 0.2.
    space = box(np.array([-1.0]), np.array([1.0]))
    problem = VIProblem(space, lambda x: 100.0 * np.asarray(x, dtype=float))
    config = SolverConfig(
        eta=0.2, horizon=60, kernel=EUC, modulus_backoff=True
    )
    trace = mirror_extragradient_solve(problem, config, np.array([1.0]))
    assert trace.final_eta == pytest.approx(0.2 / 64.0, rel=1e-15)
    assert abs(trace.iterates[-1][1][0]) <= 1e-5
    plain = mirror_extragradient_solve(
        problem, SolverConfig(eta=0.2, horizon=60, kernel=EUC), np.array([1.0])
    )
    assert plain.final_eta == 0.2


def test_best_iterate_minimizes_divergence_with_lowest_tie():
    # A constant pull into the corner makes the divergence hit zero once the
    # iterate pins at (0, 0); the best index is the first such iteration.
    space = box(np.zeros(2), np.ones(2))
    problem = VIProblem(space, lambda x: np.array([1.0, 1.0]))
    config = SolverConfig(eta=0.1, horizon=12, kernel=EUC)
    trace = mirror_extragradient_solve(problem, config, np.array([0.7, 0.7]))
    pos = int(np.argmin(trace.divergences))
    assert trace.best_index == trace.indices[pos]
    np.testing.assert_array_equal(trace.best_iterate, trace.iterates[pos][2])
    zeros = np.flatnonzero(trace.divergences == trace.divergences.min())
    assert zeros.size > 1
    assert pos == zeros[0]


@pytest.mark.parametrize("solve", [mirror_gradient_solve, mirror_extragradient_solve],
                         ids=["gradient", "extragradient"])
@pytest.mark.parametrize("space", [box(np.full(3, 0.1), np.ones(3)), simplex(3)],
                         ids=["box", "simplex"])
@pytest.mark.parametrize("kernel", [EUC, negative_entropy()], ids=["euclidean", "entropy"])
def test_trace_records_are_arrays_and_iterates_is_their_view(solve, space, kernel):
    config = SolverConfig(eta=0.05, horizon=40, kernel=kernel, record_every=3)
    trace = solve(scarf_problem(space), config, np.array([0.5, 0.3, 0.2]))
    records = 14  # k = 0, 3, ..., 39
    assert trace.indices.shape == (records,) and trace.indices.dtype.kind == "i"
    np.testing.assert_array_equal(trace.indices, np.arange(0, 40, 3))
    for values in (trace.points, trace.half_points):
        assert values.shape == (records, 3) and values.dtype == np.float64
    iterates = trace.iterates
    assert len(iterates) == records
    for i, (k, x, x_half) in enumerate(iterates):
        assert type(k) is int and k == trace.indices[i]
        np.testing.assert_array_equal(x, trace.points[i])
        np.testing.assert_array_equal(x_half, trace.half_points[i])
    pos = trace.best_position
    assert pos == int(np.argmin(trace.divergences))
    assert trace.best_index == trace.indices[pos]
    np.testing.assert_array_equal(trace.best_iterate, trace.half_points[pos])


def test_gradient_trace_stores_next_iterate_in_half_slot():
    config = SolverConfig(eta=0.05, horizon=30, kernel=EUC)
    trace = mirror_gradient_solve(rotation_problem(), config, np.array([1.0, 0.0]))
    for k in range(len(trace.iterates) - 1):
        np.testing.assert_array_equal(
            trace.iterates[k][2], trace.iterates[k + 1][1]
        )
    np.testing.assert_array_equal(trace.points[1:], trace.half_points[:-1])


def test_trace_iterates_stay_feasible_and_timing_monotone():
    problem = scarf_problem(simplex(3))
    config = SolverConfig(eta=0.1, horizon=150, kernel=EUC)
    trace = mirror_extragradient_solve(problem, config, np.array([0.2, 0.3, 0.5]))
    for _, x, x_half in trace.iterates:
        assert problem.set.contains(x)
        assert problem.set.contains(x_half)
    assert np.all(np.diff(trace.elapsed) >= 0.0)
    assert trace.wall_time >= trace.elapsed[-1] >= 0.0


class CountingOperator:
    """Wraps an operator and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


@pytest.mark.parametrize("stop_gap", [1e-3, 0.0], ids=["stops", "horizon"])
@pytest.mark.parametrize("extragradient", [True, False], ids=["extragradient", "gradient"])
def test_a_stop_gap_adds_no_evaluation_before_the_stop(extragradient, stop_gap):
    # The stop test reads the F(x_{k+0.5}) each iteration evaluates anyway, so
    # it adds no evaluation: the plain method, whose x_{k+1} is x_{k+0.5},
    # costs K + 2 evaluations when it stops at iteration K and T + 1 at its
    # horizon T, and the extragradient method 2 (K + 1) and 2 T.
    op = CountingOperator(lambda x: x - np.array([0.25, 0.5]))
    horizon = 40
    config = SolverConfig(eta=0.1, horizon=horizon, kernel=EUC, record_every=7,
                          stop_gap=stop_gap)
    solve = mirror_extragradient_solve if extragradient else mirror_gradient_solve
    trace = solve(VIProblem(unit_box(2), op), config, np.array([1.0, 0.0]))
    assert trace.converged == (stop_gap > 0.0)
    if trace.converged:
        stop = int(trace.indices[-1])
        assert stop % 7 != 0
        assert op.calls == (2 * (stop + 1) if extragradient else stop + 2)
    else:
        assert trace.indices[-1] == 35
        assert op.calls == (2 * horizon if extragradient else horizon + 1)


def test_extragradient_evaluates_twice_per_iteration():
    op = CountingOperator(lambda p: -scarf_excess(p))
    config = SolverConfig(eta=0.05, horizon=40, kernel=EUC)
    mirror_extragradient_solve(VIProblem(simplex(3), op), config, np.array([0.2, 0.3, 0.5]))
    assert op.calls == 2 * 40


@pytest.mark.parametrize("space", [simplex(3), box(np.zeros(3), np.ones(3))], ids=["simplex", "box"])
def test_minty_certificate_evaluates_each_sample_once(space):
    # Points are drawn in one call but evaluated one at a time: an operator
    # is defined on single points.
    op = CountingOperator(lambda p: -scarf_excess(p))
    minty_certificate(VIProblem(space, op), CENTER3, 50, 0)
    assert op.calls == 50


def _minty_loop(problem: VIProblem, candidate, samples: int, seed):
    """Reference: the sample drawn as minty_certificate draws it, one point at a time."""
    rng = np.random.default_rng(seed)
    space = problem.set
    if space.kind == "box":
        points = rng.uniform(space.lo, space.hi, (samples, space.n))
    else:
        points = rng.dirichlet(np.ones(space.n), samples)
    max_violation = -np.inf
    worst = 0
    for i, x in enumerate(points):
        value = float(problem.evaluate(x).dot(candidate - x))
        if value > max_violation:
            max_violation = value
            worst = i
    return max_violation, (points[worst].copy() if max_violation > 0.0 else None)


def _assert_same_minty(got, expected):
    assert np.float64(got[0]).tobytes() == np.float64(expected[0]).tobytes()
    if expected[1] is None:
        assert got[1] is None
    else:
        assert got[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("space_kind", ["box", "simplex"])
@pytest.mark.parametrize("seed, m, n", [(0, 10, 5), (1, 20, 8), (2, 6, 3)])
@pytest.mark.parametrize("samples", [1, 7, 256])
def test_minty_certificate_batched_equals_loop(space_kind, seed, m, n, samples):
    # A batched problem evaluates the sample as one stack; value and witness
    # equal the point-by-point loop's bit for bit, at candidates with and
    # without violations.
    economy = generate_economy(GenSpec(seed=seed, n_consumers=m, n_goods=n, mix={
        "cobb_douglas": 0.25, "leontief": 0.25, "ces_substitutes": 0.25, "ces_complements": 0.25,
    }))
    space = unit_box(n) if space_kind == "box" else simplex(n)
    batched = _price_problem(economy, space)
    counting = CountingOperator(batched.operator)
    counted = VIProblem(space, counting, batched=True)
    looped = VIProblem(space, batched.operator)
    ramp = np.linspace(0.1, 0.9, n)
    if space_kind == "box":
        candidates = [np.zeros(n), ramp]
    else:
        candidates = [np.full(n, 1.0 / n), ramp / ramp.sum()]
    for cand in candidates:
        expected = _minty_loop(looped, cand, samples, seed)
        _assert_same_minty(minty_certificate(batched, cand, samples, seed), expected)
        _assert_same_minty(minty_certificate(looped, cand, samples, seed), expected)
        calls = counting.calls
        _assert_same_minty(minty_certificate(counted, cand, samples, seed), expected)
        assert counting.calls == calls + 1


def test_minty_certificate_batched_keeps_the_frozen_scarf_violation():
    problem = VIProblem(simplex(3), lambda p: -scarf_excess(p), batched=True)
    violation, witness = minty_certificate(problem, CENTER3, 1000, 0)
    assert violation == 0.31690080410173926
    _assert_same_minty((violation, witness),
                       _minty_loop(scarf_problem(simplex(3)), CENTER3, 1000, 0))


def _overflowing_operator(x):
    # Huge alternating rows where x_0 > 1: their 16-term dots overflow, to
    # NaN where partial sums reach +inf and -inf, or to +-inf; small rows elsewhere.
    row = np.resize(np.array([1.0, -1.0]), 16)
    return np.where(np.asarray(x)[..., :1] > 1.0, 1.5e308, 0.5) * row


@pytest.mark.parametrize("seed, samples, largest", [(0, 64, "finite"), (1, 64, "inf"),
                                                     (0, 1, "nan")])
def test_minty_certificate_nan_is_never_the_largest(seed, samples, largest):
    # In the loop a NaN value never passes `value > max_violation`; the
    # stacked values give the same result, and a NaN comes before the witness.
    space = box(np.zeros(16), np.full(16, 4.0))
    cand = np.full(16, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _minty_loop(VIProblem(space, _overflowing_operator), cand, samples, seed)
        got = minty_certificate(VIProblem(space, _overflowing_operator, batched=True),
                                cand, samples, seed)
        looped = minty_certificate(VIProblem(space, _overflowing_operator), cand, samples, seed)
        points = np.random.default_rng(seed).uniform(space.lo, space.hi, (samples, 16))
        values = np.array([_overflowing_operator(x).dot(cand - x) for x in points])
    _assert_same_minty(got, expected)
    _assert_same_minty(looped, expected)
    assert np.isnan(values[0])
    if largest == "nan":
        assert got == (-np.inf, None)
    else:
        assert np.isfinite(got[0]) == (largest == "finite") and got[0] > 0.0
        assert got[1].tobytes() == points[np.flatnonzero(values == got[0])[0]].tobytes()


def test_minty_certificate_ties_keep_the_first_point():
    # A zero operator ties every value at zero; the first point is kept, with
    # its zero's sign, and there is no witness.
    space = box(np.full(3, -1.0), np.ones(3))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))  # noqa: E731
    expected = _minty_loop(VIProblem(space, zero), np.zeros(3), 50, 4)
    for batched in (False, True):
        _assert_same_minty(
            minty_certificate(VIProblem(space, zero, batched=batched), np.zeros(3), 50, 4),
            expected)


@pytest.mark.parametrize("record_every, horizon", [(1, 31), (3, 30)])
def test_gradient_reuses_recorded_evaluation(record_every, horizon):
    # Every iteration evaluates F(x_{k+1}), which is the next iteration's
    # F(x_k), so each iterate is evaluated once and a horizon of T costs T + 1
    # evaluations whatever record_every is.
    op = CountingOperator(lambda p: -scarf_excess(p))
    config = SolverConfig(eta=0.05, horizon=horizon, kernel=EUC, record_every=record_every)
    trace = mirror_gradient_solve(VIProblem(simplex(3), op), config, np.array([0.2, 0.3, 0.5]))
    assert op.calls == horizon + 1
    np.testing.assert_array_equal(trace.indices, np.arange(0, horizon, record_every))


def test_gradient_records_do_not_depend_on_record_every():
    # What a run records does not change what it evaluates, so records of the
    # same iteration are equal bytes across record_every.
    traces = {}
    for record_every in (1, 3, 7):
        config = SolverConfig(eta=0.05, horizon=30, kernel=EUC, record_every=record_every)
        traces[record_every] = mirror_gradient_solve(
            VIProblem(simplex(3), lambda p: -scarf_excess(p)), config, np.array([0.2, 0.3, 0.5]))
    common = [0, 21]  # the iterations each of the three runs records, at row k // r
    for name in ("points", "half_points", "gaps", "divergences", "operator_deltas",
                 "modulus_samples"):
        ones = getattr(traces[1], name)[common].tobytes()
        for r in (3, 7):
            assert getattr(traces[r], name)[[k // r for k in common]].tobytes() == ones, (name, r)


def _mixed_price_problem(space) -> VIProblem:
    economy = generate_economy(GenSpec(seed=4, n_consumers=20, n_goods=20, mix={
        "cobb_douglas": 0.25, "leontief": 0.25, "ces_substitutes": 0.25, "ces_complements": 0.25,
    }))
    return VIProblem(space, lambda p: -economy.excess(p))


def _steep_problem() -> VIProblem:
    # A monotone affine field 50 times steeper along one axis: the probe's
    # random pairs underestimate its modulus, so an 'auto' step backs off.
    scale = np.array([50.0, 1.0, 1.0, 1.0, 1.0])
    return VIProblem(unit_box(5), lambda x: scale * (x - 0.3))


@pytest.mark.parametrize(
    "problem,eta,record_every",
    [
        (scarf_problem(simplex(3)), 0.05, 3),
        (scarf_problem(box(np.full(3, 0.1), np.ones(3))), 0.05, 3),
        (_mixed_price_problem(simplex(20)), 0.002, 3),
        (_mixed_price_problem(box(np.zeros(20), np.ones(20))), 0.002, 3),
        (scarf_problem(simplex(3)), 0.05, 1),
        (_mixed_price_problem(box(np.zeros(20), np.ones(20))), 0.002, 1),
        (scarf_problem(simplex(3)), 0.05, 100),
        (_mixed_price_problem(simplex(20)), 0.002, 100),
        (_steep_problem(), "auto", 3),
        (_steep_problem(), "auto", 1),
        (_steep_problem(), "auto", 100),
    ],
    ids=["scarf-simplex", "scarf-box", "mixed20-simplex", "mixed20-box",
         "scarf-simplex-every1", "mixed20-box-every1", "scarf-simplex-every100",
         "mixed20-simplex-every100", "steep5-box-auto", "steep5-box-auto-every1",
         "steep5-box-auto-every100"],
)
@pytest.mark.parametrize("kernel", [EUC, negative_entropy()], ids=["euclidean", "entropy"])
@pytest.mark.parametrize("solve", [mirror_extragradient_solve, mirror_gradient_solve],
                         ids=["extragradient", "gradient"])
def test_record_values_match_reference_bit_for_bit(problem, eta, record_every, kernel, solve):
    # The loop records from the values it holds (sqrt(d.dot(d)) for the norm,
    # -min(F) for the simplex support value), and the divergences and modulus
    # samples of all records come from one stacked call after the loop; each
    # record must equal the textbook expressions evaluated afresh at the
    # recorded points. An 'auto' step runs with backoff, which takes its
    # divergences inside the loop, and must halve at least once.
    space = problem.set
    if space.kind == "simplex":
        x0 = np.full(space.n, 1.0 / space.n)
    else:
        x0 = (space.lo + space.hi) / 2.0
    x0 = x0 + np.linspace(-0.3, 0.3, space.n) / space.n
    horizon = 20 * record_every
    if eta == "auto":
        trace, eta_used = _solve_run(problem, kernel, eta, horizon, x0,
                                     extragradient=solve is mirror_extragradient_solve,
                                     stop_gap=None, record_every=record_every, seed=0)
        assert trace.final_eta < eta_used
        # Replaying the backoff rule on the recorded samples, which come from
        # the stacked call, gives the halvings the loop made on its own.
        replayed = eta_used
        for sample in trace.modulus_samples:
            if sample > 1.0 / (2.0 * np.sqrt(2.0) * replayed):
                replayed *= 0.5
        assert replayed == trace.final_eta
    else:
        config = SolverConfig(eta=eta, horizon=horizon, kernel=kernel, record_every=record_every)
        trace = solve(problem, config, x0)
    assert len(trace.iterates) == 20
    for i, (_, x, x_half) in enumerate(trace.iterates):
        fx = problem.evaluate(x)
        f_half = problem.evaluate(x_half)
        div = bregman_divergence(kernel, x_half, x)
        delta = float(np.linalg.norm(f_half - fx))
        value, _ = linear_max(space, -f_half)
        inner = float(f_half.dot(x_half))
        sample = delta / np.sqrt(2.0 * div) if div > DEGENERATE_STEP_TOL else 0.0
        recorded = [trace.divergences[i], trace.operator_deltas[i], trace.gaps[i],
                    trace.modulus_samples[i], trace.complementarity[i], trace.infeasibility[i]]
        expected = [div, delta, inner + value, sample, abs(inner),
                    max(-float(f_half.min()), 0.0)]
        # Compared as bytes, so that the sign of a zero counts too.
        assert np.array(recorded).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("backoff", [False, True], ids=["fixed", "backoff"])
def test_entropy_divergences_below_zero_run_clean(backoff):
    # Near the fixed point an entropy divergence rounds to a tiny negative
    # value; its record gets sample 0, and no square root of it is taken.
    problem = scarf_problem(simplex(3))
    config = SolverConfig(eta=0.2, horizon=2000, kernel=negative_entropy(),
                          modulus_backoff=backoff)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = mirror_extragradient_solve(problem, config, np.array([0.5, 0.3, 0.2]))
    negative = trace.divergences < 0.0
    assert negative.any()
    assert (trace.modulus_samples[negative] == 0.0).all()


def _residual_rows() -> list[np.ndarray]:
    """Operator rows with zeros of both signs, tied minima, and one sign only."""
    return [np.array(row) for row in (
        [0.0, -0.0, 1.0, 2.0, -0.5],
        [-0.0, 0.0, 1.0, 2.0, 3.0],
        [0.0, 0.0, -0.0, -0.0, 0.0],
        [-0.0, -0.0, -0.0, -0.0, -0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 3.0, -1.0],
        [-3.0, -0.25, -1.0, -7.5, -3.0],
        [2.0, 0.25, 1.0, 7.5, 0.25],
    )]


@pytest.mark.parametrize("k", [1, 2, 300])
@pytest.mark.parametrize(
    "space", [box(np.full(5, -1.0), np.full(5, 2.0)), simplex(5)], ids=["box", "simplex"])
def test_stacked_residuals_match_vector_calls_bit_for_bit(space, k):
    # Each row of the stacked residuals must equal the vector call at that
    # row, compared as bytes so that the sign of a zero counts too.
    rng = np.random.default_rng(k)
    special = _residual_rows()
    if k < 300:
        # Every special row, in stacks of k consecutive rows.
        stacks = [[special[(s + j) % len(special)] for j in range(k)]
                  for s in range(len(special))]
    else:
        stacks = [[special[i // 2 % len(special)] if i % 2 == 0 else rng.normal(size=5)
                   for i in range(k)]]
    for rows in stacks:
        fx = np.array(rows)
        if space.kind == "box":
            x = rng.uniform(-1.0, 2.0, fx.shape)
            x[::2, 1] = 0.0
            x[1::2, 1] = -0.0
        else:
            x = rng.dirichlet(np.ones(5), k)
        stacked = _residuals(space, x, fx)
        vector = [_residuals(space, xi, fi) for xi, fi in zip(x, fx)]
        for column, got in enumerate(stacked):
            assert got.shape == (k,)
            expected = np.array([values[column] for values in vector])
            assert got.tobytes() == expected.tobytes()


_TRACE_ARRAYS = ("indices", "points", "half_points", "gaps", "divergences", "operator_deltas",
                 "modulus_samples", "complementarity", "infeasibility")


@pytest.mark.parametrize("eta", [0.05, "auto"], ids=["fixed", "auto"])
@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("kernel", [EUC, negative_entropy()], ids=["euclidean", "entropy"])
@pytest.mark.parametrize("extragradient", [True, False], ids=["extragradient", "gradient"])
def test_stopped_run_is_a_prefix_of_the_full_run(extragradient, kernel, record_every, eta):
    # The loop tests the gap at x_{k+0.5} on every iteration and records the
    # iteration it stops at, whatever record_every is. A run stopped at
    # stop_gap keeps the records of the same run without a stop up to the
    # stop, byte for byte, and its last record is the first iteration whose
    # gap is at most stop_gap, with the gap the loop computed.
    problem = scarf_problem(simplex(3))
    x0 = np.array([0.5, 0.3, 0.2])

    def run(stop_gap, step=eta, every=record_every):
        return _solve_run(problem, kernel, step, 60 * record_every, x0,
                          extragradient=extragradient, stop_gap=stop_gap,
                          record_every=every, seed=0)

    full = run(None)[0]
    # The least recorded gap in the first half of the run, below the first:
    # the plain method's gaps oscillate, so its stop falls between records.
    stop_gap = float(np.min(full.gaps[1:full.gaps.size // 2]))
    stopped, eta_used = run(stop_gap)
    stop = int(stopped.indices[-1])
    before = int(np.searchsorted(full.indices, stop))
    assert stopped.converged and not full.converged and stop > 0
    assert stopped.indices.size == before + 1 <= full.indices.size
    for name in _TRACE_ARRAYS:
        got = getattr(stopped, name)[:before]
        assert got.tobytes() == getattr(full, name)[:before].tobytes(), name
    assert (stopped.gaps[:-1] > stop_gap).all() and stopped.gaps[-1] <= stop_gap
    x_half = stopped.half_points[-1]
    loop_gap = _gap(problem.set, x_half, problem.evaluate(x_half))
    assert stopped.gaps[-1].tobytes() == loop_gap.tobytes()
    if stopped.final_eta == eta_used:
        # No step was halved before the stop, so a record_every=1 run at the
        # fixed step eta_used takes the same steps and records every gap.
        each = run(None, eta_used, 1)[0]
        assert stop == int(np.argmax(each.gaps <= stop_gap))
        for name in _TRACE_ARRAYS:
            got = getattr(stopped, name)
            assert got.tobytes() == getattr(each, name)[stopped.indices].tobytes(), name


def _gap_cases(space) -> list[tuple[np.ndarray, np.ndarray]]:
    """(x, F(x)) pairs in the set, with zeros of both signs in F and, on a box
    (every box here holds 0), in x."""
    rng = np.random.default_rng(space.n)
    if space.n == 1:
        rows = [np.array([v]) for v in (0.0, -0.0, 1.5, -2.0)]
    else:
        rows = _residual_rows() + [rng.normal(size=space.n) for _ in range(8)]
    cases = []
    for fx in rows:
        if space.kind == "box":
            for value in (space.lo[0], space.hi[0], 0.0, -0.0):
                x = rng.uniform(space.lo, space.hi)
                x[0] = value
                cases.append((x, fx))
        else:
            cases.append((rng.dirichlet(np.ones(space.n)), fx))
            cases.append((np.eye(space.n)[0], fx))
    return cases


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 2.0), None],
                         ids=["unit_box", "box", "simplex"])
def test_gap_equals_the_stacked_residual_gap_bit_for_bit(bounds, n):
    # The loop's stop test takes _gap at one point and the trace records
    # _residuals' stacked gap: they must agree as bytes, sign of a zero too.
    space = simplex(n) if bounds is None else box(np.full(n, bounds[0]), np.full(n, bounds[1]))
    cases = _gap_cases(space)
    xs = np.array([x for x, _ in cases])
    fxs = np.array([fx for _, fx in cases])
    stacked = _residuals(space, xs, fxs)[0]
    assert stacked.shape == (len(cases),)
    for row, (x, fx) in zip(stacked, cases):
        assert _gap(space, x, fx).tobytes() == row.tobytes()
        assert _residuals(space, x, fx)[0].tobytes() == row.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 40])
@pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 2.0), None],
                         ids=["unit_box", "box", "simplex"])
def test_public_gap_equals_its_row_of_a_stacked_gap(bounds, n):
    # gap at a point takes its dots on two vectors (a.dot), a stack's rows
    # take np.vecdot: a point's gap is still its row of any stack that holds
    # it, sign of a zero too.
    space = simplex(n) if bounds is None else box(np.full(n, bounds[0]), np.full(n, bounds[1]))
    rng = np.random.default_rng(100 + n)
    rows = [np.resize(row, n) for row in _residual_rows()] if n > 1 else []
    rows += [rng.normal(size=n) for _ in range(4)]
    cases = _gap_cases(space) if n in (1, 5) else [
        (rng.uniform(space.lo, space.hi) if space.kind == "box"
         else rng.dirichlet(np.ones(n)), fx) for fx in rows]
    xs = np.array([x for x, _ in cases])
    fxs = np.array([fx for _, fx in cases])
    stacked = _gap(space, xs, fxs)
    for row, (x, fx) in zip(stacked, cases):
        value = gap(VIProblem(space, lambda _, fx=fx: fx), x)
        assert np.float64(value).tobytes() == row.tobytes()
