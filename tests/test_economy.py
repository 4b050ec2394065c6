"""Tests for consumer demands, exchange economies, and market diagnostics."""

from __future__ import annotations

import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from mirrorvi import (
    CES,
    COBB_DOUGLAS,
    LEONTIEF,
    Consumer,
    EvaluationError,
    ExchangeEconomy,
    GenSpec,
    InvalidInput,
    ScarfEconomy,
    Unsupported,
    bregman_continuity_bound,
    check_homogeneity,
    check_lsd_sample,
    check_walras,
    check_warp_sample,
    check_wgs_sample,
    consumer_demand,
    demand_oracle,
    elasticity_bound_estimate,
    excess_demand,
    generate_economy,
    scarf_excess_demand,
)
import mirrorvi.economy as economy_module

RHO_CHOICES = (-8.0, -1.5, 0.5, 0.9)

#: The four-way mix of `mirrorvi sweep` and criterion 09.
DESK_MIX = {"cobb_douglas": 0.25, "leontief": 0.25, "ces_substitutes": 0.25,
            "ces_complements": 0.25}


def random_consumer(rng, n: int) -> Consumer:
    kind = (COBB_DOUGLAS, LEONTIEF, CES)[int(rng.integers(3))]
    rho = float(rng.choice(RHO_CHOICES)) if kind == CES else None
    return Consumer(
        kind,
        rng.uniform(0.1, 1.0, n),
        rng.uniform(0.0, 1.0, n) + 0.05,
        rho=rho,
    )


def random_economy(rng, cap_factor: float) -> ExchangeEconomy:
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 7))
    return ExchangeEconomy(
        [random_consumer(rng, n) for _ in range(m)],
        n_goods=n,
        demand_cap_factor=cap_factor,
    )


def test_consumer_validation():
    v = np.array([1.0, 1.0])
    e = np.array([1.0, 1.0])
    with pytest.raises(InvalidInput):
        Consumer("quasilinear", v, e)
    with pytest.raises(InvalidInput):
        Consumer(CES, v, e)  # missing rho
    with pytest.raises(InvalidInput):
        Consumer(CES, v, e, rho=0.0)
    with pytest.raises(InvalidInput):
        Consumer(CES, v, e, rho=1.5)
    with pytest.raises(InvalidInput):
        Consumer(COBB_DOUGLAS, v, e, rho=0.5)
    with pytest.raises(InvalidInput):
        Consumer(COBB_DOUGLAS, np.array([1.0, 0.0]), e)
    with pytest.raises(InvalidInput):
        Consumer(COBB_DOUGLAS, v, np.array([1.0, -1.0]))
    with pytest.raises(InvalidInput):
        Consumer(COBB_DOUGLAS, v, np.array([1.0, 1.0, 1.0]))


def _per_entry_consumer_error(v: np.ndarray, e: np.ndarray) -> str | None:
    """The consumer's vector checks as per-entry tests: the reference."""
    if not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
        return "valuations must be finite and strictly positive"
    if not (np.all(np.isfinite(e)) and np.all(e >= 0.0)):
        return "endowment must be finite and nonnegative"
    return None


CHECK_VECTORS = [
    [], [1.0], [0.0], [-0.0], [-1.0], [np.nan], [np.inf], [-np.inf], [5e-324], [1e308],
    [1.0, np.nan], [np.nan, -1.0], [1.0, -0.0], [-0.0, 0.0], [0.5, 0.0], [np.inf, np.inf],
    [-np.inf, np.inf], [2.0, -5e-324], [1.0, 2.0, 3.0], [0.0, 1.0, np.inf],
]


def test_consumer_vector_checks_match_per_entry_tests():
    # The two reductions per vector accept and reject exactly what the
    # per-entry tests do, with the same message: NaN, +-inf, negatives,
    # -0.0 (a valid endowment, not a valid valuation) and empty vectors.
    checked = 0
    for v in CHECK_VECTORS:
        for e in CHECK_VECTORS:
            if len(v) != len(e):
                continue
            v_arr, e_arr = np.array(v, dtype=float), np.array(e, dtype=float)
            expected = _per_entry_consumer_error(v_arr, e_arr)
            for utility in (COBB_DOUGLAS, LEONTIEF):
                if expected is None:
                    Consumer(utility, v_arr, e_arr)
                else:
                    with pytest.raises(InvalidInput, match=f"^{expected}$"):
                        Consumer(utility, v_arr, e_arr)
                checked += 1
    assert checked == 2 * sum(
        1 for v in CHECK_VECTORS for e in CHECK_VECTORS if len(v) == len(e))
    # The grid holds each kind of case on both sides.
    Consumer(LEONTIEF, np.empty(0), np.empty(0))
    Consumer(LEONTIEF, np.array([1.0]), np.array([-0.0]))
    with pytest.raises(InvalidInput, match="valuations"):
        Consumer(LEONTIEF, np.array([-0.0]), np.array([1.0]))


@pytest.mark.parametrize("rho", [-np.inf, np.inf, np.nan])
def test_ces_rho_must_be_finite(rho):
    # rho = -inf gives sigma = 0: demand budget / sum(p) for every good,
    # whatever the valuations.
    with pytest.raises(InvalidInput, match="CES rho must be finite"):
        Consumer(CES, np.array([1.0, 2.0]), np.array([1.0, 1.0]), rho=rho)
    Consumer(CES, np.array([1.0, 2.0]), np.array([1.0, 1.0]), rho=-1e300)


def test_economy_validation():
    c = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput):
        ExchangeEconomy([], n_goods=2)
    with pytest.raises(InvalidInput):
        ExchangeEconomy([c], n_goods=3)
    with pytest.raises(InvalidInput):
        ExchangeEconomy([c], n_goods=2, demand_cap_factor=0.5)
    with pytest.raises(InvalidInput):
        ExchangeEconomy([c], n_goods=2, price_floor=0.0)
    zero_good = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(InvalidInput):
        ExchangeEconomy([zero_good], n_goods=2)


@pytest.mark.parametrize("n_goods", [2.0, True, np.float64(2.0), "2", None])
def test_economy_n_goods_must_be_an_integer(n_goods):
    # 2.0 used to build an economy whose excess raised a bare TypeError, and
    # True passed as one good.
    c = Consumer(COBB_DOUGLAS, np.array([1.0]), np.array([1.0]))
    with pytest.raises(InvalidInput, match="n_goods must be an integer"):
        ExchangeEconomy([c], n_goods=n_goods)


def test_economy_n_goods_may_be_a_numpy_integer():
    # It is stored as an int: a uint8 used to overflow in the block-size
    # arithmetic of a stacked call.
    c = Consumer(COBB_DOUGLAS, np.array([1.0]), np.array([1.0]))
    for good in (np.int64(1), np.uint8(1)):
        economy = ExchangeEconomy([c], n_goods=good)
        assert type(economy.n_goods) is int
        np.testing.assert_array_equal(economy.excess(np.ones((3, 1))), np.zeros((3, 1)))


ONE_GOOD = Consumer(COBB_DOUGLAS, np.array([1.0]), np.array([1.0]))
TWO_GOODS = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))

ECONOMY_REJECTIONS = {
    "n_goods_zero": (lambda: ExchangeEconomy([ONE_GOOD], n_goods=0),
                     InvalidInput, "n_goods must be >= 1, got 0"),
    "demand_overflow": (
        lambda: consumer_demand(Consumer(COBB_DOUGLAS, np.ones(2), np.full(2, 1e308)),
                                np.array([1.0, 1e-10])),
        EvaluationError, "demand overflow for cobb_douglas consumer"),
    "oracle_resolution_zero": (lambda: demand_oracle(TWO_GOODS, np.ones(2), 0),
                               InvalidInput, "resolution must be >= 1, got 0"),
    "oracle_resolution_negative": (lambda: demand_oracle(TWO_GOODS, np.ones(2), -1),
                                   InvalidInput, "resolution must be >= 1, got -1"),
    "oracle_resolution_bool": (lambda: demand_oracle(TWO_GOODS, np.ones(2), True),
                               InvalidInput, "resolution must be an integer, got True"),
    "oracle_resolution_float": (lambda: demand_oracle(TWO_GOODS, np.ones(2), 2.5),
                                InvalidInput, "resolution must be an integer, got 2.5"),
    # A NaN, negative or infinite elasticity gave a NaN, negative or infinite
    # bound.
    "continuity_elasticity_nan": (
        lambda: bregman_continuity_bound(ExchangeEconomy([TWO_GOODS], 2), [0.5, 0.5],
                                         elasticity=np.nan),
        InvalidInput, "elasticity must be finite and >= 0, got nan"),
    "continuity_elasticity_negative": (
        lambda: bregman_continuity_bound(ExchangeEconomy([TWO_GOODS], 2), [0.5, 0.5],
                                         elasticity=-1.0),
        InvalidInput, "elasticity must be finite and >= 0, got -1.0"),
    "continuity_elasticity_inf": (
        lambda: bregman_continuity_bound(ExchangeEconomy([TWO_GOODS], 2), [0.5, 0.5],
                                         elasticity=np.inf),
        InvalidInput, "elasticity must be finite and >= 0, got inf"),
    # An infinite lambda failed as "prices must be finite", blaming the prices.
    "homogeneity_lambda_inf": (
        lambda: check_homogeneity(ExchangeEconomy([TWO_GOODS], 2), [0.5, 0.5], np.inf),
        InvalidInput, "lambda must be positive and finite, got inf"),
    # A finite lambda that overflows lambda * p also failed as "prices must be
    # finite", after a numpy overflow warning.
    "homogeneity_lambda_overflow": (
        lambda: check_homogeneity(ExchangeEconomy([TWO_GOODS], 2), [2.0, 1.0], 1e308),
        InvalidInput, "lambda * p must be finite, got lambda 1e+308 and largest price 2.0"),
}


@pytest.mark.parametrize("case", sorted(ECONOMY_REJECTIONS))
def test_economy_entry_points_reject_bad_input(case):
    # demand_oracle with resolution 0 divided by zero and returned zeros, -1
    # returned zeros, True acted as 1 and 2.5 raised a bare TypeError.
    call, error, message = ECONOMY_REJECTIONS[case]
    with np.errstate(over="ignore"), pytest.raises(error, match=re.escape(message)):
        call()


def test_demand_oracle_of_a_zero_budget_is_the_zero_bundle():
    broke = Consumer(COBB_DOUGLAS, np.ones(2), np.zeros(2))
    np.testing.assert_array_equal(demand_oracle(broke, np.ones(2), 4), np.zeros(2))
    np.testing.assert_array_equal(consumer_demand(broke, np.ones(2)), np.zeros(2))


@pytest.mark.parametrize("floor", [0.0, -0.0, -1e-8, float("nan")])
def test_demand_functions_reject_a_floor_that_is_not_positive(floor):
    # A zero floor made scarf_excess_demand divide by zero and demand_oracle
    # return inf; a NaN floor made Scarf excess NaN.
    c = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    p = np.array([0.0, 1.0])
    calls = [lambda: scarf_excess_demand(np.array([0.0, 0.0, 1.0]), floor=floor),
             lambda: scarf_excess_demand(np.ones((2, 3)), floor=floor),
             lambda: demand_oracle(c, p, 10, floor=floor),
             lambda: consumer_demand(c, p, floor=floor)]
    for call in calls:
        with pytest.raises(InvalidInput, match="price_floor must be positive"):
            call()


@pytest.mark.parametrize("cap", [np.nan, -1.0, [1.0, np.nan], [1.0, -0.5], [1.0, 1.0, 1.0],
                                 np.ones((1, 2))])
def test_consumer_demand_rejects_a_bad_cap(cap):
    # A NaN cap returned NaN demand and a negative one negative demand.
    c = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput, match="cap must be"):
        consumer_demand(c, np.array([0.5, 1.0]), cap=cap)


def test_price_validation():
    c = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput):
        consumer_demand(c, np.array([1.0, -0.5]))
    with pytest.raises(InvalidInput):
        consumer_demand(c, np.array([1.0, np.inf]))
    with pytest.raises(InvalidInput):
        consumer_demand(c, np.array([1.0]))
    with pytest.raises(InvalidInput):
        consumer_demand(c, np.ones((2, 2)))


def test_cobb_douglas_demand_oracle():
    c = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(consumer_demand(c, np.array([1.0, 1.0])), [1.0, 1.0])
    skew = Consumer(COBB_DOUGLAS, np.array([1.0, 3.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(consumer_demand(skew, np.array([1.0, 1.0])), [0.5, 1.5])


def test_leontief_demand_oracle():
    c = Consumer(LEONTIEF, np.array([1.0, 2.0]), np.array([3.0, 0.0]))
    np.testing.assert_allclose(consumer_demand(c, np.array([1.0, 1.0])), [1.0, 2.0])


def test_ces_demand_oracle():
    # sigma = 2 at prices (1/2, 2) with unit valuations and endowment (1, 1):
    # budget 2.5 splits into the closed-form bundle (4, 1/4).
    c = Consumer(CES, np.array([1.0, 1.0]), np.array([1.0, 1.0]), rho=0.5)
    np.testing.assert_allclose(
        consumer_demand(c, np.array([0.5, 2.0])), [4.0, 0.25], rtol=1e-12
    )


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def budget_identity_bound(utility: str, n: int) -> float:
    """Relative bound on |p . x_i - b_i| for a row of n goods, p . x_i taken
    with one more dot, from the budget b_i and floored prices p the demand used.

    - Leontief and CES: x_ij = fl(d_ij r_i), r_i = fl(b_i / c_i), and the cost
      c_i = fl(d_i . p) is within gamma_n of the exact d_i . p for whatever
      direction d_i was computed (every term is nonnegative). The check's dot
      gives r_i sum_j d_ij p_j (1 + theta_j), |theta_j| <= gamma_{n+1} with
      the scaling's rounding, so p . x_i / b_i lies within
      (1 + u)(1 + gamma_{n+1}) / (1 - gamma_n) of 1: (2n + 2)u to first order.
    - Cobb-Douglas: x_ij = fl(fl(b_i q_j) w_ij), q_j = fl(1 / p_j), w_ij =
      fl(v_ij / S_i) and S_i = fl(sum_j v_ij) within gamma_{n-1}: four
      roundings per term and the check's gamma_n over, gamma_{n-1} under.
    """
    u = UNIT_ROUNDOFF
    if utility == COBB_DOUGLAS:
        return (1.0 + gamma(n + 4)) / (1.0 - gamma(n - 1)) - 1.0
    return (1.0 + u) * (1.0 + gamma(n + 1)) / (1.0 - gamma(n)) - 1.0


def budget_underflow(n: int, p: np.ndarray, b) -> np.ndarray:
    """What terms below the normal range add to |p . x_i - b_i|, absolutely.

    A demand entry x_ij and each product of the check's dot that fall below
    it are off by at most half a subnormal: n (1 + max p) half subnormals in
    all. CES cost terms that do change the cost, which is at least the
    smallest price, by at most n half subnormals. A Leontief cost term
    v_ij p_j is never that small at the valuations and floored prices tested
    here.
    """
    return n * SMALLEST_SUBNORMAL * (1.0 + p.max() + b / p.min())


def test_budget_identity_uncapped():
    # Each row spends its budget to a few roundings per good, for
    # elasticities of substitution from 1e-6 to 1000, valuations from 1e-12
    # to 1e6 and prices from 1e-9 to 1e3, zeros included (they go to the
    # floor). The budget is the consumer's own product, as consumer_demand
    # takes it.
    rng = np.random.default_rng(0)
    for k in range(600):
        n = int(rng.integers(1, 60))
        utility = (COBB_DOUGLAS, LEONTIEF, CES)[k % 3]
        sigma = float(rng.choice(CES_SIGMAS))
        consumer = Consumer(utility, 10.0 ** rng.uniform(-12.0, 6.0, n),
                            rng.uniform(0.0, 1.0, n) + 0.05,
                            rho=1.0 - 1.0 / sigma if utility == CES else None)
        p = 10.0 ** rng.uniform(-9.0, 3.0, n)
        if k % 2:
            p[rng.random(n) < 0.4] = 0.0
        x = consumer_demand(consumer, p)
        assert np.isfinite(x).all()
        floored = np.maximum(p, economy_module.DEFAULT_PRICE_FLOOR)
        budget = economy_module._matvec(consumer.endowment[None, :], floored)[0]
        bound = budget_identity_bound(utility, n) * budget + budget_underflow(n, floored, budget)
        assert abs(floored.dot(x) - budget) <= bound, (utility, n, sigma)


def test_demand_cap_clips_coordinates():
    c = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([10.0, 10.0]))
    p = np.array([0.01, 1.0])
    free = consumer_demand(c, p)
    assert free[0] > 3.0
    capped = consumer_demand(c, p, cap=np.array([3.0, 3.0]))
    np.testing.assert_allclose(capped, np.minimum(free, 3.0))
    # A cap is a scalar or one entry per good, each >= 0.
    for cap in (3.0, [3.0, 50.0], np.inf, 0.0, -0.0):
        np.testing.assert_array_equal(consumer_demand(c, p, cap=cap), np.minimum(free, cap))


def test_zero_budget_returns_zero_bundle():
    c = Consumer(LEONTIEF, np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    np.testing.assert_array_equal(consumer_demand(c, np.array([1.0, 1.0])), [0.0, 0.0])
    # Every family's closed form gives the +0.0 bundle for an endowment of
    # +0.0 or -0.0, with and without a cap, bit for bit the consumer's row in
    # an economy, whose budgets are one product over all of its consumers.
    for (utility, rho), zero, n in itertools.product(
            [(COBB_DOUGLAS, None), (LEONTIEF, None), (CES, 0.5), (CES, -3.0)],
            (0.0, -0.0), (1, 2, 7)):
        c = Consumer(utility, np.arange(1.0, n + 1.0), np.full(n, zero), rho=rho)
        other = Consumer(utility, np.full(n, 2.0), np.ones(n), rho=rho)
        p = np.linspace(0.5, 2.0, n)
        for cap_factor in (np.inf, 1.0):
            economy = ExchangeEconomy([c, other], n_goods=n, demand_cap_factor=cap_factor)
            (group,) = economy._groups
            budgets = economy_module._matvec(economy._endowments, p)
            row = group.fill(budgets, p, 0, 1)[0]
            if economy._cap is not None:
                row = np.minimum(row, economy._cap)
            x = consumer_demand(c, p, cap=economy._cap)
            assert x.tobytes() == row.tobytes() == np.zeros(n).tobytes(), (utility, zero, n)


def test_demand_oracle_matches_closed_form():
    cases = [
        (
            Consumer(COBB_DOUGLAS, np.array([1.0, 3.0]), np.array([1.0, 1.0])),
            np.array([1.0, 1.0]),
        ),
        (
            Consumer(LEONTIEF, np.array([1.0, 2.0]), np.array([3.0, 0.0])),
            np.array([1.0, 1.0]),
        ),
        (
            Consumer(CES, np.array([1.0, 1.0]), np.array([1.0, 1.0]), rho=0.5),
            np.array([0.5, 2.0]),
        ),
        (
            Consumer(CES, np.array([1.0, 2.0]), np.array([1.0, 0.5]), rho=-1.5),
            np.array([0.4, 0.9]),
        ),
    ]
    resolution = 200
    for consumer, p in cases:
        exact = consumer_demand(consumer, p)
        approx = demand_oracle(consumer, p, resolution)
        budget = p.dot(consumer.endowment)
        cell = 2.0 * budget / (resolution * p.min())
        np.testing.assert_allclose(approx, exact, atol=cell)


def test_demand_oracle_three_goods():
    c = Consumer(COBB_DOUGLAS, np.array([1.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    p = np.array([1.0, 0.5, 2.0])
    np.testing.assert_allclose(
        demand_oracle(c, p, 60), consumer_demand(c, p), atol=2.0 * 3.5 / (60 * 0.5)
    )


def test_demand_oracle_unsupported_sizes():
    big = Consumer(COBB_DOUGLAS, np.ones(4), np.ones(4))
    with pytest.raises(Unsupported):
        demand_oracle(big, np.ones(4), 50)
    small = Consumer(COBB_DOUGLAS, np.ones(2), np.ones(2))
    with pytest.raises(Unsupported):
        demand_oracle(small, np.ones(2), 402)


def test_aggregate_demand_matches_per_consumer_sum():
    rng = np.random.default_rng(11)
    for cap_factor in (1.0, 1.5, np.inf):
        for _ in range(10):
            economy = random_economy(rng, cap_factor)
            p = rng.uniform(0.1, 1.0, economy.n_goods)
            cap = (
                None
                if not np.isfinite(cap_factor)
                else cap_factor * economy.aggregate_supply
            )
            expected = np.sum(
                [consumer_demand(c, p, cap=cap) for c in economy.consumers], axis=0
            )
            np.testing.assert_allclose(economy.demand(p), expected, rtol=1e-12)
            np.testing.assert_allclose(
                excess_demand(economy, p),
                expected - economy.aggregate_supply,
                rtol=1e-12,
                atol=1e-12,
            )


def test_scarf_excess_demand_oracles():
    np.testing.assert_allclose(
        scarf_excess_demand(np.array([1.0, 1.0, 2.0])),
        [1.0 / 6.0, -1.0 / 6.0, 0.0],
        atol=1e-15,
    )
    np.testing.assert_array_equal(scarf_excess_demand(np.ones(3)), np.zeros(3))
    with pytest.raises(InvalidInput):
        scarf_excess_demand(np.ones(2))
    with pytest.raises(InvalidInput):
        scarf_excess_demand(np.array([1.0, np.nan, 1.0]))
    with pytest.raises(InvalidInput):
        scarf_excess_demand(np.ones((4, 2)))
    with pytest.raises(InvalidInput):
        scarf_excess_demand(np.ones((2, 4, 3)))
    with pytest.raises(InvalidInput):
        scarf_excess_demand(np.array([[1.0, 1.0, 1.0], [1.0, np.inf, 1.0]]))


def test_scarf_rejects_negative_prices_like_an_exchange_economy():
    # A negative price is bad input for every operator; the Scarf operator
    # must not floor it into a valid-looking value.
    pair = cobb_douglas_pair()
    for bad in (np.array([-1.0, 0.5, 0.5]), np.array([[0.2, 0.3, 0.5], [0.5, -1e-300, 0.5]])):
        with pytest.raises(InvalidInput, match="nonnegative"):
            scarf_excess_demand(bad)
        with pytest.raises(InvalidInput, match="nonnegative"):
            ScarfEconomy().excess(bad)
        with pytest.raises(InvalidInput, match="nonnegative"):
            pair.excess(bad)
    with pytest.raises(InvalidInput, match="finite"):
        scarf_excess_demand(np.array([-1.0, np.nan, 0.5]))
    # Zero prices, negative zero included, are floored as before.
    np.testing.assert_array_equal(scarf_excess_demand(np.array([-0.0, 0.0, 1.0])),
                                  scarf_excess_demand(np.array([0.0, 0.0, 1.0])))
    # An empty stack has no entry to check.
    assert scarf_excess_demand(np.empty((0, 3))).shape == (0, 3)
    assert pair.excess(np.empty((0, 3))).shape == (0, 3)


def scarf_price_stack() -> np.ndarray:
    """Simplex points at scales from 1e-9 to 1e3, with zero (floored) prices."""
    rng = np.random.default_rng(16)
    prices = rng.dirichlet(np.ones(3), 500) * 10.0 ** rng.uniform(-9.0, 3.0, (500, 1))
    prices[::7, int(rng.integers(3))] = 0.0
    prices[::11] = 1.0
    return prices


def test_scarf_excess_demand_rows_match_single_calls():
    prices = scarf_price_stack()
    batch = scarf_excess_demand(prices)
    assert batch.shape == prices.shape
    for p, row in zip(prices, batch):
        np.testing.assert_array_equal(row, scarf_excess_demand(p))



@pytest.mark.parametrize("floor", [1e-8, 0.0, -0.0, 0.5], ids=["default", "zero", "negzero", "half"])
def test_scarf_single_vector_equals_stack_row(floor):
    # A float 3-vector is checked and floored on its Python floats; each
    # value must equal the (1, 3) stack row, which goes through _as_prices
    # and np.maximum, as bytes so that the sign of a zero counts too. A floor
    # that is not positive is rejected on both paths, as by an economy.
    cases = [np.ones(3), np.array([-0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]),
             np.array([1e-9, 0.5, 2e-8]), np.array([1e-8, 1e-8, 0.3]),
             np.array([0.5, 0.5, 0.5]), np.array([1e-300, 1.0, 1e300]),
             np.array([1e-12, 3e5, 7.0]), np.zeros(3), np.array([-0.0, -0.0, 0.0])]
    for p in cases:
        if not floor > 0.0:
            for prices in (p, p[None, :]):
                with pytest.raises(InvalidInput, match="price_floor must be positive"):
                    scarf_excess_demand(prices, floor)
            continue
        expected = scarf_excess_demand(p[None, :], floor)[0]
        got = scarf_excess_demand(p, floor)
        assert got.shape == (3,) and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes(), p
        assert ScarfEconomy(floor).excess(p).tobytes() == expected.tobytes()


def test_scarf_single_vector_checks_like_as_prices():
    # Bad prices raise the InvalidInput that _as_prices raises, word for word;
    # inputs other than a float 3-vector take the _as_prices path and give
    # the float vector's values.
    bad = [np.array([np.nan, 0.5, 0.5]), np.array([0.5, np.inf, 0.5]),
           np.array([0.5, 0.5, -np.inf]), np.array([-1.0, 0.5, 0.5]),
           np.array([0.5, -1e-300, 0.5]), np.array([-1.0, np.nan, 0.5]), np.ones(2),
           np.ones(4), [0.5, np.nan, 0.5], [1.0, 2.0], np.array([1, -2, 3])]
    for p in bad:
        with pytest.raises(InvalidInput) as expected:
            economy_module._as_prices(p, 3, batch=True)
        with pytest.raises(InvalidInput) as got:
            scarf_excess_demand(p)
        assert str(got.value) == str(expected.value)
    reference = scarf_excess_demand(np.array([1.0, 2.0, 3.0]))
    for p in ([1.0, 2.0, 3.0], [1, 2, 3], np.array([1, 2, 3]), (1.0, 2.0, 3.0),
              np.array([1.0, 2.0, 3.0], dtype=np.float32), np.array([1.0, 2.0, 3.0], dtype=">f8")):
        assert scarf_excess_demand(p).tobytes() == reference.tobytes()


@pytest.mark.parametrize("floor", [0.0, -0.0, -1e-8, float("nan")])
def test_scarf_economy_rejects_a_floor_that_is_not_positive(floor):
    # As for an exchange economy: a zero floor let [0, 0, 1] divide by zero,
    # and a NaN floor made every excess NaN.
    with pytest.raises(InvalidInput, match="price_floor must be positive"):
        ScarfEconomy(price_floor=floor)
    assert ScarfEconomy(price_floor=1e-12).price_floor == 1e-12


def test_scarf_economy_surface():
    economy = ScarfEconomy()
    assert economy.n_goods == 3
    np.testing.assert_array_equal(economy.aggregate_supply, np.ones(3))
    p = np.array([0.3, 0.5, 0.2])
    np.testing.assert_allclose(
        economy.demand(p), economy.excess(p) + np.ones(3), rtol=1e-15
    )
    prices = scarf_price_stack()
    for p, row in zip(prices, economy.demand(prices)):
        np.testing.assert_array_equal(row, economy.demand(p))


def test_homogeneity_and_walras_checks():
    economy = ScarfEconomy()
    p = np.array([0.3, 0.5, 0.2])
    assert check_homogeneity(economy, p, 7.0) <= 1e-12
    assert check_walras(economy, p) <= 1e-12
    with pytest.raises(InvalidInput):
        check_homogeneity(economy, p, 0.0)


def test_homogeneity_invariant_random_economies():
    rng = np.random.default_rng(1)
    for _ in range(100):
        economy = random_economy(rng, cap_factor=float(rng.choice([1.0, np.inf])))
        p = rng.uniform(0.1, 1.0, economy.n_goods)
        scale = 1.0 + np.abs(economy.excess(p)).max()
        for lam in (0.5, 2.0, 10.0):
            assert check_homogeneity(economy, p, lam) <= 1e-9 * scale


def test_walras_identity_uncapped_economies():
    rng = np.random.default_rng(2)
    for _ in range(100):
        economy = random_economy(rng, cap_factor=np.inf)
        p = rng.uniform(0.1, 1.0, economy.n_goods)
        z = economy.excess(p)
        tol = 1e-8 * (1.0 + np.linalg.norm(p) * np.linalg.norm(z))
        assert check_walras(economy, p) <= tol


def test_weak_walras_capped_economies():
    # A binding cap only removes demand, so the budget identity relaxes to
    # p . Z(p) <= 0 while the cap keeps excess demand bounded.
    rng = np.random.default_rng(3)
    for _ in range(20):
        economy = random_economy(rng, cap_factor=1.0)
        for _ in range(50):
            p = rng.uniform(0.0, 1.0, economy.n_goods)
            assert p.dot(economy.excess(p)) <= 1e-9


def test_capped_excess_demand_is_bounded():
    # With cap factor 1 and m >= 2 consumers, every coordinate satisfies
    # |Z_j| <= (m - 1) * max_j s_j; the bound is attained when one price is
    # free and every consumer saturates the cap on that good.
    rng = np.random.default_rng(4)
    for _ in range(20):
        economy = random_economy(rng, cap_factor=1.0)
        m = len(economy.consumers)
        bound = (m - 1) * economy.aggregate_supply.max()
        for _ in range(20):
            p = rng.uniform(0.0, 1.0, economy.n_goods)
            assert np.abs(economy.excess(p)).max() <= bound + 1e-12


def test_cap_binding_breaks_walras_equality():
    economy = ExchangeEconomy(
        [
            Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0])),
            Consumer(COBB_DOUGLAS, np.array([1.0, 3.0]), np.array([1.0, 1.0])),
        ],
        n_goods=2,
        demand_cap_factor=1.0,
    )
    p = np.array([0.01, 1.0])
    assert check_walras(economy, p) > 0.1
    assert p.dot(economy.excess(p)) < 0.0


def cobb_douglas_pair() -> ExchangeEconomy:
    return ExchangeEconomy(
        [
            Consumer(COBB_DOUGLAS, np.array([1.0, 2.0, 1.0]), np.array([1.0, 0.0, 1.0])),
            Consumer(COBB_DOUGLAS, np.array([2.0, 1.0, 3.0]), np.array([0.0, 2.0, 1.0])),
        ],
        n_goods=3,
        demand_cap_factor=np.inf,
    )


def test_gross_substitutes_cobb_douglas_clean():
    assert check_wgs_sample(cobb_douglas_pair(), 64, 0) == 0


def test_gross_substitutes_complements_violate():
    economy = ExchangeEconomy(
        [
            Consumer(CES, np.array([1.0, 2.0, 1.0]), np.array([1.0, 0.0, 1.0]), rho=-4.0),
            Consumer(CES, np.array([2.0, 1.0, 3.0]), np.array([0.0, 2.0, 1.0]), rho=-6.0),
        ],
        n_goods=3,
        demand_cap_factor=np.inf,
    )
    assert check_wgs_sample(economy, 64, 0) == 41


def test_gross_substitutes_scarf_always_violates():
    assert check_wgs_sample(ScarfEconomy(), 64, 0) == 64


@pytest.mark.xfail(
    strict=True,
    reason="the fixed 3-good excess demand violates the aggregate weak axiom "
    "on sampled price pairs (2 violations at 64 pairs, seed 0), which is "
    "exactly what lets plain price adjustment cycle; the documented "
    "expectation of zero violations cannot hold",
)
def test_revealed_preference_documented_expectation():
    assert check_warp_sample(ScarfEconomy(), 64, 0) == 0


def test_revealed_preference_observed_counts():
    # Frozen observed behavior: the aggregate weak axiom fails on a small but
    # stable fraction of sampled pairs, while the two-consumer Cobb-Douglas
    # economy shows no violations at the same sampling.
    assert check_warp_sample(ScarfEconomy(), 64, 0) == 2
    assert check_warp_sample(ScarfEconomy(), 256, 0) == 6
    assert check_warp_sample(cobb_douglas_pair(), 64, 0) == 0


def test_law_of_supply_and_demand_counts():
    assert check_lsd_sample(ScarfEconomy(), 64, 0) == 34
    assert check_lsd_sample(ScarfEconomy(), 64, 0) > 0


def reference_pair_counts(economy, pairs: int, seed) -> tuple[int, int]:
    """(WARP, LSD) violation counts, one pair at a time: each price drawn
    p, then q, evaluated alone, and tested with vector dots."""
    rng = np.random.default_rng(seed)
    warp = lsd = 0
    for _ in range(pairs):
        p, q = rng.uniform(0.1, 1.0, (2, economy.n_goods))
        zp, zq = economy.excess(p), economy.excess(q)
        if not np.array_equal(zp, zq) and zq.dot(p) <= zq.dot(q) and zp.dot(q) <= zp.dot(p):
            warp += 1
        if float((zq - zp).dot(q - p)) > 1e-9:
            lsd += 1
    return warp, lsd


def test_pair_samplers_match_the_per_pair_loop():
    # WARP and LSD count over the whole pair block with row dots; each count
    # equals the loop's, pair by pair, on economies that do violate both.
    mixes = [{"cobb_douglas": 0.25, "leontief": 0.25, "ces_substitutes": 0.25,
              "ces_complements": 0.25},
             {"ces_complements": 1.0},
             {"leontief": 0.5, "ces_substitutes": 0.5}]
    economies = [ScarfEconomy(), cobb_douglas_pair()] + [
        generate_economy(GenSpec(seed=seed, n_consumers=n, n_goods=n, mix=mix))
        for n in (3, 5, 50) for mix in mixes for seed in range(3)]
    totals = np.zeros(2, dtype=int)
    for economy in economies:
        for pairs, seed in ((64, 0), (17, 5)):
            expected = reference_pair_counts(economy, pairs, seed)
            assert (check_warp_sample(economy, pairs, seed),
                    check_lsd_sample(economy, pairs, seed)) == expected
            totals += expected
    assert (totals > 0).all()
    assert check_warp_sample(ScarfEconomy(), 0, 0) == check_lsd_sample(ScarfEconomy(), 0, 0) == 0


def test_elasticity_bound_estimate_deterministic_and_bounded():
    economy = ExchangeEconomy(
        [Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))],
        n_goods=2,
        demand_cap_factor=np.inf,
    )
    first = elasticity_bound_estimate(economy, 16, 5)
    assert first == elasticity_bound_estimate(economy, 16, 5)
    # A single symmetric consumer never moves demand faster than the price:
    # the sampled two-point elasticities stay at or below one.
    assert 0.0 < first <= 1.0


def test_bregman_continuity_bound_formula():
    economy = cobb_douglas_pair()
    p = np.array([0.25, 0.25, 0.5])
    value = bregman_continuity_bound(economy, p, elasticity=2.0)
    demand = economy.demand(p)
    supply = economy.aggregate_supply
    hand = 2.0 * (np.linalg.norm(demand) + np.linalg.norm(supply)) / p.max()
    assert value == hand
    # The value never depended on a kernel, so the function takes none.
    with pytest.raises(TypeError):
        bregman_continuity_bound(economy, p, kernel=None, elasticity=2.0)
    estimated = bregman_continuity_bound(economy, p, pairs=8, seed=0)
    assert estimated > 0.0
    with pytest.raises(InvalidInput):
        bregman_continuity_bound(economy, np.array([0.5, 0.5, 0.5]), elasticity=2.0)


def test_bregman_continuity_bound_certifies_local_steps():
    # The advertised use: 0.5 * ||Z(p) - Z(p')||^2 <= bound^2 * D_h(p', p)
    # for nearby simplex prices, with the Euclidean divergence as the floor.
    economy = cobb_douglas_pair()
    p = np.array([0.25, 0.25, 0.5])
    bound = bregman_continuity_bound(economy, p, pairs=32, seed=7)
    rng = np.random.default_rng(8)
    zp = economy.excess(p)
    for _ in range(50):
        q = p + rng.uniform(-0.01, 0.01, 3)
        q = np.clip(q, 0.05, None)
        q /= q.sum()
        zq = economy.excess(q)
        lhs = 0.5 * np.linalg.norm(zq - zp) ** 2
        rhs = bound**2 * 0.5 * np.linalg.norm(q - p) ** 2
        assert lhs <= rhs + 1e-12


def _reference_logsumexp(a, axis):
    a_max = a.max(axis=axis, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=axis, keepdims=True, dtype=float)
    s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
    return np.squeeze(np.log1p(s / m) + np.log(m) + a_max, axis=axis)


def log_space_ces_demand(group, prices) -> np.ndarray:
    """The earlier CES closed form, b_i exp(t_ij - LSE_i(t + log p)), as a reference.

    t_ij = sigma_i (log v_ij - log p_j); the log-sum-exp takes the maxima out
    of the sum and counts them, as scipy.special.logsumexp does.
    """
    budgets = group.endowments.dot(prices)
    log_p = np.log(prices)
    t = group.sigmas[:, None] * (np.log(group.valuations) - log_p)
    lse = _reference_logsumexp(t + log_p, axis=1)
    return budgets[:, None] * np.exp(t - lse[:, None])


#: Elasticities of substitution from near-Leontief to near-linear.
CES_SIGMAS = (1e-6, 1.0 / 1001.0, 0.5, 2.5, 10.0, 1000.0)

#: Unit roundoff of float64 and its smallest subnormal.
UNIT_ROUNDOFF = 2.0**-53
SMALLEST_SUBNORMAL = 2.0**-1074


def own_budgets(group, prices) -> np.ndarray:
    """The budgets of a group's own endowments: what a group that stands
    alone, or the only group of its economy, evaluates from."""
    return economy_module._matvec(group.endowments, prices)


def ces_grid():
    """(group, floored (k, n) price stack) for each n in 1..60, one consumer per sigma.

    Valuations run from 1e-12 to 1e6, prices from 1e-9 to 1e3, with zeros;
    prices below the default floor go to it.
    """
    rng = np.random.default_rng(31)
    for n in range(1, 61):
        consumers = [Consumer(CES, 10.0 ** rng.uniform(-12.0, 6.0, n),
                              rng.uniform(0.0, 1.0, n) + 0.05, rho=1.0 - 1.0 / sigma)
                     for sigma in CES_SIGMAS]
        prices = 10.0 ** rng.uniform(-9.0, 3.0, (4, n))
        prices[1, rng.random(n) < 0.4] = 0.0
        prices[2] = 1.0
        floored = np.maximum(prices, economy_module.DEFAULT_PRICE_FLOOR)
        yield economy_module._ConsumerGroup.stack(CES, consumers), floored


def test_ces_demand_within_derived_bound_of_log_space_form():
    # Both forms approximate x_ij = b_i exp(t_ij) / sum_k exp(t_ik) p_k,
    # t_ij = s_i (log v_ij - log p_j), from the same log p, log v, s and b.
    # Take u the unit roundoff, numpy's exp, log and log1p to 1 ulp (2u), and
    # L_i = max_j (s_i |log v_ij| + (s_i + 1) |log p_j|), which bounds |t|,
    # |t + log p|, s_i (|log v_ij| + |log p_j|) and |LSE| - log n.
    # - Direct form: s log v and s log p are each off by 3u times their size
    #   (the log, the product) and their difference rounds once, so t is off
    #   by 4uL, and t - M by 2uL more; the row maximum M cancels in the ratio,
    #   whose numerator and cost terms both carry the error: 12uL. Then the
    #   exp calls (2u in the numerator, 2u in each cost term), the cost's dot
    #   (gamma_n), b / cost and the scaling (2u).
    # - Log-space form: t is off by 2uL and t + log p by 3uL, so its LSE is
    #   too; the log-sum-exp's shift (2uL, through its exp terms) and its
    #   addition of the maximum (uL) make 6uL, plus gamma_n + (3 + 6 log n)u
    #   for its exp, sum, division, log1p and log m; t - LSE rounds once
    #   more (2uL): 10uL + gamma_n + (3 + 6 log n)u. Then exp and x b (3u).
    # exp turns the summed exponent errors into expm1 of them; the other
    # roundings add gamma_n + 9u. That relative bound r holds against the
    # exact demand, and so r / (1 - r) holds against the reference. An entry
    # that underflows is off by a few subnormals: a direction entry scaled by
    # b_i / cost_i <= b_i / min p, the reference's scaled by b_i, and the
    # entries of a cost whose terms underflow move by n subnormals relative
    # to a cost of at least min p, times an entry of at most b_i / min p.
    u = UNIT_ROUNDOFF
    worst = 0.0
    for group, prices in ces_grid():
        n = prices.shape[1]
        gamma_n = gamma(n)
        sigmas = group.sigmas[:, None]
        stack = group.fill(own_budgets(group, prices), prices, 0, len(sigmas))
        for p, x in zip(prices, stack):
            reference = log_space_ces_demand(group, p)
            magnitude = (sigmas * np.abs(np.log(group.valuations))
                         + (sigmas + 1.0) * np.abs(np.log(p))).max(axis=1, keepdims=True)
            relative = np.expm1(22.0 * u * magnitude + gamma_n + (3.0 + 6.0 * np.log(n)) * u)
            relative += gamma_n + 9.0 * u
            budgets = group.endowments.dot(p)[:, None]
            scale = budgets / p.min()
            underflow = 8.0 * SMALLEST_SUBNORMAL * (1.0 + budgets + scale * (1.0 + n / p.min()))
            bound = relative / (1.0 - relative) * reference + underflow
            assert (np.abs(x - reference) <= bound).all(), (n, p)
            worst = max(worst, float((np.abs(x - reference) / bound).max()))
            np.testing.assert_array_equal(x, group.fill(own_budgets(group, p), p, 0, len(sigmas)))
    # The bound is not vacuous: some entries come within a small factor of it.
    assert worst > 1e-3


def test_ces_budget_identity():
    # Each row is scaled by its own computed cost, so p . x_i = b_i holds to
    # budget_identity_bound, (2n + 2)u to first order, for every sigma in
    # CES_SIGMAS (1e-6 to 1000), valuations from 1e-12 to 1e6 and prices from
    # 1e-9 to 1e3 with zeros. The log-space form was off by 2.5e-12 relative
    # at sigma = 1000.
    for group, prices in ces_grid():
        n = prices.shape[1]
        budgets = own_budgets(group, prices)
        stack = group.fill(budgets, prices, 0, len(group.sigmas))
        assert np.isfinite(stack).all()
        for p, b, x in zip(prices, budgets, stack):
            bound = budget_identity_bound(CES, n) * b + budget_underflow(n, p, b)
            assert (np.abs(x.dot(p) - b) <= bound).all(), (n, p)


def in_group_order(economy) -> list[Consumer]:
    """The economy's consumers family by family, each family in its own order."""
    return [c for kind in (COBB_DOUGLAS, LEONTIEF, CES)
            for c in economy.consumers if c.utility == kind]


def stacked_budgets(economy, prices) -> np.ndarray:
    """Every consumer's budget, from one product over the endowments stacked
    in group order, for a price vector or a (k, n) stack."""
    endowments = np.array([c.endowment for c in in_group_order(economy)])
    return economy_module._matvec(endowments, prices)


def row_costs(directions, prices) -> np.ndarray:
    """d_i . p for each row of directions, one vector dot each, for a price
    vector or, row by row, a (k, n) stack (directions (m, n) or (k, m, n)).
    A matrix-vector product can round a row differently by its place in the
    matrix; a row's own dot cannot."""
    if prices.ndim == 2:
        directions = np.broadcast_to(directions, prices.shape[:1] + directions.shape[-2:])
        return np.array([row_costs(d, q) for d, q in zip(directions, prices)])
    return np.array([d.dot(prices) for d in directions])


def reference_demand(economy, p) -> np.ndarray:
    """Aggregate demand as the textbook per-consumer sum: plain expressions,
    one fresh array per step.

    Cobb-Douglas rows are b_i w_i / p; a Leontief or CES row is its
    direction d_i (v_i, or exp(t_i - max t_i) with t_ij = s_i log v_ij -
    s_i log p_j) times b_i / (d_i . p), each cost its own row's dot. The
    budgets come from one product over the endowments stacked in group
    order, and every consumer's capped row goes into one sum in group order:
    sum(axis=0) adds the rows one after another when n >= 2 and pairwise when
    n = 1. Wherever the economy fills its demand matrix (in one buffer, or in
    blocks that carry one running sum, with the price-free constants kept
    from construction) it must agree with this bit for bit.
    """
    prices = np.maximum(np.asarray(p, dtype=float), economy.price_floor)
    cap = economy.demand_cap_factor * economy.aggregate_supply
    budgets = stacked_budgets(economy, prices)
    matrices = []
    for kind in (COBB_DOUGLAS, LEONTIEF, CES):
        members = [c for c in economy.consumers if c.utility == kind]
        if not members:
            continue
        valuations = np.array([c.valuations for c in members])
        b, budgets = budgets[:len(members)], budgets[len(members):]
        if kind == COBB_DOUGLAS:
            weights = valuations / valuations.sum(axis=1, keepdims=True)
            matrix = weights * np.outer(b, 1.0 / prices)
        else:
            if kind == LEONTIEF:
                directions = valuations
            else:
                sigmas = np.array([1.0 / (1.0 - c.rho) for c in members])[:, None]
                t = sigmas * np.log(valuations) - sigmas * np.log(prices)
                directions = np.exp(t - t.max(axis=1, keepdims=True))
            matrix = directions * (b / row_costs(directions, prices))[:, None]
        matrices.append(matrix)
    matrix = np.concatenate(matrices)
    if np.isfinite(economy.demand_cap_factor):
        matrix = np.minimum(matrix, cap[None, :])
    return matrix.sum(axis=0)


def sums_in_closed_form(economy, p) -> bool:
    """Whether demand at one price vector sums some group as one matrix-vector
    product: a streamed evaluation (the demand matrix exceeds _BLOCK_ENTRIES
    and there are at least two goods) with a Leontief or Cobb-Douglas group
    whose cap is absent or proved slack.
    """
    if (len(economy.consumers) * economy.n_goods <= economy_module._BLOCK_ENTRIES
            or economy.n_goods == 1):
        return False
    prices = np.maximum(p, economy.price_floor)
    budgets = economy_module._matvec(economy._endowments, prices)
    return any(group.slack_sum(budgets, prices, economy._cap) is not None
               for group in economy._groups)


def closed_form_tolerance(economy) -> float:
    """Relative bound on |demand - textbook sum| when groups sum in BLAS order.

    Every term is nonnegative, and both sides take the same budgets b and
    q = 1 / p, from the same calls. With u the unit roundoff and gamma_k =
    k u / (1 - k u) (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3 and Lemma 3.3), take as terms the exact products behind the M
    consumer rows of a column:
    - a textbook Cobb-Douglas entry fl(fl(b_i q_j) W_ij) rounds twice, and so
      does each term of the closed form (W^T b) q, one dot product and one
      more product;
    - a Leontief term is V_ij b_i / (v_i . p). The textbook entry takes the
      cost from its row's own dot, the closed form V^T r from the gemv V p:
      each within gamma_n of v_i . p, every term being nonnegative. Then
      b_i / cost and the product with V_ij round once each, so on either
      side the term is within (1 + u)^2 / (1 - gamma_n) of its exact value;
    - a group that fills (CES, or a cap that binds) gives the same entries
      on both sides;
    - each side adds a column's M terms in some tree of additions (one
      running sum over the rows, a BLAS dot, or both), so no term passes
      through more than M - 1 of them.
    So each side is within e T of the exact total T, e = gamma_{M+1} without
    a Leontief group and (1 + gamma_{M+1}) / (1 - gamma_n) - 1 with one, and
    |demand - reference| <= 2 e T <= 2 e / (1 - e) reference.
    """
    e = gamma(len(economy.consumers) + 1)
    if any(group.utility == LEONTIEF for group in economy._groups):
        e = (1.0 + e) / (1.0 - gamma(economy.n_goods)) - 1.0
    return 2.0 * e / (1.0 - e)


def assert_textbook_sum(economy, p, demand, reference) -> float:
    """Demand at one price vector p against the textbook per-consumer sum.

    Bit for bit when every group fills its demand matrix (the one-buffer path,
    CES groups and binding caps), within closed_form_tolerance when some group
    sums in closed form. Returns the worst |difference| / bound, 0 if exact.
    """
    if not sums_in_closed_form(economy, p):
        np.testing.assert_array_equal(demand, reference)
        return 0.0
    bound = closed_form_tolerance(economy) * reference
    difference = np.abs(demand - reference)
    assert (difference <= bound).all(), p
    return float((difference / bound).max())


@pytest.mark.parametrize("family", [COBB_DOUGLAS, LEONTIEF, CES, "mixed"])
@pytest.mark.parametrize("cap_factor", [1.0, np.inf, 2.5])
def test_excess_matches_reference_bit_for_bit(monkeypatch, family, cap_factor):
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(1, 40))
        consumers = []
        for i in range(m):
            kind = family
            if family == "mixed":
                kind = (COBB_DOUGLAS, LEONTIEF, CES)[int(rng.integers(3))]
            rho = float(rng.choice(RHO_CHOICES)) if kind == CES else None
            # Equal valuations tie every entry of a CES row at equal prices.
            v = np.full(n, 0.5) if i % 4 == 0 else rng.uniform(0.1, 1.0, n)
            consumers.append(Consumer(kind, v, rng.uniform(0.0, 1.0, n) + 0.05, rho=rho))
        economy = ExchangeEconomy(consumers, n_goods=n, demand_cap_factor=cap_factor)
        prices = []
        for k in range(10):
            p = 10.0 ** rng.uniform(-9.0, 3.0, n)
            if k % 3 == 0:
                p[rng.random(n) < 0.4] = 0.0  # floored to price_floor, ties included
            elif k % 3 == 1:
                p = np.ones(n)
            reference = reference_demand(economy, p)
            np.testing.assert_array_equal(economy.excess(p), reference - economy.aggregate_supply)
            # Blocks of three consumer rows stream every group of four or more.
            # A streamed group that fills is exact; one that sums in closed
            # form is checked on demand, since excess cancels.
            with monkeypatch.context() as patched:
                patched.setattr(economy_module, "_BLOCK_ENTRIES", 3 * n)
                if sums_in_closed_form(economy, p):
                    worst = max(worst, assert_textbook_sum(
                        economy, p, economy.demand(p), reference))
                else:
                    np.testing.assert_array_equal(
                        economy.excess(p), reference - economy.aggregate_supply)
            prices.append(p)
        # A (10, n) stack gives, row by row, exactly what each price vector gives.
        batch = economy.excess(np.array(prices))
        assert batch.shape == (10, n)
        for p, row in zip(prices, batch):
            np.testing.assert_array_equal(row, economy.excess(p))
    # The bound is not vacuous: some entries come within a small factor of it.
    assert worst > 1e-2 or family == CES


@pytest.mark.parametrize(
    "mix,bound",
    [
        ({"leontief": 1.0}, 1.5),
        ({"cobb_douglas": 1.0}, 1.5),
        # CES holds its block and two per-row columns (the row maxima and
        # costs): measured 1.24 matrices for one price vector and 1.32 for
        # eight, against 1.97 and 2.05 with a log-sum-exp workspace and mask.
        ({"ces_substitutes": 0.5, "ces_complements": 0.5}, 2.6),
    ],
)
def test_excess_peak_temporaries(mix, bound):
    # numpy reports its data buffers to tracemalloc; one evaluation should
    # hold about one (m, n) matrix per group, not a second capped copy. Each
    # mix is one 200 x 200 group, which streams in blocks of 163 consumer rows
    # for one price vector and of 20 rows for the eight-row stack.
    m = n = 200
    economy = generate_economy(GenSpec(seed=0, n_consumers=m, n_goods=n, mix=mix))
    prices = np.random.default_rng(15).uniform(0.1, 1.0, (8, n))
    peaks = excess_peaks(economy, (prices[0], prices))
    assert peaks[0] <= bound * m * n * 8
    # Eight price rows hold eight matrices per group, and no more copies.
    assert peaks[1] <= 8 * bound * m * n * 8


def test_buffered_excess_peak_temporaries():
    # A 50 x 50 mixed economy fits in one block, so its groups fill one
    # shared buffer: one evaluation holds that (m, n) buffer, the CES group's
    # per-row maxima, the Leontief and CES costs, and the vectors. Measured
    # 2.18 matrices for one price vector and 18.2 for an eight-row stack
    # (2.19 and 18.0 while CES rows were normalized by their row sums, 2.18
    # and 17.9 while each group took its own budget product and sum).
    m = n = 50
    economy = generate_economy(GenSpec(seed=0, n_consumers=m, n_goods=n, mix=DESK_MIX))
    assert len(economy._groups) == 3
    prices = np.random.default_rng(15).uniform(0.1, 1.0, (8, n))
    assert 8 * m * n <= economy_module._BLOCK_ENTRIES
    peaks = excess_peaks(economy, (prices[0], prices))
    assert peaks[0] <= 2.5 * m * n * 8
    assert peaks[1] <= 8 * 2.5 * m * n * 8


def test_probe_stack_peak_temporaries():
    # The step-size probe's stack is 64 price rows (32 pairs). On a 50 x 50
    # mixed economy a stack is evaluated in buffered blocks of 13 rows, each
    # within _BLOCK_ENTRIES, so one call holds one block's buffer, not a
    # 64-row matrix per group. Measured 25.8 matrices (516,336 bytes), 25.9
    # (517,816 bytes) while CES rows were normalized by their row sums, 25.5
    # (509,672 bytes) while each group took its own budget product, 28.6
    # (571,968 bytes) while CES demand kept a log-sum-exp workspace, and 40.5
    # (809,232 bytes) when a stack was blocked by 2^20 entries and each group
    # streamed all 64 rows at once.
    m = n = 50
    economy = generate_economy(GenSpec(seed=0, n_consumers=m, n_goods=n, mix=DESK_MIX))
    prices = np.random.default_rng(15).uniform(0.1, 1.0, (64, n))
    (peak,) = excess_peaks(economy, (prices,))
    assert peak <= 32 * m * n * 8


@pytest.mark.parametrize("m,n", [(10, 5), (50, 50), (40, 1)])
def test_buffered_and_streamed_paths_agree_when_every_group_fills(monkeypatch, m, n):
    # A cap at 2% of supply binds in the Leontief and Cobb-Douglas groups, so
    # with the CES groups every group fills, on both paths. Both add the
    # consumer rows one after another in group order (pairwise when n = 1,
    # where the economy always fills one buffer), so they agree bit for bit
    # with each other, with the textbook sum and row by row with a stack.
    economy = generate_economy(GenSpec(seed=4, n_consumers=m, n_goods=n, mix=DESK_MIX))
    capped_at(economy, 0.02 * economy.aggregate_supply)
    assert len(economy._groups) == 3
    prices = 10.0 ** np.random.default_rng(5).uniform(-3.0, 1.0, (8, n))
    buffered = economy.demand(prices)
    other_orders_differ = 0
    for p, row in zip(prices, buffered):
        np.testing.assert_array_equal(row, economy.demand(p))
        matrix = reference_matrix(economy, p)
        np.testing.assert_array_equal(row, matrix.sum(axis=0))
        # The rules the paths must not fall back to: a sum per group added
        # up afterwards, and, for one good, one running sum.
        per_group = sum(matrix[group.rows].sum(axis=0) for group in economy._groups)
        running = functools.reduce(np.add, matrix)
        other_orders_differ += not np.array_equal(row, per_group if n > 1 else running)
    assert other_orders_differ
    # Blocks of three consumer rows stream every group, one price row at a time.
    monkeypatch.setattr(economy_module, "_BLOCK_ENTRIES", 3 * n)
    assert not any(sums_in_closed_form(economy, p) for p in prices)
    np.testing.assert_array_equal(economy.demand(prices), buffered)
    for p, row in zip(prices, buffered):
        np.testing.assert_array_equal(economy.demand(p), row)


@pytest.mark.parametrize("n", [7, 50])
def test_row_cost_does_not_depend_on_grouping(monkeypatch, n):
    # Each Leontief and CES row is scaled by its own cost d_i . p, one dot per
    # row, so its uncapped demand is the same bit for bit wherever it is
    # computed: among the one-buffer path's rows, in streamed blocks that
    # split each group, in any row of a (k, n) price stack, and alone in
    # consumer_demand. One matrix-vector product over the rows would round
    # some costs by their place in the matrix. _spend is wrapped to see the
    # rows it scales. Every consumer owns one good, so every budget is one
    # rounded product, the same from any budget product; a tiny cap binds,
    # so the Leontief rows fill on the streamed path too.
    rng = np.random.default_rng(40 + n)
    consumers = []
    for i in range(60):
        kind = (COBB_DOUGLAS, LEONTIEF, CES)[i % 3]
        sigma = float(rng.choice(CES_SIGMAS))
        endowment = np.zeros(n)
        endowment[i % n] = rng.uniform(0.05, 1.0)
        consumers.append(Consumer(kind, 10.0 ** rng.uniform(-3.0, 3.0, n), endowment,
                                  rho=1.0 - 1.0 / sigma if kind == CES else None))
    economy = ExchangeEconomy(consumers, n_goods=n)
    capped_at(economy, 1e-6 * economy.aggregate_supply)
    spent = [c for c in in_group_order(economy) if c.utility != COBB_DOUGLAS]
    prices = 10.0 ** rng.uniform(-9.0, 3.0, (6, n))
    prices[1, rng.random(n) < 0.4] = 0.0
    prices[2] = 1.0
    scaled = []
    spend = economy_module._spend

    def spy(rows, prices, budgets):
        spend(rows, prices, budgets)
        scaled.append(rows.copy())

    monkeypatch.setattr(economy_module, "_spend", spy)
    economy.demand(prices)
    (stack,) = scaled
    assert stack.shape == (len(prices), len(spent), n)
    for p, rows in zip(prices, stack):
        scaled.clear()
        economy.demand(p)
        np.testing.assert_array_equal(scaled, [rows])
        scaled.clear()
        with monkeypatch.context() as patched:
            patched.setattr(economy_module, "_BLOCK_ENTRIES", 3 * n)
            assert not sums_in_closed_form(economy, p)
            economy.demand(p)
        assert len(scaled) == 14
        np.testing.assert_array_equal(np.concatenate(scaled), rows)
        np.testing.assert_array_equal([consumer_demand(c, p) for c in spent], rows)


def test_groups_view_the_stacked_arrays():
    # The economy stacks its consumers' valuations and endowments once, in
    # group order, and each group holds views of its rows. Building a 50 x 50
    # mixed economy then keeps those two matrices, the Cobb-Douglas shares
    # and the CES sigma log v (one row per member of those groups), and about
    # 6 KB of vectors and objects. The supply sums the stacked endowments,
    # and the CES group scales its log v in place, so the peak adds one
    # transient of at most the largest group's matrix (numpy's buffer for the
    # broadcast product over the 25 CES rows): measured 60,948 bytes retained
    # and 71,450 at the peak, against 60,851 and 81,521 while the supply
    # stacked the endowments once more and the CES group held log v and
    # sigma log v at once. A copy of the stacked endowments would add 20,000
    # bytes.
    m = n = 50
    consumers = generate_economy(GenSpec(seed=0, n_consumers=m, n_goods=n, mix=DESK_MIX)).consumers
    ExchangeEconomy(consumers, n_goods=n)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        economy = ExchangeEconomy(consumers, n_goods=n)
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        if not was_tracing:
            tracemalloc.stop()
    ordered = in_group_order(economy)
    np.testing.assert_array_equal(economy._valuations, [c.valuations for c in ordered])
    np.testing.assert_array_equal(economy._endowments, [c.endowment for c in ordered])
    for group in economy._groups:
        assert np.shares_memory(group.valuations, economy._valuations)
        assert np.shares_memory(group.endowments, economy._endowments)
        np.testing.assert_array_equal(group.valuations, economy._valuations[group.rows])
        np.testing.assert_array_equal(group.endowments, economy._endowments[group.rows])
    shared_rows = 2 * m + sum(len(group.valuations) for group in economy._groups
                              if group.utility != LEONTIEF)
    assert retained <= shared_rows * n * 8 + 10240
    largest = max(len(group.valuations) for group in economy._groups)
    assert peak <= retained + largest * n * 8 + 4096


def test_economy_arrays_are_read_only():
    # Every evaluation reads the stacked arrays, the cap and the supply, and
    # the groups share the stacked arrays' memory: writing to any of them
    # raises instead of changing every later excess.
    economy = generate_economy(GenSpec(seed=0, n_consumers=10, n_goods=5, mix=DESK_MIX))
    p = np.random.default_rng(6).uniform(0.1, 1.0, 5)
    before = economy.excess(p)
    with pytest.raises(ValueError, match="read-only"):
        economy.aggregate_supply *= 2
    arrays = [economy._cap, economy._valuations, economy._endowments]
    arrays += [a for group in economy._groups for a in (group.valuations, group.endowments)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    np.testing.assert_array_equal(economy.excess(p), before)


def excess_peaks(economy, price_sets) -> list[int]:
    """Peak bytes that tracemalloc sees during one warm excess call per price set."""
    for p in price_sets:
        economy.excess(p)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        peaks = []
        for p in price_sets:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            economy.excess(p)
            _, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - before)
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("family", ["leontief", "cobb_douglas"])
def test_streamed_excess_peak_temporaries(family):
    # A 400 x 400 group whose cap binds streams in blocks of _BLOCK_ENTRIES
    # entries, so one evaluation holds a block and the group's vectors, not an
    # (m, n) matrix.
    m = n = 400
    economy = generate_economy(GenSpec(seed=0, n_consumers=m, n_goods=n, mix={family: 1.0}))
    price = np.random.default_rng(16).uniform(0.1, 1.0, n)
    (group,) = economy._groups
    capped_at(economy, 0.5 * reference_group_demand(group, price).max(axis=0))
    assert not sums_in_closed_form(economy, price)
    (peak,) = excess_peaks(economy, (price,))
    assert peak <= 0.5 * m * n * 8


@pytest.mark.parametrize("family", ["leontief", "cobb_douglas"])
def test_slack_streamed_excess_holds_no_demand_block(family):
    # A 400 x 400 group whose cap is proved slack sums its demand as one
    # matrix-vector product: one evaluation holds a few (m + n) vectors (the
    # prices, budgets, ratios and sums), not a block of _BLOCK_ENTRIES entries.
    # Measured 2.6 (Leontief) and 3.1 (Cobb-Douglas) such vectors, against 53
    # and 64 when every streamed group filled blocks.
    m = n = 400
    economy = generate_economy(GenSpec(seed=0, n_consumers=m, n_goods=n, mix={family: 1.0}))
    price = np.random.default_rng(16).uniform(0.1, 1.0, n)
    assert sums_in_closed_form(economy, price)
    (peak,) = excess_peaks(economy, (price,))
    assert peak <= 6 * (m + n) * 8


def test_batch_price_validation():
    economy = cobb_douglas_pair()
    good = np.full((4, 3), 0.5)
    for bad in (np.ones((2, 4, 3)), np.ones((4, 2)), np.ones(4)):
        with pytest.raises(InvalidInput):
            economy.excess(bad)
    for value in (np.nan, np.inf, -0.1):
        prices = good.copy()
        prices[2, 1] = value
        with pytest.raises(InvalidInput):
            economy.excess(prices)
        with pytest.raises(InvalidInput):
            economy.demand(prices)
    for sampler in (check_warp_sample, check_wgs_sample, check_lsd_sample,
                    elasticity_bound_estimate):
        with pytest.raises(InvalidInput):
            sampler(economy, -1, 0)


def test_batch_overflow_names_the_row():
    # Uncapped Cobb-Douglas demand b / p_j overflows at a huge budget and a
    # floored price; the error names the first such row of the stack.
    economy = ExchangeEconomy(
        [Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))],
        n_goods=2,
        demand_cap_factor=np.inf,
    )
    prices = np.array([[1.0, 1.0], [0.5, 2.0], [1e305, 0.0], [1e305, 0.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError, match="row 2"):
            economy.excess(prices)
        with pytest.raises(EvaluationError):
            economy.excess(prices[2])
    assert np.all(np.isfinite(economy.excess(prices[:2])))


def test_prices_and_demand_whose_squares_overflow_stay_finite():
    # Prices and aggregate demand are checked by a sum of squares first. At a
    # price of 1e200 both sums overflow, yet every entry is finite, and the
    # uncapped demand of the other goods is about 1e200 too.
    rng = np.random.default_rng(26)
    consumers = [random_consumer(rng, 3) for _ in range(6)]
    prices = np.array([[1e200, 0.5, 2.0], [0.5, 1e200, 1e200]])
    for cap_factor in (1.0, np.inf):
        economy = ExchangeEconomy(consumers, n_goods=3, demand_cap_factor=cap_factor)
        stack = economy.excess(prices)
        assert np.isfinite(stack).all()
        for p, row in zip(prices, stack):
            assert economy.excess(p).tobytes() == row.tobytes()
        if cap_factor == np.inf:
            assert np.max(np.abs(stack)) > 1e154


def test_as_prices_messages_for_bad_entries():
    # Non-finite entries are reported as such, negative entries as negative,
    # and finite prices whose squares overflow pass.
    for bad in ([np.inf, 1.0], [1.0, np.nan], [-np.inf, 1.0], [-1.0, np.nan],
                [1e200, np.inf], [[1.0, 1.0], [np.nan, 1.0]]):
        with pytest.raises(InvalidInput, match="^prices must be finite$"):
            economy_module._as_prices(np.array(bad), 2, batch=True)
    for bad in ([-1.0, 1.0], [1e200, -1e-300], [[1.0, 1.0], [-0.5, 1e200]]):
        with pytest.raises(InvalidInput, match="^prices must be nonnegative$"):
            economy_module._as_prices(np.array(bad), 2, batch=True)
    huge = np.array([[1e200, 1.7e308], [0.0, -0.0]])
    assert economy_module._as_prices(huge, 2, batch=True).tobytes() == huge.tobytes()


def test_blocked_batches_match_one_block(monkeypatch):
    # A long stack is evaluated in blocks of _BLOCK_ENTRIES demand-matrix (and,
    # for elasticities, price) entries; the block size must not change a value.
    economy = random_economy(np.random.default_rng(17), cap_factor=1.0)
    m, n = len(economy.consumers), economy.n_goods
    prices = np.random.default_rng(18).uniform(0.0, 1.0, (25, n))
    whole = economy.excess(prices)
    elasticity = elasticity_bound_estimate(economy, 6, 0)
    monkeypatch.setattr(economy_module, "_BLOCK_ENTRIES", 3 * m * n)
    np.testing.assert_array_equal(economy.excess(prices), whole)
    assert elasticity_bound_estimate(economy, 6, 0) == elasticity
    overflow = ExchangeEconomy(
        [Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([1.0, 1.0]))],
        n_goods=2,
        demand_cap_factor=np.inf,
    )
    stack = np.ones((6, 2))
    stack[4] = [1e305, 0.0]
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="row 4"):
        overflow.excess(stack)


#: Consumer rows per block for one price vector in the row-block tests.
BLOCK_ROWS = 4


def family_economy(rng, family: str, m: int, n: int, cap_factor: float) -> ExchangeEconomy:
    """m consumers of the family, or m of each family when it is "mixed"."""
    kinds = (COBB_DOUGLAS, LEONTIEF, CES) if family == "mixed" else (family,)
    consumers = []
    for kind in kinds:
        for i in range(m):
            rho = float(rng.choice(RHO_CHOICES)) if kind == CES else None
            v = np.full(n, 0.5) if i % 4 == 0 else rng.uniform(0.1, 1.0, n)
            consumers.append(Consumer(kind, v, rng.uniform(0.0, 1.0, n) + 0.05, rho=rho))
    return ExchangeEconomy(consumers, n_goods=n, demand_cap_factor=cap_factor)


def reference_group_demand(group, prices, budgets=None) -> np.ndarray:
    """A group's uncapped demand as one (m, n) matrix, or (k, m, n) for a stack.

    The closed forms as plain expressions over the whole group: Cobb-Douglas
    b_i w_i / p, and a Leontief or CES direction times b_i / (d_i . p), each
    cost its own row's dot. The budgets are the group's own product unless
    given.
    """
    if budgets is None:
        budgets = economy_module._matvec(group.endowments, prices)
    if group.utility == COBB_DOUGLAS:
        x = budgets[..., :, None] * (1.0 / prices)[..., None, :]
        x *= group.weights
        return x
    if group.utility == LEONTIEF:
        directions = group.valuations
    else:
        sigmas = group.sigmas[:, None]
        t = sigmas * np.log(group.valuations) - sigmas * np.log(prices)[..., None, :]
        directions = np.exp(t - t.max(axis=-1, keepdims=True))
    return directions * (budgets / row_costs(directions, prices))[..., :, None]


def reference_matrix(economy, p) -> np.ndarray:
    """Capped demand of every consumer, one row each in group order, from the
    groups' closed forms; the budgets come from one product over the stacked
    endowments."""
    prices = np.maximum(np.asarray(p, dtype=float), economy.price_floor)
    budgets = stacked_budgets(economy, prices)
    matrix = np.concatenate([reference_group_demand(group, prices, budgets[..., group.rows])
                             for group in economy._groups], axis=-2)
    if economy._cap is not None:
        matrix = np.minimum(matrix, economy._cap)
    return matrix


def reference_group_demand_sum(economy, p) -> np.ndarray:
    """Aggregate demand: reference_matrix summed with sum(axis=-2)."""
    return reference_matrix(economy, p).sum(axis=-2)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("family", [COBB_DOUGLAS, LEONTIEF, CES, "mixed"])
def test_row_blocks_match_one_matrix_per_group(monkeypatch, family, n):
    # A block of BLOCK_ROWS * n entries holds BLOCK_ROWS consumer rows for a
    # price vector and BLOCK_ROWS // k for a (k, n) stack, so the larger groups
    # below stream through many blocks. A one-good economy always fills one
    # buffer, so with n = 1 nothing sums in closed form and every row is
    # checked bit for bit. Groups that sum in closed form are checked row by
    # row within the bound.
    monkeypatch.setattr(economy_module, "_BLOCK_ENTRIES", BLOCK_ROWS * n)
    rng = np.random.default_rng(22 + n)
    worst = 0.0
    for m in (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 5 * BLOCK_ROWS + 3):
        for cap_factor in (1.0, 2.5, np.inf):
            economy = family_economy(rng, family, m, n, cap_factor)
            zeros = 10.0 ** rng.uniform(-9.0, 3.0, n)
            zeros[rng.random(n) < 0.4] = 0.0
            below_floor = rng.uniform(0.1, 1.0, n)
            below_floor[0] = 1e-12
            vectors = [np.ones(n), 10.0 ** rng.uniform(-9.0, 3.0, n), zeros, below_floor]
            for p in vectors + [np.array(vectors), np.array(vectors[:2])]:
                rows = zip(np.atleast_2d(p), np.atleast_2d(economy.demand(p)),
                           np.atleast_2d(reference_group_demand_sum(economy, p)))
                for q, demand, reference in rows:
                    worst = max(worst, assert_textbook_sum(economy, q, demand, reference))
    assert worst > 1e-2 or family == CES or n == 1


def test_streamed_stack_rows_with_binding_and_slack_caps():
    # A 200 x 200 Cobb-Douglas economy streams each row of a stack. A tiny
    # price makes demand b_i W_ij / p_j exceed the cap, so those rows fill,
    # cap and sum as the textbook does; the other rows' caps are proved slack
    # and they sum in closed form.
    m = n = 200
    economy = generate_economy(GenSpec(seed=3, n_consumers=m, n_goods=n,
                                       mix={"cobb_douglas": 1.0}))
    (group,) = economy._groups
    rng = np.random.default_rng(25)
    prices = rng.uniform(0.1, 1.0, (6, n))
    prices[1::2, rng.integers(n, size=3)] = 1e-7
    stack = economy.demand(prices)
    binding = 0
    for p, row in zip(prices, stack):
        np.testing.assert_array_equal(row, economy.demand(p))
        reference = reference_group_demand_sum(economy, p)
        if sums_in_closed_form(economy, p):
            np.testing.assert_array_equal(row, group.slack_sum(own_budgets(group, p), p, None))
            assert_textbook_sum(economy, p, row, reference)
        else:
            np.testing.assert_array_equal(row, reference)
            binding += 1
    assert binding == 3
    # With no cap, every row, tiny prices included, sums each group as one
    # matrix-vector product: V^T (b / (V p)) and (W^T b) / p.
    uncapped = generate_economy(GenSpec(seed=3, n_consumers=m, n_goods=n,
                                        mix={"cobb_douglas": 0.5, "leontief": 0.5}))
    uncapped = ExchangeEconomy(uncapped.consumers, n_goods=n, demand_cap_factor=np.inf)
    assert len(uncapped._groups) == 2
    (cd_v, cd_e), (leontief_v, leontief_e) = (
        [np.array([getattr(c, name) for c in uncapped.consumers if c.utility == kind])
         for name in ("valuations", "endowment")]
        for kind in (COBB_DOUGLAS, LEONTIEF))
    weights = cd_v / cd_v.sum(axis=1, keepdims=True)
    stack = uncapped.demand(prices)
    differs = 0
    for p, row in zip(prices, stack):
        closed_form = np.zeros(n)
        closed_form += weights.T.dot(cd_e.dot(p)) * (1.0 / p)
        closed_form += leontief_v.T.dot(leontief_e.dot(p) / leontief_v.dot(p))
        np.testing.assert_array_equal(row, closed_form)
        np.testing.assert_array_equal(row, uncapped.demand(p))
        reference = reference_group_demand_sum(uncapped, p)
        assert_textbook_sum(uncapped, p, row, reference)
        differs += not np.array_equal(row, reference)
    # The closed form rounds apart from the textbook sum, so the check above
    # tells the two paths apart.
    assert differs


@pytest.mark.parametrize("cap_factor", [2.5, np.inf])
def test_slack_sums_join_the_running_total_in_group_order(monkeypatch, cap_factor):
    # A streamed mixed economy whose Cobb-Douglas and Leontief groups sum in
    # closed form and whose CES group fills in several blocks. The running
    # total takes, in group order, the Cobb-Douglas sum (W^T b) q, the
    # Leontief sum V^T (b / (V p)), then each capped CES row in turn; adding
    # the closed-form sums at any other place rounds differently.
    n, m = 6, 3 * BLOCK_ROWS + 1
    monkeypatch.setattr(economy_module, "_BLOCK_ENTRIES", BLOCK_ROWS * n)
    economy = family_economy(np.random.default_rng(26), "mixed", m, n, cap_factor)
    cobb_douglas, leontief, ces = economy._groups
    differs = 0
    for p in np.random.default_rng(27).uniform(0.1, 1.0, (8, n)):
        budgets = economy._endowments.dot(p)
        assert all(group.slack_sum(budgets, p, economy._cap) is not None
                   for group in (cobb_douglas, leontief))
        sums = [cobb_douglas.weights.T.dot(budgets[cobb_douglas.rows]) * (1.0 / p),
                leontief.valuations.T.dot(budgets[leontief.rows] / leontief.valuations.dot(p))]
        rows = reference_group_demand(ces, p, budgets[ces.rows])
        if economy._cap is not None:
            rows = np.minimum(rows, economy._cap)
        total = functools.reduce(np.add, sums + list(rows))
        np.testing.assert_array_equal(economy.demand(p), total)
        differs += not np.array_equal(total, functools.reduce(np.add, list(rows) + sums))
    # Some price vector tells the group order from the filled rows first.
    assert differs


def capped_at(economy, cap) -> ExchangeEconomy:
    """The economy with its cap vector replaced, to put the cap on an exact value."""
    object.__setattr__(economy, "_cap", np.array(cap, dtype=float))
    return economy


@pytest.mark.parametrize("family", [COBB_DOUGLAS, LEONTIEF])
def test_slack_cap_proof_at_its_bound(monkeypatch, family):
    n, m = 6, 3 * BLOCK_ROWS + 1
    monkeypatch.setattr(economy_module, "_BLOCK_ENTRIES", BLOCK_ROWS * n)
    economy = family_economy(np.random.default_rng(23), family, m, n, 1.0)
    (group,) = economy._groups
    for p in (np.random.default_rng(24).uniform(0.1, 1.0, n), np.ones(n)):
        # The proof's bound, written out: largest factors in place of each
        # entry's own, with the closed form's order of rounding.
        if family == LEONTIEF:
            ratios = group.endowments.dot(p) / group.valuations.dot(p)
            bound = group.valuations.max(axis=0) * ratios.max()
        else:
            bound = group.endowments.dot(p).max() * (1.0 / p) * group.weights.max(axis=0)
        budgets = own_budgets(group, p)
        assert group.slack_sum(budgets, p, bound) is not None
        for j in range(n):
            below = bound.copy()
            below[j] = np.nextafter(bound[j], 0.0)
            assert group.slack_sum(budgets, p, below) is None
        # The terms the proof bounds are the closed form's, for Leontief V_ij
        # times the ratio from the gemv V p; here the textbook entries, whose
        # costs are row dots, stay within it too.
        matrix = reference_group_demand(group, p)
        terms = group.valuations * ratios[:, None] if family == LEONTIEF else matrix
        assert (terms <= bound).all()
        assert (matrix <= bound).all()
        # A cap at the bound is skipped: the group sums in closed form, as
        # with no cap, within the bound of the textbook sum.
        capped_at(economy, bound)
        assert sums_in_closed_form(economy, p)
        np.testing.assert_array_equal(economy.demand(p), group.slack_sum(budgets, p, None))
        assert_textbook_sum(economy, p, economy.demand(p), matrix.sum(axis=0))
        # A cap between the two largest entries of a column binds on the
        # largest alone, which the proof must not skip.
        j = np.unravel_index(np.argmax(matrix), matrix.shape)[1]
        cap = matrix.max(axis=0)
        second, first = np.sort(matrix[:, j])[-2:]
        cap[j] = 0.5 * (first + second)
        assert np.sum(matrix > cap) == 1
        capped_at(economy, cap)
        expected = reference_group_demand_sum(economy, p)
        assert not np.array_equal(expected, matrix.sum(axis=0))
        np.testing.assert_array_equal(economy.demand(p), expected)
        np.testing.assert_array_equal(
            economy.demand(np.array([p, p, 2.0 * p])),
            reference_group_demand_sum(economy, np.array([p, p, 2.0 * p])),
        )


class CountingEconomy:
    """Forwards to an economy and counts demand and excess-demand calls."""

    def __init__(self, economy):
        self.economy = economy
        self.n_goods = economy.n_goods
        self.calls = 0

    def excess(self, p):
        self.calls += 1
        return self.economy.excess(p)

    def demand(self, p):
        self.calls += 1
        return self.economy.demand(p)


@pytest.mark.parametrize(
    "sampler",
    [
        lambda e: check_warp_sample(e, 32, 1),
        lambda e: check_wgs_sample(e, 32, 1),
        lambda e: check_lsd_sample(e, 32, 1),
        lambda e: elasticity_bound_estimate(e, 4, 1),
        lambda e: check_homogeneity(e, np.array([0.2, 0.5, 0.3]), 3.0),
    ],
    ids=["warp", "wgs", "lsd", "elasticity", "homogeneity"],
)
@pytest.mark.parametrize("economy", [ScarfEconomy(), cobb_douglas_pair()], ids=["scarf", "pair"])
def test_sampler_evaluates_once(sampler, economy):
    counting = CountingEconomy(economy)
    assert sampler(counting) == sampler(economy)
    assert counting.calls == 1
