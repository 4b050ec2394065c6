"""Tests for consumer demands, exchange economies, and market diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from mirrorvi import (
    CES,
    COBB_DOUGLAS,
    LEONTIEF,
    Consumer,
    ExchangeEconomy,
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
    scarf_excess_demand,
)
from mirrorvi.economy import _logsumexp

RHO_CHOICES = (-8.0, -1.5, 0.5, 0.9)


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


def test_budget_identity_uncapped():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        consumer = random_consumer(rng, n)
        p = rng.uniform(0.1, 1.0, n)
        x = consumer_demand(consumer, p)
        budget = p.dot(consumer.endowment)
        assert abs(p.dot(x) - budget) <= 1e-9 * (1.0 + budget)


def test_demand_cap_clips_coordinates():
    c = Consumer(COBB_DOUGLAS, np.array([1.0, 1.0]), np.array([10.0, 10.0]))
    p = np.array([0.01, 1.0])
    free = consumer_demand(c, p)
    assert free[0] > 3.0
    capped = consumer_demand(c, p, cap=np.array([3.0, 3.0]))
    np.testing.assert_allclose(capped, np.minimum(free, 3.0))


def test_zero_budget_returns_zero_bundle():
    c = Consumer(LEONTIEF, np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    np.testing.assert_array_equal(consumer_demand(c, np.array([1.0, 1.0])), [0.0, 0.0])


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


def test_scarf_economy_surface():
    economy = ScarfEconomy()
    assert economy.n_goods == 3
    np.testing.assert_array_equal(economy.aggregate_supply, np.ones(3))
    p = np.array([0.3, 0.5, 0.2])
    np.testing.assert_allclose(
        economy.demand(p), economy.excess(p) + np.ones(3), rtol=1e-15
    )


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
    assert bregman_continuity_bound(economy, p, kernel=None, elasticity=2.0) == value
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


def test_logsumexp_matches_scipy_bit_for_bit():
    # The CES demand used scipy.special.logsumexp; its numpy replacement must
    # reproduce it exactly, ties in the row maximum included.
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(12)
    for i in range(300):
        a = rng.normal(size=(12, 50)) * rng.uniform(0.1, 50.0)
        if i % 2:
            a = np.round(a, 1)
            a[:, :4] = a[:, :1]
        np.testing.assert_array_equal(_logsumexp(a, axis=1), scipy_special.logsumexp(a, axis=1))
        assert _logsumexp(a[0]) == scipy_special.logsumexp(a[0])
