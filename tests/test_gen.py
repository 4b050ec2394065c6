"""Tests for seeded economy generation and initial-price sampling."""

from __future__ import annotations

import numpy as np
import pytest

from mirrorvi import (
    CES,
    CES_COMPLEMENTS,
    CES_SUBSTITUTES,
    COBB_DOUGLAS,
    LEONTIEF,
    GenSpec,
    InvalidInput,
    generate_economy,
    initial_prices,
    simplex,
    unit_box,
)
from mirrorvi.gen import FIELD_PRICE, FIELD_VALUATION, _uniforms

MIX_QUARTERS = {
    COBB_DOUGLAS: 0.25,
    LEONTIEF: 0.25,
    CES_SUBSTITUTES: 0.25,
    CES_COMPLEMENTS: 0.25,
}


def test_spec_validation():
    good = dict(n_consumers=4, n_goods=3, mix={COBB_DOUGLAS: 1.0})
    with pytest.raises(InvalidInput):
        GenSpec(seed=-1, **good)
    with pytest.raises(InvalidInput):
        GenSpec(seed=2**64, **good)
    with pytest.raises(InvalidInput):
        GenSpec(seed=0, n_consumers=0, n_goods=3, mix={COBB_DOUGLAS: 1.0})
    with pytest.raises(InvalidInput):
        GenSpec(seed=0, n_consumers=4, n_goods=0, mix={COBB_DOUGLAS: 1.0})
    with pytest.raises(InvalidInput):
        GenSpec(seed=0, supply_total=0.0, **good)
    with pytest.raises(InvalidInput):
        GenSpec(seed=0, n_consumers=4, n_goods=3, mix={"linear": 1.0})
    with pytest.raises(InvalidInput):
        GenSpec(seed=0, n_consumers=4, n_goods=3, mix={COBB_DOUGLAS: 0.5})
    with pytest.raises(InvalidInput):
        GenSpec(
            seed=0,
            n_consumers=4,
            n_goods=3,
            mix={COBB_DOUGLAS: 1.5, LEONTIEF: -0.5},
        )


def test_kind_assignment_blocks():
    spec = GenSpec(
        seed=0, n_consumers=3, n_goods=2, mix={COBB_DOUGLAS: 0.5, LEONTIEF: 0.5}
    )
    assert spec.kind_assignment() == [COBB_DOUGLAS, LEONTIEF, LEONTIEF]
    even = GenSpec(seed=0, n_consumers=8, n_goods=2, mix=MIX_QUARTERS)
    assert even.kind_assignment() == (
        [COBB_DOUGLAS] * 2 + [LEONTIEF] * 2 + [CES_SUBSTITUTES] * 2 + [CES_COMPLEMENTS] * 2
    )
    pure = GenSpec(seed=0, n_consumers=5, n_goods=2, mix={LEONTIEF: 1.0})
    assert pure.kind_assignment() == [LEONTIEF] * 5


def test_generation_is_deterministic():
    spec = GenSpec(seed=42, n_consumers=8, n_goods=5, mix=MIX_QUARTERS)
    a = generate_economy(spec)
    b = generate_economy(spec)
    for ca, cb in zip(a.consumers, b.consumers):
        assert ca.utility == cb.utility
        assert ca.rho == cb.rho
        np.testing.assert_array_equal(ca.valuations, cb.valuations)
        np.testing.assert_array_equal(ca.endowment, cb.endowment)


def test_consumer_streams_are_independent_of_population_size():
    # Each consumer owns a dedicated counter region, so adding consumers must
    # not shift the draws of existing ones (endowments do move: they are
    # rescaled by the column totals of the whole population).
    five = generate_economy(
        GenSpec(seed=0, n_consumers=5, n_goods=4, mix={CES_SUBSTITUTES: 1.0})
    )
    ten = generate_economy(
        GenSpec(seed=0, n_consumers=10, n_goods=4, mix={CES_SUBSTITUTES: 1.0})
    )
    for ca, cb in zip(five.consumers, ten.consumers[:5]):
        np.testing.assert_array_equal(ca.valuations, cb.valuations)
        assert ca.rho == cb.rho


def test_supply_columns_hit_supply_total():
    spec = GenSpec(
        seed=7, n_consumers=6, n_goods=4, mix=MIX_QUARTERS, supply_total=10.0
    )
    economy = generate_economy(spec)
    supply = np.sum([c.endowment for c in economy.consumers], axis=0)
    np.testing.assert_allclose(supply, 10.0, rtol=1e-12)
    np.testing.assert_allclose(economy.aggregate_supply, supply, rtol=1e-12)
    scaled = generate_economy(
        GenSpec(seed=7, n_consumers=6, n_goods=4, mix=MIX_QUARTERS, supply_total=2.5)
    )
    np.testing.assert_allclose(
        np.sum([c.endowment for c in scaled.consumers], axis=0), 2.5, rtol=1e-12
    )


def test_generated_parameters_in_documented_ranges():
    spec = GenSpec(seed=3, n_consumers=12, n_goods=5, mix=MIX_QUARTERS)
    economy = generate_economy(spec)
    kinds = spec.kind_assignment()
    assert len(economy.consumers) == 12
    for consumer, kind in zip(economy.consumers, kinds):
        assert np.all(consumer.valuations >= 1e-12)
        assert np.all(consumer.valuations <= 1.0)
        assert np.all(consumer.endowment > 0.0)
        if kind == CES_SUBSTITUTES:
            assert consumer.utility == CES
            assert 0.6 <= consumer.rho <= 0.9
        elif kind == CES_COMPLEMENTS:
            assert consumer.utility == CES
            assert -1000.0 <= consumer.rho <= -1.0
        else:
            assert consumer.utility == kind
            assert consumer.rho is None
    assert economy.demand_cap_factor == 1.0


def test_initial_prices_normalization():
    p_box = initial_prices(3, unit_box(4))
    assert p_box.max() == 1.0
    assert unit_box(4).contains(p_box)
    p_simplex = initial_prices(3, simplex(4))
    np.testing.assert_allclose(p_simplex.sum(), 1.0, rtol=1e-15)
    assert simplex(4).contains(p_simplex)
    np.testing.assert_array_equal(initial_prices(3, unit_box(4)), p_box)
    assert not np.array_equal(initial_prices(4, unit_box(4)), p_box)


def test_initial_prices_rejects_seeds_outside_64_bits():
    # The key is field * 2**64 + seed: a larger seed would alias a smaller
    # one's draws, and a negative one fails inside numpy.
    assert not np.array_equal(initial_prices(2**64 - 1, simplex(3)),
                              initial_prices(0, simplex(3)))
    for seed in (-1, 2**64, 4 * 2**64):
        with pytest.raises(InvalidInput, match="seed must be a 64-bit unsigned integer"):
            initial_prices(seed, simplex(3))


def test_counter_stream_regression():
    # Frozen draws pin the (key, counter, draw-index) addressing: any change
    # to the stream layout silently regenerates every documented experiment.
    np.testing.assert_allclose(
        _uniforms(0, FIELD_PRICE, 0, 3),
        [0.4291563450602872, 0.6443840681728986, 0.4839306937685306],
        rtol=1e-15,
    )
    np.testing.assert_array_equal(
        _uniforms(0, FIELD_VALUATION, 2, 4)[1:],
        _uniforms(0, FIELD_VALUATION, 2, 3, offset=1),
    )
