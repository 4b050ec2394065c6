"""Tests for seeded economy generation and initial-price sampling."""

from __future__ import annotations

import hashlib
import re
import sys
import threading

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
import mirrorvi.gen as gen_module
from mirrorvi.gen import FIELD_PRICE, FIELD_VALUATION, _unit, _words

MIX_QUARTERS = {
    COBB_DOUGLAS: 0.25,
    LEONTIEF: 0.25,
    CES_SUBSTITUTES: 0.25,
    CES_COMPLEMENTS: 0.25,
}


@pytest.mark.parametrize("value, shown", [(True, "True"), ("1", "'1'")])
def test_spec_mix_proportions_must_be_real_numbers(value, shown):
    # float() read True and "1" as 1.0, an all-Cobb-Douglas economy.
    message = f"mix proportion 'cobb_douglas' must be a real number, got {shown}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        GenSpec(seed=0, n_consumers=4, n_goods=3, mix={COBB_DOUGLAS: value})


@pytest.mark.parametrize("mix", [{LEONTIEF: float("nan")},
                                 {LEONTIEF: float("nan"), COBB_DOUGLAS: 1.0},
                                 {LEONTIEF: float("inf")},
                                 {LEONTIEF: float("inf"), COBB_DOUGLAS: float("-inf")}])
def test_spec_rejects_mix_proportions_that_are_not_finite(mix):
    # A NaN passed the sign and sum tests, then kind_assignment could not
    # floor it and raised a bare ValueError.
    with pytest.raises(InvalidInput, match="mix proportions must be finite"):
        GenSpec(seed=0, n_consumers=4, n_goods=3, mix=mix)


@pytest.mark.parametrize("size", [2.5, 4.0, True, np.float64(4.0), np.bool_(True), "4"])
@pytest.mark.parametrize("field", ["n_consumers", "n_goods"])
def test_spec_rejects_sizes_that_are_not_integers(field, size):
    # A float size was accepted, and generate_economy then raised a bare
    # TypeError from range; a bool is not a size either.
    sizes = dict(n_consumers=4, n_goods=3)
    sizes[field] = size
    with pytest.raises(InvalidInput, match=f"{field} must be an integer"):
        GenSpec(seed=0, mix={COBB_DOUGLAS: 1.0}, **sizes)


def test_spec_takes_numpy_integer_sizes():
    spec = GenSpec(seed=0, n_consumers=np.int64(4), n_goods=np.int32(3),
                   mix={COBB_DOUGLAS: 1.0})
    plain = GenSpec(seed=0, n_consumers=4, n_goods=3, mix={COBB_DOUGLAS: 1.0})
    np.testing.assert_array_equal(generate_economy(spec).excess(np.ones(3)),
                                  generate_economy(plain).excess(np.ones(3)))


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
    for supply_total in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidInput, match="supply_total must be positive and finite"):
            GenSpec(seed=0, supply_total=supply_total, **good)
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


@pytest.mark.parametrize("seed", [2.7, 2.0, np.float64(2.0), True, False, np.bool_(True), "2"])
def test_seeds_must_be_integers(seed):
    # int() took these as other seeds: 2.7 built seed 2's economy and prices,
    # and True acted as seed 1, while a report's config_echo would show 2.7.
    with pytest.raises(InvalidInput, match="seed must be a 64-bit unsigned integer"):
        GenSpec(seed=seed, n_consumers=4, n_goods=3, mix={COBB_DOUGLAS: 1.0})
    with pytest.raises(InvalidInput, match="seed must be a 64-bit unsigned integer"):
        initial_prices(seed, simplex(3))


@pytest.mark.parametrize("typed", [np.uint64(2**64 - 1), np.uint64(2), np.int64(2), np.int32(2)])
def test_numpy_integer_seeds_are_the_plain_seeds(typed):
    seed = int(typed)
    assert initial_prices(typed, simplex(3)).tobytes() == initial_prices(seed, simplex(3)).tobytes()
    spec = dict(n_consumers=4, n_goods=3, mix=MIX_QUARTERS)
    assert np.array_equal(generate_economy(GenSpec(seed=typed, **spec)).excess(np.ones(3)),
                          generate_economy(GenSpec(seed=seed, **spec)).excess(np.ones(3)))


def test_counter_stream_regression():
    # Frozen draws pin the (key, counter, draw-index) addressing: any change
    # to the stream layout silently regenerates every documented experiment.
    np.testing.assert_allclose(
        _unit(_words(np.random.Philox(), 0, FIELD_PRICE, 0, 3)),
        [0.4291563450602872, 0.6443840681728986, 0.4839306937685306],
        rtol=1e-15,
    )
    np.testing.assert_array_equal(
        _unit(_words(np.random.Philox(), 0, FIELD_VALUATION, 2, 4))[1:],
        _unit(_words(np.random.Philox(), 0, FIELD_VALUATION, 2, 3, offset=1)),
    )


def test_rekeyed_words_equal_a_fresh_generator():
    # One generator re-keyed through its state gives, stream after stream,
    # the words of a fresh Philox(key=field * 2**64 + seed,
    # counter=consumer * 2**192) for that stream.
    bitgen = np.random.Philox()
    for seed in (0, 1, 2**63, 2**64 - 1):
        for field in (1, 2, 3, 4):
            for consumer in (0, 1, 499, 2**20):
                for count in (1, 3, 4, 5, 50):
                    for offset in (0, 1, 4, 50):
                        fresh = np.random.Philox(key=(field << 64) | seed,
                                                 counter=consumer << 192)
                        expected = fresh.random_raw(offset + count)[offset:]
                        got = _words(bitgen, seed, field, consumer, count, offset)
                        assert got.tobytes() == expected.tobytes()


def _economy_digest(economy) -> str:
    digest = hashlib.sha256()
    for consumer in economy.consumers:
        digest.update(f"{consumer.utility}:{consumer.rho!r};".encode())
        digest.update(consumer.valuations.tobytes())
        digest.update(consumer.endowment.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("spec, digest", [
    (GenSpec(seed=0, n_consumers=50, n_goods=50, mix=MIX_QUARTERS), "010ce584c8cd7ff4"),
    (GenSpec(seed=7, n_consumers=50, n_goods=50, mix=MIX_QUARTERS, supply_total=2.5),
     "8a31639f7f24893b"),
    (GenSpec(seed=0, n_consumers=500, n_goods=500, mix={LEONTIEF: 1.0}), "e5c4699885354d50"),
], ids=["mixed50", "mixed50_seed7", "leontief500"])
def test_generated_economy_digest_is_frozen(spec, digest):
    # Digests of the utilities, rho reprs, valuations and endowments taken
    # when every stream had a Philox generator of its own.
    assert _economy_digest(generate_economy(spec)) == digest


def test_valuation_redraws_are_frozen(monkeypatch):
    # A minimum of 0.5 redraws about half of every consumer's valuations, for
    # several attempts, at draw indices attempt * n_goods + good.
    monkeypatch.setattr(gen_module, "_MIN_VALUATION", 0.5)
    economy = generate_economy(GenSpec(seed=3, n_consumers=12, n_goods=7, mix=MIX_QUARTERS))
    assert _economy_digest(economy) == "8aac09ffcc40cf89"


def test_initial_prices_are_frozen():
    raw = initial_prices(5, unit_box(50)).tobytes()
    raw += initial_prices(2**64 - 1, simplex(7)).tobytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == "e9fd699ba903d1d8"


def test_concurrent_generation_equals_serial():
    # Every call owns its generator, so threads switching every few
    # microseconds in the middle of re-keying still get the serial economies.
    specs = [GenSpec(seed=s, n_consumers=12, n_goods=6, mix=MIX_QUARTERS) for s in range(4)]
    serial = [_economy_digest(generate_economy(spec)) for spec in specs]
    results: dict[int, list[str]] = {}

    def work(worker: int) -> None:
        results[worker] = [_economy_digest(generate_economy(spec))
                           for _ in range(5) for spec in specs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {w: serial * 5 for w in range(4)}
