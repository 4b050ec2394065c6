"""Seeded random generation of exchange economies and initial prices.

All randomness comes from counter-based Philox4x64-10 streams addressed by
(seed, field, consumer, draw index), so results are identical across
platforms and independent of generation order:

* key      = the 128-bit integer field * 2**64 + seed, with fields
  endowment=1, valuation=2, rho=3, price=4;
* counter  = the 256-bit integer consumer * 2**192 — block generation
  increments the counter's low bits, so one consumer's stream never reaches
  another's region;
* draw g   = the g-th raw 64-bit word of that stream, mapped to [0, 1) via
  (raw >> 11) * 2**-53, then scaled to the documented range.

Each generate_economy and initial_prices call owns one Philox generator and
points it at each stream in turn through its documented state (key words
[seed, field], counter words [0, 0, 0, consumer], an empty buffer), which
gives the words of a fresh Philox(key=..., counter=...) for that stream. No
generator is shared between calls, so concurrent calls cannot interleave.

Endowments are drawn per consumer-good from Unif(1e-6, 1) and column-scaled
so each good's aggregate supply equals supply_total. Valuations are
Unif(0, 1), redrawn (at draw index attempt * n_goods + good) while below
1e-12. CES rho is Unif(0.6, 0.9) for substitutes and Unif(-1000, -1) for
complements. Initial prices are Unif(1, 10), normalized into the price space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .economy import CES, COBB_DOUGLAS, LEONTIEF, Consumer, ExchangeEconomy
from .errors import InvalidInput, check_integer, check_number, check_real, check_seed
from .kernels import BOX, FeasibleSet, _finite

FIELD_ENDOWMENT = 1
FIELD_VALUATION = 2
FIELD_RHO = 3
FIELD_PRICE = 4

CES_SUBSTITUTES = "ces_substitutes"
CES_COMPLEMENTS = "ces_complements"

#: Deterministic assignment order of utility kinds over consumer indices.
KIND_ORDER = (COBB_DOUGLAS, LEONTIEF, CES_SUBSTITUTES, CES_COMPLEMENTS)

_MIN_VALUATION = 1e-12


def _words(bitgen: np.random.Philox, seed: int, field: int, consumer: int, count: int,
           offset: int = 0) -> np.ndarray:
    """Raw words offset .. offset+count-1 of the stream keyed by (seed, field, consumer).

    bitgen is re-keyed for the stream: key words [seed, field] are the key
    field * 2**64 + seed, counter words [0, 0, 0, consumer] the counter
    consumer * 2**192, and buffer_pos 4 empties the buffer, so the words are
    those of a fresh Philox(key=..., counter=...).
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"key": [int(seed), int(field)], "counter": [0, 0, 0, int(consumer)]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen.random_raw(offset + count)[offset:]


def _unit(words: np.ndarray) -> np.ndarray:
    """Raw words mapped to [0, 1) by (raw >> 11) * 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random economy: seed, sizes, utility mix, supply scale."""

    seed: int
    n_consumers: int
    n_goods: int
    mix: Mapping[str, float]
    supply_total: float = 10.0

    def __post_init__(self) -> None:
        check_seed(self.seed)
        for size in (self.n_consumers, self.n_goods):
            check_integer(size, "n_consumers and n_goods must be integers")
        if self.n_consumers < 1 or self.n_goods < 1:
            raise InvalidInput("n_consumers and n_goods must be positive")
        # An infinite supply would make every endowment NaN.
        check_real(self.supply_total, "supply_total", positive=True)
        unknown = set(self.mix) - set(KIND_ORDER)
        if unknown:
            raise InvalidInput(f"unknown utility kinds in mix: {sorted(unknown)}")
        props = np.array(self._proportions())
        # A NaN passes both tests below, and kind_assignment cannot floor it.
        if not _finite(props):
            raise InvalidInput(f"mix proportions must be finite, got {dict(self.mix)}")
        if np.any(props < 0.0):
            raise InvalidInput("mix proportions must be nonnegative")
        if abs(props.sum() - 1.0) > 1e-12:
            raise InvalidInput(f"mix proportions must sum to 1, got {props.sum()}")

    def _proportions(self) -> list[float]:
        """Each kind's mix proportion in KIND_ORDER, 0.0 when absent; a bool or a
        string is not a proportion (errors.check_number)."""
        props = [self.mix.get(kind, 0.0) for kind in KIND_ORDER]
        for kind, prop in zip(KIND_ORDER, props):
            check_number(prop, f"mix proportion {kind!r}")
        return [float(prop) for prop in props]

    def kind_assignment(self) -> list[str]:
        """Utility kind per consumer index: cumulative-floor blocks in KIND_ORDER."""
        props = self._proportions()
        boundaries = []
        cumulative = 0.0
        for prop in props:
            cumulative += prop
            boundaries.append(int(np.floor(cumulative * self.n_consumers)))
        boundaries[-1] = self.n_consumers
        kinds = []
        start = 0
        for kind, stop in zip(KIND_ORDER, boundaries):
            kinds.extend([kind] * (stop - start))
            start = max(start, stop)
        return kinds


def _valuations(bitgen: np.random.Philox, seed: int, consumer: int, n_goods: int) -> np.ndarray:
    v = _unit(_words(bitgen, seed, FIELD_VALUATION, consumer, n_goods))
    attempt = 0
    while np.minimum.reduce(v) < _MIN_VALUATION:
        attempt += 1
        fresh = _unit(_words(bitgen, seed, FIELD_VALUATION, consumer, n_goods,
                             offset=attempt * n_goods))
        bad = v < _MIN_VALUATION
        v[bad] = fresh[bad]
    return v


def generate_economy(spec: GenSpec) -> ExchangeEconomy:
    """Build the economy the spec describes; identical spec, identical economy."""
    m, n = spec.n_consumers, spec.n_goods
    bitgen = np.random.Philox()
    raw = np.stack([_unit(_words(bitgen, spec.seed, FIELD_ENDOWMENT, c, n)) for c in range(m)])
    # 1e-6 + (1 - 1e-6) * u, in place: the same products and sums, and no
    # second (m, n) temporary at the peak.
    raw *= 1.0 - 1e-6
    raw += 1e-6
    endowments = spec.supply_total * raw / raw.sum(axis=0, keepdims=True)

    consumers = []
    for c, kind in enumerate(spec.kind_assignment()):
        valuations = _valuations(bitgen, spec.seed, c, n)
        if kind == COBB_DOUGLAS:
            consumers.append(Consumer(COBB_DOUGLAS, valuations, endowments[c]))
        elif kind == LEONTIEF:
            consumers.append(Consumer(LEONTIEF, valuations, endowments[c]))
        else:
            u = float(_unit(_words(bitgen, spec.seed, FIELD_RHO, c, 1))[0])
            if kind == CES_SUBSTITUTES:
                rho = 0.6 + 0.3 * u
            else:
                rho = -1000.0 + 999.0 * u
            consumers.append(Consumer(CES, valuations, endowments[c], rho=rho))
    return ExchangeEconomy(consumers=consumers, n_goods=n)


def initial_prices(seed: int, space: FeasibleSet) -> np.ndarray:
    """Draw raw prices Unif(1, 10)^n and normalize into the price space.

    Box spaces divide by the max coordinate (then clip into the box); the
    simplex divides by the sum. Homogeneity of excess demand makes the
    normalization harmless. The seed must lie in [0, 2**64), as for GenSpec.
    """
    check_seed(seed)
    raw = 1.0 + 9.0 * _unit(_words(np.random.Philox(), seed, FIELD_PRICE, 0, space.n))
    if space.kind == BOX:
        return np.clip(raw / raw.max(), space.lo, space.hi)
    return raw / raw.sum()
