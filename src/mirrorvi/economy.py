"""Excess-demand models: the Scarf economy and CES-family exchange economies.

Consumers hold Cobb-Douglas, Leontief, or CES utilities with closed-form
Marshallian demands. An exchange economy aggregates consumer demands (with an
optional per-consumer cap at kappa times aggregate supply) and subtracts the
aggregate endowment. Diagnostics sample homogeneity, Walras' law, weak gross
substitutes, the weak axiom of revealed preference, the law of supply and
demand, and two-point elasticities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import EvaluationError, InvalidInput, Unsupported

COBB_DOUGLAS = "cobb_douglas"
LEONTIEF = "leontief"
CES = "ces"

#: Default floor applied to price coordinates before demand evaluation.
DEFAULT_PRICE_FLOOR = 1e-8

#: Largest brute-force demand grid resolution we evaluate.
MAX_ORACLE_RESOLUTION = 401


def _as_prices(p, n: int | None = None) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise InvalidInput(f"prices must be a one-dimensional vector, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise InvalidInput(f"expected {n} prices, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("prices must be finite")
    if np.any(arr < 0.0):
        raise InvalidInput("prices must be nonnegative")
    return arr


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along axis, for finite a; a itself is not modified.

    The max entries are taken out of the sum and counted instead, so the sum
    of the other terms goes through log1p: the same arithmetic as
    scipy.special.logsumexp, whose results this reproduces bit for bit.
    """
    a_max = a.max(axis=axis, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=axis, keepdims=True, dtype=float)
    w = np.where(is_max, -np.inf, a)
    w -= a_max
    np.exp(w, out=w)
    s = w.sum(axis=axis, keepdims=True)
    s /= m
    return np.squeeze(np.log1p(s) + np.log(m) + a_max, axis=axis)


@dataclass(frozen=True, eq=False)
class Consumer:
    """One consumer: a utility family, positive valuations, and an endowment."""

    utility: str
    valuations: np.ndarray
    endowment: np.ndarray
    rho: float | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.valuations, dtype=float)
        e = np.asarray(self.endowment, dtype=float)
        if v.ndim != 1 or e.shape != v.shape:
            raise InvalidInput(
                f"valuations and endowment must be equal-length vectors, got "
                f"{v.shape} and {e.shape}"
            )
        if not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
            raise InvalidInput("valuations must be finite and strictly positive")
        if not (np.all(np.isfinite(e)) and np.all(e >= 0.0)):
            raise InvalidInput("endowment must be finite and nonnegative")
        if self.utility == CES:
            if self.rho is None:
                raise InvalidInput("CES utility requires rho")
            if not (self.rho < 1.0 and self.rho != 0.0):
                raise InvalidInput(f"CES rho must satisfy rho < 1 and rho != 0, got {self.rho}")
        elif self.utility in (COBB_DOUGLAS, LEONTIEF):
            if self.rho is not None:
                raise InvalidInput(f"{self.utility} does not take rho")
        else:
            raise InvalidInput(f"unknown utility {self.utility!r}")
        object.__setattr__(self, "valuations", v)
        object.__setattr__(self, "endowment", e)

    @property
    def n_goods(self) -> int:
        return self.valuations.size


def consumer_demand(consumer: Consumer, p, cap=None, floor: float = DEFAULT_PRICE_FLOOR) -> np.ndarray:
    """Closed-form Marshallian demand at prices p with budget p . endowment.

    Evaluates the consumer as a one-row group, with the same closed forms as
    an exchange economy. A zero budget returns the zero bundle. When cap is
    given, each coordinate is clipped at cap_j.
    """
    prices = np.maximum(_as_prices(p, consumer.n_goods), floor)
    if float(prices.dot(consumer.endowment)) == 0.0:
        return np.zeros(consumer.n_goods)
    x = _ConsumerGroup.stack(consumer.utility, [consumer]).demand_matrix(prices)[0]
    if not np.all(np.isfinite(x)):
        raise EvaluationError(f"demand overflow for {consumer.utility} consumer at p={prices}")
    if cap is not None:
        x = np.minimum(x, cap)
    return x


def _share_grid(n: int, resolution: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (resolution,)
        return
    for head in range(resolution + 1):
        for tail in _share_grid(n - 1, resolution - head):
            yield (head, *tail)


def _utility_score(consumer: Consumer, x: np.ndarray) -> float:
    """Monotone transform of the consumer's utility (for argmax comparison)."""
    v = consumer.valuations
    if consumer.utility == COBB_DOUGLAS:
        w = v / v.sum()
        if np.any(x <= 0.0):
            return -np.inf
        return float(w.dot(np.log(x)))
    if consumer.utility == LEONTIEF:
        return float(np.min(x / v))
    if consumer.rho > 0.0:
        return float(v.dot(x**consumer.rho))
    if np.any(x <= 0.0):
        return -np.inf
    return -float(v.dot(x**consumer.rho))


def demand_oracle(consumer: Consumer, p, resolution: int, floor: float = DEFAULT_PRICE_FLOOR) -> np.ndarray:
    """Brute-force demand: best utility over a grid of budget-exhausting bundles.

    Budget shares run over the simplex grid {k/resolution}, converted to
    quantities x_j = share_j * budget / p_j. Small dimensions only.
    """
    n = consumer.n_goods
    if n > 3:
        raise Unsupported(f"demand_oracle supports at most 3 goods, got {n}")
    if resolution > MAX_ORACLE_RESOLUTION:
        raise Unsupported(
            f"demand_oracle supports resolution <= {MAX_ORACLE_RESOLUTION}, got {resolution}"
        )
    prices = np.maximum(_as_prices(p, n), floor)
    budget = float(prices.dot(consumer.endowment))
    if budget == 0.0:
        return np.zeros(n)
    best_score = -np.inf
    best_x = np.zeros(n)
    for combo in _share_grid(n, resolution):
        x = (np.asarray(combo, dtype=float) / resolution) * budget / prices
        score = _utility_score(consumer, x)
        if score > best_score:
            best_score = score
            best_x = x
    return best_x


@dataclass(frozen=True, eq=False)
class _ConsumerGroup:
    """Consumers of one utility family, stacked for vectorized evaluation.

    CES (sigma = 1/(1-rho)) is evaluated entirely in log space so elasticities
    of substitution up to ~1000 survive double precision. The price-free
    constants are computed once, when the group is built: the Cobb-Douglas
    budget shares and the CES log valuations. demand_matrix allocates one
    (m, n) matrix and finishes it in place; every product is the same IEEE
    operation as in the textbook form, so the results are identical.
    """

    utility: str
    valuations: np.ndarray  # (m, n)
    endowments: np.ndarray  # (m, n)
    sigmas: np.ndarray | None = None  # (m,) for CES
    weights: np.ndarray | None = field(init=False, repr=False)  # (m, n) for Cobb-Douglas
    log_valuations: np.ndarray | None = field(init=False, repr=False)  # (m, n) for CES

    def __post_init__(self) -> None:
        v = self.valuations
        weights = v / v.sum(axis=1, keepdims=True) if self.utility == COBB_DOUGLAS else None
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "log_valuations", np.log(v) if self.utility == CES else None)

    @classmethod
    def stack(cls, utility: str, members: Sequence[Consumer]) -> _ConsumerGroup:
        return cls(
            utility=utility,
            valuations=np.array([c.valuations for c in members]),
            endowments=np.array([c.endowment for c in members]),
            sigmas=(
                np.array([1.0 / (1.0 - c.rho) for c in members]) if utility == CES else None
            ),
        )

    def demand_matrix(self, prices: np.ndarray) -> np.ndarray:
        """Each member's uncapped demand at floored prices, one row per member."""
        budgets = self.endowments.dot(prices)
        if self.utility == COBB_DOUGLAS:
            x = np.outer(budgets, 1.0 / prices)
            x *= self.weights
            return x
        if self.utility == LEONTIEF:
            return self.valuations * (budgets / self.valuations.dot(prices))[:, None]
        log_p = np.log(prices)
        t = self.log_valuations - log_p
        t *= self.sigmas[:, None]
        lse = _logsumexp(t + log_p, axis=1)
        t -= lse[:, None]
        np.exp(t, out=t)
        t *= budgets[:, None]
        return t


@dataclass(frozen=True, eq=False)
class ExchangeEconomy:
    """An exchange economy: consumers, aggregate supply, cap, and price floor."""

    consumers: Sequence[Consumer]
    n_goods: int
    demand_cap_factor: float = 1.0
    price_floor: float = DEFAULT_PRICE_FLOOR
    aggregate_supply: np.ndarray = field(init=False, repr=False)
    _groups: tuple[_ConsumerGroup, ...] = field(init=False, repr=False)
    _cap: np.ndarray | None = field(init=False, repr=False)  # None when uncapped

    def __post_init__(self) -> None:
        consumers = tuple(self.consumers)
        if not consumers:
            raise InvalidInput("an economy needs at least one consumer")
        if self.n_goods < 1:
            raise InvalidInput(f"n_goods must be >= 1, got {self.n_goods}")
        for c in consumers:
            if c.n_goods != self.n_goods:
                raise InvalidInput(
                    f"consumer dimension {c.n_goods} does not match n_goods {self.n_goods}"
                )
        if not (self.demand_cap_factor >= 1.0):
            raise InvalidInput(f"demand_cap_factor must be >= 1, got {self.demand_cap_factor}")
        if not (self.price_floor > 0.0):
            raise InvalidInput(f"price_floor must be positive, got {self.price_floor}")
        supply = np.sum([c.endowment for c in consumers], axis=0)
        if not np.all(supply > 0.0):
            raise InvalidInput("every good needs a strictly positive aggregate endowment")
        groups = []
        for kind in (COBB_DOUGLAS, LEONTIEF, CES):
            members = [c for c in consumers if c.utility == kind]
            if members:
                groups.append(_ConsumerGroup.stack(kind, members))
        cap = self.demand_cap_factor * supply if np.isfinite(self.demand_cap_factor) else None
        object.__setattr__(self, "consumers", consumers)
        object.__setattr__(self, "aggregate_supply", supply)
        object.__setattr__(self, "_groups", tuple(groups))
        object.__setattr__(self, "_cap", cap)

    def demand(self, p) -> np.ndarray:
        """Aggregate (capped) demand at floored prices."""
        prices = np.maximum(_as_prices(p, self.n_goods), self.price_floor)
        total = np.zeros(self.n_goods)
        for group in self._groups:
            # demand_matrix returns a fresh matrix, so it is capped in place.
            matrix = group.demand_matrix(prices)
            if self._cap is not None:
                np.minimum(matrix, self._cap, out=matrix)
            total += matrix.sum(axis=0)
        if not np.all(np.isfinite(total)):
            raise EvaluationError(f"aggregate demand overflow at p={prices}")
        return total

    def excess(self, p) -> np.ndarray:
        return self.demand(p) - self.aggregate_supply


def excess_demand(economy, p) -> np.ndarray:
    """Aggregate demand minus aggregate supply at floored prices."""
    return economy.excess(p)


def scarf_excess_demand(p, floor: float = DEFAULT_PRICE_FLOOR) -> np.ndarray:
    """The fixed 3-good excess demand with equilibrium at equal prices."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise InvalidInput(f"expected 3 prices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("prices must be finite")
    q1, q2, q3 = np.maximum(arr, floor)
    a = q1 / (q1 + q2)
    b = q3 / (q1 + q3)
    c = q2 / (q2 + q3)
    return np.array([a + b - 1.0, a + c - 1.0, c + b - 1.0])


@dataclass(frozen=True)
class ScarfEconomy:
    """The fixed 3-good economy behind scarf_excess_demand.

    Exposes the same evaluation surface as ExchangeEconomy (supply is one unit
    of each good; demand is excess plus supply).
    """

    price_floor: float = DEFAULT_PRICE_FLOOR

    @property
    def n_goods(self) -> int:
        return 3

    @property
    def aggregate_supply(self) -> np.ndarray:
        return np.ones(3)

    def excess(self, p) -> np.ndarray:
        return scarf_excess_demand(p, floor=self.price_floor)

    def demand(self, p) -> np.ndarray:
        return self.excess(p) + self.aggregate_supply


def check_homogeneity(economy, p, lam: float) -> float:
    """Max absolute deviation ||Z(lam * p) - Z(p)||_inf (0 for degree-0 Z)."""
    if not (lam > 0.0):
        raise InvalidInput(f"lambda must be positive, got {lam}")
    prices = _as_prices(p, economy.n_goods)
    return float(np.max(np.abs(economy.excess(lam * prices) - economy.excess(prices))))


def check_walras(economy, p) -> float:
    """|p . Z(p)| — equality holds uncapped; a binding cap shows up here."""
    prices = _as_prices(p, economy.n_goods)
    return float(abs(prices.dot(economy.excess(prices))))


def _sample_prices(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.1, 1.0, n)


def check_wgs_sample(economy, pairs: int, seed) -> int:
    """Count weak-gross-substitutes violations over sampled single-price raises.

    For each sample, one coordinate is raised multiplicatively and every other
    good whose excess demand drops by more than 1e-9 counts as a violation.
    """
    rng = np.random.default_rng(seed)
    n = economy.n_goods
    violations = 0
    for _ in range(pairs):
        p = _sample_prices(rng, n)
        k = int(rng.integers(n))
        q = p.copy()
        q[k] *= 1.0 + rng.uniform(0.01, 0.5)
        drop = economy.excess(p) - economy.excess(q)
        drop[k] = -np.inf
        violations += int(np.sum(drop > 1e-9))
    return violations


def check_warp_sample(economy, pairs: int, seed) -> int:
    """Count weak-axiom violations over sampled price pairs.

    A pair (p, q) violates the axiom when Z(q) is affordable at its own prices
    relative to p (<Z(q), p> <= <Z(q), q>), the two excess demands differ, and
    yet <Z(p), q> <= <Z(p), p>.
    """
    rng = np.random.default_rng(seed)
    n = economy.n_goods
    violations = 0
    for _ in range(pairs):
        p = _sample_prices(rng, n)
        q = _sample_prices(rng, n)
        zp = economy.excess(p)
        zq = economy.excess(q)
        if np.array_equal(zp, zq):
            continue
        if zq.dot(p) <= zq.dot(q) and zp.dot(q) <= zp.dot(p):
            violations += 1
    return violations


def check_lsd_sample(economy, pairs: int, seed) -> int:
    """Count law-of-supply-and-demand violations <Z(q)-Z(p), q-p> > 1e-9."""
    rng = np.random.default_rng(seed)
    n = economy.n_goods
    violations = 0
    for _ in range(pairs):
        p = _sample_prices(rng, n)
        q = _sample_prices(rng, n)
        if float((economy.excess(q) - economy.excess(p)).dot(q - p)) > 1e-9:
            violations += 1
    return violations


#: Relative perturbation sizes for two-point elasticity sampling.
ELASTICITY_DELTAS = (0.01, 0.1)


def elasticity_bound_estimate(economy, pairs: int, seed) -> float:
    """Largest sampled two-point elasticity magnitude of demand and supply.

    Base prices are sampled in [0.1, 1]^n; each coordinate is perturbed
    multiplicatively by 1 +/- delta for delta in ELASTICITY_DELTAS. Components
    with zero baseline demand are skipped. Aggregate supply is constant, so
    its elasticity contributes zero.
    """
    rng = np.random.default_rng(seed)
    n = economy.n_goods
    eps_hat = 0.0
    for _ in range(pairs):
        p = _sample_prices(rng, n)
        base = economy.demand(p)
        nonzero = base != 0.0
        for k, delta, sign in itertools.product(range(n), ELASTICITY_DELTAS, (1.0, -1.0)):
            q = p.copy()
            q[k] = p[k] * (1.0 + sign * delta)
            rel_change = np.zeros(n)
            moved = economy.demand(q)
            rel_change[nonzero] = (moved[nonzero] - base[nonzero]) / base[nonzero]
            ratios = np.abs(rel_change) / (delta)
            eps_hat = max(eps_hat, float(ratios.max()))
    return eps_hat


def bregman_continuity_bound(economy, p, kernel=None, elasticity: float | None = None,
                             pairs: int = 64, seed=0) -> float:
    """Per-point modulus epsilon_hat * (||d(p)|| + ||s||) / ||p||_inf.

    Certifies 0.5 * ||Z(p) - Z(p')||^2 <= bound^2 * D_h(p', p) for any
    1-strongly-convex kernel (the divergence dominates 0.5 * ||p - p'||^2, so
    the kernel argument does not change the value). When elasticity is not
    given it is estimated via elasticity_bound_estimate(economy, pairs, seed).
    """
    prices = _as_prices(p, economy.n_goods)
    total = prices.sum()
    if abs(total - 1.0) > 1e-9:
        raise InvalidInput(f"p must lie on the unit simplex, got sum {total}")
    if elasticity is None:
        elasticity = elasticity_bound_estimate(economy, pairs, seed)
    demand = economy.demand(prices)
    supply = economy.aggregate_supply
    return float(
        elasticity * (np.linalg.norm(demand) + np.linalg.norm(supply)) / np.max(np.abs(prices))
    )
