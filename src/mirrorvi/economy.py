"""Excess-demand models: the Scarf economy and CES-family exchange economies.

Consumers hold Cobb-Douglas, Leontief, or CES utilities with closed-form
Marshallian demands. An exchange economy aggregates consumer demands (with an
optional per-consumer cap at kappa times aggregate supply) and subtracts the
aggregate endowment. Diagnostics sample homogeneity, weak gross substitutes,
the weak axiom of revealed preference, the law of supply and demand, and
two-point elasticities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EvaluationError, InvalidInput, check_count, check_number, check_real, check_seed
from .kernels import _finite, _row_dots

COBB_DOUGLAS = "cobb_douglas"
LEONTIEF = "leontief"
CES = "ces"

#: Default floor applied to price coordinates before demand evaluation.
DEFAULT_PRICE_FLOOR = 1e-8

#: Demand-matrix entries (price rows x consumers x goods) per block: 256 KB
#: of float64, a typical L2. Stacks go in blocks of price rows, and a streamed
#: economy fills its groups in blocks of consumer rows.
_BLOCK_ENTRIES = 1 << 15

_FLOAT = np.dtype(float)
#: Goods up to which one price vector is checked on Python floats. tolist, sum
#: and min take 0.5 us at 5 goods and grow with n; numpy's minimum reduction
#: and finiteness dot take about 1.8 us up to a few hundred goods. The two
#: cross at about 48 goods (x86-64 Xeon, numpy 2.4).
_LIST_CHECK_MAX = 48

#: Utility families in group order: an exchange economy stacks its consumers'
#: arrays family by family, each family's consumers in their own order.
_FAMILIES = (COBB_DOUGLAS, LEONTIEF, CES)


def _as_prices(p, n: int | None = None, *, batch: bool = False) -> np.ndarray:
    """Checked prices: a finite nonnegative vector, or with batch=True also a
    (k, n) stack; the messages are sorted out only when a price is bad."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 and not (batch and arr.ndim == 2):
        shapes = "a vector or a (k, n) stack" if batch else "a one-dimensional vector"
        raise InvalidInput(f"prices must be {shapes}, got shape {arr.shape}")
    if n is not None and arr.shape[-1] != n:
        raise InvalidInput(f"expected {n} prices, got {arr.shape[-1]}")
    # ufunc.reduce is what min calls, minus a Python frame.
    if arr.size and not (0.0 <= np.minimum.reduce(arr, axis=None) and _finite(arr)):
        if not np.isfinite(arr).all():
            raise InvalidInput("prices must be finite")
        raise InvalidInput("prices must be nonnegative")
    return arr


def _matvec(matrix: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """matrix . p for a price vector, or for each row of a (k, n) stack. matmul
    runs one gemv per row, so each row equals the vector product bit for bit."""
    if prices.ndim == 1:
        return matrix.dot(prices)
    return np.matmul(matrix, prices[..., None])[..., 0]


def _across(v: np.ndarray) -> np.ndarray:
    """A price-length vector as it broadcasts against (..., m, n) consumer rows:
    a vector as it is, each row of a (k, n) stack against its own rows."""
    return v if v.ndim == 1 else v[..., None, :]


def _spend(rows: np.ndarray, prices: np.ndarray, budgets: np.ndarray) -> None:
    """Scale each direction row d_i of (..., m, n) rows in place to b_i d_i / (d_i . p).
    Each cost is its own row dot, so a row never depends on the rows beside
    it, as it could in a gemv."""
    cost = _row_dots(rows, _across(prices))
    rows *= np.divide(budgets, cost, out=cost)[..., None]


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only in place; views taken afterwards are read-only too."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Consumer:
    """One consumer: a utility family, valuations and an endowment.

    valuations must be finite and positive, the endowment a finite
    nonnegative vector of the same length. rho is required for CES (finite,
    rho < 1, rho != 0) and refused for the other families.
    """

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
        # One min and one max test sign and finiteness (a NaN fails both); the
        # initial values let an empty vector pass.
        if not (0.0 < np.minimum.reduce(v, initial=np.inf)
                and np.maximum.reduce(v, initial=-np.inf) < np.inf):
            raise InvalidInput("valuations must be finite and strictly positive")
        if not (0.0 <= np.minimum.reduce(e, initial=np.inf)
                and np.maximum.reduce(e, initial=-np.inf) < np.inf):
            raise InvalidInput("endowment must be finite and nonnegative")
        if self.utility == CES:
            if self.rho is None:
                raise InvalidInput("CES utility requires rho")
            check_number(self.rho, "CES rho")
            # rho = -inf would make sigma 0: demand budget / sum(p) whatever
            # the valuations; a NaN fails the comparisons too.
            if not (-math.inf < self.rho < 1.0 and self.rho != 0.0):
                raise InvalidInput(
                    f"CES rho must be finite with rho < 1 and rho != 0, got {self.rho}")
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

    The closed forms are an exchange economy's; a zero budget gives the zero
    bundle. Prices are floored at floor (positive, finite). When cap is given
    (a scalar or n entries, each >= 0), each coordinate is clipped at cap_j.
    """
    check_real(floor, "price_floor", positive=True)
    if cap is not None:
        cap = np.asarray(cap, dtype=float)
        # A NaN fails the comparison.
        if cap.shape not in ((), (consumer.n_goods,)) or not (cap >= 0.0).all():
            raise InvalidInput(
                f"cap must be a scalar or {consumer.n_goods} entries, each >= 0, got {cap}")
    prices = np.maximum(_as_prices(p, consumer.n_goods), floor)
    group = _ConsumerGroup.stack(consumer.utility, [consumer])
    # A one-good budget is a bare product, -0.0 for a -0.0 endowment; + 0.0
    # makes it the +0.0 of an economy's budget product and changes no other.
    x = group.fill(_matvec(group.endowments, prices) + 0.0, prices, 0, 1)[0]
    if not _finite(x):
        raise EvaluationError(f"demand overflow for {consumer.utility} consumer at p={prices}")
    if cap is not None:
        x = np.minimum(x, cap)
    return x


@dataclass(frozen=True, eq=False)
class _ConsumerGroup:
    """Consumers of one utility family; in an economy, views of its rows `rows`.
    Demand is b_i d_i / (d_i . p) for a direction d_i; every CES exponent is
    <= 0 and its largest entry 1, so nothing overflows and no cost is zero."""

    utility: str
    valuations: np.ndarray  # (m, n)
    endowments: np.ndarray  # (m, n)
    rows: slice  # the group's rows of its economy's stacked arrays, or all of its own
    sigmas: np.ndarray | None  # (m,) for CES
    weights: np.ndarray | None  # (m, n) for Cobb-Douglas
    sigma_log_valuations: np.ndarray | None  # (m, n) for CES
    column_max: np.ndarray | None  # (n,), None for CES

    @classmethod
    def stack(cls, utility: str, members: Sequence[Consumer], valuations: np.ndarray | None = None,
              endowments: np.ndarray | None = None, rows: slice | None = None) -> _ConsumerGroup:
        """The group of members, viewing an economy's rows when given, and
        with its price-free constants computed once."""
        if valuations is None:
            valuations = np.array([c.valuations for c in members])
            endowments = np.array([c.endowment for c in members])
            rows = slice(0, len(members))
        sigmas = weights = sigma_log_valuations = None
        if utility == CES:
            sigmas = np.array([1.0 / (1.0 - c.rho) for c in members])
            # In place: one (m, n) array while the group is built, not two.
            sigma_log_valuations = np.log(valuations)
            sigma_log_valuations *= sigmas[:, None]
        elif utility == COBB_DOUGLAS:
            weights = valuations / valuations.sum(axis=1, keepdims=True)
        bounded = {COBB_DOUGLAS: weights, LEONTIEF: valuations}.get(utility)
        column_max = None if bounded is None else bounded.max(axis=0)
        return cls(utility, valuations, endowments, rows, sigmas, weights, sigma_log_valuations,
                   column_max)

    def directions(self, budgets: np.ndarray, prices: np.ndarray, start: int, stop: int,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Rows start:stop before _spend, into out when given: Cobb-Douglas
        demand (cost exactly 1), or Leontief or CES directions. budgets are
        the whole economy's, one gemv never split into blocks."""
        if out is None:
            out = np.empty(budgets.shape[:-1] + (stop - start, self.valuations.shape[1]))
        if self.utility == COBB_DOUGLAS:
            first = self.rows.start
            np.multiply(budgets[..., first + start:first + stop, None], _across(1.0 / prices),
                        out=out)
            out *= self.weights[start:stop]
        elif self.utility == LEONTIEF:
            out[...] = self.valuations[start:stop]
        else:
            np.multiply(self.sigmas[start:stop, None], _across(np.log(prices)), out=out)
            np.subtract(self.sigma_log_valuations[start:stop], out, out=out)
            # ufunc.reduce is what the max method calls, minus a Python frame.
            out -= np.maximum.reduce(out, axis=-1, keepdims=True)
            np.exp(out, out=out)
        return out

    def fill(self, budgets: np.ndarray, prices: np.ndarray, start: int, stop: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """Uncapped demand of members start:stop, into out when given."""
        out = self.directions(budgets, prices, start, stop, out)
        if self.utility != COBB_DOUGLAS:
            first = self.rows.start
            _spend(out, prices, budgets[..., first + start:first + stop])
        return out

    def slack_sum(self, budgets: np.ndarray, prices: np.ndarray,
                  cap: np.ndarray | None) -> np.ndarray | None:
        """The column sum as one gemv in BLAS order, or None when the group must
        fill: always for CES, and when a cap is given that the bound (each
        nonnegative factor at its maximum; rounding is monotone) cannot prove slack."""
        if self.utility == CES:
            return None
        budgets = budgets[..., self.rows]
        if self.utility == LEONTIEF:
            ratios = budgets / _matvec(self.valuations, prices)
            if cap is None or (ratios.max(axis=-1, keepdims=True) * self.column_max <= cap).all():
                return _matvec(self.valuations.T, ratios)
            return None
        inv_p = 1.0 / prices
        if cap is None or (budgets.max(axis=-1, keepdims=True) * inv_p * self.column_max
                           <= cap).all():
            return _matvec(self.weights.T, budgets) * inv_p
        return None


@dataclass(frozen=True, eq=False)
class ExchangeEconomy:
    """An exchange economy of at least one consumer in n_goods goods.

    demand_cap_factor (>= 1, inf for uncapped) caps each consumer's demand at
    that multiple of aggregate_supply, the sum of the endowments, which must
    be positive in every good; price_floor is positive and finite.
    aggregate_supply is read-only, as are the arrays every evaluation reads.
    """

    consumers: Sequence[Consumer]
    n_goods: int
    demand_cap_factor: float = 1.0
    price_floor: float = DEFAULT_PRICE_FLOOR
    aggregate_supply: np.ndarray = field(init=False, repr=False)
    _valuations: np.ndarray = field(init=False, repr=False)  # (m, n), in group order
    _endowments: np.ndarray = field(init=False, repr=False)  # (m, n), in group order
    _groups: tuple[_ConsumerGroup, ...] = field(init=False, repr=False)
    _spent: slice | None = field(init=False, repr=False)  # Leontief and CES rows, None if none
    _cap: np.ndarray | None = field(init=False, repr=False)  # None when uncapped

    def __post_init__(self) -> None:
        consumers = tuple(self.consumers)
        if not consumers:
            raise InvalidInput("an economy needs at least one consumer")
        check_count(self.n_goods, "n_goods")
        for c in consumers:
            if c.n_goods != self.n_goods:
                raise InvalidInput(
                    f"consumer dimension {c.n_goods} does not match n_goods {self.n_goods}"
                )
        check_number(self.demand_cap_factor, "demand_cap_factor")
        if not (self.demand_cap_factor >= 1.0):
            raise InvalidInput(f"demand_cap_factor must be >= 1, got {self.demand_cap_factor}")
        check_real(self.price_floor, "price_floor", positive=True)
        # A stable sort keeps each family's consumers in their own order.
        ordered = sorted(consumers, key=lambda c: _FAMILIES.index(c.utility))
        valuations = _read_only(np.array([c.valuations for c in ordered]))
        endowments = _read_only(np.array([c.endowment for c in ordered]))
        supply = np.add.reduce(endowments, axis=0)
        if not np.all(supply > 0.0):
            raise InvalidInput("every good needs a strictly positive aggregate endowment")
        groups, start = [], 0
        for kind, members in itertools.groupby(ordered, key=lambda c: c.utility):
            members = list(members)
            rows = slice(start, start + len(members))
            groups.append(_ConsumerGroup.stack(kind, members, valuations[rows], endowments[rows],
                                               rows))
            start = rows.stop
        cap = self.demand_cap_factor * supply if np.isfinite(self.demand_cap_factor) else None
        object.__setattr__(self, "consumers", consumers)
        # A numpy integer would wrap in the block-size arithmetic.
        object.__setattr__(self, "n_goods", int(self.n_goods))
        object.__setattr__(self, "aggregate_supply", _read_only(supply))
        object.__setattr__(self, "_valuations", valuations)
        object.__setattr__(self, "_endowments", endowments)
        object.__setattr__(self, "_groups", tuple(groups))
        spent = groups[0].rows.stop if groups[0].utility == COBB_DOUGLAS else 0
        object.__setattr__(self, "_spent", slice(spent, None) if spent < start else None)
        object.__setattr__(self, "_cap", None if cap is None else _read_only(cap))

    def demand(self, p) -> np.ndarray:
        """Aggregate (capped) demand at floored prices.

        p is a price vector, or a (k, n) stack that gives one demand row per
        price row, each equal to the demand at that row alone bit for bit.
        An overflow is EvaluationError naming the first bad row.
        """
        total = self._point_demand(p)
        if total is not None:
            return total
        # Every other p, a bad price and an overflow come here.
        prices = np.maximum(_as_prices(p, self.n_goods, batch=True), self.price_floor)
        if prices.ndim == 1:
            total = self._total_demand(prices)
        else:
            step = max(1, _BLOCK_ENTRIES // (len(self.consumers) * self.n_goods))
            total = np.empty_like(prices)
            for start in range(0, len(prices), step):
                total[start:start + step] = self._total_demand(prices[start:start + step])
        if not _finite(total):
            if total.ndim == 1:
                raise EvaluationError(f"aggregate demand overflow at p={prices}")
            row = int(np.argmin(np.isfinite(total).all(axis=1)))
            raise EvaluationError(f"aggregate demand overflow in row {row} at p={prices[row]}")
        return total

    def _point_demand(self, p) -> np.ndarray | None:
        """demand at one C-ordered float64 vector on the one-buffer path, checked
        once and copied only to floor it, then _buffered_demand: the same bits.
        None for any other p (a strided one would reach BLAS in another
        summation order), a bad price or an overflow."""
        n = self.n_goods
        if not (type(p) is np.ndarray and p.dtype == _FLOAT and p.shape == (n,)
                and p.flags.c_contiguous and (self._valuations.size <= _BLOCK_ENTRIES or n == 1)):
            return None
        if n <= _LIST_CHECK_MAX:
            # A float sum is finite unless an entry is not, or the sum overflows
            # (then _as_prices decides); min is exact once every entry is finite.
            q = p.tolist()
            ok = math.isfinite(sum(q)) and 0.0 <= (low := min(q))
        else:
            ok = 0.0 <= (low := np.minimum.reduce(p)) and _finite(p)
        if not ok:
            return None
        prices = p if low >= self.price_floor else np.maximum(p, self.price_floor)
        total = self._buffered_demand(self._endowments.dot(prices), prices)
        return total if _finite(total) else None

    def _total_demand(self, prices: np.ndarray) -> np.ndarray:
        """Sum of capped demand over consumers. Both paths add the consumer rows
        one after another in group order, so they agree bit for bit wherever
        every group fills."""
        budgets = _matvec(self._endowments, prices)
        if len(self.consumers) * prices.size <= _BLOCK_ENTRIES or prices.shape[-1] == 1:
            return self._buffered_demand(budgets, prices)
        return self._streamed_sum(budgets, prices)

    def _buffered_demand(self, budgets: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """One buffer of every consumer row, one _spend, one cap, one sum. For
        n = 1 numpy sums a column pairwise, not row after row, which is why a
        one-good economy always takes this path."""
        buffer = np.empty(prices.shape[:-1] + self._valuations.shape)
        for group in self._groups:
            group.directions(budgets, prices, 0, len(group.valuations), buffer[..., group.rows, :])
        if self._spent is not None:
            _spend(buffer[..., self._spent, :], prices, budgets[..., self._spent])
        if self._cap is not None:
            np.minimum(buffer, self._cap, out=buffer)
        return np.add.reduce(buffer, axis=-2)

    def _streamed_sum(self, budgets: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """One running column sum (row 0 of the block buffer) through the groups.
        Starting it at +0.0 changes no sum: a column sums to -0.0 only with
        every budget zero, which construction rejects."""
        cap, total, buffer = self._cap, np.zeros(prices.shape), None
        rows = max(1, _BLOCK_ENTRIES // prices.size)
        for group in self._groups:
            column_sum = group.slack_sum(budgets, prices, cap)
            if column_sum is not None:
                np.add(total, column_sum, out=total)
                continue
            if buffer is None:
                rows = min(rows, len(self._valuations) - group.rows.start)
                buffer = np.empty(prices.shape[:-1] + (1 + rows, prices.shape[-1]))
            m = len(group.valuations)
            for start in range(0, m, rows):
                stop = min(start + rows, m)
                block = group.fill(budgets, prices, start, stop,
                                   buffer[..., 1:1 + stop - start, :])
                if cap is not None:
                    np.minimum(block, cap, out=block)
                buffer[..., 0, :] = total
                np.add.reduce(buffer[..., :1 + stop - start, :], axis=-2, out=total)
        return total

    def excess(self, p) -> np.ndarray:
        """Aggregate demand minus aggregate supply, for a price vector or a (k, n) stack."""
        total = self.demand(p)
        total -= self.aggregate_supply
        return total


def _scarf_rows(q1, q2, q3) -> np.ndarray:
    """Scarf excess demand at floored prices: floats, or the columns of a stack."""
    a = q1 / (q1 + q2)
    b = q3 / (q1 + q3)
    c = q2 / (q2 + q3)
    return np.array([a + b - 1.0, a + c - 1.0, c + b - 1.0]).T


@dataclass(frozen=True)
class ScarfEconomy:
    """Scarf's fixed 3-good economy, whose equilibrium is at equal prices.

    Exposes the same evaluation surface as ExchangeEconomy (supply is one unit
    of each good; demand is excess plus supply). price_floor must be positive
    and finite.
    """

    price_floor: float = DEFAULT_PRICE_FLOOR

    def __post_init__(self) -> None:
        check_real(self.price_floor, "price_floor", positive=True)

    @property
    def n_goods(self) -> int:
        return 3

    @property
    def aggregate_supply(self) -> np.ndarray:
        return np.ones(3)

    def excess(self, p) -> np.ndarray:
        """The excess demand at p, a 3-vector, or at each row of a (k, 3) stack,
        each row equal to the single call; prices must be finite and nonnegative."""
        floor = self.price_floor
        if type(p) is np.ndarray and p.shape == (3,) and p.dtype == np.float64:
            # Python floats do the same IEEE operations at a fraction of the call
            # cost. 0 <= q < inf fails for exactly what _as_prices rejects, and
            # then raises its message below.
            q1, q2, q3 = p.tolist()
            if 0.0 <= q1 < math.inf and 0.0 <= q2 < math.inf and 0.0 <= q3 < math.inf:
                return _scarf_rows(q1 if q1 > floor else floor, q2 if q2 > floor else floor,
                                   q3 if q3 > floor else floor)
        q = np.maximum(_as_prices(p, 3, batch=True), floor)
        return _scarf_rows(*(q.tolist() if q.ndim == 1 else q.T))

    def demand(self, p) -> np.ndarray:
        return self.excess(p) + self.aggregate_supply


def check_homogeneity(economy, p, lam: float) -> float:
    """Max absolute deviation ||Z(lam * p) - Z(p)||_inf (0 for degree-0 Z).

    lam must be positive and finite, and so must lam times the largest
    price, so that a lam that overflows the scaled prices is reported as
    such and not as non-finite prices.
    """
    check_real(lam, "lambda", positive=True)
    prices = _as_prices(p, economy.n_goods)
    # On Python floats, whose product overflows to inf without a warning.
    largest = float(np.max(prices, initial=0.0))
    if not (float(lam) * largest < math.inf):
        raise InvalidInput(
            f"lambda * p must be finite, got lambda {lam} and largest price {largest}")
    scaled, base = economy.excess(np.array([lam * prices, prices]))
    return float(np.max(np.abs(scaled - base)))


def _sample_prices(rng: np.random.Generator, n: int, rows: int) -> np.ndarray:
    """rows price vectors in [0.1, 1]^n: the same stream as rows draws of n each."""
    return rng.uniform(0.1, 1.0, (rows, n))


def _check_sampling(pairs: int, seed) -> None:
    """Check a sampler's pair count and its seed, whether or not it draws."""
    check_count(pairs, "the number of sampled pairs", least=0)
    check_seed(seed)


def check_wgs_sample(economy, pairs: int, seed) -> int:
    """Count weak-gross-substitutes violations over sampled single-price raises.

    For each sample, one coordinate is raised multiplicatively and every other
    good whose excess demand drops by more than 1e-9 counts as a violation.
    All 2 * pairs price vectors are evaluated in one call.
    """
    _check_sampling(pairs, seed)
    rng = np.random.default_rng(seed)
    n = economy.n_goods
    # Rows 2i and 2i + 1 are the i-th sample p and its raise q. The draws of
    # p, k and the raise interleave, so they are taken one sample at a time.
    prices = np.empty((2 * pairs, n))
    raised = np.empty(pairs, dtype=int)
    for i in range(pairs):
        p = _sample_prices(rng, n, 1)[0]
        raised[i] = rng.integers(n)
        prices[2 * i] = prices[2 * i + 1] = p
        prices[2 * i + 1, raised[i]] *= 1.0 + rng.uniform(0.01, 0.5)
    z = economy.excess(prices)
    drop = z[0::2] - z[1::2]
    drop[np.arange(pairs), raised] = -np.inf
    return int(np.sum(drop > 1e-9))


def _sample_pair_block(economy, pairs: int, seed) -> tuple[np.ndarray, ...]:
    """Sampled prices p, q and Z(p), Z(q) from one call, drawn as pair by pair.
    Each is C-ordered, since BLAS sums a strided row in another order."""
    _check_sampling(pairs, seed)
    prices = _sample_prices(np.random.default_rng(seed), economy.n_goods, 2 * pairs)
    z = economy.excess(prices)
    return tuple(np.ascontiguousarray(a) for a in (prices[0::2], prices[1::2], z[0::2], z[1::2]))


def check_warp_sample(economy, pairs: int, seed) -> int:
    """Count weak-axiom violations over sampled price pairs.

    A pair (p, q) violates the axiom when Z(q) is affordable at its own prices
    relative to p (<Z(q), p> <= <Z(q), q>), the two excess demands differ, and
    yet <Z(p), q> <= <Z(p), p>. All 2 * pairs price vectors are evaluated in
    one call.
    """
    p, q, zp, zq = _sample_pair_block(economy, pairs, seed)
    violations = ((zp != zq).any(axis=1)
                  & (_row_dots(zq, p) <= _row_dots(zq, q))
                  & (_row_dots(zp, q) <= _row_dots(zp, p)))
    return int(np.count_nonzero(violations))


def check_lsd_sample(economy, pairs: int, seed) -> int:
    """Count law-of-supply-and-demand violations <Z(q)-Z(p), q-p> > 1e-9.

    All 2 * pairs price vectors are evaluated in one call.
    """
    p, q, zp, zq = _sample_pair_block(economy, pairs, seed)
    return int(np.count_nonzero(_row_dots(zq - zp, q - p) > 1e-9))


#: Relative perturbation sizes for two-point elasticity sampling.
ELASTICITY_DELTAS = (0.01, 0.1)


def elasticity_bound_estimate(economy, pairs: int, seed) -> float:
    """Largest sampled two-point elasticity magnitude of demand and supply.

    Base prices are sampled in [0.1, 1]^n; each coordinate is perturbed
    multiplicatively by 1 +/- delta for delta in ELASTICITY_DELTAS. Components
    with zero baseline demand are skipped. Aggregate supply is constant, so
    its elasticity contributes zero.
    """
    _check_sampling(pairs, seed)
    n = economy.n_goods
    base_prices = _sample_prices(np.random.default_rng(seed), n, pairs)
    moves = list(itertools.product(range(n), ELASTICITY_DELTAS, (1.0, -1.0)))
    coords = np.array([k for k, _, _ in moves], dtype=int)
    factors = np.array([1.0 + sign * delta for _, delta, sign in moves])
    deltas = np.array([delta for _, delta, _ in moves])
    rows = 1 + len(moves)
    eps_hat = 0.0
    step = max(1, _BLOCK_ENTRIES // (rows * n))
    for start in range(0, pairs, step):
        block = base_prices[start:start + step]
        # prices[i, 0] is base point i; prices[i, 1 + j] perturbs its
        # coordinate coords[j] by factors[j].
        prices = np.repeat(block[:, None, :], rows, axis=1)
        prices[:, np.arange(1, rows), coords] = block[:, coords] * factors
        demand = economy.demand(prices.reshape(-1, n)).reshape(prices.shape)
        base = demand[:, :1]
        rel_change = np.divide(demand[:, 1:] - base, base, out=np.zeros(demand[:, 1:].shape),
                               where=base != 0.0)
        eps_hat = max(eps_hat, float(np.max(np.abs(rel_change) / deltas[:, None])))
    return eps_hat


def bregman_continuity_bound(economy, p, elasticity: float | None = None,
                             pairs: int = 64, seed=0) -> float:
    """Per-point modulus epsilon_hat * (||d(p)|| + ||s||) / ||p||_inf.

    Certifies 0.5 * ||Z(p) - Z(p')||^2 <= bound^2 * D_h(p', p) for any
    1-strongly-convex kernel: the divergence dominates 0.5 * ||p - p'||^2, so
    one value serves every kernel. When elasticity is not given it is
    estimated via elasticity_bound_estimate(economy, pairs, seed); a given
    one must be finite and >= 0, as an estimate is.
    """
    _check_sampling(pairs, seed)
    if elasticity is not None:
        check_real(elasticity, "elasticity")
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
