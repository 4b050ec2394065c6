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
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (EvaluationError, InvalidInput, Unsupported, check_count, check_number,
                     check_real, check_seed)
from .kernels import _finite, _row_dots

COBB_DOUGLAS = "cobb_douglas"
LEONTIEF = "leontief"
CES = "ces"

#: Default floor applied to price coordinates before demand evaluation.
DEFAULT_PRICE_FLOOR = 1e-8

#: Largest brute-force demand grid resolution we evaluate.
MAX_ORACLE_RESOLUTION = 401

#: Demand-matrix entries (price rows x consumers x goods) that one block
#: holds: 256 KB of float64, which fits in a typical L2. A stack of prices is
#: evaluated in blocks of price rows of about this size, and an economy whose
#: demand matrix does not fit streams its CES groups, and its groups whose
#: cap binds, through blocks of consumer rows of this size.
_BLOCK_ENTRIES = 1 << 15

#: Utility families in group order: an exchange economy stacks its consumers'
#: arrays family by family, each family's consumers in their own order.
_FAMILIES = (COBB_DOUGLAS, LEONTIEF, CES)


def _as_prices(p, n: int | None = None, *, batch: bool = False) -> np.ndarray:
    """Checked prices: a vector, or with batch=True also a (k, n) stack of rows.

    Prices pass when their smallest entry is >= 0 and kernels._finite holds;
    the messages are sorted out only when a price is bad.
    """
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
    """matrix . p for a price vector, or for each row of a (k, n) price stack.

    A stack goes through matmul, which runs one matrix-vector product per row,
    so each row equals the vector product bit for bit (a single (k, n) @ (n, m)
    product sums in another order).
    """
    if prices.ndim == 1:
        return matrix.dot(prices)
    return np.matmul(matrix, prices[..., None])[..., 0]


def _spend(rows: np.ndarray, prices: np.ndarray, budgets: np.ndarray) -> None:
    """Scale each direction row d_i in place to its demand b_i d_i / (d_i . p).

    rows is (..., m, n), prices (..., n) and budgets (..., m). Each cost
    d_i . p is one np.vecdot dot per row (kernels._row_dots), the prices
    broadcast over the rows, so a row's cost, and with it the row, never
    depends on which other rows share the call (a matrix-vector product can
    round a row differently by its place in the matrix).
    """
    cost = _row_dots(rows, prices[..., None, :])
    rows *= np.divide(budgets, cost, out=cost)[..., None]


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only in place; views taken afterwards are read-only too."""
    array.flags.writeable = False
    return array


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
        # The smallest and the largest entry test sign and finiteness in one
        # pass each (a NaN fails both comparisons); the initial values make an
        # empty vector pass, as it passes the per-entry tests.
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

    Evaluates the consumer as a one-row group, with the same closed forms as
    an exchange economy; a zero budget gives the zero bundle, as it does
    there. When cap is given (a scalar or n entries, each >= 0), each
    coordinate is clipped at cap_j.
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
    quantities x_j = share_j * budget / p_j. Small dimensions only; resolution
    is an integer >= 1.
    """
    n = consumer.n_goods
    if n > 3:
        raise Unsupported(f"demand_oracle supports at most 3 goods, got {n}")
    check_count(resolution, "resolution")
    if resolution > MAX_ORACLE_RESOLUTION:
        raise Unsupported(
            f"demand_oracle supports resolution <= {MAX_ORACLE_RESOLUTION}, got {resolution}"
        )
    check_real(floor, "price_floor", positive=True)
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

    In an exchange economy the valuations and endowments are views of the
    group's rows (rows) of the economy's stacked arrays, not copies; a group
    stacked on its own holds its own arrays.

    Every consumer spends its whole budget b_i, so each family's demand is
    x_i = b_i d_i / (d_i . p) for a direction d_i(p): Leontief v_i, CES
    (sigma = 1/(1-rho)) exp(t_ij - max_k t_ik) with t_ij = sigma_i log v_ij -
    sigma_i log p_j, and Cobb-Douglas w_i / p, whose cost d_i . p is exactly
    1. Cobb-Douglas rows keep their closed form fl(fl(b_i q_j) w_ij), q = 1/p.
    Leontief and CES rows are written as directions (directions) and scaled
    by _spend: one dot per row for the cost, b_i / cost_i, one scaling. Every
    CES exponent is <= 0, so nothing overflows, and a row's largest direction
    entry is exp(0) = 1, so its cost is at least that good's floored price:
    no cost is zero, and elasticities of substitution from near 0 to ~1000
    need no guard. Each row is scaled by its own computed cost, so
    p . x_i = b_i holds to about 2n + 2 roundings. The price-free constants
    are computed once, by stack, the one place that builds a group: the
    Cobb-Douglas budget shares, the CES sigma_i log v_ij, and the column
    maxima of the Leontief valuations or Cobb-Douglas shares that slack_sum
    bounds with.

    Demand takes two inputs: the floored prices, and budgets, the product
    E . p over the rows that the group's rows index, of its economy's stacked
    endowments or of its own when it stands alone (the budget gemv is never
    split into row blocks, since a gemv over some rows can round
    differently). Each family computes the price vector it needs, 1/p for
    Cobb-Douglas and log p for CES; an economy has one group per family, so
    that is once per evaluation unless the group streams in blocks. fill then
    writes the demand of any block of rows, in place into a buffer when one
    is given; each row depends only on its own consumer, budget and price
    row, so a row of a block, of the whole group or of a price stack is the
    same, bit for bit. A Leontief or Cobb-Douglas group whose cap is absent
    or proved slack needs no entries: slack_sum gives its column sum as one
    matrix-vector product, which rounds in BLAS order rather than row by
    row, and gives None for any group that must fill.
    """

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
        """The group of members, in their order.

        valuations and endowments, when given, are the members' rows (rows) of
        an economy's stacked arrays; otherwise the group stacks its own.
        """
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
        """Rows start:stop before _spend: Cobb-Douglas demand, which needs no
        scaling, or the Leontief or CES directions, (..., stop - start, n).

        budgets are E . p over the rows that the group's rows index, at the
        floored prices. The rows are written into out when given, and into a
        fresh array otherwise.
        """
        if out is None:
            out = np.empty(budgets.shape[:-1] + (stop - start, self.valuations.shape[1]))
        if self.utility == COBB_DOUGLAS:
            first = self.rows.start
            np.multiply(budgets[..., first + start:first + stop, None],
                        (1.0 / prices)[..., None, :], out=out)
            out *= self.weights[start:stop]
        elif self.utility == LEONTIEF:
            out[...] = self.valuations[start:stop]
        else:
            np.multiply(self.sigmas[start:stop, None], np.log(prices)[..., None, :], out=out)
            np.subtract(self.sigma_log_valuations[start:stop], out, out=out)
            # ufunc.reduce is what the max method calls, minus a Python frame.
            out -= np.maximum.reduce(out, axis=-1, keepdims=True)
            np.exp(out, out=out)
        return out

    def fill(self, budgets: np.ndarray, prices: np.ndarray, start: int, stop: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """Uncapped demand of members start:stop, (..., stop - start, n), from
        the budgets and floored prices that directions takes.

        It is written into out when given, and into a fresh array otherwise.
        """
        out = self.directions(budgets, prices, start, stop, out)
        if self.utility != COBB_DOUGLAS:
            first = self.rows.start
            _spend(out, prices, budgets[..., first + start:first + stop])
        return out

    def slack_sum(self, budgets: np.ndarray, prices: np.ndarray,
                  cap: np.ndarray | None) -> np.ndarray | None:
        """The group's column sum as one matrix-vector product, or None when
        the group must fill: always for CES, and when cap is given and an O(n)
        bound cannot prove it slack.

        budgets and prices are as directions takes them. Leontief:
        V^T r with r_i = b_i / (V p)_i, V p one gemv over the group;
        Cobb-Douglas: (W^T b) q with q = 1/p. One matrix-vector product over a
        transposed view (no stored copy), summed in BLAS order; every term is
        nonnegative, so it stays within a few roundings per term of the
        row-by-row sum of the filled entries. Each term is fl(V_ij r_i) or
        fl(fl(b_i q_j) W_ij), all factors nonnegative; IEEE rounding is
        monotone, so putting each factor's maximum in its place bounds every
        term, and when that bound is within cap, capping changes nothing. A
        NaN factor fails the comparison.
        """
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
    """An exchange economy: consumers, aggregate supply, cap, and price floor.

    The consumers' valuations and endowments are stacked once, in group order
    (_FAMILIES), and each consumer group views its rows. These arrays, the cap
    and aggregate_supply are read-only, since every later evaluation reads
    them.
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

        p is a price vector, or a (k, n) stack of price vectors that gives one
        demand row per price row; each row equals the demand at that row
        alone, bit for bit. A stack is evaluated in blocks of price rows whose
        demand matrix holds at most _BLOCK_ENTRIES entries, or one row at a
        time when a single row's matrix is larger.
        """
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

    def _total_demand(self, prices: np.ndarray) -> np.ndarray:
        """Sum of capped demand over consumers, in one pass over their rows.

        The budgets of every consumer are one matrix-vector product, each
        group takes its rows of them, and each family computes the price
        vector it needs (_ConsumerGroup.directions). When the whole demand
        matrix fits in _BLOCK_ENTRIES entries, or there is one good, every
        group fills its rows of one buffer (_buffered_demand). Otherwise
        _streamed_sum carries one running column sum through the groups.
        Both scale each Leontief and CES row by its own cost and add
        the consumer rows one after another in group order, so wherever every
        group fills they agree bit for bit.
        """
        budgets = _matvec(self._endowments, prices)
        if len(self.consumers) * prices.size <= _BLOCK_ENTRIES or prices.shape[-1] == 1:
            return self._buffered_demand(budgets, prices)
        return self._streamed_sum(budgets, prices)

    def _buffered_demand(self, budgets: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """_total_demand's one-buffer path: one pass per group, one scaling,
        one cap, one sum.

        Each group writes its rows of one (..., m, n) buffer in group order:
        Cobb-Douglas demand, then the Leontief and CES directions. Those
        directions are the buffer's last rows (_spent), and one _spend scales
        them all, each by its own row's cost. One np.minimum caps the whole
        buffer, and one np.add.reduce sums its consumer rows. For n >= 2 the
        reduction adds the rows one after another in their order; for n = 1
        numpy sums the column pairwise, which is why a one-good economy always
        takes this path.
        """
        buffer = np.empty(prices.shape[:-1] + self._valuations.shape)
        for group in self._groups:
            group.directions(budgets, prices, 0, len(group.valuations), buffer[..., group.rows, :])
        if self._spent is not None:
            _spend(buffer[..., self._spent, :], prices, budgets[..., self._spent])
        if self._cap is not None:
            np.minimum(buffer, self._cap, out=buffer)
        return np.add.reduce(buffer, axis=-2)

    def _streamed_sum(self, budgets: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """_total_demand's streamed path: one running column sum, one pass
        over the groups in group order.

        A group whose slack_sum is not None (Leontief or Cobb-Douglas, cap
        absent or proved slack) adds that one matrix-vector product, rounded
        in BLAS order. Every other group is filled, capped and added block by
        block: each block of consumer rows goes into one buffer, allocated at
        the first group that fills with at most one block of rows (about
        _BLOCK_ENTRIES entries, fewer when fewer consumers are left), whose
        row 0 holds the running column sum; a block of Leontief or CES rows is
        scaled by one _spend, each row by its own cost, so its rows equal the
        one-buffer path's. The rows are added one after another in group
        order, as the one-buffer path's reduction adds them when n >= 2. The
        sum starts from +0.0, which adds exactly to every value but -0.0, and
        a column sums to -0.0 only if every consumer demands -0.0 of it,
        which needs every budget zero and so no supply, which construction
        rejects.
        """
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


def excess_demand(economy, p) -> np.ndarray:
    """Aggregate demand minus aggregate supply at floored prices."""
    return economy.excess(p)


def scarf_excess_demand(p, floor: float = DEFAULT_PRICE_FLOOR) -> np.ndarray:
    """The fixed 3-good excess demand with equilibrium at equal prices.

    p is a 3-vector, or a (k, 3) stack that gives one excess-demand row per
    price row. Prices are checked like an exchange economy's: finite and
    nonnegative, and the floor must be positive and finite.
    """
    check_real(floor, "price_floor", positive=True)
    return _scarf_excess(p, floor)


def _scarf_excess(p, floor: float) -> np.ndarray:
    """scarf_excess_demand with a floor already checked."""
    if type(p) is np.ndarray and p.shape == (3,) and p.dtype == np.float64:
        # A single float vector is checked and floored on its Python floats,
        # which do the same IEEE operations as numpy scalars at a fraction of
        # the call cost. 0 <= q < inf fails for exactly the entries that
        # _as_prices rejects (a NaN fails both comparisons), which then
        # raises its message below; for such q and a positive floor,
        # q if q > floor else floor is np.maximum(q, floor).
        q1, q2, q3 = p.tolist()
        if 0.0 <= q1 < math.inf and 0.0 <= q2 < math.inf and 0.0 <= q3 < math.inf:
            return _scarf_rows(q1 if q1 > floor else floor, q2 if q2 > floor else floor,
                               q3 if q3 > floor else floor)
    q = np.maximum(_as_prices(p, 3, batch=True), floor)
    return _scarf_rows(*(q.tolist() if q.ndim == 1 else q.T))


def _scarf_rows(q1, q2, q3) -> np.ndarray:
    """Scarf excess demand at floored prices: floats, or the columns of a stack."""
    a = q1 / (q1 + q2)
    b = q3 / (q1 + q3)
    c = q2 / (q2 + q3)
    return np.array([a + b - 1.0, a + c - 1.0, c + b - 1.0]).T


@dataclass(frozen=True)
class ScarfEconomy:
    """The fixed 3-good economy behind scarf_excess_demand.

    Exposes the same evaluation surface as ExchangeEconomy (supply is one unit
    of each good; demand is excess plus supply).
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
        return _scarf_excess(p, self.price_floor)

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


def check_walras(economy, p) -> float:
    """|p . Z(p)| — equality holds uncapped; a binding cap shows up here."""
    prices = _as_prices(p, economy.n_goods)
    return float(abs(prices.dot(economy.excess(prices))))


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
    """Sampled prices p, q and their excess demands Z(p), Z(q), from one call.

    Each is a C-ordered (pairs, n) array. Each pair's p and q are drawn one
    after the other, so the block is the same stream as drawing p, then q,
    pair by pair. The arrays are made contiguous because the samplers decide
    their counts with _row_dots, one dot per row, and BLAS sums a strided
    vector in another order.
    """
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
    its elasticity contributes zero. Each base point and its 4n perturbations
    are evaluated together; base points go in blocks of about _BLOCK_ENTRIES
    price entries, so a small economy needs one demand call and a large one
    never holds all pairs * (1 + 4n) * n entries at once.
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
