"""Reference answers computed without the solver, for the tests to compare against.

This module holds no tests. Test files import it by name: pytest puts this
directory on sys.path.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from mirrorvi import COBB_DOUGLAS, LEONTIEF, Consumer, ExchangeEconomy
from mirrorvi.economy import DEFAULT_PRICE_FLOOR, _as_prices
from mirrorvi.errors import check_count, check_real

#: Largest brute-force demand grid resolution we evaluate.
MAX_ORACLE_RESOLUTION = 401


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


def demand_oracle(consumer: Consumer, p, resolution: int,
                  floor: float = DEFAULT_PRICE_FLOOR) -> np.ndarray:
    """Brute-force demand: best utility over a grid of budget-exhausting bundles.

    Budget shares run over the simplex grid {k/resolution}, converted to
    quantities x_j = share_j * budget / p_j. Small dimensions only
    (NotImplementedError above 3 goods or MAX_ORACLE_RESOLUTION); resolution
    is an integer >= 1 and floor positive and finite, checked by the
    library's own rules.
    """
    n = consumer.n_goods
    if n > 3:
        raise NotImplementedError(f"demand_oracle supports at most 3 goods, got {n}")
    check_count(resolution, "resolution")
    if resolution > MAX_ORACLE_RESOLUTION:
        raise NotImplementedError(
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


def cobb_douglas_equilibrium(economy: ExchangeEconomy) -> tuple[float, np.ndarray]:
    """The equilibrium of an exchange economy whose consumers are all
    Cobb-Douglas, found without Z.

    Consumer i spends the share a_ij = v_ij / sum_j v_ij of its budget p . e_i
    on good j, so markets clear when p_j s_j = sum_i a_ij (p . e_i): p is an
    eigenvector of diag(s)^-1 A^T E with eigenvalue 1, which is its Perron
    root since s^T is a positive left eigenvector for it (Eaves 1985, Finite
    solution of pure trade markets with Cobb-Douglas utilities). Returns the
    Perron root and its eigenvector, scaled to sum 1.
    """
    valuations = np.array([c.valuations for c in economy.consumers])
    endowments = np.array([c.endowment for c in economy.consumers])
    shares = valuations / valuations.sum(axis=1, keepdims=True)
    supply = endowments.sum(axis=0)
    values, vectors = np.linalg.eig((shares.T @ endowments) / supply[:, None])
    root = int(np.argmax(values.real))
    vector = vectors[:, root].real
    return float(values[root].real), vector / vector.sum()
