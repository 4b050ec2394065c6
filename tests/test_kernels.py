"""Tests for kernel functions, feasible sets, Bregman divergences, and mirror steps."""
from __future__ import annotations

import re

import numpy as np
import pytest

from mirrorvi import (
    BOX,
    ENTROPY,
    EUCLIDEAN,
    MEMBERSHIP_TOL,
    SIMPLEX,
    EvaluationError,
    InvalidInput,
    Kernel,
    SolverConfig,
    VIProblem,
    bregman_divergence,
    box,
    linear_max,
    mirror_extragradient_solve,
    mirror_step,
    negative_entropy,
    simplex,
    simplex_projection,
    squared_euclidean,
    unit_box,
)
from mirrorvi.kernels import _finite, _project_simplex, _prox, _row_dots


def test_kernel_factories():
    k = squared_euclidean()
    assert k.kind == EUCLIDEAN
    assert k.strong_convexity == 1.0
    assert k.smoothness == 1.0

    e = negative_entropy()
    assert e.kind == ENTROPY
    assert e.floor == 1e-8
    assert e.strong_convexity == 1.0
    assert e.smoothness == 1e8

    e2 = negative_entropy(floor=1e-4)
    assert e2.smoothness == 1e4


def test_box_constructor_and_membership():
    b = box(np.array([0.0, -1.0]), np.array([1.0, 2.0]))
    assert b.kind == BOX and b.n == 2
    assert b.contains(np.array([0.5, 0.0]))
    assert b.contains(np.array([1.0 + 0.5 * MEMBERSHIP_TOL, 2.0]))
    assert not b.contains(np.array([1.1, 0.0]))
    assert not b.contains(np.array([0.5]))

    u = unit_box(3)
    assert np.allclose(u.lo, 0.0) and np.allclose(u.hi, 1.0)

    with pytest.raises(InvalidInput):
        box(np.array([1.0]), np.array([1.0]))
    with pytest.raises(InvalidInput):
        box(np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def test_simplex_constructor_and_membership():
    s = simplex(3)
    assert s.kind == SIMPLEX and s.n == 3
    assert s.contains(np.full(3, 1 / 3))
    assert s.contains(np.array([1.0, 0.0, 0.0]))
    assert not s.contains(np.array([0.5, 0.5, 0.5]))
    assert not s.contains(np.array([-0.1, 0.6, 0.5]))

    with pytest.raises(InvalidInput):
        simplex(0)


def test_bregman_euclidean_oracle():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 0.0])
    # D(x, y) = 0.5 * ||x - y||^2 = 0.5
    assert bregman_divergence(squared_euclidean(), x, y) == 0.5
    z = np.array([2.0, -1.0])
    w = np.array([1.0, 1.0])
    assert np.isclose(bregman_divergence(squared_euclidean(), z, w), 0.5 * (1 + 4))


def test_bregman_entropy_oracle():
    # D((.5,.5),(.25,.75)) = .5*ln(2) + .5*ln(2/3); independent closed form
    x = np.array([0.5, 0.5])
    y = np.array([0.25, 0.75])
    want = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    got = bregman_divergence(negative_entropy(), x, y)
    assert np.isclose(got, want, rtol=0, atol=1e-15)
    assert np.isclose(got, 0.14384103622589045, rtol=0, atol=1e-16)


def test_bregman_entropy_floors_zero_arguments():
    # zero coordinates are clamped at the floor, so the value stays finite
    k = negative_entropy()
    x = np.array([1.0, 0.0])
    y = np.array([0.5, 0.5])
    v = bregman_divergence(k, x, y)
    assert np.isfinite(v) and v > 0


def test_bregman_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(1, 6)
        x = rng.random(n) * 0.9 + 0.05
        y = rng.random(n) * 0.9 + 0.05
        for k in (squared_euclidean(), negative_entropy()):
            assert bregman_divergence(k, x, y) >= 0
            assert bregman_divergence(k, x, x) <= 1e-15


def test_bregman_strong_convexity_lower_bound():
    # D_h(x, y) >= 0.5 ||x - y||^2 on the domains where both kernels are 1-strongly convex
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            x = rng.dirichlet(np.ones(n))
            y = rng.dirichlet(np.ones(n))
        else:
            x = rng.random(n) * 0.999 + 1e-3
            y = rng.random(n) * 0.999 + 1e-3
        for k in (squared_euclidean(), negative_entropy()):
            gap = bregman_divergence(k, x, y) - 0.5 * np.sum((x - y) ** 2)
            assert gap >= -1e-12


def test_simplex_projection_oracles():
    np.testing.assert_allclose(simplex_projection(np.array([0.2, 0.8])), [0.2, 0.8], atol=1e-15)
    np.testing.assert_allclose(simplex_projection(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(simplex_projection(np.array([0.6, 0.6])), [0.5, 0.5], atol=1e-15)


def test_simplex_projection_membership_large_scale():
    rng = np.random.default_rng(2)
    s_small = simplex(5)
    s_big = simplex(500)
    for _ in range(50):
        v5 = rng.normal(size=5) * 100.0
        p5 = simplex_projection(v5)
        assert s_small.contains(p5)
        v500 = rng.normal(size=500) * 1000.0
        p500 = simplex_projection(v500)
        assert s_big.contains(p500)
        assert abs(p500.sum() - 1.0) <= 1e-12


def test_simplex_projection_matches_grid_minimizer():
    # brute-force grid over the simplex in dimensions 2 and 3
    rng = np.random.default_rng(3)
    res = 200
    for n in (2, 3):
        if n == 2:
            grid = np.array([[i / res, 1 - i / res] for i in range(res + 1)])
        else:
            grid = np.array(
                [[i / res, j / res, (res - i - j) / res]
                 for i in range(res + 1) for j in range(res + 1 - i)]
            )
        for _ in range(20):
            v = rng.normal(size=n) * 2.0
            p = simplex_projection(v)
            d_grid = np.sum((grid - v) ** 2, axis=1)
            best = grid[np.argmin(d_grid)]
            # optimality: the projection is at least as close as any grid point
            assert np.sum((p - v) ** 2) <= d_grid.min() + 1e-9
            # locality: the projection sits within one grid cell of the best grid point
            assert np.max(np.abs(p - best)) <= 1.0 / res + 1e-9


def test_mirror_step_euclidean_box_is_clamped_gradient():
    b = box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    k = squared_euclidean()
    x0 = np.array([0.5, -0.5])
    g = np.array([2.0, -3.0])
    eta = 0.1
    got = mirror_step(b, k, eta, x0, g)
    want = np.clip(x0 - 2.0 * eta * g, -1.0, 1.0)
    np.testing.assert_allclose(got, want, atol=0)
    # interior step is exactly x0 - 2*eta*g
    got2 = mirror_step(b, k, 0.05, x0, g)
    np.testing.assert_allclose(got2, x0 - 0.1 * g, atol=0)


def test_mirror_step_euclidean_matches_projected_step_identity():
    # Euclidean mirror step with eta == standard projected step with step 2*eta
    rng = np.random.default_rng(4)
    b = box(np.zeros(4), np.ones(4))
    s = simplex(4)
    k = squared_euclidean()
    for _ in range(100):
        x0b = rng.random(4)
        x0s = rng.dirichlet(np.ones(4))
        g = rng.normal(size=4)
        eta = rng.random() * 0.999 + 1e-3
        np.testing.assert_allclose(
            mirror_step(b, k, eta, x0b, g), np.clip(x0b - 2 * eta * g, 0, 1), atol=1e-15
        )
        np.testing.assert_allclose(
            mirror_step(s, k, eta, x0s, g), simplex_projection(x0s - 2 * eta * g), atol=1e-15
        )


def test_mirror_step_entropy_simplex_oracle():
    # multiplicative weights: x0 * exp(-2 eta g), normalized
    s = simplex(2)
    k = negative_entropy()
    x0 = np.array([0.5, 0.5])
    eta = 0.5
    g = np.array([np.log(2.0), 0.0])  # weights (0.5*exp(-ln 2), 0.5) = (0.25, 0.5)
    got = mirror_step(s, k, eta, x0, g)
    np.testing.assert_allclose(got, [1 / 3, 2 / 3], atol=1e-15)


def test_mirror_step_entropy_simplex_floor():
    s = simplex(2)
    k = negative_entropy(floor=1e-8)
    x0 = np.array([0.5, 0.5])
    got = mirror_step(s, k, 1.0, x0, np.array([50.0, 0.0]))
    # flooring happens before the final renormalization, so the minimum sits
    # within one part in 1e8 of the floor itself
    assert got.min() >= 1e-8 * (1 - 2e-8)
    assert abs(got.sum() - 1.0) <= 1e-12


def test_mirror_step_entropy_box_oracle():
    b = box(np.array([1e-8, 1e-8]), np.array([1.0, 1.0]))
    k = negative_entropy()
    x0 = np.array([0.5, 0.5])
    eta = 0.5
    g = np.array([np.log(2.0), -np.log(4.0)])
    # log-space update x = x0 * exp(-2 eta g), clipped into the box
    got = mirror_step(b, k, eta, x0, g)
    np.testing.assert_allclose(got, [0.25, 1.0], atol=1e-15)


def test_mirror_step_zero_gradient_fixed_point():
    rng = np.random.default_rng(5)
    sets = [box(np.zeros(3), np.ones(3)), simplex(3)]
    kernels = [squared_euclidean(), negative_entropy()]
    for st in sets:
        for k in kernels:
            for _ in range(20):
                x0 = rng.dirichlet(np.ones(3)) if st.kind == SIMPLEX else rng.random(3)
                x0 = np.maximum(x0, 1e-6)
                if st.kind == SIMPLEX:
                    x0 = x0 / x0.sum()
                got = mirror_step(st, k, 0.3, x0, np.zeros(3))
                np.testing.assert_allclose(got, x0, atol=1e-12)


def _step_objective(kernel, eta, x0, g, x):
    return float(g.dot(x)) + bregman_divergence(kernel, x, x0) / (2.0 * eta)


def test_mirror_step_first_order_optimality():
    # output objective <= objective at x0 and at 64 random feasible points
    rng = np.random.default_rng(6)
    sets = [box(np.zeros(3), np.ones(3)), simplex(3)]
    kernels = [squared_euclidean(), negative_entropy()]
    for st in sets:
        for k in kernels:
            for _ in range(25):
                if st.kind == SIMPLEX:
                    x0 = rng.dirichlet(np.ones(3))
                    probes = rng.dirichlet(np.ones(3), size=64)
                else:
                    x0 = rng.random(3)
                    probes = rng.random((64, 3))
                x0 = np.maximum(x0, 1e-4)
                if st.kind == SIMPLEX:
                    x0 = x0 / x0.sum()
                g = rng.normal(size=3)
                eta = rng.random() * 0.999 + 1e-3
                out = mirror_step(st, k, eta, x0, g)
                assert st.contains(out)
                val = _step_objective(k, eta, x0, g, out)
                assert val <= _step_objective(k, eta, x0, g, x0) + 1e-9
                for p in probes:
                    assert val <= _step_objective(k, eta, x0, g, p) + 1e-9


def test_linear_max_box():
    b = box(np.zeros(2), np.ones(2))
    value, arg = linear_max(b, np.array([1.0, -1.0]))
    assert value == 1.0
    np.testing.assert_allclose(arg, [1.0, 0.0], atol=0)
    b2 = box(np.array([-2.0, 1.0]), np.array([3.0, 5.0]))
    value2, arg2 = linear_max(b2, np.array([-1.0, 2.0]))
    assert value2 == (-1.0) * (-2.0) + 2.0 * 5.0
    np.testing.assert_allclose(arg2, [-2.0, 5.0], atol=0)


def test_linear_max_simplex():
    s = simplex(3)
    value, arg = linear_max(s, np.array([1 / 6, -1 / 6, 0.0]))
    assert value == 1 / 6
    np.testing.assert_allclose(arg, [1.0, 0.0, 0.0], atol=0)
    # tie resolves to the lowest index
    value2, arg2 = linear_max(simplex(2), np.array([2.0, 2.0]))
    assert value2 == 2.0
    np.testing.assert_allclose(arg2, [1.0, 0.0], atol=0)


def test_linear_max_bounds_random_feasible_points():
    rng = np.random.default_rng(7)
    b = box(np.zeros(4), np.ones(4))
    s = simplex(4)
    for _ in range(200):
        c = rng.normal(size=4)
        vb, ab = linear_max(b, c)
        vs, as_ = linear_max(s, c)
        assert b.contains(ab) and s.contains(as_)
        xb = rng.random(4)
        xs = rng.dirichlet(np.ones(4))
        assert c.dot(xb) <= vb + 1e-12
        assert c.dot(xs) <= vs + 1e-12
        assert np.isclose(c.dot(ab), vb, atol=1e-12)
        assert np.isclose(c.dot(as_), vs, atol=1e-12)


def test_invalid_inputs_raise():
    k = squared_euclidean()
    b = box(np.zeros(2), np.ones(2))
    with pytest.raises(InvalidInput):
        bregman_divergence(k, np.array([np.nan, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(InvalidInput):
        mirror_step(b, k, 0.1, np.array([0.5, 0.5]), np.array([np.inf, 0.0]))
    with pytest.raises(InvalidInput):
        bregman_divergence(k, np.array([1.0, 0.0]), np.array([1.0]))


@pytest.mark.parametrize("kernel", [squared_euclidean(), negative_entropy()],
                         ids=[EUCLIDEAN, ENTROPY])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 50, 500])
@pytest.mark.parametrize("k", [1, 2, 300])
def test_stacked_divergence_matches_vector_calls_bit_for_bit(kernel, n, k):
    # Each row of the (k, n) form must be the vector call's value as bytes,
    # across the sizes where numpy's pairwise summation changes its blocking.
    rng = np.random.default_rng(19)
    scales = rng.choice([1e-6, 1.0, 1e3], (k, 1))
    x = rng.uniform(0.0, 1.0, (k, n)) * scales
    y = rng.dirichlet(np.full(n, 0.5), k)
    # Zeros and entries below the entropy floor, in both arguments.
    x[::2, ::3] = 0.0
    y[1::2, ::2] = 0.0
    x[1::3, 1::4] = 1e-12
    y[::3, 1::3] = 1e-11
    expected = np.array([bregman_divergence(kernel, xi, yi) for xi, yi in zip(x, y)])
    for xs, ys in ((x, y), (np.asfortranarray(x), y), (x, np.asfortranarray(y))):
        got = bregman_divergence(kernel, xs, ys)
        assert got.shape == (k,)
        assert got.tobytes() == expected.tobytes()


def test_divergence_forms_and_invalid_stacks():
    x = np.array([0.2, 0.3, 0.5])
    y = np.array([0.1, 0.6, 0.3])
    for k in (squared_euclidean(), negative_entropy()):
        assert type(bregman_divergence(k, x, y)) is float
        stack = np.array([x, y, x])
        for bad in (np.nan, np.inf, -np.inf):
            for row in range(3):
                broken = stack.copy()
                broken[row, 1] = bad
                with pytest.raises(InvalidInput):
                    bregman_divergence(k, broken, stack)
                with pytest.raises(InvalidInput):
                    bregman_divergence(k, stack, broken)
        for a, b in ((stack, stack[:2]), (stack, x), (x, stack), (stack, stack[:, :2])):
            with pytest.raises(InvalidInput):
                bregman_divergence(k, a, b)
        for bad in (np.float64(0.5), stack[None]):
            with pytest.raises(InvalidInput):
                bregman_divergence(k, bad, bad)


@pytest.mark.parametrize(
    "space",
    [
        box(np.array([-1.0, 0.0, 0.5, 0.0]), np.array([1.0, 2.0, 3.0, 1e-3])),
        unit_box(4),
        simplex(4),
    ],
    ids=["box", "unit_box", "simplex"],
)
@pytest.mark.parametrize("kernel", [squared_euclidean(), negative_entropy()],
                         ids=[EUCLIDEAN, ENTROPY])
def test_unchecked_forms_equal_public_forms(space, kernel):
    # The solver loop calls the unchecked helpers on its own iterates; they
    # must give exactly what the public, checked functions give.
    rng = np.random.default_rng(11)
    for _ in range(200):
        if space.kind == BOX:
            x0 = rng.uniform(space.lo, space.hi)
        else:
            x0 = rng.dirichlet(np.full(space.n, 0.5))
        g = rng.normal(size=space.n) * rng.choice([0.01, 1.0, 100.0])
        eta = float(rng.choice([1e-3, 0.05, 1.0]))
        np.testing.assert_array_equal(_prox(space, kernel, eta, x0, g),
                                      mirror_step(space, kernel, eta, x0, g))
        np.testing.assert_array_equal(_project_simplex(g), simplex_projection(g))


def _reference_project_simplex(arr):
    # The sort-and-threshold projection written with a fresh array per step.
    u = np.sort(arr)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, arr.size + 1)
    rho = np.nonzero(u * idx > css - 1.0)[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    w = np.maximum(arr - theta, 0.0)
    return w / w.sum()


def _reference_entropy_simplex_step(x0, g, eta, nu):
    logw = np.log(np.maximum(x0, nu)) - (2.0 * eta) * g
    logw -= logw.max()
    w = np.exp(logw)
    p = w / w.sum()
    if p.min() < nu:
        p = np.maximum(p, nu)
        p = p / p.sum()
    return p


# Every size of the float path (n <= FLOAT_SIMPLEX_MAX), the sizes just past
# it, where numpy's sums change order, and one large size.
SIMPLEX_SIZES = [*range(1, 17), 200]


@pytest.mark.parametrize("n", SIMPLEX_SIZES)
def test_project_simplex_matches_reference_bit_for_bit(n):
    # The projection works in place on fewer temporaries, or on Python floats
    # below 8 goods; every result must equal the textbook expression exactly.
    rng = np.random.default_rng(16)
    inputs = [np.zeros(n), np.full(n, 0.5), np.full(n, -3.0)]
    for j in range(min(n, 5)):
        one_hot = np.zeros(n)
        one_hot[j] = 1.0
        # A -0.0 beside a threshold of 0 clamps to +0.0, as np.maximum does.
        inputs += [one_hot, 7.0 * one_hot - 2.0, np.where(one_hot == 1.0, 1.0, -0.0)]
    for _ in range(300):
        v = rng.normal(size=n) * rng.choice([1e-6, 1.0, 1e3])
        inputs.append(v)
        # Ties: repeated values, at the top of the order and elsewhere.
        tied = np.round(v, 1)
        tied[: (n + 1) // 2] = tied.max()
        inputs.append(tied)
        inputs.append(rng.dirichlet(np.ones(n)))
    for v in inputs:
        assert _project_simplex(v).tobytes() == _reference_project_simplex(v).tobytes()


@pytest.mark.parametrize("n", SIMPLEX_SIZES)
def test_euclidean_simplex_step_matches_reference_bit_for_bit(n):
    # The step forms its target x0 - 2*eta*g on floats below 8 goods; it must
    # equal the textbook projection of numpy's target, ties and zeros included.
    space = simplex(n)
    kernel = squared_euclidean()
    rng = np.random.default_rng(18)
    for i in range(300):
        x0 = rng.dirichlet(np.full(n, 0.5))
        x0[rng.random(n) < 0.2] = 0.0
        x0 = x0 / x0.sum() if x0.sum() > 0.0 else np.eye(n)[0]
        g = rng.normal(size=n) * rng.choice([0.0, 0.01, 1.0, 1e3])
        if rng.random() < 0.3:
            g = np.round(g)
        eta = float(rng.choice([1e-3, 0.05, 1.0]))
        if i % 4 == 0:  # a float32 step enters numpy's target with its own value
            eta = np.float32(eta)
        expected = _reference_project_simplex(x0 - (2.0 * eta) * g)
        assert _prox(space, kernel, eta, x0, g).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [3, 12])
def test_projection_that_loses_all_its_mass_raises(n):
    # Equal coordinates this large put the threshold at or above each of
    # them, so the clamped vector sums to 0 and 0/0 would be NaN. n = 3 runs
    # on floats, n = 12 on numpy.
    v = np.full(n, 2.0**51 + 0.5)
    with pytest.raises(EvaluationError, match="^simplex projection lost all its mass$"):
        simplex_projection(v)
    with pytest.raises(EvaluationError, match="^simplex projection lost all its mass$"):
        mirror_step(simplex(n), squared_euclidean(), 0.5, np.full(n, 1.0 / n), 1.0 / n - v)


@pytest.mark.parametrize("n", SIMPLEX_SIZES)
def test_entropy_simplex_step_matches_reference_bit_for_bit(n):
    space = simplex(n)
    kernel = negative_entropy()
    rng = np.random.default_rng(17)
    for i in range(300):
        x0 = rng.dirichlet(np.full(n, 0.5))
        # Large gradients drive coordinates below the floor, so the
        # re-flooring branch runs too.
        g = rng.normal(size=n) * rng.choice([0.01, 1.0, 1e3])
        eta = float(rng.choice([1e-3, 0.05, 1.0]))
        if i % 4 == 0:
            eta = np.float32(eta)
        expected = _reference_entropy_simplex_step(x0, g, eta, kernel.floor)
        assert _prox(space, kernel, eta, x0, g).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(1, 61))
def test_euclidean_box_step_matches_clip_bit_for_bit(n):
    # The Euclidean box prox clamps with np.maximum then np.minimum on the
    # box's array bounds, which must give np.clip's bytes, the sign of a zero
    # included. With eta = 0.5 and g = 0 the target is x0 itself, so the
    # targets below hit the bounds and both zeros exactly.
    rng = np.random.default_rng(n)
    euc = squared_euclidean()
    boxes = [
        unit_box(n),
        box(np.full(n, -0.0), np.ones(n)),
        box(np.full(n, -1.0), np.full(n, -0.0)),
        box(np.full(n, -1.0), np.zeros(n)),
        box(rng.uniform(-3.0, -0.5, n), rng.uniform(0.5, 3.0, n)),
        box(rng.uniform(0.1, 1.0, n), rng.uniform(2.0, 5.0, n)),
    ]
    for space in boxes:
        choices = np.stack([np.zeros(n), np.full(n, -0.0), space.lo, space.hi,
                            rng.uniform(space.lo - 1.0, space.hi + 1.0)])
        for _ in range(20):
            x0 = choices[rng.integers(len(choices), size=n), np.arange(n)]
            for eta, g in ((0.5, np.zeros(n)), (float(rng.uniform(0.01, 2.0)), rng.normal(size=n))):
                expected = np.clip(x0 - (2.0 * eta) * g, space.lo, space.hi)
                assert _prox(space, euc, eta, x0, g).tobytes() == expected.tobytes()


CENTER3 = np.ones(3) / 3.0

KERNEL_REJECTIONS = {
    "vector_shape": (lambda: box(np.zeros((1, 2)), np.ones((1, 2))),
                     "lo must be a one-dimensional vector, got shape (1, 2)"),
    "kernel_kind": (lambda: Kernel("manhattan"), "unknown kernel kind 'manhattan'"),
    "kernel_floor": (lambda: negative_entropy(floor=1.0), "kernel floor must be in (0, 1), got 1.0"),
    "box_lengths": (lambda: box(np.zeros(2), np.ones(3)), "lo and hi must have the same length"),
    "box_empty": (lambda: box([], []), "box dimension must be >= 1, got 0"),
    "unit_box_zero": (lambda: unit_box(0), "box dimension must be >= 1, got 0"),
    "unit_box_negative": (lambda: unit_box(-1), "box dimension must be >= 1, got -1"),
    "unit_box_float": (lambda: unit_box(2.5), "box dimension must be an integer, got 2.5"),
    "simplex_float": (lambda: simplex(2.5), "simplex dimension must be an integer, got 2.5"),
    "simplex_bool": (lambda: simplex(True), "simplex dimension must be an integer, got True"),
    "mirror_step_eta": (lambda: mirror_step(simplex(3), squared_euclidean(), 0.0, CENTER3, CENTER3),
                        "eta must be positive, got 0.0"),
    # An infinite eta passed the positivity test and returned [nan, 0.].
    "mirror_step_eta_inf": (
        lambda: mirror_step(unit_box(2), squared_euclidean(), np.inf, [0.5, 0.5], [0.0, 1.0]),
        "eta must have a finite effective step 2*eta, got inf"),
    "mirror_step_eta_nan": (
        lambda: mirror_step(unit_box(2), squared_euclidean(), np.nan, [0.5, 0.5], [0.0, 1.0]),
        "eta must be positive, got nan"),
    "mirror_step_dimensions": (
        lambda: mirror_step(simplex(3), squared_euclidean(), 0.1, CENTER3, np.ones(2)),
        "x0 and g must match the set dimension"),
    "mirror_step_x0": (lambda: mirror_step(simplex(3), squared_euclidean(), 0.1, np.ones(3),
                                           np.ones(3)),
                       "x0 lies outside the feasible set"),
    "linear_max_dimensions": (lambda: linear_max(simplex(3), np.ones(2)),
                              "c must match the set dimension"),
    # An empty vector reported a numerical failure, EvaluationError("simplex
    # projection of a non-finite point").
    "simplex_projection_empty": (lambda: simplex_projection([]),
                                 "simplex dimension must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(KERNEL_REJECTIONS))
def test_kernel_entry_points_reject_bad_input(case):
    # simplex(2.5) built a 2-dimensional simplex and simplex(True) a
    # 1-dimensional one; unit_box(2.5) raised a bare TypeError; unit_box(0)
    # and box([], []) built sets whose gap raised a bare ValueError.
    call, message = KERNEL_REJECTIONS[case]
    with pytest.raises(InvalidInput, match=re.escape(message)):
        call()


@pytest.mark.parametrize("kernel", [squared_euclidean(), negative_entropy()],
                         ids=[EUCLIDEAN, ENTROPY])
@pytest.mark.parametrize("direction", [(1.0, 1.0, 1.0), (1.0, 0.0, -1.0)],
                         ids=["constant", "mixed"])
def test_an_overflowing_simplex_step_is_an_evaluation_error(kernel, direction):
    # 2 * eta * g overflows to +-inf. The entropy step took the infinite
    # maximum out of the log-weights and returned NaN prices, which a solve
    # carried to the horizon (then InvalidInput from the trace's divergences)
    # or handed to the operator; both kernels now fail at the step.
    g = 1e300 * np.array(direction)
    problem = VIProblem(simplex(3), lambda x: g)
    config = SolverConfig(eta=1e300, horizon=5, kernel=kernel)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError, match="simplex"):
            mirror_step(simplex(3), kernel, 1e300, CENTER3, g)
        with pytest.raises(EvaluationError, match="simplex"):
            mirror_extragradient_solve(problem, config, CENTER3)


FINITENESS_CASES = {
    "empty": np.empty(0),
    "empty_stack": np.empty((0, 3)),
    "vector": np.array([0.5, -2.0, 3e-5]),
    "stack": np.arange(12.0).reshape(3, 4) - 5.0,
    "strided": (np.arange(12.0).reshape(3, 4) - 5.0)[:, ::2],
    "plus_inf": np.array([1.0, np.inf, 2.0]),
    "minus_inf": np.array([[1.0, 2.0], [-np.inf, 0.0]]),
    "nan": np.array([0.0, np.nan]),
    "inf_and_minus_inf": np.array([np.inf, -np.inf]),
    "nan_in_stack": np.array([[1.0, 2.0], [3.0, np.nan]]),
    "huge_and_nan": np.array([1e200, np.nan]),
    "huge_and_inf": np.array([1e200, np.inf]),
    "subnormals": np.array([5e-324, -5e-324, 2.2e-308]),
    "negative_zero": np.array([-0.0, 0.0, -0.0]),
    # Finite entries whose squares overflow: the sum of squares is inf, and
    # only the entry-by-entry fallback gets them right.
    "square_overflows": np.array([1e200, 1.0]),
    "negative_square_overflows": np.array([[-1e200, 2.0], [3.0, 4.0]]),
    "largest": np.array([1.7e308, -1.7e308]),
}


@pytest.mark.parametrize("case", sorted(FINITENESS_CASES))
def test_finite_agrees_with_the_entry_by_entry_test(case):
    a = FINITENESS_CASES[case]
    expected = bool(np.isfinite(a).all())
    assert _finite(a) is expected
    if "overflows" in case or case == "largest":
        assert expected


def _matmul_row_dots(a, b):
    # The form _row_dots had before it was np.vecdot: one matmul dot per row.
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def test_row_dots_equal_the_matmul_form_bit_for_bit():
    rng = np.random.default_rng(26)
    pairs = []
    for n in (1, 2, 5, 17, 50):
        scale = 10.0 ** rng.uniform(-5.0, 4.0, (7, 1))
        a = rng.normal(size=(7, n)) * scale
        b = rng.normal(size=(7, n)) * scale[::-1]
        a[::3, 0] = -0.0
        b[1::3, -1] = -0.0
        pairs.append((a, b))  # (k, n) stacks
        pairs.append((a[2], b[2]))  # a vector pair
        # (..., m, n) rows against (..., 1, n) prices
        pairs.append((np.stack([a, a[::-1]]), b[:2, None, :]))
        pairs.append((a, b[0][None, :]))  # rows against one price row
    # Every product -0.0: a length-1 vector pair, length-1 rows and longer rows.
    pairs.append((np.array([-0.0]), np.array([1.0])))
    pairs.append((np.array([[-0.0], [0.0]]), np.array([[1.0], [-1.0]])))
    pairs.append((np.full((2, 3), -0.0), np.ones((2, 3))))
    for a, b in pairs:
        got = np.asarray(_row_dots(a, b))
        expected = np.asarray(_matmul_row_dots(a, b))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
