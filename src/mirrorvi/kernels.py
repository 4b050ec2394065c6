"""Distance-generating kernels, Bregman divergences, and closed-form mirror steps.

Two kernels are supported: the squared Euclidean norm h(x) = 0.5*||x||^2 and the
negative entropy h(x) = sum_j x_j*log(x_j) (floored away from the boundary).
Feasible regions are axis-aligned boxes and the unit simplex; every mirror step
has a closed form on these sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InvalidInput, check_count, check_number

#: Absolute tolerance for set-membership checks everywhere in the library.
MEMBERSHIP_TOL = 1e-12

EUCLIDEAN = "euclidean"
ENTROPY = "entropy"

BOX = "box"
SIMPLEX = "simplex"

#: The largest simplex whose prox runs on Python floats: numpy's add.reduce
#: sums up to 7 terms left to right and 8 or more in interleaved partial sums,
#: and Python's per-number cost beats numpy's per-call cost at these sizes.
FLOAT_SIMPLEX_MAX = 7


def _as_array(x, name: str, stack: bool = False) -> np.ndarray:
    """x as a C-ordered float64 vector, or with stack=True also a (k, n) stack,
    or InvalidInput naming it: the one conversion of an array argument. A
    strided vector is copied, since BLAS would sum it in another order than
    its copy."""
    arr = np.asarray(x, dtype=float, order="C")
    if arr.ndim != 1 and not (stack and arr.ndim == 2):
        shapes = "a vector or a (k, n) stack" if stack else "a one-dimensional vector"
        raise InvalidInput(f"{name} must be {shapes}, got shape {arr.shape}")
    return arr


def _as_vector(x, name: str, stack: bool = False) -> np.ndarray:
    """_as_array(x, name, stack), which must also be finite."""
    arr = _as_array(x, name, stack)
    if not _finite(arr):
        raise InvalidInput(f"{name} must be finite")
    return arr


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array a is finite. A finite sum of squares
    proves it in one BLAS dot; only an overflowing sum needs the entry test."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


@dataclass(frozen=True)
class Kernel:
    """A 1-strongly-convex distance-generating function.

    kind: "euclidean" (h = 0.5*||x||^2) or "entropy" (h = sum x*log x).
    floor: positivity floor nu for the entropy kernel; coordinates below nu are
    clamped before any entropy evaluation and after every entropy step.
    """

    kind: str
    floor: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in (EUCLIDEAN, ENTROPY):
            raise InvalidInput(f"unknown kernel kind {self.kind!r}")
        check_number(self.floor, "kernel floor")
        if not (0.0 < self.floor < 1.0):
            raise InvalidInput(f"kernel floor must be in (0, 1), got {self.floor}")


def squared_euclidean() -> Kernel:
    """The kernel h(x) = 0.5*||x||^2."""
    return Kernel(EUCLIDEAN)


def negative_entropy(floor: float = 1e-8) -> Kernel:
    """The kernel h(x) = sum x*log x, its coordinates floored at floor in (0, 1)."""
    return Kernel(ENTROPY, floor)


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """An axis-aligned box or the unit simplex, with closed-form primitives."""

    kind: str
    n: int
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def contains(self, x) -> bool:
        """Whether x is a finite point of the set, within MEMBERSHIP_TOL."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n,) or not _finite(arr):
            return False
        if self.kind == BOX:
            return bool((arr >= self.lo - MEMBERSHIP_TOL).all()
                        and (arr <= self.hi + MEMBERSHIP_TOL).all())
        return bool((arr >= -MEMBERSHIP_TOL).all() and abs(arr.sum() - 1.0) <= MEMBERSHIP_TOL)


def _point(space: FeasibleSet, x, name: str) -> np.ndarray:
    """x as a C-ordered float64 array, or InvalidInput("<name> lies outside the
    feasible set") unless FeasibleSet.contains accepts it: the one rule for a
    point of a set."""
    arr = np.asarray(x, dtype=float, order="C")
    if not space.contains(arr):
        raise InvalidInput(f"{name} lies outside the feasible set")
    return arr


def box(lo, hi) -> FeasibleSet:
    """Box {x : lo <= x <= hi} with at least one coordinate and lo_j < hi_j in each."""
    lo_arr = _as_vector(lo, "lo")
    hi_arr = _as_vector(hi, "hi")
    if lo_arr.shape != hi_arr.shape:
        raise InvalidInput("lo and hi must have the same length")
    check_count(lo_arr.size, "box dimension")
    if not np.all(lo_arr < hi_arr):
        raise InvalidInput("box requires lo_j < hi_j in every coordinate")
    return FeasibleSet(BOX, lo_arr.size, lo_arr, hi_arr)


def unit_box(n: int) -> FeasibleSet:
    """[0, 1]^n for an integer n >= 1."""
    check_count(n, "box dimension")
    return box(np.zeros(n), np.ones(n))


def simplex(n: int) -> FeasibleSet:
    """Unit simplex {p >= 0 : sum p = 1} in an integer dimension n >= 1."""
    check_count(n, "simplex dimension")
    return FeasibleSet(SIMPLEX, int(n))


def bregman_divergence(kernel: Kernel, x, y) -> float | np.ndarray:
    """D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>, nonnegative by convexity.

    For vectors x and y it returns a float. For (k, n) stacks it returns the
    k row divergences D_h(x_i, y_i) as an array, each equal to the vector call
    bit for bit.
    """
    x_arr = _as_vector(x, "x", stack=True)
    y_arr = _as_vector(y, "y", stack=True)
    if x_arr.shape != y_arr.shape:
        raise InvalidInput(f"dimension mismatch: {x_arr.shape} vs {y_arr.shape}")
    div = _divergence(kernel, x_arr, y_arr)
    return float(div) if x_arr.ndim == 1 else div


def _divergence(kernel: Kernel, x: np.ndarray, y: np.ndarray):
    """bregman_divergence without its checks, on finite C-ordered float arrays of
    one shape. Both kernels reduce along the last axis only, so a row's value
    never depends on the rows beside it."""
    if kernel.kind == EUCLIDEAN:
        d = x - y
        # A sum of squares along the axis would round differently from d.dot(d).
        return 0.5 * _row_dots(d, d)
    # xf*log(xf/yf) - xf + yf, in place in two arrays; xf's buffer takes yf
    # again for the last addition.
    nu = kernel.floor
    xf = np.maximum(x, nu)
    t = np.maximum(y, nu)
    np.divide(xf, t, out=t)
    np.log(t, out=t)
    t *= xf
    t -= xf
    t += np.maximum(y, nu, out=xf)
    return t.sum(axis=-1)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i along the last axis, the leading axes broadcast: one BLAS dot per
    row, equal to a_i.dot(b_i) bit for bit but for the sign of a zero when n = 1
    (a row adds the bare product to +0.0). Two vectors of n >= 2 take a.dot(b),
    the same BLAS dot for half of vecdot's call cost."""
    if a.ndim == b.ndim == 1 and a.size > 1:
        return a.dot(b)
    return np.vecdot(a, b)


def simplex_projection(v) -> np.ndarray:
    """Euclidean projection onto the unit simplex via sort-and-threshold.

    v must be a nonempty finite vector; an empty one fails as simplex(0) does.
    A v whose clamped vector sums to 0 after rounding raises EvaluationError.
    """
    arr = _as_vector(v, "v")
    check_count(arr.size, "simplex dimension")
    return _project_simplex(arr)


def _project_simplex(arr: np.ndarray) -> np.ndarray:
    """Below 8 goods the float path equals numpy's bit for bit."""
    if arr.size <= FLOAT_SIMPLEX_MAX:
        return _project_floats(arr.tolist())
    # ndarray.sort on a copy, np.add.accumulate and ufunc.reduce are what
    # np.sort, cumsum and sum call, minus a Python frame each.
    u = arr.copy()
    u.sort()
    u = u[::-1]
    css = np.add.accumulate(u)
    above = (u * np.arange(1.0, arr.size + 1.0) > css - 1.0).nonzero()[0]
    if above.size == 0:
        return _top_vertex(_finite(arr), arr == u[0])
    rho = int(above[-1])
    theta = (float(css[rho]) - 1.0) / (rho + 1.0)
    w = arr - theta
    np.maximum(w, 0.0, out=w)
    total = np.add.reduce(w)
    if total == 0.0:
        raise EvaluationError("simplex projection lost all its mass")
    w /= total
    return w


def _project_floats(v: list) -> np.ndarray:
    """_project_simplex on a list of at most FLOAT_SIMPLEX_MAX floats, in the
    same IEEE operations."""
    u = sorted(v, reverse=True)
    css = 0.0
    rho = -1
    for j, uj in enumerate(u):
        css += uj
        if uj * (j + 1) > css - 1.0:
            rho, top = j, css
    if rho < 0:
        return _top_vertex(all(map(math.isfinite, v)), [x == u[0] for x in v])
    theta = (top - 1.0) / (rho + 1)
    # d if d > 0.0 else 0.0 is np.maximum(d, 0.0), the sign of a zero included.
    return np.array(_to_unit_sum([d if d > 0.0 else 0.0 for d in [x - theta for x in v]]))


def _top_vertex(finite: bool, top) -> np.ndarray:
    """The projection when no j passes the threshold test. In exact arithmetic
    j = 0 always does; a finite point fails it only when u_0 - 1 rounds to u_0
    (|u_0| > 2^53), so every other entry is at least 2 below u_0 and the entries
    equal to it (top) share the mass evenly. A non-finite point, say an
    overflowed prox target, raises EvaluationError."""
    if not finite:
        raise EvaluationError("simplex projection of a non-finite point")
    w = np.array(top, dtype=float)
    return w / np.add.reduce(w)


def _to_unit_sum(w: list) -> list:
    """w / sum(w) for at most FLOAT_SIMPLEX_MAX floats, summed left to right as
    numpy's add.reduce does up to 7 terms (sum() compensates from Python 3.12);
    EvaluationError when the sum is 0."""
    total = 0.0
    for a in w:
        total += a
    if total == 0.0:
        raise EvaluationError("simplex projection lost all its mass")
    return [a / total for a in w]


def _check_step(eta) -> None:
    """The one step-size rule: a real number with 0 < eta and 2 * eta finite."""
    check_number(eta, "eta")
    if not eta > 0.0:
        raise InvalidInput(f"eta must be positive, got {eta}")
    if not 2.0 * eta < math.inf:
        raise InvalidInput(f"eta must have a finite effective step 2*eta, got {eta}")


def mirror_step(space: FeasibleSet, kernel: Kernel, eta: float, x0, g) -> np.ndarray:
    """argmin_{x in space} <g, x> + (1/(2*eta)) * D_h(x, x0), in closed form.

    The effective Euclidean step is 2*eta, which must be positive and finite;
    x0 must lie in the set and g be a finite vector of its dimension. A step
    that overflows or loses all its mass on the simplex raises EvaluationError;
    on a box an overflowed step clips. Neither gives a numpy warning.
    """
    _check_step(eta)
    x0_arr = _as_vector(x0, "x0")
    g_arr = _as_vector(g, "g")
    if x0_arr.shape != g_arr.shape or x0_arr.size != space.n:
        raise InvalidInput("x0 and g must match the set dimension")
    # As in vi._solve: an overflowing step clips or raises, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return _prox(space, kernel, eta, _point(space, x0_arr, "x0"), g_arr)


def _prox(space: FeasibleSet, kernel: Kernel, eta: float, x0: np.ndarray,
          g: np.ndarray) -> np.ndarray:
    """mirror_step without its checks: x0 in the set, g finite, both float
    vectors of the set's dimension."""
    if kernel.kind == EUCLIDEAN:
        if space.kind == SIMPLEX and space.n <= FLOAT_SIMPLEX_MAX:
            # float(): a numpy float32 step would round each product to float32.
            step = float(2.0 * eta)
            return _project_floats([a - step * b for a, b in zip(x0.tolist(), g.tolist())])
        target = x0 - (2.0 * eta) * g
        if space.kind == BOX:
            # np.clip with the box's array bounds, bit for bit (-0.0 included),
            # without its Python frames; target is a fresh array.
            np.maximum(target, space.lo, out=target)
            return np.minimum(target, space.hi, out=target)
        return _project_simplex(target)

    # Entropy: multiplicative update x0 * exp(-2*eta*g), evaluated in log space.
    nu = kernel.floor
    if space.kind == SIMPLEX:
        if space.n <= FLOAT_SIMPLEX_MAX:
            return _entropy_floats(x0, g, float(2.0 * eta), nu)
        w = np.log(np.maximum(x0, nu))
        w -= (2.0 * eta) * g
        top = np.maximum.reduce(w)
        # An overflowed step makes top infinite, and w - top NaN.
        if not -math.inf < top < math.inf:
            raise EvaluationError("entropy step overflowed on the simplex")
        w -= top
        np.exp(w, out=w)
        w /= np.add.reduce(w)
        if np.minimum.reduce(w) < nu:
            np.maximum(w, nu, out=w)
            w /= np.add.reduce(w)
        return w
    lo_eff = np.maximum(space.lo, nu)
    logw = np.log(np.maximum(x0, lo_eff)) - (2.0 * eta) * g
    # Cap the exponent at the upper bound's log so huge negative gradients
    # cannot overflow before the clamp.
    logw = np.minimum(logw, np.log(space.hi))
    return np.clip(np.exp(logw), lo_eff, space.hi)


def _entropy_floats(x0: np.ndarray, g: np.ndarray, step: float, nu: float) -> np.ndarray:
    """The entropy simplex step of _prox at most FLOAT_SIMPLEX_MAX goods: numpy's
    log and exp take the arrays the numpy path gives them, the rest is floats."""
    w = [a - step * b for a, b in zip(np.log(np.maximum(x0, nu)).tolist(), g.tolist())]
    top = max(w)
    if not -math.inf < top < math.inf:
        raise EvaluationError("entropy step overflowed on the simplex")
    w = _to_unit_sum(np.exp(np.array([a - top for a in w])).tolist())
    if min(w) < nu:
        w = _to_unit_sum([a if a > nu else nu for a in w])
    return np.array(w)


def linear_max(space: FeasibleSet, c) -> tuple[float, np.ndarray]:
    """max_{x in space} <c, x> with its argmax (ties broken to the lowest index).

    c must be a finite vector of the set's dimension. The solver's gap takes
    the same support value through vi._gap.
    """
    c = _as_vector(c, "c")
    if c.size != space.n:
        raise InvalidInput("c must match the set dimension")
    if space.kind == BOX:
        argmax = np.where(c > 0.0, space.hi, space.lo)
        return float(c.dot(argmax)), argmax
    j = int(np.argmax(c))
    vertex = np.zeros(space.n)
    vertex[j] = 1.0
    return float(c[j]), vertex
