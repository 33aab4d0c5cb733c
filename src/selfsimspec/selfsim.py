"""Self-similar step functions and their discrete weights.

The similarity map with scale a, coefficient d and offsets beta1, beta2 has a
unique fixed point among square-integrable functions on [0, 1]: a step
function that is constant on [0, 1-a) and reproduces itself, scaled by d and
shifted by beta2, on (1-a, 1]. Its plateaus sit on the geometric partition
x_k = 1 - a^k, and its jumps form the discrete weight with masses
m_k = d^(k-1) * (d*beta1 + beta2 - beta1).

Everything downstream is driven by the derived constants

    q = 1 / (a*d),    r = (1-a) * (d*beta1 + beta2 - beta1),

and by the gaps a^k. The positions 1 - a^k saturate to 1.0 in double
precision once a^k < eps, so all geometric computation here and in the
matrix builders works with the gaps; positions are carried for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtBreakpoint,
    DegenerateWeight,
    DepthExceeded,
    NotContractive,
    OutOfRange,
    RangeOverflow,
)

# Largest magnitudes tolerated in downstream matrix entries. Entries of the
# tridiagonal sections grow like q^N (the masses like d^N); the guard keeps
# them inside double range with room for the sums and pivot updates formed
# from them. Sturm counts form no product of two entries.
_GAP_FLOOR = 1e-300
_ENTRY_CEIL = 1e290


@dataclass(frozen=True)
class SelfSimilarParams:
    """Validated parameter tuple with the derived constants attached.

    max_order is the largest truncation order N for which a^N stays above
    the underflow floor and |q|^N below the overflow ceiling; section
    builders refuse larger N.
    """

    a: float
    d: float
    beta1: float
    beta2: float
    q: float
    r: float
    max_order: int


@dataclass(frozen=True)
class StepFunction:
    """Right-opening step function on [0, 1].

    values[k] is the plateau on (1-a^k, 1-a^(k+1)); breakpoints holds
    1-a^k for k = 1..depth. values has depth+1 entries, the last plateau
    extending to 1.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    depth: int


@dataclass(frozen=True)
class DiscreteWeight:
    """Point masses m_k at x_k = 1 - a^k, k = 1..order.

    gaps[k-1] = a^k is the exact complement 1 - x_k; use it instead of
    positions wherever differences of near-1 numbers would cancel.
    """

    positions: np.ndarray
    masses: np.ndarray
    gaps: np.ndarray
    order: int


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def make_params(a: float, d: float, beta1: float, beta2: float) -> SelfSimilarParams:
    """Validate a parameter tuple and compute q, r and the range guard.

    Raises
    ------
    OutOfRange
        a outside (0, 1), any input not finite, or d*beta1 + beta2 - beta1
        (and so r) overflowing.
    NotContractive
        a*d**2 >= 1, where the similarity map stops being a contraction.
    DegenerateWeight
        d = 0 or d*beta1 + beta2 - beta1 = 0 (all masses vanish).
    """
    a, d, beta1, beta2 = float(a), float(d), float(beta1), float(beta2)
    for name, val in (("a", a), ("d", d), ("beta1", beta1), ("beta2", beta2)):
        if not math.isfinite(val):
            raise OutOfRange(f"{name} must be finite, got {val!r}")
    if not 0.0 < a < 1.0:
        raise OutOfRange(f"a out of (0,1): {a!r}")
    if d == 0.0:
        raise DegenerateWeight("d = 0 gives a zero mass ratio")
    if a * d * d >= 1.0:
        raise NotContractive(f"contraction a*d**2 < 1 violated: a*d**2 = {a * d * d!r}")
    jump = d * beta1 + beta2 - beta1
    if jump == 0.0:
        raise DegenerateWeight("d*beta1 + beta2 - beta1 = 0, all masses vanish")
    q = 1.0 / (a * d)
    r = (1.0 - a) * jump
    if not math.isfinite(r):  # the jump overflowed
        raise OutOfRange(f"d*beta1 + beta2 - beta1 overflows: {jump!r}")
    # |q| > 1 is implied: a*|d| = sqrt(a * a*d**2) < sqrt(a) < 1.
    n_gap = math.floor(math.log(_GAP_FLOOR) / math.log(a))
    n_entry = math.floor(math.log(_ENTRY_CEIL) / math.log(abs(q)))
    max_order = min(n_gap, n_entry)
    if abs(d) > 1.0:
        max_order = min(max_order, math.floor(math.log(_ENTRY_CEIL) / math.log(abs(d))))
    return SelfSimilarParams(a, d, beta1, beta2, q, r, max_order)


def _masses(params: SelfSimilarParams, exponents: np.ndarray) -> np.ndarray:
    """m_(k+1) = (d*beta1 + beta2 - beta1) * d^k for each exponent k."""
    jump = params.d * params.beta1 + params.beta2 - params.beta1
    return jump * params.d ** exponents


def _check_order(params: SelfSimilarParams, N: int) -> None:
    """Refuse an order N >= 1 whose a^N underflows to 0 or whose masses leave
    double range, before any length-N array exists.

    The last gap and the first and last masses are the extreme entries;
    they are computed by the same expressions as the arrays, so an order
    that passes builds arrays with no zero gap and no overflowed mass.
    """
    if params.a ** np.array([float(N)])[0] <= 0.0:
        raise RangeOverflow(f"a^{N} underflows to 0")
    with np.errstate(over="ignore"):
        ends = _masses(params, np.array([0.0, N - 1.0]))
    if not np.all(np.isfinite(ends)):
        raise RangeOverflow(f"masses overflow at N = {N}")


def _plateau_values(params: SelfSimilarParams, depth: int) -> np.ndarray:
    """Plateau values v_0..v_depth; v_k - v_(k-1) = m_k by construction."""
    if depth > 0:
        _check_order(params, depth)
    vals = np.empty(depth + 1)
    vals[0] = params.beta1
    with np.errstate(over="ignore"):
        np.cumsum(_masses(params, np.arange(depth, dtype=float)), out=vals[1:])
        vals[1:] += params.beta1
    if not np.all(np.isfinite(vals)):
        raise RangeOverflow(f"plateau values overflow at depth {depth}")
    return vals


def step_function(params: SelfSimilarParams, depth: int) -> StepFunction:
    """Depth-K truncation of the fixed point, in closed form.

    The fixed point is never produced by iterating the similarity map; the
    closed form is exact and apply_similarity exists to test it. Raises
    RangeOverflow as weight_truncation does, or when a plateau value leaves
    double range.
    """
    if depth < 0:
        raise OutOfRange(f"depth must be >= 0, got {depth}")
    values = _plateau_values(params, depth)
    gaps = params.a ** np.arange(1, depth + 1, dtype=float)
    return StepFunction(
        breakpoints=_freeze(1.0 - gaps),
        values=_freeze(values),
        depth=depth,
    )


def step_value(params: SelfSimilarParams, x: float, depth: int) -> float:
    """Value of the fixed point at x, resolved to the given depth.

    Raises
    ------
    OutOfRange
        x outside [0, 1].
    AtBreakpoint
        x within 1e-15*|x| of some 1 - a^k; the function jumps there and
        has no canonical value.
    DepthExceeded
        x lies beyond 1 - a^(depth+1), where the truncation stops resolving
        plateaus.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"x out of [0,1]: {x!r}")
    gap = 1.0 - x
    if gap <= 0.0:
        raise DepthExceeded("x = 1 is the accumulation point of the breakpoints")
    a = params.a
    # locate k with a^(k+1) < gap < a^k, i.e. x in the k-th plateau
    k = max(0, math.floor(math.log(gap) / math.log(a)))
    while k > 0 and gap > a ** k:
        k -= 1
    while gap <= a ** (k + 1):
        k += 1
    tol = 1e-15 * abs(x)
    for j in (k, k + 1):
        if j >= 1 and abs(gap - a ** j) <= tol:
            raise AtBreakpoint(f"x = {x!r} is the breakpoint 1 - a^{j} within tolerance")
    if k > depth:
        raise DepthExceeded(f"x = {x!r} needs plateau {k}, truncation has {depth}")
    return float(_plateau_values(params, k)[k])


def apply_similarity(params: SelfSimilarParams, f: StepFunction) -> StepFunction:
    """Image of f under the similarity map.

    The image is beta1 on [0, 1-a) and d * f((x-1+a)/a) + beta2 on
    (1-a, 1], again a step function, one level deeper.
    """
    a = params.a
    bps = np.concatenate(([1.0 - a], 1.0 - a + a * f.breakpoints))
    vals = np.concatenate(([params.beta1], params.d * f.values + params.beta2))
    return StepFunction(_freeze(bps), _freeze(vals), f.depth + 1)


def fixed_point_residual(params: SelfSimilarParams, depth: int) -> float:
    """L2 norm of (image of P_K) - P_K on [0, 1 - a^K], K = depth.

    P_K is the closed-form truncation; the restriction excludes the last
    interval where the depth-(K+1) image resolves one more plateau than
    P_K. Must vanish up to roundoff, relative to max(|beta1|, |beta2|, 1),
    for every valid parameter tuple.
    """
    if depth < 2:
        raise OutOfRange(f"depth must be >= 2, got {depth}")
    vals = _plateau_values(params, depth)
    image = np.empty(depth)
    image[0] = params.beta1
    image[1:] = params.d * vals[: depth - 1] + params.beta2
    diff = image - vals[:depth]
    lengths = (1.0 - params.a) * params.a ** np.arange(depth, dtype=float)
    # scaled by a power of two before squaring: exact, and the squares stay in range
    e = math.frexp(float(np.max(np.abs(diff))))[1]
    diff = np.ldexp(diff, -e)
    return math.ldexp(math.sqrt(float(np.sum(diff * diff * lengths))), e)


def weight_truncation(params: SelfSimilarParams, N: int) -> DiscreteWeight:
    """First N point masses of the weight.

    Raises RangeOverflow, before any length-N array exists, when a^N
    underflows to zero or a mass leaves double range: |d| > 1 grows the
    masses, and with |d| < 1 the last one can underflow to 0. The step
    function refuses no such order: its plateau values lose those masses
    to rounding long before they underflow.
    """
    if N < 1:
        raise OutOfRange(f"N must be >= 1, got {N}")
    _check_order(params, N)
    if _masses(params, np.array([N - 1.0]))[0] == 0.0:  # the smallest mass when |d| < 1
        raise RangeOverflow(f"masses underflow to 0 at N = {N}")
    gaps = params.a ** np.arange(1, N + 1, dtype=float)
    return DiscreteWeight(
        positions=_freeze(1.0 - gaps),
        masses=_freeze(_masses(params, np.arange(N, dtype=float))),
        gaps=_freeze(gaps),
        order=N,
    )
