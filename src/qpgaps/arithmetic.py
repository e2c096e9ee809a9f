"""Continued fractions, Diophantine diagnostics and Liouville-type frequency synthesis.

A frequency alpha in (0,1) is carried together with its partial quotients and
convergents p_k/q_k.  The quotient extraction runs in mpmath extended precision
so that deep convergents of synthesized (fast-growing) expansions stay exact;
||k alpha|| is exact integer arithmetic on alpha's decimal string, rounded once
to float; the float image of alpha serves the dynamical routines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import ConfigError, RationalAlphaError

DEFAULT_DPS = 80
Q_CAP = 10**15          # convergent denominators beyond this are never built
TAIL_EXPONENT = 0.75    # beta estimate examines convergents with q >= k_max**TAIL_EXPONENT


def norm_dist(x):
    """Distance from x to the nearest integer, in [0, 1/2]."""
    return abs(x - round(x))


@dataclass(frozen=True)
class Frequency:
    """An irrational alpha in (0,1) with its continued-fraction data.

    convergents start at (p_0, q_0) = (0, 1); cf holds a_1, a_2, ...
    value_str is alpha to the working decimal precision (source of truth for
    ||k alpha|| evaluations), value its double-precision image.
    """

    value: float
    cf: tuple
    convergents: tuple
    value_str: str
    truncated: bool = False
    growth_levels: tuple = ()

    def signed_fracs(self, ks):
        """k alpha - round(k alpha) for each k in ks, correctly rounded from
        value_str's exact fraction num / den: r / den for r = k num mod den
        moved into (-den/2, den/2], a tie rounding k alpha to even (mp.nint)."""
        num, den = Fraction(self.value_str).as_integer_ratio()
        qr = [divmod(k * num, den) for k in ks]
        return [(r - den if 2 * r > den or (2 * r == den and q % 2) else r) / den for q, r in qr]

    def norm_kalpha(self, k):
        """||k alpha||_{R/Z}, exact and then rounded once to a float."""
        return abs(self.signed_fracs((k,))[0])

    def denominators(self):
        return tuple(q for _, q in self.convergents)

    def largest_convergent(self, k_max):
        """Largest (p, q) with q <= k_max; ConfigError when none is."""
        fitting = [pq for pq in self.convergents if pq[1] <= k_max]
        if not fitting:
            raise ConfigError(f"no convergent with q <= {k_max}")
        return fitting[-1]

    def to_record(self, beta):
        return (f"{float(self.value).hex()}, {float(beta)!r}, "
                + " ".join(str(a) for a in self.cf))


def _convergents_from_cf(quotients):
    ps, qs = [0], [1]
    p_prev, q_prev = 1, 0      # (p_{-1}, q_{-1})
    p, q = 0, 1
    for a in quotients:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        ps.append(p)
        qs.append(q)
    return tuple(zip(ps, qs))


def _cf_value_str(quotients, dps):
    with mp.workdps(dps):
        x = mpf(0)
        for a in reversed(quotients):
            x = 1 / (a + x)
        return mp.nstr(x, dps - 5, strip_zeros=False)


def from_cf(quotients, truncated=False, growth_levels=()):
    """Build a Frequency from explicit partial quotients."""
    quotients = tuple(int(a) for a in quotients)
    if not quotients or any(a < 1 for a in quotients):
        raise ValueError("partial quotients must be positive integers")
    q_last = _convergents_from_cf(quotients)[-1][1]
    dps = max(DEFAULT_DPS, 2 * len(str(q_last)) + 30)
    value_str = _cf_value_str(quotients, dps)
    return Frequency(
        value=float(mpf(value_str)),
        cf=quotients,
        convergents=_convergents_from_cf(quotients),
        value_str=value_str,
        truncated=truncated,
        growth_levels=tuple(growth_levels),
    )


def expand_cf(alpha, depth):
    """Partial-quotient expansion of alpha in (0,1) to the requested depth,
    in DEFAULT_DPS decimal digits.

    Raises RationalAlphaError when a quotient overflows the precision budget
    (rational input).  Depth auto-truncates, with the truncated flag set, once
    |alpha - p_k/q_k| falls below the precision floor.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dps = DEFAULT_DPS
    with mp.workdps(dps):
        a0 = mpf(alpha)
        if not (0 < a0 < 1):
            raise ValueError("alpha must lie strictly in (0, 1)")
        quotient_cap = mpf(10) ** (dps - 8)
        floor = mpf(10) ** (-(dps - 8))
        x = a0
        quotients = []
        q_prev, q = 0, 1
        truncated = False
        for _ in range(depth):
            inv = 1 / x
            a = int(mp.floor(inv))
            if a < 1 or mpf(a) > quotient_cap:
                raise RationalAlphaError(
                    f"rational input detected after {len(quotients)} quotients"
                )
            frac = inv - a
            quotients.append(a)
            q_prev, q = q, a * q + q_prev
            if frac < floor:
                if len(quotients) < depth:
                    # cannot distinguish from a rational at this precision
                    raise RationalAlphaError(
                        f"rational to working precision after {len(quotients)} quotients"
                    )
                break
            if mpf(q) ** 2 > 1 / floor:
                truncated = len(quotients) < depth
                break
            x = frac
        value_str = mp.nstr(a0, dps - 5, strip_zeros=False)
    return Frequency(
        value=float(a0),
        cf=tuple(quotients),
        convergents=_convergents_from_cf(quotients),
        value_str=value_str,
        truncated=truncated,
    )


def golden_mean(depth=40):
    """(sqrt(5)-1)/2 from high-precision arithmetic."""
    with mp.workdps(DEFAULT_DPS):
        return expand_cf((mp.sqrt(5) - 1) / 2, depth)


def sqrt2_minus_1(depth=30):
    with mp.workdps(DEFAULT_DPS):
        return expand_cf(mp.sqrt(2) - 1, depth)


@dataclass(frozen=True)
class BetaEstimate:
    """Finite-range estimate of the exponential approximation rate of alpha.

    beta is the maximum of -ln||k alpha||/k over the examined tail window
    [k_lo, k_max]; witnesses are the (k, ratio) pairs achieving the running
    maximum.  monotone_growth flags witness ratios still increasing at the end
    of the range (the finite-data stand-in for beta = +infinity).
    """

    beta: float
    witnesses: tuple
    k_lo: int
    k_max: int
    monotone_growth: bool = False


def _ratio(freq, k):
    d = freq.norm_kalpha(k)
    if d == 0.0:
        raise ZeroDivisionError(f"k alpha is an exact integer at k={k}")
    return -math.log(d) / abs(k)


def estimate_beta(freq, k_max):
    """Estimate beta(alpha) from convergent denominators q <= k_max.

    The limsup defining beta ignores any finite prefix, so the estimator only
    examines the tail window q >= k_max**TAIL_EXPONENT (falling back to the
    deepest convergent when the window is empty).  The maximum of
    -ln||k alpha||/k over the window is attained at a convergent denominator,
    by the best-approximation property of convergents.
    """
    denominators = sorted({q for _, q in freq.convergents if 1 <= q <= k_max})
    if not denominators:
        raise ValueError(f"no convergent with q <= {k_max}")
    k_lo = max(1, int(k_max**TAIL_EXPONENT))
    examined = [q for q in denominators if q >= k_lo]
    if not examined:
        examined = [denominators[-1]]
    k_lo_eff = examined[0]

    ratios = [(q, _ratio(freq, q)) for q in examined]
    witnesses = []
    best = -math.inf
    for q, r in ratios:
        if r > best:
            best = r
            witnesses.append((q, r))
    tail3 = [r for _, r in ratios[-3:]]
    monotone = (
        len(ratios) >= 3
        and all(tail3[i] < tail3[i + 1] for i in range(len(tail3) - 1))
        and witnesses[-1][0] == examined[-1]
    )
    return BetaEstimate(
        beta=best,
        witnesses=tuple(witnesses),
        k_lo=k_lo_eff,
        k_max=k_max,
        monotone_growth=monotone,
    )


def synth_liouville(target_beta, levels, seed):
    """Construct alpha whose convergents satisfy q_{n+1} in [e^{b q_n}, 2 e^{b q_n}].

    a_1 is drawn from the seed (reproducible orbit randomization); its floor
    scales like 1/target_beta so that the finite-range beta estimate over the
    built growth levels lands within 10% of the target.  Growth stops early,
    with the truncated flag set, when the next denominator would overflow
    Q_CAP; a tail of eight ones keeps the value irrational past the last
    built level.
    """
    if not target_beta > 0:
        raise ValueError("target_beta must be positive")
    if levels < 3:
        raise ValueError("levels must be >= 3")
    rng = random.Random(seed)
    base = max(3, math.ceil(6.2 / target_beta))
    a1 = base + rng.randrange(0, max(1, base // 4))

    quotients = [a1]
    q_prev, q = 1, a1
    growth_levels = []
    truncated = False
    log_cap = math.log(Q_CAP)
    for n in range(1, levels):
        if target_beta * q > log_cap:
            truncated = True
            break
        target_q = math.exp(target_beta * q)
        a_next = max(1, math.ceil((target_q - q_prev) / q))
        quotients.append(a_next)
        growth_levels.append(n)
        q_prev, q = q, a_next * q + q_prev
    quotients.extend([1] * 8)
    return from_cf(quotients, truncated=truncated, growth_levels=growth_levels)


def rotation_phase_fracs(freq, band_limit):
    """freq.signed_fracs for |k| <= band_limit, whose exactness keeps the
    divisors e^{2 pi i k alpha} - 1 accurate even when ||k alpha|| is tiny."""
    pos = freq.signed_fracs(range(1, band_limit + 1))
    return [-r for r in reversed(pos)] + [0.0] + pos
