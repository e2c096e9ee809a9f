import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgaps import arithmetic as ar
from qpgaps.errors import RationalAlphaError

from oracles import brute_force_beta, growth_ratio_table, signed_fracs_reference

# golden mean, sqrt(2) - 1, a Liouville-type synthesis and a golden head
# broken by one deep quotient (||q alpha|| down to about 1e-25)
FRACS_FREQUENCIES = {
    "golden": ar.golden_mean(40),
    "sqrt2_minus_1": ar.sqrt2_minus_1(),
    "liouville": ar.synth_liouville(0.2, 3, seed=14),
    "deep_quotient": ar.from_cf([1] * 11 + [4428663269] + [1] * 8),
}


def test_norm_dist_basics():
    assert ar.norm_dist(0.5) == 0.5
    assert ar.norm_dist(3.25) == 0.25
    assert ar.norm_dist(1.0 - 1e-9) == pytest.approx(1e-9, rel=1e-6)
    assert ar.norm_dist(0.0) == 0.0


def test_norm_dist_integer_shift_property():
    rng = random.Random(0)
    for _ in range(200):
        x = rng.uniform(-5, 5)
        n = rng.randrange(-7, 8)
        assert ar.norm_dist(x + n) == pytest.approx(ar.norm_dist(x), abs=1e-12)
        assert 0.0 <= ar.norm_dist(x) <= 0.5


def test_golden_expansion():
    g = ar.golden_mean(depth=10)
    assert g.cf == (1,) * 10
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert list(g.denominators()) == fib


def test_sqrt2_minus_one_expansion():
    s = ar.sqrt2_minus_1(depth=6)
    assert s.cf == (2,) * 6


def test_rational_input_rejected():
    with pytest.raises(RationalAlphaError):
        ar.expand_cf(0.5, 5)
    with pytest.raises(RationalAlphaError):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ar, "DEFAULT_DPS", 30)
            ar.expand_cf("0.333333333333333333333333333333333333", 30)


def test_convergent_recursion_and_determinant(golden):
    cv = golden.convergents
    cf = golden.cf
    for k in range(1, len(cv) - 1):
        p0, q0 = cv[k - 1]
        p1, q1 = cv[k]
        p2, q2 = cv[k + 1]
        a = cf[k]          # cf[k] = a_{k+1}
        assert q2 == a * q1 + q0
        assert p2 == a * p1 + p0
        assert p1 * q0 - p0 * q1 in (1, -1)


def test_convergent_quality(golden):
    a = golden.value
    for (p, q), (_, q_next) in zip(golden.convergents[:-1], golden.convergents[1:]):
        assert abs(a - p / q) < 1.0 / (q * q_next) + 1e-18


def test_two_sided_best_approximation_bound(golden):
    qs = golden.denominators()
    for k in range(1, len(qs) - 1):
        q, q_next = qs[k], qs[k + 1]
        d = golden.norm_kalpha(q)
        assert d < 1.0 / q_next
        assert d > 1.0 / (q_next + q)


def test_estimate_beta_golden_small(golden):
    est = ar.estimate_beta(golden, 10**4)
    assert est.beta <= 0.01
    assert not est.monotone_growth


def test_estimate_beta_matches_brute_force(golden):
    est = ar.estimate_beta(golden, 2000)
    brute, arg = brute_force_beta(golden, est.k_lo, est.k_max)
    assert brute == est.beta
    assert arg in set(golden.denominators())


def test_estimate_beta_brute_force_liouville():
    f = ar.synth_liouville(0.5, 4, seed=7)
    anchors = [f.denominators()[n] for n in f.growth_levels]
    k_max = 2 * max(anchors)
    est = ar.estimate_beta(f, k_max)
    assert 0.45 <= est.beta <= 0.55
    brute, _ = brute_force_beta(f, est.k_lo, est.k_max)
    assert brute == est.beta


def test_estimate_beta_needs_convergents():
    g = ar.golden_mean(depth=6)
    with pytest.raises(ValueError):
        ar.estimate_beta(g, 0)


def test_synth_liouville_growth_law():
    for target, seed in [(0.3, 7), (0.2, 14), (0.6, 1)]:
        f = ar.synth_liouville(target, 4, seed=seed)
        assert f.growth_levels
        for n, q_n, ratio in growth_ratio_table(f):
            assert target <= ratio <= target + math.log(2.0) / q_n


def test_synth_liouville_hits_target():
    for target, seed in [(0.3, 7), (0.5, 3)]:
        f = ar.synth_liouville(target, 4, seed=seed)
        anchors = [f.denominators()[n] for n in f.growth_levels]
        est = ar.estimate_beta(f, 2 * max(anchors))
        assert abs(est.beta - target) <= 0.1 * target


def test_synth_liouville_deterministic():
    a = ar.synth_liouville(0.3, 4, seed=11)
    b = ar.synth_liouville(0.3, 4, seed=11)
    assert a == b


def test_synth_liouville_rejects_bad_input():
    with pytest.raises(ValueError):
        ar.synth_liouville(0.0, 4, seed=1)
    with pytest.raises(ValueError):
        ar.synth_liouville(0.3, 2, seed=1)


def test_synth_liouville_truncates_at_cap():
    f = ar.synth_liouville(0.5, 6, seed=7)
    assert f.truncated


def test_small_divisor_best_approximation(golden):
    qs = golden.denominators()
    for k in range(4, 10):
        q, q_next = qs[k], qs[k + 1]
        val = golden.norm_kalpha(q)
        assert 0.5 / q_next <= val <= 2.0 / q_next


def test_small_divisor_simple_cases():
    g = ar.expand_cf(0.3, 1)          # ||1 * 0.3|| = 0.3 regardless of depth
    assert g.norm_kalpha(1) == pytest.approx(0.3, abs=1e-12)
    gg = ar.golden_mean(20)
    assert gg.norm_kalpha(5) == gg.norm_kalpha(-5)


def test_rotation_phase_fracs(golden):
    fr = ar.rotation_phase_fracs(golden, 5)
    assert fr[5] == 0.0
    for k in range(1, 6):
        assert fr[5 + k] == -fr[5 - k]
        assert abs(fr[5 + k]) == pytest.approx(golden.norm_kalpha(k), abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(FRACS_FREQUENCIES)),
       ks=st.lists(st.integers(1, 4096).flatmap(lambda k: st.sampled_from([k, -k])),
                   min_size=1, max_size=64))
def test_signed_fracs_match_the_extended_precision_reference(name, ks):
    freq = FRACS_FREQUENCIES[name]
    assert freq.signed_fracs(ks) == signed_fracs_reference(freq, ks)


@pytest.mark.parametrize("name", sorted(FRACS_FREQUENCIES))
def test_signed_fracs_match_the_reference_at_convergent_denominators(name):
    """Up to 4096 against the reference at its own precision.  Past that it
    runs with 60 more digits: at its own precision the product q alpha is off
    by about q 10^-dps, a few 1e-14 of ||q alpha|| where that falls to value_str's
    resolution (the Liouville and deep-quotient frequencies' last denominators)."""
    freq = FRACS_FREQUENCIES[name]
    ks = [s * q for q in freq.denominators() for s in (1, -1)]
    small = [k for k in ks if abs(k) <= 4096]
    assert freq.signed_fracs(small) == signed_fracs_reference(freq, small)
    assert freq.signed_fracs(ks) == signed_fracs_reference(freq, ks, extra_dps=60)


def test_signed_fracs_break_ties_to_even():
    """At alpha = 1/4, k alpha - round(k alpha) is a tie at every k = 2 mod 4:
    rounded to the even integer, as mpmath's nint rounds it."""
    freq = ar.Frequency(value=0.25, cf=(4,), convergents=((0, 1), (1, 4)), value_str="0.25")
    ks = [2, -2, 6, -6, 10, 4, 1, -3]
    assert freq.signed_fracs(ks) == signed_fracs_reference(freq, ks)
    assert freq.signed_fracs(ks[:4]) == [0.5, -0.5, -0.5, 0.5]
