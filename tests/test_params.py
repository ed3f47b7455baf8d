import math
from dataclasses import replace

import pytest

from dynkmeans.controller import DynamicKMeans
from dynkmeans.errors import UsageError
from dynkmeans.params import GAMMA_FLOOR, Params, schedule_for
from dynkmeans.verify import cert_controller


def test_defaults_practical():
    p = Params(epsilon=0.5, d=2, delta=256)
    assert p.gamma >= GAMMA_FLOOR
    assert p.lam >= 3 * p.gamma  # robustness balls nest inside the next scale
    assert p.colors >= 2
    assert p.per_color_cap >= 1
    assert p.lambda_cap >= p.colors * p.per_color_cap


@pytest.mark.parametrize("eps", [0.9, 0.5, 0.3, 0.1])
def test_gamma_theta_lam_derive_from_epsilon(eps):
    p = Params(epsilon=eps, d=2, delta=256)
    assert p.gamma == max(math.ceil(eps ** -1.5), math.ceil(GAMMA_FLOOR))
    assert (p.theta, p.lam) == (2.0, 3 * p.gamma)
    q = replace(p, d=3)        # recomputed, not copied
    assert (q.gamma, q.theta, q.lam) == (p.gamma, p.theta, p.lam)


@pytest.mark.parametrize("key", ["gamma", "theta", "lam", "preset"])
def test_derived_values_are_not_parameters(key):
    with pytest.raises(TypeError):
        Params(epsilon=0.5, **{key: 2.0})


def test_basic_range_checks():
    for kw in ({"epsilon": 0.0}, {"epsilon": 1.0}, {"d": 0}, {"delta": 1},
               {"colors": -1}):
        with pytest.raises(UsageError):
            Params(**{"epsilon": 0.5, "d": 2, "delta": 256, **kw})


def test_schedule_structure():
    p = Params(epsilon=0.5, d=2, delta=256)
    s = schedule_for(p)
    assert s.makerobust_div <= s.robust_div  # re-certify above the check level
    assert s.t_cap >= 1
    assert s.radius(1) == s.lam ** 3
    assert s.contamination_radius(0) == s.lam ** 1.5
    assert s.keep_threshold(1) == s.lam ** 4 / s.theta
    assert s.indicator_gammas[0] == 1.0
    assert s.lam ** (3 * s.t_cap) >= p.aspect


def test_schedule_overflow_is_usage_error():
    p = Params(epsilon=1e-21, d=2, delta=256)   # lam ~ 9.5e31 overflows lam**10
    with pytest.raises(UsageError, match="epsilon=1e-21 is too small"):
        schedule_for(p)


@pytest.mark.parametrize("d", [4000, 5000])
def test_huge_d_is_usage_error(d):
    # the default lambda_cap, 2^(d / gamma^(2/3)) times a prefactor,
    # overflows a float from about d = 3,380 at gamma = 6
    with pytest.raises(UsageError, match=f"d={d} is too large"):
        Params(epsilon=0.5, d=d, delta=8)


def test_aspect_and_levels():
    p = Params(epsilon=0.5, d=4, delta=128)
    assert math.isclose(p.aspect, 2 * 128)
    assert 2 ** p.dyadic_levels >= p.aspect


@pytest.mark.parametrize("d,delta", [(1, 64), (2, 256), (3, 512), (4, 128),
                                     (8, 1024)])
def test_no_reachable_dhat_reaches_a_yellow_makerobust(d, delta):
    # The largest finite dhat is 3*gamma*2^L. While its check level is 0,
    # the yellow queue never calls _make_robust on a center whose level is
    # set, so flips that a staged center makes and undoes cannot move the
    # output: CenterIndex's event log may leave them out. A schedule change
    # that breaks this must re-argue staging.
    p = Params(epsilon=0.5, d=d, delta=delta)
    dk = DynamicKMeans(p, k=2)
    top = 3.0 * p.gamma * (1 << p.dyadic_levels)
    assert dk.cent._bound(p.dyadic_levels) == top
    assert dk._smallest_t(top, dk.sched.robust_div) == 0


def test_no_reachable_dhat_reaches_a_yellow_makerobust_under_cert_schedule():
    # The certificate schedule (criteria 12-13, the cert-d1024 golden) puts
    # check levels above 0, but make_robust gives every center with a
    # finite dhat a level at least as high as any finite dhat's check level,
    # so the yellow queue still never calls _make_robust at d=2, delta=1024
    # (from delta=4096 on, the top check level is 2 and this fails).
    p = Params(epsilon=0.5, d=2, delta=1024)
    dk = cert_controller(p)
    bounds = [dk.cent._bound(e) for e in range(p.dyadic_levels + 1)]
    check = max(dk._smallest_t(b, dk.sched.robust_div) for b in bounds)
    make = min(dk._smallest_t(b, dk.sched.makerobust_div) for b in bounds)
    assert (check, make) == (1, 1)
