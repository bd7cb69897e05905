"""Closed-form special objects: the Carlitz period, its generating series,
tensor powers, and Thakur's geometric gamma.

The fundamental period is pinned down only up to F_q^x by the theory; we
fix it through the canonical (q-1)-st root convention of inf_nth_root
(smallest discrete-log leading coefficient), and every report repeats
that convention.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .arith import FPoly, Fq, q_split
from .errors import PoleArgument
from .infinity import InfElem, inf_nth_root
from .tate import Decay, TateSeries


def _theta_root_setup(q, prec_val):
    """Canonical (-theta)^(1/(q-1)) at the requested valuation precision."""
    p, a = q_split(q)
    base = Fq.get(p, a, 1)
    minus_theta = InfElem.theta(base, prec_val).scale(base.neg(1))
    return inf_nth_root(minus_theta, q - 1)


def _omega_decay(q, n=1):
    """Omega^n's t^k coefficient has valuation at least n q^(k // n + 1)/(q-1),
    reached at every k = 0 mod n: the prefactor gives nq/(q-1), and the k
    factors of t come at least from the smallest i, n at a time."""
    return Decay("qpow", 0, Fraction(n * q, q - 1), q, n)


def omega_series(q, T, N, n=1):
    """Tate series of Omega^n, the n-th power of the Carlitz-period
    generator, at truncation T.

    Product over i >= 1 of (1 - t/theta^(q^i))^n times the canonical
    (-theta)^(-nq/(q-1)) prefactor; factor i adds the binomial terms
    C(n, k)(-1)^k t^k theta^(-k q^i) that are nonzero mod p.  Enough
    factors are taken that every recorded coefficient is exact modulo the
    declared precision.  The attached decay is _omega_decay's.
    """
    # coefficient precision generous enough to survive one inverse twist
    prec_val = q * (N + T) + 4 * q
    root = _theta_root_setup(q, prec_val)
    fld, e = root.field, root.e
    prefactor = root ** (-q * n)
    # number of product factors: factor i shifts coefficients by q^i
    imax = 1
    while q ** (imax + 1) <= prec_val + q:
        imax += 1
    binomials = [(k, fld.scalar((-1) ** k * comb(n, k))) for k in range(1, n + 1)]
    binomials = [(k, c) for k, c in binomials if c]
    one = InfElem.const(fld, 1, prec_val, e)
    zero = InfElem.zero(fld, prec_val, e)
    coeffs = [one] + [zero] * (T - 1)
    for i in range(1, imax + 1):
        monos = [(k, InfElem(fld, e, {k * q**i * e: c}, prec_val * e)) for k, c in binomials]
        new = list(coeffs)
        # before factor i only t^0 .. t^((i-1)n) are nonzero
        for j in range(min(T - 1, i * n), 0, -1):
            for k, mono in monos:
                if k <= j:
                    new[j] = new[j] + coeffs[j - k] * mono
        coeffs = new
    coeffs = [c * prefactor for c in coeffs]
    return TateSeries(coeffs, _omega_decay(q, n))


def carlitz_period(q, N, with_report=False):
    """The Carlitz period via 1/Omega(theta), cross-checked against the
    direct product (-theta)^(q/(q-1)) * prod (1 - theta^(1-q^i))^(-1)."""
    margin = 8
    # truncation for evaluation at theta: tail kicks in once q^i >> i
    T = 2
    decay = _omega_decay(q)
    while decay.bound(T) - T < N + margin:
        T += 1
    omega = omega_series(q, T + 2, N + margin)
    omega_at_theta = omega.eval_theta()
    # 1/Omega(theta) is known to prec - 2 lead, so pi keeps N e units from
    # Omega(theta) cut at N e + 2 lead
    e, lead = omega_at_theta.e, omega_at_theta.lead_exp
    pi_main = omega_at_theta.truncate(N * e + 2 * lead).inverse()

    # independent product evaluation
    prec_val = N + margin
    root = _theta_root_setup(q, prec_val)
    fld, e = root.field, root.e
    acc = root**q
    i = 1
    while q**i - 1 <= prec_val:
        factor = InfElem.const(fld, 1, prec_val, e) - InfElem(fld, e, {(q**i - 1) * e: 1}, prec_val * e)
        acc = acc / factor
        i += 1
    pi_alt = acc.with_prec_val(N)

    residual = (pi_main - pi_alt).residual_val()
    if with_report:
        return pi_main, {
            "alt": pi_alt,
            "residual": residual,
            "omega_at_theta": omega_at_theta,
            "convention": "canonical (q-1)-st root: least discrete-log leading coefficient",
        }
    return pi_main


def carlitz_tensor_motive(n, q, N=120):
    """Rank-one motive with sigma acting through (t - theta)^n, paired with
    the n-th power of the Omega series as its trivialization."""
    from .fixtures import carlitz_tensor_fixture

    return carlitz_tensor_fixture(n, q, N=N)


def _pole_guard(num: FPoly, den: FPoly):
    field = num.field
    if num.is_zero():
        raise PoleArgument("gamma argument is zero")
    quot, rem = num.divmod(den)
    if rem.is_zero():
        # x in A: pole iff -x is monic (in char 2, -A+ = A+)
        neg = -quot
        if not neg.is_zero() and neg.coeffs[-1] == 1:
            raise PoleArgument("gamma argument lies in -A_+")


def geometric_gamma(x, N):
    """Thakur's geometric gamma x^(-1) prod_{a monic} (1 + x/a)^(-1).

    x may be an exact rational function (numerator, denominator FPoly pair
    over F_q) or an InfElem.  Monic polynomials are folded degree block by
    degree block through the Carlitz difference operators, which turns the
    q^d factors of degree d into a single exact expression; blocks stop
    once every remaining factor is 1 within precision.

    Returns (value, report) with the recorded tail bound.
    """
    margin = 6
    if isinstance(x, tuple):
        num, den = x
        _pole_guard(num, den)
        base = num.field
        xv = InfElem.from_poly(base, num.coeffs, N + margin) / InfElem.from_poly(
            base, den.coeffs, N + margin
        )
        q = base.q
    else:
        xv = x
        q = xv.field.q
        if xv.is_zero():
            raise PoleArgument("gamma argument is zero")
        v = xv.val()
        if v <= 0:
            poly_part = {k: c for k, c in xv.coeffs.items() if k <= 0}
            rest = {k: c for k, c in xv.coeffs.items() if k > 0}
            if not rest and poly_part:
                neg = [xv.field.neg(poly_part.get(-j * xv.e, 0)) for j in range(0, -int(v) + 1)]
                if all(k % xv.e == 0 for k in poly_part) and neg[-1] == 1:
                    raise PoleArgument("gamma argument lies in -A_+")
    fld, e = xv.field, xv.e
    theta = InfElem.theta(fld, N + margin, e)
    one = InfElem.const(fld, 1, N + margin, e)
    acc = one + xv  # degree-0 block
    ed = xv  # e_d(x), F_q-linear evaluation at x
    Dd = one  # D_d
    d = 0
    tail_bound = None
    while True:
        d += 1
        theta_qd = theta ** (q**d)
        Dd_new = (theta_qd - theta) * Dd**q
        ed_new = ed**q - (Dd ** (q - 1)) * ed
        ed, Dd = ed_new, Dd_new
        block = ed / Dd
        bval = block.residual_val()
        if bval >= N + margin - 1:
            tail_bound = bval
            break
        acc = acc * (one + block)
        if d > 64:
            raise RuntimeError("gamma block recursion failed to converge")
    value = (xv * acc).inverse().with_prec_val(N)
    report = {
        "blocks": d,
        "tail_valuation": tail_bound,
        "precision": N,
    }
    return value, report
