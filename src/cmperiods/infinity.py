"""Arithmetic in ramified constant-extended Laurent-series fields.

An InfElem models an element of F_{q^m}((u)) with u = theta^(-1/e): a
sparse map exponent -> coefficient together with an absolute precision
bound (all exponents >= prec are unknown, all unrecorded exponents below
it are zero).  Valuations are normalized so val(theta) = -1, hence
val(u) = 1/e and val = exponent/e.  This is the computable stand-in for
the completion of the algebraic closure of F_q((1/theta)).

Precision is absolute, never relative: telescoping-sum arguments for
quasi-periods need hard tail bounds.  Dense multiplications, of InfElems
and of whole t-series alike (tate.py), go through one Kronecker packing
kernel so that big products cost one Python long multiplication instead
of a quadratic dict loop.

The same machinery, re-tagged with the variable "t", performs
factorization over F_q((1/t)) for CM-field validation.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm

from .arith import Fq, poly_div_linear, poly_divmod, poly_eval, poly_gcd, poly_norm, poly_taylor
from .errors import (
    DivisionByApparentZero,
    NotAPower,
    PrecisionExhausted,
)

try:  # GMP multiplication is 40x faster on the megabit integers the
    # packed series products produce; plain ints remain a correct fallback
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover
    _mpz = int

_PACK_THRESHOLD = 3000  # len(a)*len(b) above which packing wins


class InfElem:
    """Truncated Puiseux series over a finite field with tracked precision."""

    __slots__ = ("field", "e", "coeffs", "prec", "var")

    def __init__(self, field: Fq, e: int, coeffs: dict, prec: int, var="theta"):
        self.field = field
        self.e = e
        self.prec = prec
        self.var = var
        self.coeffs = {k: c for k, c in coeffs.items() if c and k < prec}

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(field, prec, e=1, var="theta"):
        return InfElem(field, e, {}, prec * e, var)

    @staticmethod
    def const(field, c, prec, e=1, var="theta"):
        return InfElem(field, e, {0: c} if c else {}, prec * e, var)

    @staticmethod
    def theta(field, prec, e=1, var="theta"):
        return InfElem(field, e, {-e: 1}, prec * e, var)

    @staticmethod
    def from_poly(field, coeffs, prec, var="theta"):
        """Polynomial in theta: coeffs[j] is the coefficient of theta^j."""
        data = {}
        for j, c in enumerate(coeffs):
            if c:
                data[-j] = c
        return InfElem(field, 1, data, prec, var)

    @staticmethod
    def monomial(field, c, k, prec_units, e=1, var="theta"):
        """c * u^k with absolute precision given directly in exponent units."""
        return InfElem(field, e, {k: c} if c else {}, prec_units, var)

    # -- inspection -----------------------------------------------------

    def is_zero(self):
        """Zero at the recorded precision."""
        return not self.coeffs

    @property
    def lead_exp(self):
        return min(self.coeffs) if self.coeffs else self.prec

    def val(self):
        """Valuation as an exact Fraction, or None for (0 mod u^prec)."""
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.e)

    @property
    def prec_val(self):
        return Fraction(self.prec, self.e)

    def lead_coeff(self):
        if not self.coeffs:
            raise DivisionByApparentZero("element is zero at its precision")
        return self.coeffs[min(self.coeffs)]

    def residual_val(self):
        """val(self) when nonzero, else the precision bound (lower bound)."""
        v = self.val()
        return v if v is not None else self.prec_val

    def __repr__(self):
        if not self.coeffs:
            return f"O({self.var}^{-self.prec_val})"
        ks = sorted(self.coeffs)
        parts = []
        for k in ks[:6]:
            expo = Fraction(-k, self.e)
            c = self.coeffs[k]
            if expo == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*{self.var}^({expo})")
        if len(ks) > 6:
            parts.append("...")
        return " + ".join(parts) + f" + O({self.var}^{-self.prec_val})"

    # -- field/ramification alignment ------------------------------------

    def lift(self, field: Fq, e: int):
        """Re-express in a larger constant field and/or finer ramification."""
        if field is self.field and e == self.e:
            return self
        if e % self.e:
            raise ValueError("ramification index must refine the current one")
        s = e // self.e
        phi = self.field.embed_into(field) if field is not self.field else (lambda x: x)
        return InfElem(field, e, {k * s: phi(c) for k, c in self.coeffs.items()}, self.prec * s, self.var)

    @staticmethod
    def align(a: "InfElem", b: "InfElem"):
        if a.var != b.var:
            raise ValueError("mixed series variables")
        field = a.field.compositum(b.field)
        e = lcm(a.e, b.e)
        return a.lift(field, e), b.lift(field, e)

    def truncate(self, prec_units):
        if prec_units >= self.prec:
            return self
        return InfElem(self.field, self.e, {k: c for k, c in self.coeffs.items() if k < prec_units}, prec_units, self.var)

    def at_prec(self, prec_units):
        """The recorded digits below prec_units, read as known to exactly
        prec_units.  For a Newton iterate, an exact approximation, raising
        the precision claims only that the digits past it are zero."""
        return InfElem(self.field, self.e, self.coeffs, prec_units, self.var)

    def with_prec_val(self, prec_val):
        return self.truncate(int(prec_val * self.e))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        a, b = InfElem.align(self, other)
        f = a.field
        prec = min(a.prec, b.prec)
        out = dict(a.coeffs)
        for k, c in b.coeffs.items():
            s = f.add(out.get(k, 0), c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return InfElem(f, a.e, out, prec, a.var)

    def __neg__(self):
        f = self.field
        return InfElem(f, self.e, {k: f.neg(c) for k, c in self.coeffs.items()}, self.prec, self.var)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = InfElem.align(self, other)
        f = a.field
        la = a.lead_exp
        lb = b.lead_exp
        prec = min(a.prec + lb, b.prec + la)
        if not a.coeffs or not b.coeffs:
            return InfElem(f, a.e, {}, prec, a.var)
        if len(a.coeffs) * len(b.coeffs) > _PACK_THRESHOLD and f.size <= (1 << 12):
            packed = _kronecker_mul([a], [b], 1)
            if packed is not None:
                return packed[0]
        out = {}
        for k1, c1 in a.coeffs.items():
            for k2, c2 in b.coeffs.items():
                k = k1 + k2
                if k >= prec:
                    continue
                s = f.add(out.get(k, 0), f.mul(c1, c2))
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return InfElem(f, a.e, out, prec, a.var)

    def scale(self, c):
        """Multiply by a constant of the same field."""
        f = self.field
        if not c:
            return InfElem(f, self.e, {}, self.prec, self.var)
        return InfElem(f, self.e, {k: f.mul(c, v) for k, v in self.coeffs.items()}, self.prec, self.var)

    def mono_mul(self, c, k):
        """Multiply by the exact monomial c*u^k (no precision loss beyond shift)."""
        f = self.field
        if not c:
            return InfElem(f, self.e, {}, self.prec + k, self.var)
        return InfElem(f, self.e, {kk + k: f.mul(c, v) for kk, v in self.coeffs.items()}, self.prec + k, self.var)

    def inverse(self):
        if not self.coeffs:
            raise DivisionByApparentZero("division by zero at precision")
        f = self.field
        L = self.lead_exp
        relprec = self.prec - L
        if relprec <= 0:
            raise PrecisionExhausted("no significant digits left for inversion")
        # self = c*u^L * unit with unit = 1 + O(u).  The Newton step
        # y <- y - y*(unit*y - 1) doubles the correct digits of 1/unit, so
        # each step runs at twice the relative precision of the last.
        cinv = f.inv(self.coeffs[L])
        unit = self.mono_mul(cinv, -L)
        y = InfElem(f, self.e, {0: 1}, 1, self.var)
        while y.prec < relprec:
            w = min(2 * y.prec, relprec)
            y = y.at_prec(w)
            err = unit.truncate(w) * y - InfElem(f, self.e, {0: 1}, w, self.var)
            y = y - y * err
        return y.mono_mul(cinv, -L)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return InfElem(self.field, self.e, {0: 1}, max(self.prec - self.lead_exp, 1), self.var)
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    # -- Frobenius and roots ----------------------------------------------

    def frobenius(self, n):
        """Full q^n-power map; n may be negative (then exponents must divide)."""
        if n == 0:
            return self
        f = self.field
        q = f.q
        if n > 0:
            s = q**n
            return InfElem(f, self.e, {k * s: f.frob_q(c, n) for k, c in self.coeffs.items()}, self.prec * s, self.var)
        s = q ** (-n)
        out = {}
        for k, c in self.coeffs.items():
            if k % s:
                raise NotAPower(f"exponent {k} not divisible by q^{-n}")
            out[k // s] = f.frob_q(c, n)
        return InfElem(f, self.e, out, -(-self.prec // s), self.var)

    def nth_root(self, n):
        """Canonical n-th root, extending ramification/constants as needed.

        Among the n-th roots in the constructed field, the one whose
        leading coefficient has the smallest discrete-log index with
        respect to the recorded field generator is returned.
        """
        if n <= 0:
            raise ValueError("root index must be positive")
        if not self.coeffs:
            raise DivisionByApparentZero("n-th root of zero at precision")
        if n == 1:
            return self
        p = self.field.p
        v = 0
        m = n
        while m % p == 0:
            m //= p
            v += 1
        elem = self
        if v:
            elem = elem._p_power_root(p, v)
        if m > 1:
            elem = elem._prime_to_p_root(m)
        return elem

    def _p_power_root(self, p, v):
        # exponents divide by p^v after refining ramification; coefficients
        # take inverse Frobenius (fields are perfect)
        s = p**v
        f = self.field
        g = 0
        for k in self.coeffs:
            g = gcd(g, k)
        scale = s // gcd(s, g)
        elem = self.lift(f, self.e * scale) if scale > 1 else self
        out = {}
        for k, c in elem.coeffs.items():
            out[k // s] = elem.field.frob(c, -v)
        return InfElem(elem.field, elem.e, out, -(-elem.prec // s), self.var)

    def _prime_to_p_root(self, n):
        f = self.field
        L = self.lead_exp
        g = gcd(n, L)
        scale = n // g
        elem = self.lift(f, self.e * scale) if scale > 1 else self
        L = elem.lead_exp
        c = elem.coeffs[L]
        fld, croot = _const_nth_root(elem.field, c, n)
        elem = elem.lift(fld, elem.e)
        L = elem.lead_exp
        # strip the leading monomial: elem = c u^L * unit, then lift the
        # root y0 = 1 of y^n - unit; it is simple, n being prime to p
        unit = elem.mono_mul(fld.inv(elem.coeffs[L]), -L)
        zero = InfElem(fld, elem.e, {}, unit.prec, self.var)
        one = InfElem(fld, elem.e, {0: 1}, unit.prec, self.var)
        y = _hensel_lift([-unit] + [zero] * (n - 1) + [one], 1, fld, 0, elem.e)
        root = y.mono_mul(croot, L // n)
        # absolute precision: d(a^(1/n)) = da / (n a^((n-1)/n))
        lead_val = Fraction(L, elem.e)
        prec_v = Fraction(elem.prec, elem.e) - Fraction(n - 1, n) * lead_val
        return root.truncate(int(prec_v * root.e))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        f = self.field
        return {
            "q": f.q,
            "m": f.m,
            "p": f.p,
            "a": f.a,
            "modulus": list(f.modulus),
            "var": self.var,
            "e": self.e,
            "leading_exponent": self.lead_exp if self.coeffs else None,
            "coeffs": [[k, list(f.digits(c))] for k, c in sorted(self.coeffs.items())],
            "prec_N": self.prec,
        }

    @staticmethod
    def from_json(obj):
        f = Fq.get(obj["p"], obj["a"], obj["m"], tuple(obj["modulus"]))
        coeffs = {int(k): f.from_digits(d) for k, d in obj["coeffs"]}
        return InfElem(f, obj["e"], coeffs, obj["prec_N"], obj.get("var", "theta"))


def align_all(values):
    """values lifted to one constant field and ramification, the smallest
    that holds them all, together with that field and e."""
    field, e = values[0].field, values[0].e
    for v in values[1:]:
        field = field.compositum(v.field)
        e = lcm(e, v.e)
    return [v.lift(field, e) for v in values], field, e


def _const_nth_root(field: Fq, c: int, n: int):
    """Smallest canonical constant-field extension containing an n-th root
    of c, together with the canonical (least dlog) root."""
    for mult in range(1, 64 * n + 1):
        mm = field.m * mult
        big = Fq.get(field.p, field.a, mm) if mult > 1 else field
        cc = field.embed_into(big)(c) if big is not field else c
        order = big.size - 1
        g = gcd(n, order)
        if big.pow(cc, order // g) != 1:
            continue
        k = big.dlog(cc)
        # solve s*n = k mod order; solutions s0 + j*(order/g)
        if k % g:
            continue
        sub = order // g
        s0 = (k // g) * pow(n // g, -1, sub) % sub
        return big, big.pow(big.gen, s0)
    raise RuntimeError("constant-field root search exceeded bounds")


# ---------------------------------------------------------------------------
# packed dense multiplication


def _kronecker_mul(a, b, T):
    """Product of two t-series to t^T through one Kronecker substitution.

    a and b list the InfElem coefficients of t^0, t^1, ... over one field
    and ramification; an InfElem product is the case T = 1.  The t-index,
    the u-exponent and the base-p digits of the coefficient field occupy
    one integer together (Harvey, JSC 2009), so both operands become
    single Python longs whose product is unpacked slotwise.  Every output
    index takes its precision from the untrimmed operands by the standard
    rule min(prec_a + lead_b, prec_b + lead_a).  Only then is each operand
    coefficient trimmed: a digit of a[i] at exponent x is packed only if
    x + lead(b[j]) < prec_{i+j} for some nonzero b[j], and symmetrically
    for b, so trimming drops exactly the digits that cannot reach a kept
    output digit.  A slot is the narrowest of 8, 16, 32 and 64 bits that
    holds the accumulation bound (p-1)^2 * n * min(span) * min(len);
    returns None when even 64 bits do not.
    """
    fld = a[0].field
    e = a[0].e
    var = a[0].var
    n = fld.n
    stride = 2 * n - 1
    leads_a = [c.lead_exp for c in a]
    precs_a = [c.prec for c in a]
    leads_b = [c.lead_exp for c in b]
    precs_b = [c.prec for c in b]
    precs = [
        min(
            min(precs_a[i] + leads_b[k - i], precs_b[k - i] + leads_a[i])
            for i in range(max(0, k - len(b) + 1), min(k + 1, len(a)))
        )
        for k in range(T)
    ]

    def trim(coeffs, other):
        # digits of coeffs[i] at or above max_j (prec_{i+j} - lead other[j])
        # over nonzero other[j] reach no kept output digit
        live = [(j, o.lead_exp) for j, o in enumerate(other) if o.coeffs]
        out = []
        for i, c in enumerate(coeffs):
            cut = max((precs[i + j] - lead for j, lead in live if i + j < T), default=None)
            if cut is None or not c.coeffs:
                out.append({})
            elif max(c.coeffs) < cut:
                out.append(c.coeffs)
            else:
                out.append({k: v for k, v in c.coeffs.items() if k < cut})
        return out

    def extent(dicts):
        keys = [k for d in dicts if d for k in (min(d), max(d))]
        return (min(keys), max(keys)) if keys else (None, None)

    da = trim(a, b)
    db = trim(b, a)
    la, ta = extent(da)
    lb, tb = extent(db)
    if la is None or lb is None:
        return [InfElem(fld, e, {}, prec_k, var) for prec_k in precs]
    span_a = ta - la + 1
    span_b = tb - lb + 1
    span = span_a + span_b
    bound = (fld.p - 1) ** 2 * n * min(span_a, span_b) * min(len(a), len(b))
    code = next((c for c in "BHIQ" if bound < 1 << (8 * array(c).itemsize)), None)
    if code is None:
        return None
    nslots = T * span * stride
    size = nslots * array(code).itemsize
    swap = sys.byteorder == "big"  # the packed integers are little-endian

    def pack(dicts, lead):
        slots = array(code, [0]) * nslots
        digits = fld.digits
        for i, d in enumerate(dicts):
            base_i = i * span - lead
            for k, v in d.items():
                base = (base_i + k) * stride
                for j, digit in enumerate(digits(v)):
                    slots[base + j] = digit
        if swap:
            slots.byteswap()
        return _mpz(int.from_bytes(slots, "little"))

    prod = int(pack(da, la) * pack(db, lb))
    # index pairs i + j >= T spill past the T output indices
    slots = array(code)
    slots.frombytes(memoryview(prod.to_bytes(max(size, (prod.bit_length() + 7) // 8), "little"))[:size])
    if swap:
        slots.byteswap()
    out = []
    reduce_digits = fld.reduce_digits
    base_exp = la + lb
    for k in range(T):
        coeffs_k = {}
        base = k * span * stride
        for off in range(min(span, precs[k] - base_exp)):
            vec = slots[base + off * stride: base + (off + 1) * stride]
            if any(vec):
                c = reduce_digits(vec)
                if c:
                    coeffs_k[base_exp + off] = c
        out.append(InfElem(fld, e, coeffs_k, precs[k], var))
    return out


# ---------------------------------------------------------------------------
# spec-surface operations


def inf_arith(a: InfElem, b: InfElem, op: str) -> InfElem:
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def inf_frobenius(a: InfElem, n: int) -> InfElem:
    return a.frobenius(n)


def inf_nth_root(a: InfElem, n: int) -> InfElem:
    return a.nth_root(n)


# ---------------------------------------------------------------------------
# polynomials with InfElem coefficients and Newton-polygon root finding


def _poly_deriv(f):
    out = []
    for k in range(1, len(f)):
        c = f[k]
        fld = c.field
        out.append(c.scale(fld.scalar(k % fld.p)))
    return out


def _newton_polygon(f):
    """Lower hull segments of {(i, lead_exp(a_i))}; returns
    [(i1, i2, slope_fraction)] with slope = (v2-v1)/(i2-i1)."""
    pts = [(i, c.lead_exp) for i, c in enumerate(f) if not c.is_zero()]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segs = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segs.append((x1, x2, Fraction(y2 - y1, x2 - x1)))
    return segs


def newton_roots(f, max_depth=8):
    """All roots (with multiplicity) of a polynomial with InfElem coefficients.

    Newton-polygon slope segmentation followed by Hensel lifting; each root
    is returned in a freshly constructed (e, m) extension.  Near-roots that
    cannot be separated at working precision raise PrecisionExhausted
    rather than silently merging.
    """
    f = poly_norm(align_all(f)[0])
    if not f:
        raise ValueError("zero polynomial")
    deg = len(f) - 1
    if deg == 0:
        return []
    roots = []
    # roots at zero
    nzero = 0
    while f[nzero].is_zero():
        nzero += 1
    if nzero:
        z = InfElem.zero(f[0].field, f[0].prec // f[0].e, f[0].e, f[0].var)
        roots.append((z, nzero))
        f = f[nzero:]
    simple = _squarefree_roots(f, max_depth)
    # assign multiplicities by trial division
    for r in simple:
        mult = 0
        work = [c for c in f]
        while True:
            quot, rem = poly_div_linear(work, r)
            if not _negligible(rem, work):
                break
            mult += 1
            work = quot
            if len(work) <= 1:
                break
        if mult == 0:
            raise PrecisionExhausted("root does not divide at working precision")
        roots.append((r, mult))
    total = sum(m for _, m in roots)
    if total != deg:
        raise PrecisionExhausted(f"found {total} of {deg} roots")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if (roots[i][0] - roots[j][0]).is_zero():
                raise PrecisionExhausted("two roots are indistinguishable at precision")
    return roots


def _negligible(rem, context):
    # A remainder counts as zero when its valuation sits within the last
    # quarter of the available precision window (measured relative to the
    # size of the polynomial's own coefficients).  Genuine non-roots miss
    # this by a margin comparable to the full window.
    if rem.is_zero():
        return True
    scale = min((c.val() for c in context if not c.is_zero()), default=Fraction(0))
    return rem.val() - scale >= Fraction(3, 4) * (rem.prec_val - scale)


def _squarefree_roots(f, max_depth):
    """Distinct roots of f (InfElem coefficients, constant term nonzero)."""
    fld = f[0].field
    p = fld.p
    deriv = poly_norm(_poly_deriv(f))
    if not deriv:
        # f(y) = g(y^p): take p-th roots of the roots of g
        g = [f[i] for i in range(0, len(f), p)]
        return [r.nth_root(p) for r in _squarefree_roots(g, max_depth)]
    g = poly_gcd(f, deriv)
    if len(g) > 1:
        f = poly_norm(poly_divmod(f, g)[0])
    return _polygon_roots(f, max_depth)


def _polygon_roots(f, depth, min_val=None):
    """Distinct roots of f with valuation strictly above min_val."""
    if depth <= 0:
        raise PrecisionExhausted("Puiseux recursion depth exhausted")
    f = poly_norm(align_all(f)[0])
    out = []
    if len(f) <= 1:
        return out
    if f[0].is_zero():
        # an earlier shift hit the root exactly
        out.append(InfElem(f[0].field, f[0].e, {}, f[0].prec, f[0].var))
        nz = 0
        while f[nz].is_zero():
            nz += 1
        f = f[nz:]
        if len(f) <= 1:
            return out
    if len(f) == 2:
        r = -(f[0] / f[1])
        if min_val is None or r.is_zero() or r.val() > min_val:
            out.append(r)
        return out
    for i1, i2, slope in _newton_polygon(f):
        mu = -slope  # u-exponent of the roots on this segment
        root_val = Fraction(mu, f[0].e)
        if min_val is not None and root_val <= min_val:
            continue
        den = mu.denominator
        fld = f[0].field
        e2 = f[0].e * den
        lifted = [c.lift(fld, e2) for c in f]
        mup = int(mu * den)  # root exponent in the refined e2-units
        # residual polynomial: coefficients of minimal valuation along the segment
        vmin = min(lifted[i].lead_exp + mup * i for i in range(i1, i2 + 1) if not lifted[i].is_zero())
        res = [0] * (i2 - i1 + 1)
        const = lifted[0].field
        for i in range(i1, i2 + 1):
            c = lifted[i]
            if not c.is_zero() and c.lead_exp + mup * i == vmin:
                res[i - i1] = c.lead_coeff()
        rroots = _const_poly_roots(res, const)
        for cbar, rmult, cfield in rroots:
            if rmult == 1:
                out.append(_hensel_lift(lifted, cbar, cfield, mup, e2))
            else:
                # shift by the first Puiseux term and recurse on the cluster
                big = const.compositum(cfield)
                phi = cfield.embed_into(big) if cfield is not big else (lambda x: x)
                shifted = [c.lift(big, e2) for c in lifted]
                approx = InfElem(big, e2, {mup: phi(cbar)}, max(c.prec for c in shifted), f[0].var)
                g = poly_taylor(shifted, approx)
                for r2 in _polygon_roots(g, depth - 1, min_val=root_val):
                    out.append(approx + r2)
    return out


def _hensel_lift(f, cbar, cfield, mup, e2):
    """Lift the simple residual root cbar*u^mup to a root of f.

    Each Newton step doubles the correct digits, so the lift runs at the
    relative precisions r = 2, 4, 8, ... above the root's lead mup (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 9): y is cut to mup + r
    and coefficient i to vmin - i*mup + r, vmin being the least valuation
    of a term f_i y^i.  The last pass runs on the full coefficients and
    returns only when f(y) vanishes at full precision, which certifies the
    root.  As cbar is simple, f'(y) has lead exactly vmin - mup, and the
    root is claimed only to that much below the precision of f(y).
    """
    base = f[0].field
    fld = base.compositum(cfield) if cfield is not base else base
    lifted = [c.lift(fld, e2) for c in f]
    phi = cfield.embed_into(fld) if cfield is not fld else (lambda x: x)
    prec = max(c.prec for c in lifted)
    vmin = min(c.lead_exp + mup * i for i, c in enumerate(lifted) if not c.is_zero())
    y = InfElem(fld, e2, {mup: phi(cbar)}, prec, f[0].var)
    r = 2
    while mup + r < prec:
        work = [c.truncate(vmin - mup * i + r) for i, c in enumerate(lifted)]
        y = _newton(work, y.at_prec(mup + r), vmin - mup)
        r *= 2
    return _newton(lifted, y.at_prec(prec), vmin - mup)


def _newton(f, y, dval):
    """Newton's iteration for a root of f from y, at y's precision; dval is
    the lead exponent of f'(y), the same for every iterate."""
    deriv = _poly_deriv(f)
    stall = 0
    last_val = None
    for _ in range(200):
        fy = poly_eval(f, y)
        if fy.is_zero():
            # f(y) = O(u^P) pins the root down only to u^(P - dval)
            return y.truncate(fy.prec - dval)
        step = fy / poly_eval(deriv, y)
        y = y - step
        if step.is_zero():
            return y
        v = fy.val()
        if last_val is not None and v <= last_val:
            stall += 1
            if stall >= 3:
                raise PrecisionExhausted("Hensel iteration stalled; raise the precision")
        else:
            stall = 0
        last_val = v
    raise PrecisionExhausted("Hensel iteration did not terminate")


def _const_poly_roots(coeffs, field: Fq):
    """Roots of a constant-field polynomial in minimal canonical extensions.

    Returns [(root, multiplicity, field_containing_root)]."""
    from .arith import poly_roots_in_ext

    deg = 0
    for i, c in enumerate(coeffs):
        if c:
            deg = i
    found = []
    seen = 0
    mult_total = deg
    mm = 1
    while seen < mult_total and mm <= max(1, deg) * 4:
        big = Fq.get(field.p, field.a, field.m * mm) if mm > 1 else field
        roots = poly_roots_in_ext(coeffs, field, big)
        prev_fields = [Fq.get(field.p, field.a, field.m * k) if k > 1 else field for k in range(1, mm)]
        for r, mult in roots:
            is_new = True
            for small in prev_fields:
                if big.n % small.n == 0 and big.frob(r, small.n) == r:
                    is_new = False
                    break
            if is_new:
                found.append((r, mult, big))
                seen += mult
        mm += 1
    if seen < mult_total:
        raise PrecisionExhausted("residual roots not found in bounded extensions")
    return found
