"""Arithmetic in ramified constant-extended Laurent-series fields.

An InfElem models an element of F_{q^m}((u)) with u = theta^(-1/e): a
sparse map exponent -> coefficient together with an absolute precision
bound (all exponents >= prec are unknown, all unrecorded exponents below
it are zero).  Valuations are normalized so val(theta) = -1, hence
val(u) = 1/e and val = exponent/e.  This is the computable stand-in for
the completion of the algebraic closure of F_q((1/theta)).

Precision is absolute, never relative: telescoping-sum arguments for
quasi-periods need hard tail bounds.  No recorded coefficient is 0 and
no key is >= prec.  InfElem(...) enforces this by filtering what it is
given, as outside input needs; the ring operations build results that
already hold it once, with InfElem._trusted, and add and multiply
coefficients in the field's own representation (_add_into, _mapped).
Every t-series product (tate.py) and every InfElem product of more than
_PACK_THRESHOLD digit pairs go through one Kronecker packing kernel: one
Python long multiplication in place of a quadratic dict loop.  Below that
measured crossover (the table at _PACK_THRESHOLD) the dict loop is the
faster, and a factor of one term is a shift-and-scale of the other.  The
kernel never declines a product; see _kronecker_mul for the one case it
raises on.  Products and quotients compute only the digits they keep:
a product is cut at its precision, and a divisor is cut to what the
quotient keeps before it is inverted.  Every InfElem quotient in the
program goes through a / b, the one copy of that cut.

CM-field validation reads the same series as elements of F_q((1/t)),
with t in place of theta.  Its roots never meet a theta-series, so a
series carries no variable tag.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .arith import Fq, poly_eval, poly_norm, poly_roots_in_ext, poly_taylor
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

# len(a)*len(b) past which _kronecker_mul beats the dict loop.  Dense
# operands, microseconds per product as dict loop / kernel, pure Python
# 3.11.7 on one x86_64 core:
#
#   shape  len*len     F_2        F_3        F_4        F_9
#   2x100     200    30 / 33    33 / 36    35 / 67    37 / 96
#   2x150     300    42 / 42    47 / 46    50 / 93    53 / 118
#   4x75      300    44 / 30    46 / 32    50 / 63    57 / 87
#   8x25      200    34 / 22    40 / 23    42 / 43    43 / 53
#   8x38      304    47 / 24    51 / 25    52 / 50    60 / 67
#   15x20     300    49 / 23    55 / 23    55 / 43    60 / 48
#   20x20     400    59 / 23    66 / 24    75 / 44    77 / 58
#   50x50    2500   301 / 32   342 / 34   355 / 62   393 / 90
#
# Over prime fields the kernel wins from about 200-300 on, over F_4 and
# F_9 from about 300-400 on for operands of like length; a factor of two
# terms keeps the loop ahead further in F_4 and F_9, where the kernel
# packs n digits a slot.  300 is where those crossovers meet.
_PACK_THRESHOLD = 300


class InfElem:
    """Truncated Puiseux series over a finite field with tracked precision.

    coeffs maps each exponent k < prec to a nonzero coefficient; the
    constructor drops the zeros and keys >= prec that it is given."""

    __slots__ = ("field", "e", "coeffs", "prec")

    def __init__(self, field: Fq, e: int, coeffs: dict, prec: int):
        self.field = field
        self.e = e
        self.prec = prec
        self.coeffs = {k: c for k, c in coeffs.items() if c and k < prec}

    @classmethod
    def _trusted(cls, field, e, coeffs, prec):
        """An element from a dict that is free of zeros and below prec."""
        self = object.__new__(cls)
        self.field, self.e, self.coeffs, self.prec = field, e, coeffs, prec
        return self

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(field, prec, e=1):
        return InfElem(field, e, {}, prec * e)

    @staticmethod
    def const(field, c, prec, e=1):
        return InfElem(field, e, {0: c} if c else {}, prec * e)

    @staticmethod
    def theta(field, prec, e=1):
        return InfElem(field, e, {-e: 1}, prec * e)

    @staticmethod
    def from_poly(field, coeffs, prec):
        """Polynomial in theta: coeffs[j] is the coefficient of theta^j."""
        data = {}
        for j, c in enumerate(coeffs):
            if c:
                data[-j] = c
        return InfElem(field, 1, data, prec)

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
            return f"O(theta^{-self.prec_val})"
        ks = sorted(self.coeffs)
        parts = []
        for k in ks[:6]:
            expo = Fraction(-k, self.e)
            c = self.coeffs[k]
            if expo == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*theta^({expo})")
        if len(ks) > 6:
            parts.append("...")
        return " + ".join(parts) + f" + O(theta^{-self.prec_val})"

    # -- field/ramification alignment ------------------------------------

    def lift(self, field: Fq, e: int):
        """Re-express in a larger constant field and/or finer ramification."""
        if field is self.field and e == self.e:
            return self
        if e % self.e:
            raise ValueError("ramification index must refine the current one")
        s = e // self.e
        phi = self.field.embed_into(field)
        return InfElem._trusted(field, e, {k * s: phi(c) for k, c in self.coeffs.items()}, self.prec * s)

    @staticmethod
    def align(a: "InfElem", b: "InfElem"):
        field = a.field.compositum(b.field)
        e = lcm(a.e, b.e)
        return a.lift(field, e), b.lift(field, e)

    def truncate(self, prec_units):
        if prec_units >= self.prec:
            return self
        return InfElem._trusted(self.field, self.e, {k: c for k, c in self.coeffs.items() if k < prec_units}, prec_units)

    def at_prec(self, prec_units):
        """The recorded digits below prec_units, read as known to exactly
        prec_units.  For a Newton iterate, an exact approximation, raising
        the precision claims only that the digits past it are zero."""
        return InfElem(self.field, self.e, self.coeffs, prec_units)

    def with_prec_val(self, prec_val):
        return self.truncate(int(prec_val * self.e))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if self.field is other.field and self.e == other.e:
            a, b = self, other
        else:
            a, b = InfElem.align(self, other)
        # copy the operand known to the lower precision (the larger one on
        # a tie), whose keys are all below the sum's, and add in the other
        if b.prec < a.prec or (b.prec == a.prec and len(b.coeffs) > len(a.coeffs)):
            a, b = b, a
        out = _add_into(dict(a.coeffs), b.coeffs, a.prec, a.field)
        return InfElem._trusted(a.field, a.e, out, a.prec)

    def __neg__(self):
        f = self.field
        return InfElem._trusted(f, self.e, _mapped(f, self.coeffs, f.neg(1)), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = InfElem.align(self, other)
        f = a.field
        prec = min(a.prec + b.lead_exp, b.prec + a.lead_exp)
        if not a.coeffs or not b.coeffs:
            return InfElem._trusted(f, a.e, {}, prec)
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        if len(a.coeffs) == 1:
            # a monomial: one shift-and-scale of b, cut where the product ends
            ((k, c),) = a.coeffs.items()
            return b.truncate(prec - k).mono_mul(c, k)
        if len(a.coeffs) * len(b.coeffs) > _PACK_THRESHOLD:
            return _kronecker_mul([a], [b], 1)[0]
        out = {}
        for k1, c1 in a.coeffs.items():
            _add_into(out, _mapped(f, b.coeffs, c1, k1), prec, f)
        return InfElem._trusted(f, a.e, out, prec)

    def scale(self, c):
        """Multiply by a constant of the same field."""
        return self.mono_mul(c, 0)

    def mono_mul(self, c, k):
        """Multiply by the exact monomial c*u^k (no precision loss beyond shift)."""
        f = self.field
        out = _mapped(f, self.coeffs, c, k) if c else {}
        return InfElem._trusted(f, self.e, out, self.prec + k)

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
        y = InfElem(f, self.e, {0: 1}, 1)
        while y.prec < relprec:
            w = min(2 * y.prec, relprec)
            y = y.at_prec(w)
            err = unit.truncate(w) * y - InfElem(f, self.e, {0: 1}, w)
            y = y - y * err
        return y.mono_mul(cinv, -L)

    def __truediv__(self, other):
        a, b = InfElem.align(self, other)
        if a.coeffs:
            # the quotient keeps a.prec - lead(b); digits of b at or past
            # a.prec + lead(b) - lead(a) reach none of them
            b = b.truncate(a.prec + b.lead_exp - a.lead_exp)
        return a * b.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return InfElem(self.field, self.e, {0: 1}, max(self.prec - self.lead_exp, 1))
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
        # on coefficients the q^n-power is the p^j-power, j = a*n mod [F : F_p]
        coeffs = _mapped(f, self.coeffs, 1, 0, f.p ** (f.a * n % f.n))
        if n > 0:
            s = f.q**n
            return InfElem._trusted(f, self.e, {k * s: c for k, c in coeffs.items()}, self.prec * s)
        s = f.q ** (-n)
        out = {}
        for k, c in coeffs.items():
            if k % s:
                raise NotAPower(f"exponent {k} not divisible by q^{-n}")
            out[k // s] = c
        return InfElem._trusted(f, self.e, out, -(-self.prec // s))

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
        elem = self.lift(f, self.e * (s // gcd(s, g)))
        out = {}
        for k, c in elem.coeffs.items():
            out[k // s] = elem.field.frob(c, -v)
        return InfElem(elem.field, elem.e, out, -(-elem.prec // s))

    def _prime_to_p_root(self, n):
        f = self.field
        L = self.lead_exp
        g = gcd(n, L)
        elem = self.lift(f, self.e * (n // g))
        L = elem.lead_exp
        c = elem.coeffs[L]
        fld, croot = _const_nth_root(elem.field, c, n)
        elem = elem.lift(fld, elem.e)
        L = elem.lead_exp
        # strip the leading monomial: elem = c u^L * unit, then lift the
        # root y0 = 1 of y^n - unit; it is simple, n being prime to p
        unit = elem.mono_mul(fld.inv(elem.coeffs[L]), -L)
        zero = InfElem(fld, elem.e, {}, unit.prec)
        one = InfElem(fld, elem.e, {0: 1}, unit.prec)
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
            "var": "theta",
            "e": self.e,
            "leading_exponent": self.lead_exp if self.coeffs else None,
            "coeffs": [[k, list(f.digits(c))] for k, c in sorted(self.coeffs.items())],
            "prec_N": self.prec,
        }

    @staticmethod
    def from_json(obj):
        if obj.get("var", "theta") != "theta":
            raise ValueError(f"series in {obj['var']!r}, not in theta")
        f = Fq.get(obj["p"], obj["a"], obj["m"], tuple(obj["modulus"]))
        coeffs = {int(k): f.from_digits(d) for k, d in obj["coeffs"]}
        return InfElem(f, obj["e"], coeffs, obj["prec_N"])


def align_all(values):
    """values lifted to one constant field and ramification, the smallest
    that holds them all, together with that field and e."""
    field, e = values[0].field, values[0].e
    for v in values[1:]:
        field = field.compositum(v.field)
        e = lcm(e, v.e)
    return [v.lift(field, e) for v in values], field, e


def _add_into(out, coeffs, prec, f):
    """out, free of zeros, with the coefficients below prec added in place.
    The one place that chooses how a coefficient loop adds: (x + y) % p in
    a prime field, XOR for p = 2, the flat _add table when f has one, else
    Fq.add."""
    p = f.p
    if f.n == 1:
        for k, c in coeffs.items():
            if k < prec:
                s = (out.get(k, 0) + c) % p
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out
    table, size, add = f._add, f.size, f.add
    for k, c in coeffs.items():
        if k < prec:
            x = out.get(k, 0)
            s = x ^ c if p == 2 else table[x * size + c] if table is not None else add(x, c)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _mapped(f, coeffs, c, shift=0, power=1):
    """{k + shift: c * v^power} over the coefficients v, for c nonzero.  The
    one place that chooses how a coefficient loop multiplies: through the
    log tables, log c read once, when f has them, else Fq.mul and Fq.pow."""
    if c == 1 and power == 1:
        return {k + shift: v for k, v in coeffs.items()}
    lg = f._log
    if lg is None:
        mul, pw, neg = f.mul, f.pow, f.neg
        if c == 1:
            return {k + shift: pw(v, power) for k, v in coeffs.items()}
        if c == neg(1) and power == 1:
            return {k + shift: neg(v) for k, v in coeffs.items()}
        return {k + shift: mul(c, v if power == 1 else pw(v, power)) for k, v in coeffs.items()}
    ex, order, lc = f._exp, f.size - 1, lg[c]
    if power == 1:
        return {k + shift: ex[(lc + lg[v]) % order] for k, v in coeffs.items()}
    return {k + shift: ex[(lc + lg[v] * power) % order] for k, v in coeffs.items()}


def _const_nth_root(field: Fq, c: int, n: int):
    """Smallest canonical constant-field extension containing an n-th root
    of c, together with the canonical (least dlog) root."""
    for mult in range(1, 64 * n + 1):
        mm = field.m * mult
        big = Fq.get(field.p, field.a, mm) if mult > 1 else field
        cc = field.embed_into(big)(c)
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
    output digit.

    Only exponents on the operands' common stride get a slot.  g is the
    gcd of k - la over the kept exponents k of a and of k - lb over those
    of b (la, lb the least kept exponents; g = 1 when both operands are
    monomials), so a series on one residue class mod e, or a q^j-twisted
    one, packs one slot per g units: exponent k of a goes to slot
    (k - la)/g of its index, and output slot off of index k is exponent
    la + lb + g*off, kept while off < ceil((prec_k - la - lb)/g).  A slot
    holds 2n - 1 digits, each in the narrowest of 8, 16, 32 and 64 bits
    that holds the accumulation bound (p-1)^2 * n * min(span) * min(len),
    spans counted in slots.  For p <= 2^16 the bound is below 2^31 * nslots,
    so a slot past 64 bits means over 2^33 slots, 64 GiB of array: the
    kernel raises OverflowError there, and never declines a product.

    Over F_{p^n}, n > 1, a coefficient is packed as one slice of its
    digits, and a slot is reduced mod p and then read off as an element.
    Both go through tables that live for one call and hold only the values
    that occur; a whole-field table would hold 16.7M entries for
    F_{4093^2}.
    """
    fld = a[0].field
    e = a[0].e
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
        return [InfElem._trusted(fld, e, {}, prec_k) for prec_k in precs]
    g = 0
    for d, lead in [(d, la) for d in da] + [(d, lb) for d in db]:
        # a dense coefficient shows g = 1 in its first few exponents
        shift = (-lead).__add__
        g = gcd(g, *map(shift, islice(d, 4)))
        if g != 1:
            g = gcd(g, *map(shift, d))
        if g == 1:
            break
    g = g or 1
    span_a = (ta - la) // g + 1
    span_b = (tb - lb) // g + 1
    span = span_a + span_b
    bound = (fld.p - 1) ** 2 * n * min(span_a, span_b) * min(len(a), len(b))
    code = next((c for c in "BHIQ" if bound < 1 << (8 * array(c).itemsize)), None)
    if code is None:
        # bound < 2^31 * nslots for p <= 2^16, so here nslots > 2^33 (64 GiB)
        raise OverflowError("Kronecker slots past 64 bits need over 2^33 slots")
    nslots = T * span * stride
    size = nslots * array(code).itemsize
    swap = sys.byteorder == "big"  # the packed integers are little-endian

    def pack(dicts, lead):
        # exponent k of index i lands in slot (i*span*g + k - lead) / g; a
        # prime-field coefficient is its own digit
        slots = array(code, [0]) * nslots
        rows = {}
        for i, d in enumerate(dicts):
            base_i = i * span * g - lead
            if n == 1:
                for k, v in d.items():
                    slots[(base_i + k) // g] = v
                continue
            for k, v in d.items():
                row = rows.get(v)
                if row is None:
                    row = rows[v] = array(code, fld.digits(v))
                pos = (base_i + k) // g * stride
                slots[pos: pos + n] = row
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
    elems = {}
    p = fld.p
    base_exp = la + lb
    for k in range(T):
        base = k * span * stride
        stop = max(0, min(span, (precs[k] - base_exp + g - 1) // g))
        exps = range(base_exp, base_exp + g * stop, g)
        if n == 1:
            coeffs_k = {x: s % p for x, s in zip(exps, slots[base: base + stop]) if s % p}
        else:
            region = [s % p for s in slots[base: base + stop * stride]]
            coeffs_k = {}
            for x, vec in zip(exps, zip(*[iter(region)] * stride)):
                c = elems.get(vec)
                if c is None:
                    c = elems[vec] = fld.reduce_digits(vec)
                if c:
                    coeffs_k[x] = c
        out.append(InfElem._trusted(fld, e, coeffs_k, precs[k]))
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


def newton_roots(f):
    """All roots (with multiplicity) of a polynomial with InfElem coefficients.

    Newton-polygon slope segmentation followed by Hensel lifting; each root
    is returned in a freshly constructed (e, m) extension, with the
    multiplicity the polygon gives it.  Near-roots that cannot be
    separated at working precision raise PrecisionExhausted rather than
    silently merging.
    """
    f = poly_norm(align_all(f)[0])
    if not f:
        raise ValueError("zero polynomial")
    deg = len(f) - 1
    roots = []
    if f[0].is_zero():
        roots.append(_zero_root(f))
        f = f[roots[0][1]:]
    # f(y) = g(y^p): p-th roots of the roots of g, p times as often
    p, power = f[0].field.p, 1
    while len(f) > 1 and not poly_norm(_poly_deriv(f)):
        f, power = f[::p], power * p
    for r, mult in _polygon_roots(f):
        roots.append((r.nth_root(power) if power > 1 else r, mult * power))
    total = sum(m for _, m in roots)
    if total != deg:
        raise PrecisionExhausted(f"found {total} of {deg} roots")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if (roots[i][0] - roots[j][0]).is_zero():
                raise PrecisionExhausted("two roots are indistinguishable at precision")
    return roots


def _zero_root(f):
    """(0, nz) when f_0, .., f_(nz-1) are zero at their precisions and f_nz
    is not.  Every completion of those coefficients has nz roots of
    valuation at least min over i < nz of (prec f_i - lead f_nz)/(nz - i),
    the slope bound of its Newton polygon (Duval, Rational Puiseux
    expansions, Compositio Math. 70, 1989); 0 is claimed that far."""
    nz = 1
    while f[nz].is_zero():
        nz += 1
    lead = f[nz].lead_exp
    claim = min([f[0].prec] + [(f[i].prec - lead) // (nz - i) for i in range(nz)])
    return InfElem(f[0].field, f[0].e, {}, claim), nz


def _polygon_roots(f, depth=8, min_val=None, cluster_val=None):
    """(root, multiplicity) for the roots of f with valuation strictly
    above min_val, through at most depth nested Puiseux shifts.

    A simple residual root is Hensel-lifted (multiplicity 1).  A multiple
    one is shifted away by its first Puiseux term, and the shifted
    polynomial is searched for the roots above that term's valuation;
    cluster_val is then the valuation of the roots of the outermost
    cluster, the lead that every root found below it shares.  When a
    shift hits a root exactly, f_0 is zero at its precision and 0 is a
    root of the multiplicity and precision _zero_root derives.  f keeps
    its zero coefficients: the other roots are lifted on f itself, and so
    see what those coefficients leave unknown.
    """
    if depth <= 0:
        raise PrecisionExhausted("Puiseux recursion depth exhausted")
    f = poly_norm(align_all(f)[0])
    out = []
    if f[0].is_zero():
        # an earlier shift hit the root exactly; a claim at or below the
        # root's own lead would say nothing
        out.append(_zero_root(f))
        if out[0][0].prec_val <= cluster_val:
            raise PrecisionExhausted("a root cluster is not separated at working precision")
    elif len(f) == 2:
        return [(-(f[0] / f[1]), 1)]
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
                out.append((_hensel_lift(lifted, cbar, cfield, mup, e2), 1))
            else:
                # shift by the first Puiseux term and recurse on the cluster
                big = const.compositum(cfield)
                phi = cfield.embed_into(big)
                shifted = [c.lift(big, e2) for c in lifted]
                approx = InfElem(big, e2, {mup: phi(cbar)}, max(c.prec for c in shifted))
                g = poly_taylor(shifted, approx)
                outer = root_val if cluster_val is None else cluster_val
                for r2, m2 in _polygon_roots(g, depth - 1, root_val, outer):
                    out.append((approx + r2, m2))
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
    fld = base.compositum(cfield)
    lifted = [c.lift(fld, e2) for c in f]
    phi = cfield.embed_into(fld)
    prec = max(c.prec for c in lifted)
    vmin = min(c.lead_exp + mup * i for i, c in enumerate(lifted) if not c.is_zero())
    y = InfElem(fld, e2, {mup: phi(cbar)}, prec)
    r = 2
    while mup + r < prec:
        work = [c.truncate(vmin - mup * i + r) for i, c in enumerate(lifted)]
        y = _newton(work, y.at_prec(mup + r), vmin - mup)
        r *= 2
    y = _newton(lifted, y.at_prec(prec), vmin - mup)
    if y.prec <= mup:
        # f(y) is known no further than its least term: cbar is undetermined
        raise PrecisionExhausted("root not determined at working precision")
    return y


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
