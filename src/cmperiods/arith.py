"""Exact arithmetic over finite fields F_{q^m} and their polynomial rings.

Field elements are stored as plain ints: the integer sum(d_i * p^i)
encodes the residue sum(d_i * x^i) of F_p[x] modulo the recorded
irreducible modulus.  A field is described by (p, a, m, modulus) with
q = p^a and the element universe F_{q^m} = F_p[x]/(modulus),
deg(modulus) = a*m.  Moduli are either supplied explicitly or chosen
canonically (smallest monic irreducible in integer encoding), and every
serialized artifact records the modulus so that reports are reproducible
without a Conway-polynomial database.

Fields of size at most 2^12 carry discrete-log tables; multiplication in
larger prime fields is mod-p integer arithmetic, and in larger extension
fields it falls back to polynomial arithmetic.

FPoly is the one polynomial ring over a field's plain ints: polynomial
roots, irreducibility over F_p and each field's reduction table all run on
it.  The dense-polynomial toolkit at the end (poly_*) serves every other
coefficient ring of the package: the exact scalars of shtuka.py, whose
WPoly wraps it as a value, and the Puiseux series of infinity.py.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import TargetTooSmall

DESK_Q_MAX = 1 << 16
TABLE_MAX = 1 << 12

_FIELD_CACHE: dict[tuple, "Fq"] = {}


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def q_split(q):
    """(p, a) with q = p^a; ValueError unless q is a prime power."""
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    a = 0
    while p and q % p**(a + 1) == 0:
        a += 1
    if p is None or p**a != q:
        raise ValueError(f"q = {q} is not a prime power")
    return p, a


def is_irreducible(p, coeffs):
    """Rabin's irreducibility test for a monic poly over F_p: f of degree n
    divides x^(p^n) - x and is prime to x^(p^(n/l)) - x for each prime l | n.

    Degree at most 1 is settled before the prime field is built, so that
    building F_p itself does not come back here.
    """
    coeffs = _trim_fq([c % p for c in coeffs])
    n = len(coeffs) - 1
    if n <= 1:
        return n == 1
    prime = Fq.get(p, 1, 1)
    f, x = FPoly(prime, coeffs), FPoly.x(prime)

    def frob_x(k):
        # x^(p^k) mod f
        t = x
        for _ in range(k):
            t = t.powmod(p, f)
        return t

    if frob_x(n) != x:
        return False
    return all(f.gcd(frob_x(n // ell) - x).deg == 0 for ell in _prime_factors(n))


@lru_cache(maxsize=None)
def canonical_modulus(p, n):
    """Smallest monic irreducible of degree n over F_p in integer encoding."""
    if n == 1:
        return (0, 1)
    for low in range(p**n):
        digits = []
        v = low
        for _ in range(n):
            digits.append(v % p)
            v //= p
        cand = tuple(digits) + (1,)
        if is_irreducible(p, cand):
            return cand
    raise RuntimeError("no irreducible polynomial found")


class Fq:
    """The field F_{q^m}, q = p^a, presented as F_p[x]/(modulus).

    Elements are ints in [0, p^(a*m)); arithmetic methods operate on that
    encoding.  All instances are interned via Fq.get, so identity equals
    mathematical equality of presentations.
    """

    __slots__ = (
        "p", "a", "m", "n", "size", "modulus", "gen",
        "_log", "_exp", "_vec", "_red", "_embeds", "_baby", "_add", "_neg",
    )

    def __init__(self, p, a, m, modulus):
        self.p = p
        self.a = a
        self.m = m
        self.n = a * m
        self.size = p ** self.n
        self.modulus = modulus
        self._embeds = {}
        self._vec = None
        self._log = None
        self._exp = None
        self._baby = None
        self._add = None
        self._neg = None
        # digit vectors of x^(n+k) mod modulus for k = 0..n-1; a product in
        # a field of degree 1 has no digit to reduce
        self._red = []
        if self.n > 1:
            prime = Fq.get(p, 1, 1)
            mod = FPoly(prime, modulus)
            for k in range(self.n):
                red = (FPoly(prime, (0,) * (self.n + k) + (1,)) % mod).coeffs
                self._red.append(red + (0,) * (self.n - len(red)))
        self.gen = self._find_generator()
        if self.size <= TABLE_MAX:
            self._build_tables()

    # -- construction ------------------------------------------------------

    @staticmethod
    def get(p, a, m, modulus=None):
        if modulus is None:
            modulus = canonical_modulus(p, a * m)
        modulus = tuple(_trim_fq([c % p for c in modulus]))
        key = (p, a, m, modulus)
        fld = _FIELD_CACHE.get(key)
        if fld is None:
            if p ** a > DESK_Q_MAX:
                raise ValueError("q exceeds the desk-scale bound 2^16")
            if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
                raise ValueError(f"p = {p} is not a prime")
            if len(modulus) - 1 != a * m or modulus[-1] != 1:
                raise ValueError("modulus degree must be a*m and monic")
            if not is_irreducible(p, modulus):
                raise ValueError("modulus is not irreducible over F_p")
            fld = Fq(p, a, m, modulus)
            _FIELD_CACHE[key] = fld
        return fld

    @property
    def q(self):
        return self.p ** self.a

    def __repr__(self):
        return f"F({self.p}^{self.n})"

    # -- tables ------------------------------------------------------------

    def _encode(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _decode(self, x):
        out = []
        for _ in range(self.n):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def _raw_mul(self, x, y):
        u, v = self._decode(x), self._decode(y)
        out = [0] * (2 * self.n - 1)
        for i, du in enumerate(u):
            if du:
                for j, dv in enumerate(v):
                    out[i + j] += du * dv
        return self.reduce_digits(out)

    def _build_tables(self):
        self._vec = [self._decode(x) for x in range(self.size)]
        order = self.size - 1
        self._exp = [1] * max(order, 1)
        self._log = [0] * self.size
        acc = 1
        for i in range(order):
            self._exp[i] = acc
            self._log[acc] = i
            acc = self._raw_mul(acc, self.gen)
        if self.p > 2 and self.n > 1 and self.size <= 256:
            # digitwise sums, flat at x * size + y, built one more
            # significant digit per pass from the table below it
            p = self.p
            add = [0]
            m = 1
            for _ in range(self.n):
                add = [
                    (dx + dy) % p * m + s
                    for dx in range(p) for xl in range(m)
                    for dy in range(p) for s in add[xl * m:(xl + 1) * m]
                ]
                m *= p
            self._add = add
            self._neg = [self._encode([-d % p for d in u]) for u in self._vec]

    def _pow_raw(self, x, e):
        r = 1
        b = x
        while e:
            if e & 1:
                r = self._raw_mul(r, b)
            b = self._raw_mul(b, b)
            e >>= 1
        return r

    def _find_generator(self):
        # the least element of full multiplicative order
        order = self.size - 1
        primes = _prime_factors(order)
        for cand in range(2, self.size):
            if all(self._pow_raw(cand, order // ell) != 1 for ell in primes):
                return cand
        return 1

    # -- arithmetic --------------------------------------------------------

    def add(self, x, y):
        if self.p == 2:
            return x ^ y
        if self.n == 1:
            return (x + y) % self.p
        if self._add is not None:
            return self._add[x * self.size + y]
        if self._vec is not None:
            u, v = self._vec[x], self._vec[y]
        else:
            u, v = self._decode(x), self._decode(y)
        return self._encode([(u[i] + v[i]) % self.p for i in range(self.n)])

    def neg(self, x):
        if self.p == 2:
            return x
        if self.n == 1:
            return -x % self.p
        if self._neg is not None:
            return self._neg[x]
        u = self._vec[x] if self._vec is not None else self._decode(x)
        return self._encode([(-d) % self.p for d in u])

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        if self._log is not None:
            return self._exp[(self._log[x] + self._log[y]) % (self.size - 1)]
        if self.n == 1:
            return x * y % self.p
        return self._raw_mul(x, y)

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._log is not None:
            return self._exp[(-self._log[x]) % (self.size - 1)]
        if self.n == 1:
            return pow(x, self.p - 2, self.p)
        return self._pow_raw(x, self.size - 2)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, e):
        if e < 0:
            return self.pow(self.inv(x), -e)
        if x == 0:
            return 0 if e else 1
        if self._log is not None:
            return self._exp[(self._log[x] * e) % (self.size - 1)]
        if self.n == 1:
            return pow(x, e, self.p)
        return self._pow_raw(x, e)

    def frob(self, x, k=1):
        """x -> x^(p^k); k may be negative (Frobenius has order n)."""
        k %= self.n
        return self.pow(x, self.p**k)

    def frob_q(self, x, k=1):
        """x -> x^(q^k); k may be negative."""
        return self.frob(x, (self.a * k) % self.n)

    def dlog(self, x):
        """Discrete log of x with respect to the recorded generator."""
        if x == 0:
            raise ZeroDivisionError("dlog of zero")
        if self._log is not None:
            return self._log[x]
        # baby-step giant-step; the baby steps are built once per field
        order = self.size - 1
        if self._baby is None:
            s = int(order**0.5) + 1
            baby = {}
            cur = 1
            for j in range(s):
                baby.setdefault(cur, j)
                cur = self.mul(cur, self.gen)
            self._baby = (s, baby, self.inv(self._pow_raw(self.gen, s)))
        s, baby, step = self._baby
        cur = x
        for i in range(s + 1):
            if cur in baby:
                return (i * s + baby[cur]) % order
            cur = self.mul(cur, step)
        raise RuntimeError("dlog failed")

    def digits(self, x):
        """Base-p digit vector of x (length n), used for serialization."""
        if self._vec is not None:
            return self._vec[x]
        return self._decode(x)

    def reduce_digits(self, vec):
        """Element from a digit vector of length up to 2n-1 (reduced mod modulus)."""
        p = self.p
        acc = [d % p for d in vec[: self.n]]
        acc += [0] * (self.n - len(acc))
        for k in range(self.n, len(vec)):
            d = vec[k] % p
            if d:
                red = self._red[k - self.n]
                for i in range(self.n):
                    acc[i] = (acc[i] + d * red[i]) % p
        return self._encode(acc)

    def from_digits(self, digits):
        """Element from a digit vector of length at most n."""
        if len(digits) > self.n:
            raise ValueError(f"{len(digits)} digits for an element of {self!r}, which has {self.n}")
        return self._encode([d % self.p for d in digits]) if digits else 0

    def scalar(self, c):
        """Image of the prime-field integer c."""
        return c % self.p

    def in_base_q(self, x):
        """Whether x lies in the degree-a subfield F_q."""
        return self.frob(x, self.a) == x

    def elements(self):
        return range(self.size)

    # -- embeddings --------------------------------------------------------

    def embed_into(self, big: "Fq"):
        """Return a function mapping this field into big (n | big.n required).

        The generator image is the root of this field's modulus in big with
        the smallest discrete-log index; pairs are cached so the map is
        stable within a session.
        """
        if big is self:
            return lambda x: x
        if big.p != self.p or big.n % self.n:
            raise ValueError(f"no embedding {self} -> {big}")
        cached = self._embeds.get(big)
        if cached is not None:
            return cached
        lifted = [big.scalar(c) for c in self.modulus]
        roots = poly_roots(lifted, big)
        if not roots:
            raise RuntimeError("modulus has no root in the target field")
        root = min((big.dlog(r) if r else -1, r) for r, _ in roots)[1]
        powers = [1]
        for _ in range(self.n - 1):
            powers.append(big.mul(powers[-1], root))

        def phi(x, _powers=powers, _self=self, _big=big):
            acc = 0
            for i, d in enumerate(_self.digits(x)):
                if d:
                    acc = _big.add(acc, _big.mul(_big.scalar(d), _powers[i]))
            return acc

        if self.size <= TABLE_MAX:
            table = [phi(x) for x in range(self.size)]
            phi = lambda x, _t=table: _t[x]  # noqa: E731
        self._embeds[big] = phi
        return phi

    def compositum(self, other: "Fq"):
        """Smallest canonical field containing both (same p, a)."""
        if other is self:
            return self
        if self.p != other.p or self.a != other.a:
            raise ValueError("incompatible base fields")
        mm = self.m * other.m // gcd(self.m, other.m)
        if mm == self.m:
            return self
        if mm == other.m:
            return other
        return Fq.get(self.p, self.a, mm)


# ---------------------------------------------------------------------------
# operations required by other modules


def ff_frobenius(field: Fq, x: int, n: int) -> int:
    """q^n-power map on a field element; n may be negative."""
    return field.frob_q(x, n)


def poly_roots(coeffs, field: Fq):
    """All roots in field of a polynomial given by Fq-coefficient list.

    Returns [(root, multiplicity)], sorted by root.  gcd(f, y^size - y) is
    the product of the distinct linear factors of f, split by equal-degree
    gcds (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 14): with
    (y + s)^((size-1)/2) - 1 for odd p, and for p = 2 with the traces
    Tr(gen^s * y), s < n.  The gen^s form an F_2-basis, so some trace
    tells any two roots apart.
    """
    f = FPoly(field, coeffs)
    if f.is_zero():
        raise ValueError("zero polynomial")
    one = FPoly.const(field, 1)
    y = FPoly.x(field)

    def splitter(s, mod):
        if field.p > 2:
            return (y + FPoly.const(field, s)).powmod((field.size - 1) // 2, mod) - one
        cur = y.scale(field.pow(field.gen, s)) % mod
        tr = cur
        for _ in range(field.n - 1):
            cur = cur * cur % mod
            tr = tr + cur
        return tr

    roots = []

    def split(g):
        if g.deg == 1:
            roots.append(field.neg(g.coeffs[0]))
            return
        for s in range(field.n if field.p == 2 else field.size):
            h = g.gcd(splitter(s, g))
            if 0 < h.deg < g.deg:
                split(h)
                split(g // h)
                return
        raise RuntimeError("root splitting failed")

    linear = f.gcd(y.powmod(field.size, f) - y)
    if linear.deg > 0:
        split(linear)
    out = []
    for r in sorted(roots):
        lin = FPoly(field, (field.neg(r), 1))
        work, mult = f, 0
        while True:
            quot, rem = work.divmod(lin)
            if not rem.is_zero():
                break
            work, mult = quot, mult + 1
        out.append((r, mult))
    return out


def poly_roots_in_ext(coeffs, source: Fq, target: Fq, require_all=False):
    """Roots in target of a polynomial with coefficients in source.

    Raises TargetTooSmall when require_all is set and some root generates
    a field larger than target.
    """
    phi = source.embed_into(target)
    lifted = [phi(c) for c in coeffs]
    found = poly_roots(lifted, target)
    if require_all:
        total = sum(m for _, m in found)
        deg = len(_trim_fq(lifted)) - 1
        if total < deg:
            raise TargetTooSmall(f"{deg - total} roots lie outside {target}")
    return found


def _trim_fq(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class FPoly:
    """Univariate polynomial over an Fq, printed in theta.

    Canonical form: no trailing zero coefficients.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Fq, coeffs):
        self.field = field
        self.coeffs = tuple(_trim_fq(list(coeffs)))

    @staticmethod
    def zero(field):
        return FPoly(field, ())

    @staticmethod
    def const(field, c):
        return FPoly(field, (c,))

    @staticmethod
    def x(field):
        return FPoly(field, (0, 1))

    @property
    def deg(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, FPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def _check(self, other):
        if self.field is not other.field:
            raise ValueError("mixed polynomial rings")

    def __add__(self, other):
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return FPoly(f, [f.add(x, y) for x, y in zip(a, b)])

    def __neg__(self):
        f = self.field
        return FPoly(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return FPoly.zero(f)
        add, mul = f.add, f.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, cu in enumerate(self.coeffs):
            if cu:
                for j, cv in enumerate(other.coeffs):
                    out[i + j] = add(out[i + j], mul(cu, cv))
        return FPoly(f, out)

    def scale(self, c):
        f = self.field
        return FPoly(f, [f.mul(c, x) for x in self.coeffs])

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        add, mul = f.add, f.mul
        rem, g = list(self.coeffs), other.coeffs
        dv = len(g) - 1
        inv = f.inv(g[-1])
        quot = [0] * max(0, len(rem) - dv)
        for k in reversed(range(len(quot))):
            c = rem[k + dv]
            if c:
                quot[k] = mul(c, inv)
                neg = f.neg(quot[k])
                for i in range(dv):
                    rem[k + i] = add(rem[k + i], mul(neg, g[i]))
        return FPoly(f, quot), FPoly(f, rem[:dv])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def powmod(self, e, mod):
        """self^e mod `mod`, by repeated squaring from the lowest bit, with
        no product by one and no square past the top bit."""
        if not e:
            return FPoly.const(self.field, 1) % mod
        r, b = None, self % mod
        while True:
            if e & 1:
                r = b if r is None else r * b % mod
            e >>= 1
            if not e:
                return r
            b = b * b % mod

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*theta" if c != 1 else "theta")
            else:
                parts.append(f"{c}*theta^{k}" if c != 1 else f"theta^{k}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# dense polynomials over any commutative ring
#
# A polynomial is a coefficient list, constant term first, over a ring
# whose elements provide + - *, inverse() and is_zero(): the exact scalars
# of shtuka.py, InfElem Puiseux series, and polynomials over either.  No
# zero element is ever made up, because an InfElem zero carries a
# precision.  Sums, products and remainders drop their trailing zeros;
# evaluation and synthetic division keep every coefficient they are given.
# The algorithms are the classical ones (von zur Gathen-Gerhard, Modern
# Computer Algebra, ch. 2-3).


def poly_norm(f):
    """f without its trailing zero coefficients."""
    n = len(f)
    while n and f[n - 1].is_zero():
        n -= 1
    return list(f[:n])


def poly_add(f, g):
    n = min(len(f), len(g))
    return poly_norm([a + b for a, b in zip(f, g)] + list(f[n:]) + list(g[n:]))


def poly_neg(f):
    return [-c for c in f]


def poly_sub(f, g):
    n = min(len(f), len(g))
    return poly_norm([a - b for a, b in zip(f, g)] + list(f[n:]) + poly_neg(g[n:]))


def poly_mul(f, g):
    if not f or not g:
        return []
    out = [None] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            t = a * b
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return poly_norm(out)


def poly_scale(f, c):
    return poly_norm([a * c for a in f])


def poly_divmod(f, g):
    """Quotient and remainder of f by g.  A zero top coefficient of the
    running remainder gives a zero quotient term and subtracts nothing."""
    f, g = poly_norm(f), poly_norm(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    inv = g[-1].inverse()
    quot = [None] * max(0, len(f) - dg)
    for k in reversed(range(len(quot))):
        c = quot[k] = f[k + dg] * inv
        if not c.is_zero():
            for i in range(dg):
                f[k + i] = f[k + i] - c * g[i]
    return quot, poly_norm(f[:dg])


def poly_div_linear(f, r):
    """Synthetic division by (y - r): the quotient and the value f(r)."""
    acc = [f[-1]]
    for c in reversed(f[:-1]):
        acc.append(acc[-1] * r + c)
    value = acc.pop()
    return acc[::-1], value


def poly_eval(f, x):
    """f(x) by Horner's rule."""
    return poly_div_linear(f, x)[1]


def poly_taylor(f, a):
    """The coefficients of f(a + z) in z, by repeated synthetic division."""
    out = []
    while f:
        f, value = poly_div_linear(f, a)
        out.append(value)
    return out


def poly_inv_mod(f, m):
    """s with s*f = 1 modulo m over a field, by the extended Euclidean
    algorithm; ZeroDivisionError unless f is a unit modulo m."""
    a, b = poly_norm(m), poly_norm(f)
    if not b:
        raise ZeroDivisionError("inverse of zero")
    inv = b[-1].inverse()
    # invariants: sa*f = a and sb*f = b modulo m
    sa, sb, b = [], [inv], poly_scale(b, inv)
    while b:
        quot, rem = poly_divmod(a, b)
        a, b, sa, sb = b, rem, sb, poly_sub(sa, poly_mul(quot, sb))
    if len(a) != 1:
        raise ZeroDivisionError("not a unit modulo m")
    return poly_scale(sa, a[0].inverse())

