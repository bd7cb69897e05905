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
larger fields falls back to polynomial arithmetic.

The dense-polynomial toolkit at the end (poly_* and Poly) serves every
other coefficient ring of the package: the exact scalars of shtuka.py and
the Puiseux series of infinity.py.  FPoly keeps its own arithmetic, on
plain field ints.
"""

from __future__ import annotations

from math import gcd

from .errors import TargetTooSmall

DESK_Q_MAX = 1 << 16
TABLE_MAX = 1 << 12

_FIELD_CACHE: dict[tuple, "Fq"] = {}


# ---------------------------------------------------------------------------
# F_p[x] helpers on digit tuples (little-endian, no trailing zeros)


def _ptrim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _padd(p, u, v):
    if len(u) < len(v):
        u, v = v, u
    out = list(u)
    for i, d in enumerate(v):
        out[i] = (out[i] + d) % p
    return _ptrim(tuple(out))


def _pmul(p, u, v):
    if not u or not v:
        return ()
    out = [0] * (len(u) + len(v) - 1)
    for i, du in enumerate(u):
        if du:
            for j, dv in enumerate(v):
                out[i + j] = (out[i + j] + du * dv) % p
    return _ptrim(tuple(out))


def _pmod(p, u, mod):
    u = list(u)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(u) > dm:
        c = u[-1] % p
        if c:
            f = (c * inv_lead) % p
            for i in range(dm + 1):
                u[len(u) - 1 - dm + i] = (u[len(u) - 1 - dm + i] - f * mod[i]) % p
        u.pop()
    return _ptrim(tuple(u))


def _ppowmod(p, u, e, mod):
    r = (1,)
    b = _pmod(p, u, mod)
    while e:
        if e & 1:
            r = _pmod(p, _pmul(p, r, b), mod)
        b = _pmod(p, _pmul(p, b, b), mod)
        e >>= 1
    return r


def _pgcd(p, u, v):
    while v:
        inv = pow(v[-1], p - 2, p)
        r = list(u)
        dv = len(v) - 1
        while len(r) - 1 >= dv and r:
            c = r[-1] % p
            if c:
                f = (c * inv) % p
                for i in range(dv + 1):
                    r[len(r) - 1 - dv + i] = (r[len(r) - 1 - dv + i] - f * v[i]) % p
            r.pop()
            r = list(_ptrim(tuple(r)))
        u, v = v, _ptrim(tuple(r))
    return u


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
    """Distinct-degree (Rabin) irreducibility test for a monic poly over F_p."""
    coeffs = _ptrim(tuple(c % p for c in coeffs))
    n = len(coeffs) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = (0, 1)
    # x^(p^n) == x mod f
    t = x
    for _ in range(n):
        t = _ppowmod(p, t, p, coeffs)
    if _padd(p, t, tuple((-c) % p for c in x)) != ():
        return False
    for ell in _prime_factors(n):
        t = x
        for _ in range(n // ell):
            t = _ppowmod(p, t, p, coeffs)
        g = _pgcd(p, coeffs, _padd(p, t, tuple((-c) % p for c in x)))
        if len(g) - 1 != 0:
            return False
    return True


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
        "_log", "_exp", "_vec", "_red", "_embeds",
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
        # digit vectors of x^(n+k) mod modulus for k = 0..n-1
        self._red = []
        cur = _pmod(p, (0,) * self.n + (1,), modulus)
        for _ in range(self.n):
            self._red.append(tuple(cur) + (0,) * (self.n - len(cur)))
            cur = _pmod(p, (0,) + tuple(cur), modulus)
        self.gen = self._find_generator()
        if self.size <= TABLE_MAX:
            self._build_tables()

    # -- construction ------------------------------------------------------

    @staticmethod
    def get(p, a, m, modulus=None):
        if modulus is None:
            modulus = canonical_modulus(p, a * m)
        modulus = _ptrim(tuple(c % p for c in modulus))
        key = (p, a, m, modulus)
        fld = _FIELD_CACHE.get(key)
        if fld is None:
            if p ** a > DESK_Q_MAX:
                raise ValueError("q exceeds the desk-scale bound 2^16")
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
        return self.reduce_digits(_pmul(self.p, self._decode(x), self._decode(y)))

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
        u = self._vec[x] if self._vec is not None else self._decode(x)
        return self._encode([(-d) % self.p for d in u])

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        if self._log is not None:
            return self._exp[(self._log[x] + self._log[y]) % (self.size - 1)]
        return self._raw_mul(x, y)

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._log is not None:
            return self._exp[(-self._log[x]) % (self.size - 1)]
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
        # baby-step giant-step
        order = self.size - 1
        s = int(order**0.5) + 1
        baby = {}
        cur = 1
        for j in range(s):
            baby.setdefault(cur, j)
            cur = self.mul(cur, self.gen)
        step = self.inv(self._pow_raw(self.gen, s))
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

    Returns [(root, multiplicity)].  Brute force for desk-scale fields;
    a powmod split handles anything larger.
    """
    coeffs = _trim_fq(coeffs)
    if not coeffs:
        raise ValueError("zero polynomial")
    if field.size > DESK_Q_MAX:
        roots = _poly_roots_large(coeffs, field)
    else:
        roots = []
        for x in field.elements():
            acc = 0
            for c in reversed(coeffs):
                acc = field.add(field.mul(acc, x), c)
            if acc == 0:
                roots.append(x)
    out = []
    for r in sorted(roots):
        lin = FPoly(field, (field.neg(r), 1))
        work, mult = FPoly(field, coeffs), 0
        while True:
            quot, rem = work.divmod(lin)
            if not rem.is_zero():
                break
            work, mult = quot, mult + 1
        out.append((r, mult))
    return out


def _poly_roots_large(coeffs, field):
    # The distinct roots of coeffs.  The gcd with y^size - y isolates the
    # split part; its roots separate by gcds with (y + s)^((size-1)/2) - 1
    # for odd p, and for p = 2 with the traces Tr(gen^s * y), s < n: the
    # gen^s form an F_2-basis, so some trace tells any two roots apart.
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

    g = FPoly(field, coeffs)
    sq = g.gcd(y.powmod(field.size, g) - y)
    if sq.deg > 0:
        split(sq)
    return roots


def poly_roots_in_ext(coeffs, source: Fq, target: Fq, require_all=False):
    """Roots in target of a polynomial with coefficients in source.

    Raises TargetTooSmall when require_all is set and some root generates
    a field larger than target.
    """
    phi = source.embed_into(target) if source is not target else (lambda x: x)
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
    """Univariate polynomial over an Fq with a distinguished variable tag.

    Canonical form: no trailing zero coefficients.
    """

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field: Fq, coeffs, var="theta"):
        self.field = field
        self.coeffs = tuple(_trim_fq(list(coeffs)))
        self.var = var

    @staticmethod
    def zero(field, var="theta"):
        return FPoly(field, (), var)

    @staticmethod
    def const(field, c, var="theta"):
        return FPoly(field, (c,), var)

    @staticmethod
    def x(field, var="theta"):
        return FPoly(field, (0, 1), var)

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
        if self.field is not other.field or self.var != other.var:
            raise ValueError("mixed polynomial rings")

    def __add__(self, other):
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return FPoly(f, [f.add(x, y) for x, y in zip(a, b)], self.var)

    def __neg__(self):
        f = self.field
        return FPoly(f, [f.neg(c) for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return FPoly.zero(f, self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, cu in enumerate(self.coeffs):
            if cu:
                for j, cv in enumerate(other.coeffs):
                    out[i + j] = f.add(out[i + j], f.mul(cu, cv))
        return FPoly(f, out, self.var)

    def scale(self, c):
        f = self.field
        return FPoly(f, [f.mul(c, x) for x in self.coeffs], self.var)

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dv = other.deg
        inv = f.inv(other.coeffs[-1])
        quot = [0] * max(0, len(rem) - dv)
        while len(rem) - 1 >= dv and rem:
            c = rem[-1]
            if c:
                fac = f.mul(c, inv)
                quot[len(rem) - 1 - dv] = fac
                for i in range(dv + 1):
                    rem[len(rem) - 1 - dv + i] = f.sub(rem[len(rem) - 1 - dv + i], f.mul(fac, other.coeffs[i]))
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return FPoly(f, quot, self.var), FPoly(f, rem, self.var)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def powmod(self, e, mod):
        """self^e mod `mod`, by repeated squaring."""
        r = FPoly.const(self.field, 1, self.var) % mod
        b = self % mod
        while e:
            if e & 1:
                r = r * b % mod
            b = b * b % mod
            e >>= 1
        return r

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if not a.is_zero():
            a = a.scale(a.field.inv(a.coeffs[-1]))
        return a

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
                parts.append(f"{c}*{self.var}" if c != 1 else self.var)
            else:
                parts.append(f"{c}*{self.var}^{k}" if c != 1 else f"{self.var}^{k}")
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


def poly_gcd(f, g):
    """The last nonzero remainder of Euclid's algorithm, not made monic."""
    f, g = poly_norm(f), poly_norm(g)
    while g:
        f, g = g, poly_divmod(f, g)[1]
    return f


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


class Poly:
    """A polynomial of the toolkit above as a value: coefficients without
    trailing zeros, in a tagged variable."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var):
        self.coeffs = tuple(poly_norm(coeffs))
        self.var = var

    def _like(self, coeffs):
        return Poly(coeffs, self.var)

    @property
    def deg(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __add__(self, o):
        return self._like(poly_add(self.coeffs, o.coeffs))

    def __neg__(self):
        return self._like(poly_neg(self.coeffs))

    def __sub__(self, o):
        return self._like(poly_sub(self.coeffs, o.coeffs))

    def __mul__(self, o):
        return self._like(poly_mul(self.coeffs, o.coeffs))

    def scale(self, c):
        return self._like(poly_scale(self.coeffs, c))

    def divmod(self, o):
        quot, rem = poly_divmod(self.coeffs, o.coeffs)
        return self._like(quot), self._like(rem)

    def __eq__(self, o):
        return isinstance(o, Poly) and self.coeffs == o.coeffs

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join(
            f"({c})*{self.var}^{k}" if k else f"({c})"
            for k, c in enumerate(self.coeffs)
            if not c.is_zero()
        )
