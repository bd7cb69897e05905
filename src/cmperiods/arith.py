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
        self._red = None
        if self.size <= TABLE_MAX:
            self._build_tables()
        else:
            self._build_reduction()
        self.gen = self._find_generator()

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
        prod = _pmul(self.p, self._decode(x), self._decode(y))
        if len(prod) > self.n:
            if self._red is None:
                self._build_reduction()
            acc = list(prod[: self.n]) + [0] * max(0, self.n - len(prod))
            for k in range(self.n, len(prod)):
                if prod[k]:
                    red = self._red[k - self.n]
                    for i, d in enumerate(red):
                        acc[i] = (acc[i] + prod[k] * d) % self.p
            prod = _ptrim(tuple(acc))
        return self._encode(prod)

    def _build_reduction(self):
        # digit vectors of x^(n+k) mod modulus for k = 0..n-2
        self._red = []
        cur = _pmod(self.p, (0,) * self.n + (1,), self.modulus)
        for _ in range(self.n):
            vec = list(cur) + [0] * (self.n - len(cur))
            self._red.append(tuple(vec))
            cur = _pmod(self.p, (0,) + tuple(cur), self.modulus)

    def _build_tables(self):
        self._build_reduction()
        self._vec = [self._decode(x) for x in range(self.size)]
        # find a multiplicative generator by brute order test
        order = self.size - 1
        primes = _prime_factors(order) if order > 1 else []
        gen = None
        for cand in range(1, self.size):
            if cand == 1 and order > 1:
                continue
            if all(self._pow_raw(cand, order // ell) != 1 for ell in primes):
                gen = cand
                break
        if gen is None:
            gen = 1
        self._exp = [1] * max(order, 1)
        self._log = [0] * self.size
        acc = 1
        for i in range(order):
            self._exp[i] = acc
            self._log[acc] = i
            acc = self._raw_mul(acc, gen)

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
        if self._exp is not None:
            return self._exp[1] if self.size > 2 else 1
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
        if self._vec is not None:
            u, v = self._vec[x], self._vec[y]
        else:
            u, v = self._decode(x), self._decode(y)
        return self._encode([(u[i] + v[i]) % self.p for i in range(self.n)])

    def neg(self, x):
        if self.p == 2:
            return x
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
        if self._red is None:
            self._build_reduction()
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
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    out = []
    if field.size <= DESK_Q_MAX:
        for x in field.elements():
            acc = 0
            for c in reversed(coeffs):
                acc = field.add(field.mul(acc, x), c)
            if acc == 0:
                mult = 0
                work = coeffs
                while True:
                    quot, rem = _poly_divmod_linear(work, x, field)
                    if rem != 0:
                        break
                    mult += 1
                    work = quot
                    if not work:
                        break
                out.append((x, mult))
        return out
    return _poly_roots_large(coeffs, field)


def _poly_divmod_linear(coeffs, r, field):
    """Divide by (y - r): returns (quotient coeffs, remainder scalar)."""
    quot = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = field.add(field.mul(acc, r), coeffs[i])
        quot[i - 1] = acc
    rem = field.add(field.mul(acc, r), coeffs[0])
    return quot, rem


def _poly_roots_large(coeffs, field):
    # gcd with y^size - y isolates the split part, then deterministic
    # affine shifts separate the roots.
    p = field.p

    def norm(u):
        u = list(u)
        while u and u[-1] == 0:
            u.pop()
        return u

    def pdiv(u, v):
        u = norm(u)
        v = norm(v)
        inv = field.inv(v[-1])
        q = [0] * max(0, len(u) - len(v) + 1)
        while len(u) >= len(v) and u:
            f = field.mul(u[-1], inv)
            q[len(u) - len(v)] = f
            for i in range(len(v)):
                u[len(u) - len(v) + i] = field.sub(u[len(u) - len(v) + i], field.mul(f, v[i]))
            u = norm(u)
        return q, u

    def pgcd(u, v):
        u, v = norm(u), norm(v)
        while v:
            u, v = v, pdiv(u, v)[1]
        if u:
            inv = field.inv(u[-1])
            u = [field.mul(c, inv) for c in u]
        return u

    def pmulmod(u, v, mod):
        out = [0] * (len(u) + len(v) - 1)
        for i, cu in enumerate(u):
            if cu:
                for j, cv in enumerate(v):
                    out[i + j] = field.add(out[i + j], field.mul(cu, cv))
        return pdiv(out, mod)[1]

    def powmod(u, e, mod):
        r = [1]
        b = pdiv(u, mod)[1]
        while e:
            if e & 1:
                r = pmulmod(r, b, mod)
            b = pmulmod(b, b, mod)
            e >>= 1
        return r

    sq = pgcd(coeffs, [field.sub(c2, c1) for c1, c2 in _pairup(powmod([0, 1], field.size, coeffs), [0, 1])])
    roots = []

    def split(g):
        g = norm(g)
        if len(g) == 1:
            return
        if len(g) == 2:
            roots.append(field.neg(field.mul(g[0], field.inv(g[1]))))
            return
        e = (field.size - 1) // (p - 1) if p > 2 else None
        shift = 0
        while True:
            if p == 2:
                # trace map splitting
                tr = [0, 1]
                cur = [0, 1]
                for _ in range(field.n - 1):
                    cur = pmulmod(cur, cur, g)
                    tr = [field.add(a, b) for a, b in _pairup(tr, cur)]
                h = pgcd(g, tr)
            else:
                base = powmod([shift, 1], e, g)
                base[0] = field.sub(base[0], 1)
                h = pgcd(g, base)
            if 0 < len(h) - 1 < len(g) - 1:
                split(h)
                split(pdiv(g, h)[0])
                return
            shift += 1
            if shift > field.size:
                raise RuntimeError("root splitting failed")

    split(sq)
    out = []
    for r in sorted(roots):
        mult = 0
        work = list(coeffs)
        while True:
            quot, rem = _poly_divmod_linear(work, r, field)
            if rem != 0:
                break
            mult += 1
            work = quot
            if not work:
                break
        out.append((r, mult))
    return out


def _pairup(u, v):
    n = max(len(u), len(v))
    u = list(u) + [0] * (n - len(u))
    v = list(v) + [0] * (n - len(v))
    return list(zip(u, v))


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
