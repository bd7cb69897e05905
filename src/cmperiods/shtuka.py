"""Shtuka functions on genus-zero models and the motives they cut out.

Coefficient arithmetic is exact end-to-end: the scalars of a motive live
in W = Frac(F_{q^m}[theta][w] / (w^E - u(theta))), a Kummer extension of
the rational function field, realized into Puiseux series only at the
very end (w maps to the canonical n-th root).  Richer coefficient fields
are rejected at model load; every shipped family fits this shape.

On a genus-zero model every degree-zero divisor is principal, so the
divisor equation for a generalized CM type Xi is solved with W = 0 and

    h = prod over xi of (y - nu_xi(y))^(m_xi),

whose poles automatically match the reduction of Xi at infinity.  The
motive is the coordinate ring with sigma acting by m -> h * twist(m);
its matrix on the fixed basis, the sigma-ideal identity, Hodge-Pink
weights (by exact Smith reduction at t - theta), eigen-differentials and
period symbols are computed here.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import FPoly, Fq, Poly, poly_eval, poly_inv_mod
from .cmtypes import CMDivisor, CMFieldModel
from .errors import (
    BasisExpansionFailure,
    ModelMismatch,
    UnsupportedGenus,
)
from .infinity import InfElem, inf_nth_root
from .tate import TateMatrix, TateSeries, adj_inverse, det

# ---------------------------------------------------------------------------
# exact scalars: rational functions and Kummer-ring elements


class RatF:
    """Rational function num/den over a constant field, variable theta."""

    __slots__ = ("num", "den")

    def __init__(self, num: FPoly, den: FPoly = None):
        field = num.field
        if den is None:
            den = FPoly.const(field, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if g.deg > 0:
            num = num // g
            den = den // g
        if not den.is_zero() and den.coeffs and den.coeffs[-1] != 1:
            inv = field.inv(den.coeffs[-1])
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @staticmethod
    def const(field, c):
        return RatF(FPoly.const(field, c))

    @staticmethod
    def theta(field):
        return RatF(FPoly.x(field))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, o):
        return RatF(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RatF(-self.num, self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return RatF(self.num * o.num, self.den * o.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatF(self.den, self.num)

    def __eq__(self, o):
        return isinstance(o, RatF) and self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def realize(self, prec):
        field = self.num.field
        nv = InfElem.from_poly(field, self.num.coeffs, prec)
        if self.den.deg == 0 and self.den.coeffs == (1,):
            return nv
        dv = InfElem.from_poly(field, self.den.coeffs, prec)
        return nv / dv

    def __repr__(self):
        if self.den.deg == 0:
            return repr(self.num)
        return f"({self.num})/({self.den})"


class WRing:
    """F_{q^m}(theta)[w]/(w^E - u(theta)); the exact scalar field of a motive."""

    def __init__(self, cfield: Fq, E: int, u: FPoly):
        self.cfield = cfield
        self.E = E
        self.u = u
        self._roots = {}

    def zero(self):
        return WElem(self, (RatF.const(self.cfield, 0),) * self.E)

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        vec = [RatF.const(self.cfield, 0)] * self.E
        vec[0] = RatF.const(self.cfield, c)
        return WElem(self, tuple(vec))

    def from_rat(self, r: RatF):
        vec = [RatF.const(self.cfield, 0)] * self.E
        vec[0] = r
        return WElem(self, tuple(vec))

    def theta(self):
        return self.from_rat(RatF.theta(self.cfield))

    def w(self):
        if self.E == 1:
            return self.from_rat(RatF(self.u))
        vec = [RatF.const(self.cfield, 0)] * self.E
        vec[1] = RatF.const(self.cfield, 1)
        return WElem(self, tuple(vec))

    def w_value(self, prec):
        """Canonical numeric root of u(theta) realizing w."""
        key = prec
        cached = self._roots.get(key)
        if cached is None:
            uval = InfElem.from_poly(self.cfield, self.u.coeffs, prec)
            cached = inf_nth_root(uval, self.E) if self.E > 1 else uval
            self._roots[key] = cached
        return cached

    def convention(self):
        return {
            "E": self.E,
            "u_coeffs": list(self.u.coeffs),
            "w": "canonical E-th root (least discrete-log leading coefficient)",
        }


class WElem:
    """Element sum vec[i] * w^i of a WRing."""

    __slots__ = ("ring", "vec")

    def __init__(self, ring: WRing, vec):
        self.ring = ring
        self.vec = tuple(vec)

    def is_zero(self):
        return all(c.is_zero() for c in self.vec)

    def __add__(self, o):
        return WElem(self.ring, tuple(a + b for a, b in zip(self.vec, o.vec)))

    def __neg__(self):
        return WElem(self.ring, tuple(-a for a in self.vec))

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        E = self.ring.E
        u = RatF(self.ring.u)
        out = [RatF.const(self.ring.cfield, 0)] * E
        for i, a in enumerate(self.vec):
            if a.is_zero():
                continue
            for j, b in enumerate(o.vec):
                if b.is_zero():
                    continue
                k = i + j
                term = a * b
                if k >= E:
                    k -= E
                    term = term * u
                out[k] = out[k] + term
        return WElem(self.ring, tuple(out))

    def __eq__(self, o):
        return isinstance(o, WElem) and self.ring is o.ring and self.vec == o.vec

    def __hash__(self):
        return hash((id(self.ring), self.vec))

    def inverse(self):
        # the w-polynomial inverted modulo w^E - u over F_{q^m}(theta);
        # ZeroDivisionError for zero, and for a zero divisor when w^E - u
        # is reducible
        ring = self.ring
        zero, one = RatF.const(ring.cfield, 0), RatF.const(ring.cfield, 1)
        vec = poly_inv_mod(self.vec, [-RatF(ring.u)] + [zero] * (ring.E - 1) + [one])
        return WElem(ring, vec + [zero] * (ring.E - len(vec)))

    def realize(self, prec):
        w = self.ring.w_value(prec) if self.ring.E > 1 else None
        acc = None
        for i, c in enumerate(self.vec):
            if c.is_zero():
                continue
            term = c.realize(prec)
            if i:
                term = term * (w ** i)
            acc = term if acc is None else acc + term
        if acc is None:
            return InfElem.zero(self.ring.cfield, prec)
        return acc

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.vec):
            if c.is_zero():
                continue
            parts.append(f"({c})" + ("" if i == 0 else f"*w^{i}" if i > 1 else "*w"))
        return " + ".join(parts) or "0"


class WPoly(Poly):
    """Polynomial over a WRing in a tagged variable (t by default)."""

    __slots__ = ("ring",)

    def __init__(self, ring, coeffs, var="t"):
        super().__init__(coeffs, var)
        self.ring = ring

    def _like(self, coeffs):
        return WPoly(self.ring, coeffs, self.var)

    @staticmethod
    def const(ring, c: WElem, var="t"):
        return WPoly(ring, [c], var)

    @staticmethod
    def x(ring, var="t"):
        return WPoly(ring, [ring.zero(), ring.one()], var)

    def realize_at_theta(self, prec):
        """Exact evaluation at t = theta, then into the series field."""
        ring = self.ring
        return poly_eval(self.coeffs or [ring.zero()], ring.theta()).realize(prec)

    def realize_tate(self, T, prec):
        ring = self.ring
        coeffs = [c.realize(prec) for c in self.coeffs] or [ring.zero().realize(prec)]
        return TateSeries.poly(coeffs, T)


def t_minus_theta(ring: WRing):
    return WPoly(ring, [-ring.theta(), ring.one()])


class CoordElem:
    """Element of the coordinate ring W[t][y] / (y^E - u(t)), u linear in t.

    Stored as y-power coefficients, each a WPoly in t.
    """

    __slots__ = ("ring", "ypows", "u_t")

    def __init__(self, ring: WRing, ypows, u_t: WPoly):
        z = WPoly(ring, [])
        ypows = list(ypows) + [z] * (ring.E - len(ypows))
        self.ring = ring
        self.ypows = ypows[: ring.E]
        self.u_t = u_t

    def __add__(self, o):
        return CoordElem(self.ring, [a + b for a, b in zip(self.ypows, o.ypows)], self.u_t)

    def __mul__(self, o):
        E = self.ring.E
        z = WPoly(self.ring, [])
        out = [z] * (2 * E)
        for i, a in enumerate(self.ypows):
            if a.is_zero():
                continue
            for j, b in enumerate(o.ypows):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        for k in range(2 * E - 1, E - 1, -1):
            if not out[k].is_zero():
                out[k - E] = out[k - E] + out[k] * self.u_t
                out[k] = z
        return CoordElem(self.ring, out[:E], self.u_t)

    def to_ypoly(self):
        """Rewrite as a one-variable polynomial in y over W (t eliminated)."""
        ring = self.ring
        u1 = self.u_t.coeffs[1] if self.u_t.deg >= 1 else ring.zero()
        u0 = self.u_t.coeffs[0] if self.u_t.coeffs else ring.zero()
        if u1.is_zero():
            raise UnsupportedGenus("u(t) must be linear in t for the y-rewrite")
        u1inv = u1.inverse()
        # t = (y^E - u0)/u1
        E = self.ring.E
        t_poly = [(-u0) * u1inv] + [ring.zero()] * (E - 1) + [u1inv]
        t_as_y = WPoly(ring, t_poly, var="y")
        acc = WPoly(ring, [], var="y")
        for i, c in enumerate(self.ypows):
            if c.is_zero():
                continue
            term = WPoly(ring, [ring.zero()] * i + [ring.one()], var="y")
            # c, a polynomial in t, evaluated at t_as_y
            val = poly_eval([WPoly.const(ring, tc, var="y") for tc in c.coeffs], t_as_y)
            acc = acc + val * term
        return acc


# ---------------------------------------------------------------------------
# shtuka pairs and motives


class ShtukaPair:
    """W = 0 together with the function h solving the divisor equation."""

    def __init__(self, model, xi, kind, data, ledger):
        self.model = model
        self.xi = xi
        self.kind = kind  # "monogenic" | "constant-ext"
        self.data = data  # monogenic: CoordElem h; const-ext: dict
        self.ledger = ledger

    def to_json(self):
        if self.kind == "constant-ext":
            h_repr = repr(self.data["h"])
        else:
            h_repr = " + ".join(
                f"({c})*y^{j}" if j else f"({c})"
                for j, c in enumerate(self.data.ypows)
                if not c.is_zero()
            )
        return {
            "model": self.model.name,
            "xi": self.xi.to_json(),
            "W": {},
            "h": h_repr,
            "ledger": self.ledger,
        }


def _model_wring(model: CMFieldModel):
    """The model's scalar ring W and u(t) (None for constant-ext).

    Built once per model, so that every shtuka function, motive matrix and
    basis change on the model lives on one ring object: WElem equality
    compares rings by identity.
    """
    if model._wring is None:
        if model.kind == "rational":
            # degenerate Kummer shape: E = 1, u(t) = t, so w realizes to theta
            ring = WRing(model.base, 1, FPoly.x(model.base))
            u_t = WPoly(ring, [ring.zero(), ring.one()])
        elif model.kind == "monogenic":
            ring = WRing(model.base, model.E, FPoly(model.base, model.u_coeffs))
            u_t = WPoly(ring, [ring.scalar(c) for c in model.u_coeffs])
        elif model.kind == "constant-ext":
            ring = WRing(model.const_field, 1, FPoly.x(model.const_field))
            u_t = None
        else:
            raise UnsupportedGenus(model.kind)
        model._wring = ring, u_t
    return model._wring


def solve_shtuka(model: CMFieldModel, xi: CMDivisor, prec=120):
    """Solve div(h) = Xi - I_Xi on the genus-zero model (W = 0).

    Every degree-zero divisor on a genus-zero curve is principal, so h is
    the product of (y - nu_xi(y)) to the divisor multiplicities; the pole
    ledger at infinity is attached and checked against the reduction.
    """
    from .cmtypes import reduction_at_infinity

    info_points = model.points(prec)
    red = reduction_at_infinity(xi, model, prec)
    if model.kind in ("rational", "monogenic"):
        ring, u_t = _model_wring(model)
        w = ring.w()
        one = CoordElem(ring, [WPoly.const(ring, ring.one())], u_t)
        h = one
        zero_ledger = {}
        for pt in info_points:
            m = xi[pt.label]
            if not m:
                continue
            zero_ledger[pt.label] = m
            if model.kind == "rational":
                # E = 1: y is t itself, so the linear factor is t - theta
                lin = CoordElem(ring, [t_minus_theta(ring)], u_t)
            else:
                nu = ring.scalar(pt.epsilon) * w
                lin = CoordElem(
                    ring,
                    [WPoly.const(ring, -nu), WPoly.const(ring, ring.one())],
                    u_t,
                )
            for _ in range(m):
                h = h * lin
        pole_total = xi.degree()
        ledger = {
            "zeros": zero_ledger,
            "poles": {"inf0": pole_total},
            "reduction": {f"{k[0]}|{k[1]}": v for k, v in red.items()},
            "matches_reduction": pole_total == sum(red.values()),
        }
        return ShtukaPair(model, xi, model.kind if model.kind != "rational" else "monogenic", h, ledger)
    if model.kind == "constant-ext":
        supp = xi.support()
        comps = {model.point(l, prec).component for l in supp}
        if len(comps) != 1:
            raise UnsupportedGenus(
                "constant-ext builds support a single-component divisor"
            )
        comp = comps.pop()
        m = xi.degree()
        ring, _ = _model_wring(model)
        h = t_minus_theta(ring)
        hp = h
        for _ in range(m - 1):
            hp = hp * h
        ledger = {
            "zeros": {supp[0]: m},
            "poles": {"inf0": m},
            "component": comp,
            "twist_order": model.ell,
            "reduction": {f"{k[0]}|{k[1]}": v for k, v in red.items()},
            "matches_reduction": m == sum(red.values()),
        }
        return ShtukaPair(model, xi, "constant-ext", {"h": hp, "component": comp}, ledger)
    raise UnsupportedGenus(model.kind)


class DualMotive:
    """Free module over W[t] with the sigma-action matrix Phi recorded."""

    def __init__(self, model, xi, ring, phi, basis, y_action, pair, sigma_exponents):
        self.model = model
        self.xi = xi
        self.ring = ring
        self.phi = phi  # list of rows of WPoly
        self.basis = basis
        self.y_action = y_action
        self.pair = pair
        self.sigma_exponents = sigma_exponents
        self.rank = len(phi)

    def det_phi(self):
        return det(self.phi)

    def check_invariants(self):
        """det Phi = c (t-theta)^(deg Xi), c nonzero; rank = [K:F_q(t)]."""
        det = self.det_phi()
        n = self.xi.degree()
        tt = t_minus_theta(self.ring)
        quot = det
        for _ in range(n):
            quot, rem = quot.divmod(tt)
            if not rem.is_zero():
                return {"ok": False, "reason": "det not divisible by (t-theta)^degXi"}
        if quot.deg != 0 or quot.is_zero():
            return {"ok": False, "reason": "det/(t-theta)^degXi is not a nonzero scalar"}
        if self.rank != self.model.degree:
            return {"ok": False, "reason": "rank mismatch"}
        return {"ok": True, "constant": quot.coeffs[0], "exponent": n}

    def phi_tate(self, T, prec):
        return TateMatrix([[c.realize_tate(T, prec) for c in row] for row in self.phi])

    def to_json(self):
        return {
            "model": self.model.name,
            "xi": self.xi.to_json(),
            "rank": self.rank,
            "basis": self.basis,
            "phi": [[repr(c) for c in row] for row in self.phi],
            "sigma_exponents": self.sigma_exponents,
            "ring": self.ring.convention(),
        }


def build_motive(model: CMFieldModel, pair: ShtukaPair, xi: CMDivisor, prec=120):
    """Expand sigma on the fixed basis of the coordinate-ring motive.

    Monomial basis 1, y, .., y^(E-1) for monogenic models; the component
    idempotent basis (ordered so the twist cycles upward from the divisor's
    component) for constant-field extensions.
    """
    if pair.model is not model:
        raise ModelMismatch("pair was solved on a different model")
    sigma_exponents = {pt.label: xi[pt.label] for pt in model.points(prec)}
    if pair.kind == "monogenic":
        ring, u_t = _model_wring(model)
        E = model.degree
        h = pair.data
        phi = []
        for j in range(E):
            yj = CoordElem(ring, [WPoly(ring, [])] * j + [WPoly.const(ring, ring.one())], u_t)
            img = h * yj  # basis elements are F_q-rational: untouched by the twist
            phi.append(list(img.ypows)[:E])
        # multiplication-by-y matrix on the same basis
        y_action = []
        for j in range(E):
            row = [WPoly(ring, [])] * E
            if j + 1 < E:
                row[j + 1] = WPoly.const(ring, ring.one())
            else:
                row[0] = u_t
            y_action.append(row)
        basis = [f"y^{j}" for j in range(E)]
        motive = DualMotive(model, xi, ring, phi, basis, y_action, pair, sigma_exponents)
    elif pair.kind == "constant-ext":
        # basis b_k = e_((comp-1-k) mod ell): sigma cycles b_k -> b_(k-1)
        # with the shtuka factor attached to the wrap-around, which is the
        # companion shape of the paired Drinfeld module's own motive
        ring, _ = _model_wring(model)
        ell = model.ell
        comp = pair.data["component"]
        h = pair.data["h"]
        one = WPoly.const(ring, ring.one())
        zero = WPoly(ring, [])
        phi = []
        for k in range(ell):
            row = [zero] * ell
            if k == 0:
                row[ell - 1] = h
            else:
                row[k - 1] = one
            phi.append(row)
        K = model.const_field
        gen_root = min(r for r, _ in _const_roots(model))
        y_action = []
        basis = []
        for k in range(ell):
            cidx = (comp - 1 - k) % ell
            val = K.frob_q(gen_root, -cidx)
            row = [zero] * ell
            row[k] = WPoly.const(ring, ring.scalar(val))
            y_action.append(row)
            basis.append(f"e{cidx}")
        motive = DualMotive(model, xi, ring, phi, basis, y_action, pair, sigma_exponents)
    else:
        raise UnsupportedGenus(pair.kind)
    inv = motive.check_invariants()
    if not inv["ok"]:
        raise BasisExpansionFailure(inv["reason"])
    return motive


def _const_roots(model):
    from .arith import poly_roots_in_ext

    return poly_roots_in_ext(
        list(model.const_field.modulus), model.base, model.const_field, require_all=True
    )


def tensor_motives(m1: DualMotive, m2: DualMotive, prec=120):
    """Tensor over the coordinate ring: shtukas multiply, CM types add."""
    if m1.model is not m2.model:
        raise ModelMismatch("tensor factors live on different models")
    xi = m1.xi + m2.xi
    if m1.pair.kind == "monogenic":
        h = m1.pair.data * m2.pair.data
        led = dict(m1.pair.ledger)
        led["zeros"] = {k: m1.xi[k] + m2.xi[k] for k in set(m1.xi.support()) | set(m2.xi.support())}
        led["poles"] = {"inf0": xi.degree()}
        pair = ShtukaPair(m1.model, xi, "monogenic", h, led)
    else:
        h = m1.pair.data["h"] * m2.pair.data["h"]
        pair = ShtukaPair(
            m1.model,
            xi,
            "constant-ext",
            {"h": h, "component": m1.pair.data["component"]},
            dict(m1.pair.ledger),
        )
    return build_motive(m1.model, pair, xi, prec)


# ---------------------------------------------------------------------------
# sigma-ideal identity


def sigma_ideal_check(motive: DualMotive, prec=120):
    """Verify sigma M = (prod P_xi^{m_xi}) M by generator comparison.

    On the affine coordinate ring (a PID over the exact scalar field W
    once t is eliminated), both sides are principal; equality is associate
    equality of the generators.
    """
    model = motive.model
    if motive.pair.kind == "monogenic":
        ring = motive.ring
        h_y = motive.pair.data.to_ypoly()
        w = ring.w()
        expected = WPoly.const(ring, ring.one(), var="y")
        for pt in model.points(prec):
            m = motive.xi[pt.label]
            if not m:
                continue
            nu = ring.theta() if model.kind == "rational" else ring.scalar(pt.epsilon) * w
            lin = WPoly(ring, [-nu, ring.one()], var="y")
            for _ in range(m):
                expected = expected * lin
        q1, r1 = h_y.divmod(expected)
        q2, r2 = expected.divmod(h_y) if not h_y.is_zero() else (None, None)
        both = r1.is_zero() and r2 is not None and r2.is_zero()
        unit = both and q1.deg == 0
        return {"pass": bool(both and unit), "generator_degree": h_y.deg}
    if motive.pair.kind == "constant-ext":
        # per component: (t-theta)^m at the divisor's component, unit elsewhere
        h = motive.pair.data["h"]
        m = motive.xi.degree()
        tt = t_minus_theta(motive.ring)
        expected = WPoly.const(motive.ring, motive.ring.one())
        for _ in range(m):
            expected = expected * tt
        q, r = h.divmod(expected)
        ok = r.is_zero() and q.deg == 0 and not q.is_zero()
        return {"pass": bool(ok), "generator_degree": h.deg}
    raise UnsupportedGenus(motive.pair.kind)


# ---------------------------------------------------------------------------
# Hodge-Pink weights via exact Smith reduction


def _smith_tdeg(mat, ring):
    """Elementary divisors of a WPoly matrix over the PID W[t]."""
    m = [[c for c in row] for row in mat]
    n = len(m)
    divisors = []
    top = 0
    while top < n:
        # find the nonzero entry of least t-degree in the submatrix
        best = None
        for i in range(top, n):
            for j in range(top, n):
                if not m[i][j].is_zero():
                    if best is None or m[i][j].deg < m[best[0]][best[1]].deg:
                        best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        pivot = m[top][top]
        done = True
        for i in range(top + 1, n):
            q, r = m[i][top].divmod(pivot)
            if not q.is_zero() or not r.is_zero():
                for j in range(top, n):
                    m[i][j] = m[i][j] - q * m[top][j]
                if not r.is_zero():
                    done = False
        for j in range(top + 1, n):
            q, r = m[top][j].divmod(pivot)
            if not q.is_zero() or not r.is_zero():
                for i in range(top, n):
                    m[i][j] = m[i][j] - m[i][top] * q
                if not r.is_zero():
                    done = False
        if not done:
            continue
        off = False
        for i in range(top + 1, n):
            if not m[i][top].is_zero():
                off = True
        for j in range(top + 1, n):
            if not m[top][j].is_zero():
                off = True
        if off:
            continue
        divisors.append(pivot)
        top += 1
    return divisors


def hodge_pink_weights(motive: DualMotive):
    """Elementary-divisor exponents of M/sigma M at (t - theta), negated.

    Returns the sorted weight list, one entry per basis element (weight 0
    for trivial divisors).
    """
    divs = _smith_tdeg(motive.phi, motive.ring)
    tt = t_minus_theta(motive.ring)
    weights = []
    for d in divs:
        v = 0
        cur = d
        while True:
            q, r = cur.divmod(tt)
            if r.is_zero():
                v += 1
                cur = q
            else:
                break
        weights.append(-v)
    weights += [0] * (motive.rank - len(weights))
    return sorted(weights)


# ---------------------------------------------------------------------------
# eigen-differentials and period symbols


def eigendifferentials(motive: DualMotive, prec=120):
    """Per point xi, the row functional on M/(t-theta)M with
    omega(y m) = nu_xi(y) omega(m), normalized to 1 on the first basis
    element outside P_xi M.  Returned as {label: [InfElem, ...]}."""
    model = motive.model
    pts = model.points(prec)
    out = {}
    if motive.pair.kind == "monogenic":
        for pt in pts:
            nu = pt.value.with_prec_val(prec)
            row = [InfElem.const(nu.field, 1, prec, nu.e)]
            for _ in range(motive.rank - 1):
                row.append(row[-1] * nu)
            out[pt.label] = row
    else:
        comp0 = motive.pair.data["component"]
        ell = model.ell
        for pt in pts:
            k = (comp0 - 1 - pt.component) % ell
            row = []
            for j in range(ell):
                row.append(
                    InfElem.const(pt.value.field, 1 if j == k else 0, prec, pt.value.e)
                )
            out[pt.label] = row
    return out


def period_symbols(motive: DualMotive, psi: TateMatrix, prec=120, psi_inv_theta=None):
    """Representatives of the period symbols p(xi, Xi) for every xi.

    The fixed Betti vector is the first entry of Psi^(-1) applied to the
    basis; each eigen-differential evaluates it.  Pipelines that assemble
    Psi from quasi-periods pass Psi^(-1)(theta) directly; otherwise the
    evaluated matrix is inverted through its adjugate.  Representatives are only
    canonical up to algebraic multiples, so the report records every
    convention that went into them.
    """
    inv = psi_inv_theta if psi_inv_theta is not None else adj_inverse(psi.eval_theta())
    omegas = eigendifferentials(motive, prec)
    values = {}
    for label, row in omegas.items():
        acc = None
        for j in range(motive.rank):
            term = inv[0][j] * row[j]
            acc = term if acc is None else acc + term
        values[label] = acc
    conventions = {
        "basis": motive.basis,
        "betti_vector": "first row of Psi^(-1) evaluated at theta",
        "normalization": "omega = 1 on the first basis element outside P_xi M",
        "ring": motive.ring.convention(),
    }
    return {"values": values, "conventions": conventions}


def extended_symbol(model: CMFieldModel, xi1_label: str, xi2_label: str):
    """Symbolic bookkeeping for the pairing extended to point pairs.

    Returns the formal decomposition: a rational exponent of the
    fundamental period and the divisor whose symbol enters with exponent
    1/[K:K+]; no root of a period is materialized.
    """
    pts = model.points()
    anchor = model.point(xi2_label)
    c = model.cm_degree
    r = model.degree
    phi20 = CMDivisor({xi2_label: c}) - CMDivisor(
        {p.label: 1 for p in pts if p.fiber == anchor.fiber}
    )
    return {
        "pi_exponent": Fraction(1, r),
        "base_divisor": phi20.to_json(),
        "base_exponent": Fraction(1, c),
        "left_point": xi1_label,
    }
