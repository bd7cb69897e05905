"""Shtuka functions on genus-zero models and the motives they cut out.

Coefficient arithmetic is exact end-to-end: the scalars of a motive live
in W = Frac(F_{q^m}[theta][w] / (w^E - u(theta))), a Kummer extension of
the rational function field, realized into Puiseux series only at the
very end (w maps to the canonical n-th root).  Richer coefficient fields
are rejected at model load; every shipped family fits this shape.

On a genus-zero model every degree-zero divisor is principal, so the
divisor equation for a generalized CM type Xi is solved with W = 0 and

    h = prod over xi of (y - nu_xi)^(m_xi)  in W[y],

whose poles automatically match the reduction of Xi at infinity.  Every
shipped model has the Kummer shape y^E = u(t) with u linear: nu = eps * w
on Kummer models, and the rational and constant-field models take E = 1,
u(t) = t, so nu = w = theta.  h is built once, in W[y]; folding it through
y^E = u(t) gives its coordinates on the basis 1, y, .., y^(E-1).  The
motive is the coordinate ring with sigma acting by m -> h * twist(m);
its matrix on the fixed basis, the sigma-ideal identity (read off that
matrix), Hodge-Pink weights (by exact Smith reduction at t - theta),
eigen-differentials and period symbols are computed here.  Tensor
products are the motives of summed divisors.
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


def _mul_mod(a, b, c, zero):
    """The product of two coefficient lists of length E modulo x^E - c:
    the full product has degree at most 2E - 2, and x^(E+k) = c * x^k.
    Slots start empty rather than at zero: a RatF sum with zero still
    costs a gcd in F_q[theta]."""
    E = len(a)
    out = [None] * (2 * E - 1)

    def acc(k, t):
        out[k] = t if out[k] is None else out[k] + t

    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                acc(i + j, x * y)
    for k in range(E, 2 * E - 1):
        if out[k] is not None:
            acc(k - E, out[k] * c)
    return [zero if t is None else t for t in out[:E]]


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
        ring = self.ring
        return WElem(ring, _mul_mod(self.vec, o.vec, RatF(ring.u), RatF.const(ring.cfield, 0)))

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


def _times_y(ypows, u_t):
    """y times an element of W[t][y]/(y^E - u(t)) given by its y-power
    coefficients: the top one wraps around as u(t) times itself."""
    return [ypows[-1] * u_t] + ypows[:-1]


def _fold(h, u_t, E):
    """h in W[y] as its y-power coefficients 0..E-1, each a WPoly in t,
    through y^E = u(t) (Horner from the top coefficient)."""
    ring = u_t.ring
    acc = [WPoly(ring, [])] * E
    for c in reversed(h.coeffs):
        acc = _times_y(acc, u_t)
        acc[0] = acc[0] + WPoly.const(ring, c)
    return acc


def _unfold(ypows, u_t):
    """The inverse of _fold: sum_j c_j(t) y^j with t = (y^E - u0)/u1."""
    ring = u_t.ring
    if u_t.deg != 1:
        raise UnsupportedGenus("u(t) must be linear in t for the y-rewrite")
    u0, u1 = u_t.coeffs
    u1inv = u1.inverse()
    t_as_y = WPoly(ring, [(-u0) * u1inv] + [ring.zero()] * (len(ypows) - 1) + [u1inv], var="y")
    y = WPoly.x(ring, var="y")
    acc = WPoly(ring, [], var="y")
    for c in reversed(ypows):
        acc = acc * y
        if not c.is_zero():
            acc = acc + poly_eval([WPoly.const(ring, a, var="y") for a in c.coeffs], t_as_y)
    return acc


# ---------------------------------------------------------------------------
# shtuka pairs and motives


class ShtukaPair:
    """W = 0 together with the function h in W[y] solving the divisor
    equation; component is the divisor's component on a constant-field
    extension and None on the other models."""

    def __init__(self, model, xi, h, component, ledger):
        self.model = model
        self.xi = xi
        self.h = h
        self.component = component
        self.ledger = ledger

    def ypows(self):
        """h in the coordinate ring: its y-power coefficients in t."""
        ring, u_t = _model_wring(self.model)
        return _fold(self.h, u_t, ring.E)

    def to_json(self):
        ypows = self.ypows()
        if self.component is not None:
            h_repr = repr(ypows[0])
        else:
            h_repr = " + ".join(
                f"({c})*y^{j}" if j else f"({c})" for j, c in enumerate(ypows) if not c.is_zero()
            )
        return {
            "model": self.model.name,
            "xi": self.xi.to_json(),
            "W": {},
            "h": h_repr,
            "ledger": self.ledger,
        }


def _model_wring(model: CMFieldModel):
    """The model's scalar ring W and u(t), with y^E = u(t).

    The rational and constant-field models are the Kummer shape E = 1,
    u(t) = t, so w realizes to theta.  Built once per model, so that every
    shtuka function, motive matrix and basis change on the model lives on
    one ring object: WElem equality compares rings by identity.
    """
    if model._wring is None:
        if model.kind == "monogenic":
            ring = WRing(model.base, model.E, FPoly(model.base, model.u_coeffs))
            u_t = WPoly(ring, [ring.scalar(c) for c in model.u_coeffs])
        elif model.kind in ("rational", "constant-ext"):
            field = model.const_field if model.kind == "constant-ext" else model.base
            ring = WRing(field, 1, FPoly.x(field))
            u_t = WPoly.x(ring)
        else:
            raise UnsupportedGenus(model.kind)
        model._wring = ring, u_t
    return model._wring


def _linear_factors(model: CMFieldModel, xi: CMDivisor, prec):
    """prod over the points of (y - nu_xi)^(m_xi) in W[y], with nu = eps * w
    on Kummer models and nu = w elsewhere, and the zeros it was built from."""
    ring, _ = _model_wring(model)
    w = ring.w()
    h = WPoly.const(ring, ring.one(), var="y")
    zeros = {}
    for pt in model.points(prec):
        m = xi[pt.label]
        if not m:
            continue
        zeros[pt.label] = m
        nu = w if pt.epsilon is None else ring.scalar(pt.epsilon) * w
        lin = WPoly(ring, [-nu, ring.one()], var="y")
        for _ in range(m):
            h = h * lin
    return h, zeros


def solve_shtuka(model: CMFieldModel, xi: CMDivisor, prec=120):
    """Solve div(h) = Xi - I_Xi on the genus-zero model (W = 0).

    Every degree-zero divisor on a genus-zero curve is principal, so h is
    the product of (y - nu_xi) to the divisor multiplicities; the pole
    ledger at infinity is attached and checked against the reduction.  On
    a constant-field extension the divisor must sit on one component.
    """
    from .cmtypes import reduction_at_infinity

    red = reduction_at_infinity(xi, model, prec)
    component = None
    if model.kind == "constant-ext":
        comps = {model.point(l, prec).component for l in xi.support()}
        if len(comps) != 1:
            raise UnsupportedGenus("constant-ext builds support a single-component divisor")
        (component,) = comps
    h, zeros = _linear_factors(model, xi, prec)
    ledger = {"zeros": zeros, "poles": {"inf0": xi.degree()}}
    if component is not None:
        ledger.update(component=component, twist_order=model.ell)
    ledger["reduction"] = {f"{k[0]}|{k[1]}": v for k, v in red.items()}
    ledger["matches_reduction"] = xi.degree() == sum(red.values())
    return ShtukaPair(model, xi, h, component, ledger)


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

    Monomial basis 1, y, .., y^(E-1) on Kummer-shape models, where row j of
    Phi is y^j h; the component idempotent basis (ordered so the twist
    cycles upward from the divisor's component) for constant-field
    extensions.
    """
    if pair.model is not model:
        raise ModelMismatch("pair was solved on a different model")
    sigma_exponents = {pt.label: xi[pt.label] for pt in model.points(prec)}
    ring, u_t = _model_wring(model)
    one, zero = WPoly.const(ring, ring.one()), WPoly(ring, [])
    if pair.component is None:
        # basis elements are F_q-rational: untouched by the twist
        phi = [pair.ypows()]
        while len(phi) < ring.E:
            phi.append(_times_y(phi[-1], u_t))
        units = [[one if i == j else zero for i in range(ring.E)] for j in range(ring.E)]
        y_action = [_times_y(row, u_t) for row in units]
        basis = [f"y^{j}" for j in range(ring.E)]
    else:
        # basis b_k = e_((comp-1-k) mod ell): sigma cycles b_k -> b_(k-1)
        # with the shtuka factor attached to the wrap-around, which is the
        # companion shape of the paired Drinfeld module's own motive
        ell = model.ell
        (h,) = pair.ypows()
        phi = []
        for k in range(ell):
            row = [zero] * ell
            if k == 0:
                row[ell - 1] = h
            else:
                row[k - 1] = one
            phi.append(row)
        K = model.const_field
        y_action = []
        basis = []
        for k in range(ell):
            cidx = (pair.component - 1 - k) % ell
            row = [zero] * ell
            row[k] = WPoly.const(ring, ring.scalar(K.frob_q(model.const_gen, -cidx)))
            y_action.append(row)
            basis.append(f"e{cidx}")
    motive = DualMotive(model, xi, ring, phi, basis, y_action, pair, sigma_exponents)
    inv = motive.check_invariants()
    if not inv["ok"]:
        raise BasisExpansionFailure(inv["reason"])
    return motive


def tensor_motives(m1: DualMotive, m2: DualMotive, prec=120):
    """Tensor over the coordinate ring: CM types add, and the shtuka
    function is the one of the summed divisor."""
    if m1.model is not m2.model:
        raise ModelMismatch("tensor factors live on different models")
    xi = m1.xi + m2.xi
    return build_motive(m1.model, solve_shtuka(m1.model, xi, prec), xi, prec)


# ---------------------------------------------------------------------------
# sigma-ideal identity


def sigma_ideal_check(motive: DualMotive, prec=120):
    """Verify sigma M = (prod P_xi^{m_xi}) M by generator comparison.

    On the affine coordinate ring (a PID over the exact scalar field W
    once t is eliminated), both sides are principal; equality is associate
    equality of the generators.  The generator of sigma M is read off Phi:
    its first row, or on a constant-field extension its wrap-around entry.
    """
    _, u_t = _model_wring(motive.model)
    phi = motive.phi
    h_y = _unfold(phi[0] if motive.pair.component is None else [phi[0][-1]], u_t)
    expected, _ = _linear_factors(motive.model, motive.xi, prec)
    q1, r1 = h_y.divmod(expected)
    q2, r2 = expected.divmod(h_y) if not h_y.is_zero() else (None, None)
    both = r1.is_zero() and r2 is not None and r2.is_zero()
    return {"pass": bool(both and q1.deg == 0), "generator_degree": h_y.deg}


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
    comp0 = motive.pair.component
    if comp0 is None:
        for pt in pts:
            nu = pt.value.with_prec_val(prec)
            row = [InfElem.const(nu.field, 1, prec, nu.e)]
            for _ in range(motive.rank - 1):
                row.append(row[-1] * nu)
            out[pt.label] = row
    else:
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
