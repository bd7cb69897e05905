"""Drinfeld modules and their analytic data: exponential and logarithm
coefficients, torsion, period lattices, Anderson generating functions,
quasi-periods, and the assembly of rigid analytic trivializations.

Only the one-dimensional (Drinfeld) case gets the root-finding paths;
that covers every shipped family.  The exponential is solved degree by
degree from its defining functional equation, never taken from a closed
form, so closed forms remain available as independent test oracles.

Period lattices are found through division chains: starting from a
t-torsion point, repeatedly divide by t along the maximal-valuation
branch until the logarithm series converges, then undo by the scalar
t-action.  Chains that fail to enter the convergence domain raise
ChainNotConverging rather than returning junk.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    ChainNotConverging,
    ConsistencyFailure,
    NoDecay,
    PrecisionExhausted,
    SingularRecursion,
)
from .infinity import InfElem, align_all, newton_roots
from .tate import Decay, TateMatrix, TateSeries, check_difference_eq, mat_mul


class TModule:
    """A Drinfeld module rho_t = theta + a_1 tau + ... + a_r tau^r.

    Coefficients are InfElems over a common field; an optional CM action
    (for example rho_y) may be attached as a second twisted polynomial.
    The defining nilpotence constraint collapses to a_0 = theta exactly in
    dimension one, which is verified at construction.
    """

    def __init__(self, coeffs, cm_action=None, name=None):
        self.coeffs, fld, e = align_all(coeffs)
        # the working precision, in valuation units, and theta at it
        self.prec = self.coeffs[0].prec // e
        self.theta = InfElem.theta(fld, self.prec, e)
        if not (self.coeffs[0] - self.theta).is_zero():
            raise ValueError("degree-zero term of rho_t must be theta")
        self.field = fld
        self.e = e
        self.rank = len(self.coeffs) - 1
        self.dim = 1
        self.q = fld.q
        self.cm_action = cm_action
        self.name = name or f"drinfeld-rank{self.rank}"
        self._exp = None
        self._log = None
        if cm_action is not None:
            self._check_cm_commutes()

    def _check_cm_commutes(self):
        lhs = skew_mul(self.coeffs, self.cm_action, self.q)
        rhs = skew_mul(self.cm_action, self.coeffs, self.q)
        for a, b in zip(lhs, rhs):
            if not (a - b).is_zero():
                raise ValueError("CM action does not commute with rho_t")

    def apply(self, x: InfElem):
        """rho_t(x) = theta x + a_1 x^q + ... + a_r x^(q^r)."""
        acc = None
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            term = a * x.frobenius(j)
            acc = term if acc is None else acc + term
        return acc

    # -- exponential / logarithm -------------------------------------------

    def exp_coeffs(self, i_max):
        """E_0..E_{i_max} of exp(z) = sum E_i z^(q^i), solved from
        exp(theta z) = rho_t(exp z) degree by degree."""
        if self._exp is None or len(self._exp) <= i_max:
            fld, e, prec, theta = self.field, self.e, self.prec, self.theta
            es = self._exp or [InfElem.const(fld, 1, prec, e)]
            for i in range(len(es), i_max + 1):
                acc = None
                for j in range(1, min(i, self.rank) + 1):
                    a = self.coeffs[j]
                    if a.is_zero():
                        continue
                    term = a * es[i - j].frobenius(j)
                    acc = term if acc is None else acc + term
                denom = theta.frobenius(i) - theta
                if denom.is_zero():
                    raise SingularRecursion("theta^(q^i) = theta at working precision")
                if acc is None:
                    acc = InfElem.zero(fld, prec, e)
                es.append(acc / denom)
            self._exp = es
        return self._exp[: i_max + 1]

    def log_coeffs(self, i_max):
        """Compositional inverse coefficients: exp(log z) = z."""
        if self._log is None or len(self._log) <= i_max:
            es = self.exp_coeffs(i_max)
            ls = self._log or [InfElem.const(self.field, 1, self.prec, self.e)]
            for k in range(len(ls), i_max + 1):
                acc = None
                for i in range(1, k + 1):
                    term = es[i] * ls[k - i].frobenius(i)
                    acc = term if acc is None else acc + term
                ls.append(-acc)
            self._log = ls
        return self._log[: i_max + 1]

    def exp_eval(self, z: InfElem):
        """exp(z), summing until two consecutive terms fall below z's precision."""
        if z.is_zero():
            return z
        return self._exp_sum(lambda i, E: E * z.frobenius(i), z.prec_val)

    def _exp_sum(self, term, target_val):
        """Sum of term(i, E_i) over the nonzero E_i: the exponential's
        stopping rule.  The sum stops after two consecutive terms past the
        first fall below target_val, once i has passed the rank."""
        acc = None
        i = 0
        settled = 0
        while True:
            E = self.exp_coeffs(i)[i]
            if not E.is_zero():
                t = term(i, E)
                acc = t if acc is None else acc + t
                if i > 0 and t.residual_val() >= target_val:
                    settled += 1
                else:
                    settled = 0
            i += 1
            if settled >= 2 and i > self.rank:
                break
            if i > 200:
                raise PrecisionExhausted("exponential did not converge")
        return acc

    def log_eval(self, z: InfElem):
        """log(z) for z in the convergence domain: the valuations of the
        nonzero terms must climb strictly from the first one, so that
        exp(log z) = z holds."""
        acc = None
        last = None
        i = 0
        seen = 0
        settled = 0
        while True:
            L = self.log_coeffs(i)[i]
            if not L.is_zero():
                term = L * z.frobenius(i)
                tv = term.residual_val()
                if last is not None and seen <= 2 * self.rank + 2 and tv <= last:
                    raise ChainNotConverging("point is outside the logarithm domain")
                acc = term if acc is None else acc + term
                last = tv
                seen += 1
                if i > 0 and tv >= z.prec_val:
                    settled += 1
                else:
                    settled = 0
            i += 1
            if settled >= 2 and i > self.rank:
                break
            if i > 400:
                raise ChainNotConverging("logarithm series did not converge")
        return acc

    # -- torsion -------------------------------------------------------------

    def torsion_polynomial(self, shift: InfElem = None):
        """Coefficient list of rho_t(X) - shift as a plain polynomial in X."""
        fld, e = self.field, self.e
        prec = self.coeffs[0].prec
        zero = InfElem(fld, e, {}, prec)
        out = [zero] * (self.q**self.rank + 1)
        for j, a in enumerate(self.coeffs):
            out[self.q**j] = a
        if shift is not None:
            out[0] = -shift
        return out

    def t_torsion(self):
        """All q^r points of the t-torsion (0 included)."""
        poly = self.torsion_polynomial()
        roots = newton_roots(poly)
        out = []
        for r, m in roots:
            out.extend([r] * m)
        return out

    def torsion_points(self, n):
        """Chains (x_1, .., x_n) with rho_t(x_{k+1}) = x_k, rho_t(x_1) = 0."""
        chains = [[x] for x in self.t_torsion()]
        for _ in range(n - 1):
            new = []
            for ch in chains:
                poly = self.torsion_polynomial(shift=ch[-1])
                for r, m in newton_roots(poly):
                    for _ in range(m):
                        new.append(ch + [r])
            chains = new
        return chains

    def division_step(self, x: InfElem):
        """The maximal-valuation solution of rho_t(X) = x (contraction)."""
        theta = self.coeffs[0]
        y = x / theta
        for _ in range(4 * (x.prec - x.lead_exp) + 40):
            tail = None
            for j in range(1, self.rank + 1):
                a = self.coeffs[j]
                if a.is_zero():
                    continue
                term = a * y.frobenius(j)
                tail = term if tail is None else tail + term
            newy = (x if tail is None else x - tail) / theta
            if (newy - y).is_zero():
                return newy
            y = newy
        raise ChainNotConverging("division step failed to stabilize")

    # -- periods ---------------------------------------------------------------

    def period_from_torsion(self, x1: InfElem):
        """theta^n log(x_n) along the maximal-valuation chain through x1.

        x_n = exp(lambda theta^(-n)) with x_1 the given torsion point; once
        two consecutive depths agree at precision the value is accepted;
        60 depths without agreement give up.
        """
        x = x1
        scale = self.theta
        lam = None
        for _ in range(60):
            try:
                lg = self.log_eval(x)
            except ChainNotConverging:
                lg = None
            if lg is not None:
                cand = scale * lg
                if lam is not None and (cand - lam).is_zero():
                    return cand
                lam = cand
            x = self.division_step(x)
            scale = scale * self.theta
        raise ChainNotConverging("no stable period along this chain")

    def period_lattice(self):
        """A reduced basis of the period lattice.

        Periods are collected from t-torsion chains and reduced by
        valuation-greedy elimination over F_q[theta]; each basis vector is
        re-verified through the exponential.
        """
        torsion = [x for x in self.t_torsion() if not x.is_zero()]
        torsion.sort(key=_sort_key)
        basis = []
        for x1 in torsion:
            lam = self.period_from_torsion(x1)
            basis = _reduce_into(basis, lam)
            if len(basis) == self.rank and _stable(basis):
                break
        if len(basis) != self.rank:
            raise PrecisionExhausted(
                f"found {len(basis)} independent periods, expected {self.rank}"
            )
        for lam in basis:
            img = self.exp_eval(lam)
            if not img.is_zero() and img.val() < Fraction(2, 3) * lam.prec_val:
                raise ConsistencyFailure("exp of a reduced period is not small")
        return Lattice(self, basis)


def _sort_key(x):
    v = x.val()
    c = x.lead_coeff()
    return (v, x.field.dlog(c) if c else -1, sorted(x.coeffs.items()))


def _reduction(a, b):
    """(a, c theta^s b) over a common field when a reduces against b: s =
    val(a) - val(b) is an integer >= 0 and the leading-coefficient ratio c
    lies in F_q, so the difference cancels the leading term of a; else None."""
    dv = a.val() - b.val()
    if dv < 0 or dv.denominator != 1:
        return None
    bb, aa = InfElem.align(b, a)
    ratio = aa.field.div(aa.lead_coeff(), bb.lead_coeff())
    if not aa.field.in_base_q(ratio):
        return None
    return aa, bb.mono_mul(ratio, -int(dv) * bb.e)


def _reduce_into(basis, lam):
    """Greedy F_q[theta]-reduction of lam against the current basis."""
    work = lam
    changed = True
    while changed and not work.is_zero():
        changed = False
        for b in basis:
            if work.is_zero():
                break
            red = _reduction(work, b)
            if red is not None:
                work = red[0] - red[1]
                changed = True
    if work.is_zero():
        return basis
    out = basis + [work]
    out.sort(key=lambda x: x.val())
    return out


def _stable(basis):
    # pairwise irreducibility: no vector reduces against another
    return not any(i != j and _reduction(a, b) for i, a in enumerate(basis) for j, b in enumerate(basis))


class Lattice:
    """Reduced period basis of a Drinfeld module."""

    def __init__(self, module: TModule, vectors):
        self.module = module
        self.vectors = vectors

    def __len__(self):
        return len(self.vectors)


def skew_mul(f, g, q):
    """Product of twisted polynomials sum f_i tau^i, sum g_j tau^j."""
    out = [None] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            if b.is_zero():
                continue
            term = a * b.frobenius(i)
            k = i + j
            out[k] = term if out[k] is None else out[k] + term
    fld, e = f[0].field, f[0].e
    prec = f[0].prec
    return [c if c is not None else InfElem(fld, e, {}, prec) for c in out]


# ---------------------------------------------------------------------------
# Anderson generating functions, quasi-periods, trivializations


def _chain_terms(module: TModule, lam: InfElem):
    """z_0 = lam theta^(-1) over the common field and ramification, and
    alpha(i, E_i) = E_i z_0^(q^i): the i-th exponential term of the chain
    entry, formed once per i and shared by every coefficient built on it."""
    z0 = lam / module.theta
    alphas = {}

    def alpha(i, E):
        if i not in alphas:
            alphas[i] = E * z0.frobenius(i)
        return alphas[i]

    return z0, alpha


def agf(module: TModule, lam: InfElem, j: int, T: int):
    """The series sum_n m(exp(theta^(-n-1) lam)) t^n for the functional
    m = tau^j, with its derived geometric decay descriptor.

    Its tau^0 series G has t^n coefficient exp(z_n), z_n = lam theta^(-n-1)
    = z_0 u^(n e): theta^(-1) is one exact monomial, so the chain shifts
    z_0 and its precision alike.  Hence each term E_i z_n^(q^i) of the
    exponential is alpha_i = E_i z_0^(q^i) (_chain_terms), shifted by the
    monomial u^(n e q^i), precision included, and the coefficient is
    sum_i alpha_i theta^(-n q^i), summed under exp_eval's stopping rule:
    exp_eval(z_n) digit for digit.

    The series is the j-th twist of G: tau^j raises each exponential to
    the q^j-th power, a coefficientwise Frobenius, and the twist scales
    G's descriptor by q^j.
    """
    if lam.is_zero():
        fld = module.field.compositum(lam.field)
        e = lcm(module.e, lam.e)
        return TateSeries([InfElem(fld, e, {}, lam.prec)] * T, Decay("linear", 0, 1)).twist(j)
    z0, alpha = _chain_terms(module, lam)
    e = z0.e
    # declared bound: beyond the chain entry the exponential preserves
    # valuation, val(a_n) = val(lam) + n + 1
    A = lam.val() + 1
    coeffs = []
    for n in range(T):

        def shifted(i, E):
            return alpha(i, E).mono_mul(1, n * e * module.q**i)

        coeffs.append(module._exp_sum(shifted, z0.prec_val + n))
        A = min(A, coeffs[-1].residual_val() - n)
    return TateSeries(coeffs, Decay("linear", A, 1)).twist(j)


def de_rham_pairing(module: TModule, j: int, lam: InfElem):
    """Quasi-period [delta_j, lam] = <tau^j | G_lam> at t = theta, with no
    truncation in t.  The t^n coefficient of G_lam^(j) is sum_i beta_i
    theta^(-n q^(i+j)), beta_i = alpha_i^(q^j) (_chain_terms), so

        [delta_j, lam] = sum_i beta_i / (1 - u^s),  s = e (q^(i+j) - 1),

    each division exact at beta_i's precision through a / b (1 - u^s known
    to beta_i's relative precision).  The terms are summed under exp_eval's
    stopping rule with target q^j prec_val(z_0); the stated precision is the
    least of the summed terms', as the product and Frobenius rules derive
    it.  For j <= 0, s = 0 at i = 0: G_lam has a pole at t = theta.
    """
    if lam.is_zero():
        return lam
    if j < 1:
        raise NoDecay("G_lam has a pole at t = theta")
    z0, alpha = _chain_terms(module, lam)
    q, e = module.q, z0.e

    def term(i, E):
        b = alpha(i, E).frobenius(j)
        return b / InfElem(b.field, b.e, {0: 1, e * (q ** (i + j) - 1): b.field.neg(1)}, b.prec - b.lead_exp)

    return module._exp_sum(term, q**j * z0.prec_val)


def quasi_period_matrix(module: TModule, lattice: Lattice):
    """[delta_i, lam] for i = 1..r (rows) over the reduced basis
    (columns), each entry the partial-fraction sum of de_rham_pairing:
    no truncation in t, each at the precision its sum derives."""
    return [[de_rham_pairing(module, i, lam) for lam in lattice.vectors] for i in range(1, module.rank + 1)]


class PsiBundle:
    """A trivialization together with its exactly-assembled companions.

    psi_minus is the inverse twist Psi^(-1), built from the untwisted AGF
    columns; psi is its coefficientwise Frobenius twist and carries q
    times the precision of psi_minus (see build_psi).  psi_inv_theta is
    Psi^(-1)(theta) = C^T(theta) U^(-1)(theta), evaluated from the twisted
    AGF columns, whose entries are quasi-periods against the exact basis
    change.
    """

    def __init__(self, psi, psi_minus, psi_inv_theta, report):
        self.psi = psi
        self.psi_minus = psi_minus
        self.psi_inv_theta = psi_inv_theta
        self.report = report


def build_psi(module: TModule, lattice: Lattice, motive, T=64, prec=None, basis_change=None):
    """Assemble the rigid analytic trivialization from the AGF columns.

    The sigma-fixed vectors attached to the lattice have coordinates
    -<tau^i | G_lam> on the dual basis of the t-module's own motive; the
    matrix Psi it produces is transported to the fixture motive's basis by
    the recorded basis change (U_minus, U_inv(theta)).  The report holds
    the residual of the difference equation against Phi; its min_residual
    is what callers judge the result by.

    Row lam of C_minus^T holds -G_lam^(i) for i < r, the twists of the
    one tau^0 series G_lam, and psi_minus = U_minus (C_minus^T)^(-1).  Its
    twist C^T holds -G_lam^(i) for i = 1..r, and U is the twist of
    U_minus, so Psi = psi_minus^(1): the twist is a ring endomorphism and
    commutes with the inverse and the products.  The residual still judges
    the result, as psi_minus - Phi psi_minus^(1).  C^T is evaluated at
    theta for psi_inv_theta and the period symbols.
    """
    r = module.rank
    if len(lattice.vectors) != r:
        raise ConsistencyFailure("lattice rank does not match the module rank")
    Gs = [agf(module, lam, 0, T) for lam in lattice.vectors]
    ct_minus = TateMatrix([[-G.twist(i) for i in range(r)] for G in Gs])
    psi_minus = ct_minus.inverse()
    # C(theta)'s entries are quasi-periods, but they stay the evaluation of
    # the twisted columns, which are built here anyway.  de_rham_pairing's
    # sum at its full precision costs more (build_psi CPU 18 to 24 ms on
    # kummer-t:3 at prec 60, T 12) and raises the symbols' precision there
    # from 21.75 to 57.25; it belongs with cutting the symbols at --prec
    # and exiting 3 below it.
    ct_theta = ct_minus.twist(1).eval_theta()
    if basis_change is not None:
        U_minus, U_inv_theta = basis_change
        psi_minus = U_minus @ psi_minus
        psi_inv_theta = mat_mul(ct_theta, U_inv_theta)
    else:
        psi_inv_theta = ct_theta
    psi = psi_minus.twist(1)
    phi_t = motive.phi_tate(T, prec or module.prec)
    report = check_difference_eq(phi_t, psi, psi_minus=psi_minus)
    return PsiBundle(psi, psi_minus, psi_inv_theta, report)
