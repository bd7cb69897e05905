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
        theta = InfElem.theta(fld, self.coeffs[0].prec // e, e)
        if not (self.coeffs[0] - theta).is_zero():
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
            fld, e = self.field, self.e
            prec = self.coeffs[0].prec // e
            es = self._exp or [InfElem.const(fld, 1, prec, e)]
            theta = InfElem.theta(fld, prec, e)
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
            fld, e = self.field, self.e
            prec = self.coeffs[0].prec // e
            es = self.exp_coeffs(i_max)
            ls = self._log or [InfElem.const(fld, 1, prec, e)]
            for k in range(len(ls), i_max + 1):
                acc = None
                for i in range(1, k + 1):
                    term = es[i] * ls[k - i].frobenius(i)
                    acc = term if acc is None else acc + term
                ls.append(-acc)
            self._log = ls
        return self._log[: i_max + 1]

    def exp_eval(self, z: InfElem, target_val=None):
        """exp(z), summing until two consecutive terms fall below the target."""
        if z.is_zero():
            return z
        if target_val is None:
            target_val = z.prec_val
        acc = None
        i = 0
        settled = 0
        while True:
            E = self.exp_coeffs(i)[i]
            if not E.is_zero():
                term = E * z.frobenius(i)
                acc = term if acc is None else acc + term
                if i > 0 and term.residual_val() >= target_val:
                    settled += 1
                else:
                    settled = 0
            i += 1
            if settled >= 2 and i > self.rank:
                break
            if i > 200:
                raise PrecisionExhausted("exponential did not converge")
        return acc

    def log_eval(self, z: InfElem, require_domain=True):
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
                if (
                    require_domain
                    and last is not None
                    and seen <= 2 * self.rank + 2
                    and tv <= last
                ):
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
        theta_inv = self.coeffs[0].inverse()
        y = x * theta_inv
        for _ in range(4 * (x.prec - x.lead_exp) + 40):
            tail = None
            for j in range(1, self.rank + 1):
                a = self.coeffs[j]
                if a.is_zero():
                    continue
                term = a * y.frobenius(j)
                tail = term if tail is None else tail + term
            newy = (x - tail) * theta_inv if tail is not None else x * theta_inv
            if (newy - y).is_zero():
                return newy
            y = newy
        raise ChainNotConverging("division step failed to stabilize")

    # -- periods ---------------------------------------------------------------

    def period_from_torsion(self, x1: InfElem, max_depth=60):
        """theta^n log(x_n) along the maximal-valuation chain through x1.

        x_n = exp(lambda theta^(-n)) with x_1 the given torsion point; once
        two consecutive depths agree at precision the value is accepted.
        """
        theta = InfElem.theta(self.field, self.coeffs[0].prec // self.e, self.e)
        x = x1
        scale = theta
        lam = None
        for _ in range(max_depth):
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
            scale = scale * theta
        raise ChainNotConverging("no stable period along this chain")

    def period_lattice(self, prec=None, max_points=None):
        """A reduced basis of the period lattice.

        Periods are collected from t-torsion chains and reduced by
        valuation-greedy elimination over F_q[theta]; each basis vector is
        re-verified through the exponential.
        """
        torsion = [x for x in self.t_torsion() if not x.is_zero()]
        torsion.sort(key=_sort_key)
        basis = []
        for x1 in torsion[: max_points or len(torsion)]:
            lam = self.period_from_torsion(x1)
            basis = _reduce_into(basis, lam, self.q)
            if len(basis) == self.rank and _stable(basis, self.q):
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


def _reduce_into(basis, lam, q):
    """Greedy F_q[theta]-reduction of lam against the current basis."""
    work = lam
    changed = True
    while changed and not work.is_zero():
        changed = False
        for b in basis:
            if work.is_zero():
                break
            bb = b.lift(b.field.compositum(work.field), lcm(b.e, work.e))
            ww = work.lift(bb.field, bb.e)
            dv = ww.val() - bb.val()
            if dv < 0 or (dv * ww.e) % ww.e:
                continue
            shift = int(dv)
            lw = ww.lead_coeff()
            lb = bb.lead_coeff()
            ratio = ww.field.div(lw, lb)
            if not ww.field.in_base_q(ratio):
                continue
            work = ww - bb.mono_mul(ratio, -shift * bb.e)
            changed = True
    if work.is_zero():
        return basis
    out = basis + [work]
    out.sort(key=lambda x: x.val())
    return out


def _stable(basis, q):
    # pairwise irreducibility: no vector reduces against another
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if i == j:
                continue
            dv = a.val() - b.val()
            if dv >= 0 and (dv * a.e) % a.e == 0:
                aa = a.lift(a.field.compositum(b.field), lcm(a.e, b.e))
                bb = b.lift(aa.field, aa.e)
                ratio = aa.field.div(aa.lead_coeff(), bb.lead_coeff())
                if aa.field.in_base_q(ratio):
                    return False
    return True


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


def _agf_exp_chain(module: TModule, lam: InfElem, T: int):
    """exp(theta^(-n-1) lam) for n < T (the shared core of every AGF)."""
    fld = module.field.compositum(lam.field)
    e = lcm(module.e, lam.e)
    lam = lam.lift(fld, e)
    theta_inv = InfElem.theta(fld, module.coeffs[0].prec // module.e, e).inverse()
    exps = []
    z = lam * theta_inv
    for _ in range(T):
        exps.append(module.exp_eval(z))
        z = z * theta_inv
    return exps


def agf(module: TModule, lam: InfElem, j: int, T: int, _chain=None):
    """The series sum_n m(exp(theta^(-n-1) lam)) t^n for the functional
    m = tau^j, with its derived geometric decay descriptor."""
    if lam.is_zero():
        fld = module.field.compositum(lam.field)
        e = lcm(module.e, lam.e)
        z = InfElem(fld, e, {}, lam.prec)
        return TateSeries([z] * T, Decay("linear", 0, module.q**j or 1))
    exps = _chain if _chain is not None else _agf_exp_chain(module, lam, T)
    q = module.q
    B = q**j
    coeffs = [x.frobenius(j) for x in exps[:T]]
    # declared bound: beyond the chain entry the exponential preserves
    # valuation, val(a_n) = q^j (val(lam) + n + 1)
    A = B * (lam.val() + 1)
    for n, c in enumerate(coeffs):
        v = c.residual_val()
        if v - B * n < A:
            A = v - B * n
    return TateSeries(coeffs, Decay("linear", A, B))


def de_rham_pairing(module: TModule, j: int, lam: InfElem, T=None):
    """Quasi-period [delta_j, lam] = <tau^j | G_lam> evaluated at theta."""
    if lam.is_zero():
        return lam
    if T is None:
        T = int(lam.prec_val // max(module.q**j - 1, 1)) + 8
    series = agf(module, lam, j, T)
    return series.eval_theta()


def quasi_period_matrix(module: TModule, lattice: Lattice, T=None):
    """[delta_i, lam_j] for i = 1..r over the reduced basis."""
    out = []
    for i in range(1, module.rank + 1):
        row = [de_rham_pairing(module, i, lam, T) for lam in lattice.vectors]
        out.append(row)
    return out


class PsiBundle:
    """A trivialization together with its exactly-assembled companions.

    psi_minus is the inverse twist Psi^(-1), built from the untwisted AGF
    columns; psi is its coefficientwise Frobenius twist and carries q
    times the precision of psi_minus (see build_psi).  psi_inv_theta is Psi^(-1)(theta) = C^T(theta) U^(-1)(theta),
    evaluated from the twisted AGF columns, whose entries are
    quasi-periods against the exact basis change.
    """

    def __init__(self, psi, psi_minus, psi_inv_theta, report):
        self.psi = psi
        self.psi_minus = psi_minus
        self.psi_inv_theta = psi_inv_theta
        self.report = report


def build_psi(module: TModule, lattice: Lattice, motive, T=64, prec=None, threshold=None, basis_change=None):
    """Assemble the rigid analytic trivialization from the AGF columns.

    The sigma-fixed vectors attached to the lattice have coordinates
    -<tau^i | G_lam> on the dual basis of the t-module's own motive; the
    matrix Psi it produces is transported to the fixture motive's basis by
    the recorded basis change (U, U_minus, U_inv).  The result must pass
    the difference equation against Phi.

    psi_minus = U_minus (C_minus^T)^(-1) comes from the columns
    tau^0..tau^(r-1).  The columns tau^1..tau^r are their coefficientwise
    Frobenius twist (agf twists the same exponentials), and U is the twist
    of U_minus, so Psi = psi_minus^(1): the twist is a ring endomorphism
    and commutes with the inverse and the products.  The residual still
    judges the result, as psi_minus - Phi psi_minus^(1).  The twisted
    columns C are evaluated at theta for psi_inv_theta and the period
    symbols.
    """
    r = module.rank
    if len(lattice.vectors) != r:
        raise ConsistencyFailure("lattice rank does not match the module rank")
    chains = [_agf_exp_chain(module, lam, T) for lam in lattice.vectors]
    fam = {}
    for j in range(r + 1):
        fam[j] = [
            agf(module, lam, j, T, _chain=chains[i])
            for i, lam in enumerate(lattice.vectors)
        ]
    C = TateMatrix([[-fam[i + 1][jj] for jj in range(r)] for i in range(r)])
    C_minus = TateMatrix([[-fam[i][jj] for jj in range(r)] for i in range(r)])
    psi_minus = C_minus.transpose().inverse()
    ct_theta = C.transpose().eval_theta()
    if basis_change is not None:
        _, U_minus, U_inv_theta = basis_change
        psi_minus = U_minus @ psi_minus
        psi_inv_theta = mat_mul(ct_theta, U_inv_theta)
    else:
        psi_inv_theta = ct_theta
    psi = psi_minus.twist(1)
    phi_t = motive.phi_tate(T, prec or (module.coeffs[0].prec // module.e))
    report = check_difference_eq(phi_t, psi, threshold=threshold, psi_minus=psi_minus)
    if threshold is not None and not report["pass"]:
        raise ConsistencyFailure(
            f"difference equation residual {report['min_residual']} below {threshold}"
        )
    return PsiBundle(psi, psi_minus, psi_inv_theta, report)
