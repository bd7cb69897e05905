"""Truncated series in t with Puiseux-series coefficients.

A TateSeries holds coefficients a_0..a_{T-1} plus a declared decay
descriptor: a provable lower bound on val(a_i) supplied by whichever
operation produced the series (a product formula, an exponential-decay
argument, ...).  Descriptors are declared rather than inferred because a
tail bound can never be read off finitely many coefficients.

Frobenius twisting, evaluation at t = theta, and matrix algebra live
here, together with the residual checker for difference equations
Psi^(-1) = Phi Psi.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NoDecay
from .infinity import InfElem, _kronecker_mul


class Decay:
    """Lower bound on coefficient valuations: val(a_i) >= A + B*g(i).

    kind "linear": g(i) = i; kind "qpow": g(i) = q^i.
    """

    __slots__ = ("kind", "A", "B", "q")

    def __init__(self, kind, A, B, q=None):
        self.kind = kind
        self.A = Fraction(A)
        self.B = Fraction(B)
        self.q = q

    def bound(self, i):
        if self.kind == "linear":
            return self.A + self.B * i
        return self.A + self.B * self.q**i

    def scale_val(self, factor):
        return Decay(self.kind, self.A * factor, self.B * factor, self.q)

    def combine_mul(self, other: "Decay"):
        """Valid descriptor for the product of two described series."""
        if self.kind == "linear" and other.kind == "linear":
            return Decay("linear", self.A + other.A, min(self.B, other.B))
        if self.kind == "qpow" and other.kind == "qpow":
            b = min(self.B, other.B)
            return Decay("qpow", self.A + other.A + b, b, self.q)
        lin = self if self.kind == "linear" else other
        qp = other if self.kind == "linear" else self
        # endpoint i = k on the linear side dominates
        return Decay("linear", lin.A + qp.A + qp.B * qp.q, lin.B)

    def tail_min(self, i0, weight=1):
        """min over i >= i0 of bound(i) - weight*i (tail of sum a_i theta^i)."""
        best = None
        i = i0
        rising = 0
        while rising < 3 and i < i0 + 4096:
            v = self.bound(i) - weight * i
            if best is None or v < best:
                best = v
                rising = 0
            else:
                rising += 1
            i += 1
        if best is None:
            raise NoDecay("empty tail")
        if self.kind == "linear" and self.B <= weight:
            raise NoDecay("declared decay too weak to bound the tail")
        return best

    def to_json(self):
        return {
            "kind": self.kind,
            "A": [self.A.numerator, self.A.denominator],
            "B": [self.B.numerator, self.B.denominator],
            "q": self.q,
        }


class TateSeries:
    """Coefficient list a_0..a_{T-1} (InfElem), truncation degree T, decay."""

    __slots__ = ("coeffs", "T", "decay")

    def __init__(self, coeffs, decay=None):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("empty series")
        field = coeffs[0].field
        e = coeffs[0].e
        for c in coeffs[1:]:
            field = field.compositum(c.field)
            e = lcm(e, c.e)
        self.coeffs = [c.lift(field, e) for c in coeffs]
        self.T = len(coeffs)
        self.decay = decay

    @property
    def field(self):
        return self.coeffs[0].field

    @property
    def e(self):
        return self.coeffs[0].e

    @staticmethod
    def constant(x: InfElem, T):
        z = InfElem(x.field, x.e, {}, x.prec, x.var)
        return TateSeries([x] + [z] * (T - 1))

    @staticmethod
    def poly(coeffs, T):
        """Pad an InfElem list with exact zeros up to length T."""
        c0 = coeffs[0]
        z = InfElem(c0.field, c0.e, {}, c0.prec, c0.var)
        out = list(coeffs) + [z] * (T - len(coeffs))
        return TateSeries(out[:T])

    def __getitem__(self, i):
        return self.coeffs[i]

    def align(self, other: "TateSeries"):
        T = min(self.T, other.T)
        return self.coeffs[:T], other.coeffs[:T], T

    def __add__(self, other):
        a, b, T = self.align(other)
        return TateSeries([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return TateSeries([-c for c in self.coeffs], self.decay)

    def __sub__(self, other):
        a, b, T = self.align(other)
        return TateSeries([x - y for x, y in zip(a, b)])

    def __mul__(self, other):
        a, b, T = self.align(other)
        decay = None
        if self.decay is not None and other.decay is not None:
            decay = self.decay.combine_mul(other.decay)
        nnz_a = sum(1 for c in a if not c.is_zero())
        nnz_b = sum(1 for c in b if not c.is_zero())
        same = a[0].field is b[0].field and a[0].e == b[0].e
        if min(nnz_a, nnz_b) > 4 and same and a[0].field.size <= 4096:
            packed = _kronecker_mul(a, b, T)
            if packed is not None:
                return TateSeries(packed, decay)
        out = []
        for k in range(T):
            acc = None
            for i in range(k + 1):
                t = a[i] * b[k - i]
                acc = t if acc is None else acc + t
            out.append(acc)
        return TateSeries(out, decay)

    def scale(self, x: InfElem):
        return TateSeries([c * x for c in self.coeffs], self.decay)

    def __pow__(self, n):
        if n < 1:
            raise ValueError("power must be >= 1")
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def twist(self, n):
        """Coefficientwise q^n-power Frobenius (t is fixed)."""
        q = self.field.q
        decay = self.decay.scale_val(Fraction(q) ** n) if self.decay else None
        return TateSeries([c.frobenius(n) for c in self.coeffs], decay)

    def truncate_T(self, T2):
        if T2 >= self.T:
            return self
        return TateSeries(self.coeffs[:T2], self.decay)

    def inverse(self):
        """Series inverse in t by Newton doubling on the truncation."""
        fld, e = self.field, self.e
        c0inv = self.coeffs[0].inverse()
        prec = c0inv.prec // e
        two = InfElem.const(fld, fld.scalar(2), prec, e)
        x = TateSeries([c0inv])
        while x.T < self.T:
            T2 = min(2 * x.T, self.T)
            a = self.truncate_T(T2)
            xx = TateSeries.poly(list(x.coeffs), T2)
            two_s = TateSeries.constant(two, T2)
            x = xx * (two_s - a * xx)
        return x

    def eval_theta(self, weight=1):
        """Sum a_i theta^i, tail bounded by the decay descriptor."""
        if self.decay is None:
            raise NoDecay("series carries no decay descriptor")
        e = self.e
        tail = self.decay.tail_min(self.T, weight)
        acc = None
        for i, c in enumerate(self.coeffs):
            term = c.mono_mul(1, -e * i)
            acc = term if acc is None else acc + term
        return acc.truncate(int(tail * e))

    def residual_val(self):
        return min(c.residual_val() for c in self.coeffs)

    def check_decay(self):
        """Every recorded coefficient respects the declared descriptor."""
        if self.decay is None:
            return True
        for i, c in enumerate(self.coeffs):
            v = c.val()
            if v is not None and v < self.decay.bound(i):
                return False
        return True

    def to_json(self):
        return {
            "T": self.T,
            "decay": self.decay.to_json() if self.decay else {"kind": "none"},
            "coeffs": [c.to_json() for c in self.coeffs],
        }


def tate_twist(f: TateSeries, n: int) -> TateSeries:
    return f.twist(n)


def mat_mul(A, B):
    """Product of two matrices given as lists of rows, over any ring whose
    elements support + and *."""
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = None
            for a, b_row in zip(row, B):
                t = a * b_row[j]
                acc = t if acc is None else acc + t
            out_row.append(acc)
        out.append(out_row)
    return out


class TateMatrix:
    """Matrix of TateSeries (for Phi, typically exact polynomial entries)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]

    @property
    def n(self):
        return len(self.rows)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __matmul__(self, other: "TateMatrix"):
        return TateMatrix(mat_mul(self.rows, other.rows))

    def __sub__(self, other):
        return TateMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def twist(self, n):
        return TateMatrix([[c.twist(n) for c in row] for row in self.rows])

    def det(self):
        if self.n == 1:
            return self.rows[0][0]
        if self.n == 2:
            return self.rows[0][0] * self.rows[1][1] - self.rows[0][1] * self.rows[1][0]
        raise NotImplementedError("determinant implemented for n <= 2")

    def inverse(self):
        """adj(M) det(M)^(-1), with the series inverse of det(M)."""
        dinv = self.det().inverse()
        if self.n == 1:
            return TateMatrix([[dinv]])
        a, b = self.rows[0]
        c, d = self.rows[1]
        return TateMatrix([[d * dinv, (-b) * dinv], [(-c) * dinv, a * dinv]])

    def transpose(self):
        return TateMatrix([list(col) for col in zip(*self.rows)])

    def eval_theta(self):
        return [[c.eval_theta() for c in row] for row in self.rows]


def check_difference_eq(phi: TateMatrix, psi: TateMatrix, threshold=None, psi_minus=None):
    """Residual report for Psi^(-1) - Phi Psi on the overlap window.

    psi_minus may supply an exactly computed inverse twist of Psi (pipelines
    that build Psi from q-th powers can avoid the precision cost of a
    generic inverse twist).  PASS is judged against threshold (valuation
    units) when one is declared.
    """
    lhs = psi_minus if psi_minus is not None else psi.twist(-1)
    rhs = phi @ psi
    diff = lhs - rhs
    window = min(min(c.T for c in row) for row in diff.rows)
    entry_res = []
    overall = None
    for row in diff.rows:
        res_row = []
        for c in row:
            r = min(x.residual_val() for x in c.coeffs[:window])
            res_row.append(r)
            overall = r if overall is None else min(overall, r)
        entry_res.append(res_row)
    report = {
        "entry_residuals": entry_res,
        "min_residual": overall,
        "window": window,
        "threshold": threshold,
        "pass": (overall >= threshold) if threshold is not None else None,
    }
    return report
