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
from .errors import NoDecay
from .infinity import InfElem, _add_into, _kronecker_mul, _mapped, align_all


class Decay:
    """Lower bound on coefficient valuations: val(a_i) >= A + B*g(i).

    kind "linear": g(i) = i; kind "qpow": g(i) = q^(i // step), the shape
    of Omega^n, whose t^k coefficient climbs one power of q per n indices.
    A product of two linear series is described again.  A product with a
    qpow factor carries no descriptor, which is always sound: nothing in
    the program multiplies a qpow series.
    """

    __slots__ = ("kind", "A", "B", "q", "step")

    def __init__(self, kind, A, B, q=None, step=1):
        self.kind = kind
        self.A = Fraction(A)
        self.B = Fraction(B)
        self.q = q
        self.step = step

    def bound(self, i):
        if self.kind == "linear":
            return self.A + self.B * i
        return self.A + self.B * self.q ** (i // self.step)

    def scale_val(self, factor):
        return Decay(self.kind, self.A * factor, self.B * factor, self.q, self.step)

    def combine_mul(self, other: "Decay"):
        """Valid descriptor for the product of two linear series; None
        when either factor is qpow."""
        if self.kind == "linear" and other.kind == "linear":
            return Decay("linear", self.A + other.A, min(self.B, other.B))
        return None

    def tail_min(self, i0, weight=1):
        """min over i >= i0 of bound(i) - weight*i (tail of sum a_i theta^i).

        Linear: the minimum is at i0.  qpow: each block of step indices
        takes its minimum at its last index, which moves by
        B*q^m*(q - 1) - weight*step from block m to m + 1, a move that
        never falls as m grows.
        """
        if self.B <= (weight if self.kind == "linear" else 0):
            raise NoDecay("declared decay too weak to bound the tail")
        if self.kind == "linear":
            return self.bound(i0) - weight * i0
        m = i0 // self.step
        while self.B * self.q**m * (self.q - 1) < weight * self.step:
            m += 1
        i = self.step * (m + 1) - 1
        return self.bound(i) - weight * i

    def to_json(self):
        return {
            "kind": self.kind,
            "A": [self.A.numerator, self.A.denominator],
            "B": [self.B.numerator, self.B.denominator],
            "q": self.q,
            "step": self.step,
        }


class TateSeries:
    """Coefficient list a_0..a_{T-1} (InfElem), truncation degree T, decay."""

    __slots__ = ("coeffs", "T", "decay")

    def __init__(self, coeffs, decay=None):
        if not coeffs:
            raise ValueError("empty series")
        self.coeffs = align_all(coeffs)[0]
        self.T = len(coeffs)
        self.decay = decay

    @property
    def field(self):
        return self.coeffs[0].field

    @property
    def e(self):
        return self.coeffs[0].e

    @staticmethod
    def poly(coeffs, T):
        """Pad an InfElem list with exact zeros up to length T."""
        c0 = coeffs[0]
        z = InfElem(c0.field, c0.e, {}, c0.prec)
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
        ab = align_all(a + b)[0]
        return TateSeries(_kronecker_mul(ab[:T], ab[T:], T), decay)

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
            two_s = TateSeries.poly([two], T2)
            x = xx * (two_s - a * xx)
        return x

    def eval_theta(self):
        """Sum a_i theta^i, tail bounded by the decay descriptor."""
        if self.decay is None:
            raise NoDecay("series carries no decay descriptor")
        e = self.e
        f = self.field
        # known below every shifted coefficient's precision and the tail
        prec = min(min(c.prec - e * i for i, c in enumerate(self.coeffs)), int(self.decay.tail_min(self.T) * e))
        out = {}
        for i, c in enumerate(self.coeffs):
            _add_into(out, _mapped(f, c.coeffs, 1, -e * i), prec, f)
        return InfElem._trusted(f, e, out, prec)

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


def det(rows):
    """Determinant by Laplace expansion along the first row, over any ring
    whose elements support + - and *."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, a in enumerate(rows[0]):
        t = a * det([r[:j] + r[j + 1:] for r in rows[1:]])
        acc = t if acc is None else acc - t if j % 2 else acc + t
    return acc


def adj_inverse(rows):
    """adj(M) det(M)^(-1), over any ring whose elements also have
    inverse(): entry (i, j) is the signed minor without row j and column i,
    times the inverse of the determinant."""
    dinv = det(rows).inverse()
    n = len(rows)
    if n == 1:
        return [[dinv]]
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            out_row.append((-minor if (i + j) % 2 else minor) * dinv)
        out.append(out_row)
    return out


class TateMatrix:
    """Matrix of TateSeries (for Phi, typically exact polynomial entries)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]

    def __matmul__(self, other: "TateMatrix"):
        return TateMatrix(mat_mul(self.rows, other.rows))

    def __sub__(self, other):
        return TateMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def twist(self, n):
        return TateMatrix([[c.twist(n) for c in row] for row in self.rows])

    def det(self):
        return det(self.rows)

    def inverse(self):
        """adj(M) det(M)^(-1), with the series inverse of det(M)."""
        return TateMatrix(adj_inverse(self.rows))

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
