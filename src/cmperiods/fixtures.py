"""Shipped example pipelines: each fixture pairs a CM-field model and a
generalized CM type with its motive, its t-module (when the analytic side
is wired up), and the exact basis change aligning the two presentations.

Names accepted by the CLI: carlitz, carlitz-tensor:2/3, kummer-t:3/5 and
const-ext:2/3 (q taken from --q for all but kummer-t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cmtypes import CMDivisor, CMFieldModel, THETA_POINT
from .errors import ConsistencyFailure
from .infinity import InfElem
from .shtuka import (
    DualMotive,
    WPoly,
    WRing,
    build_motive,
    solve_shtuka,
    t_minus_theta,
)
from .special import omega_series
from .tate import TateMatrix, mat_mul
from .tmodule import TModule


@dataclass
class Fixture:
    name: str
    model: CMFieldModel
    xi: CMDivisor
    motive: DualMotive
    tmodule: TModule | None = None
    basis_change: tuple | None = None  # (U, U_minus, U_inv) as WPoly matrices
    psi_power: int | None = None  # for Omega^n trivializations
    notes: dict = field(default_factory=dict)

    def psi(self, T, N):
        """The paired trivialization for fixtures carrying a closed form:
        Omega^n for the Carlitz tensor power C^(x)n, built in one pass from
        its product formula by omega_series, with its step-n decay."""
        if self.psi_power is None:
            raise ConsistencyFailure("fixture has no closed-form trivialization")
        return TateMatrix([[omega_series(self.model.q, T, N, self.psi_power)]])

    def basis_change_tate(self, T, prec):
        """(U_minus as t-series, U^(-1)(theta)): what build_psi reads."""
        if self.basis_change is None:
            return None
        _, U_minus, U_inv = self.basis_change
        return (
            TateMatrix([[c.realize_tate(T, prec) for c in row] for row in U_minus]),
            [[c.realize_at_theta(prec) for c in row] for row in U_inv],
        )

    def tmodule_json(self):
        if self.tmodule is None:
            return None
        tm = self.tmodule
        return {
            "d": tm.dim,
            "r": tm.rank,
            "rho_t": [c.to_json() for c in tm.coeffs],
            "rho_y": [c.to_json() for c in tm.cm_action] if tm.cm_action else None,
            "provenance": self.notes.get("tmodule", tm.name),
        }


def _wmat(ring, entries):
    out = []
    for row in entries:
        out.append([c if isinstance(c, WPoly) else WPoly.const(ring, c) for c in row])
    return out


def _wmat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def drinfeld_phi(ring: WRing, coeffs):
    """Sigma matrix of a Drinfeld module's own motive on the dual basis.

    For rho_t = theta + a_1 tau + .. + a_r tau^r:
    row 1 = a_r^{-1} (t - theta) e_r,  row i = e_{i-1} - a_r^{-1} a_{i-1} e_r.
    """
    r = len(coeffs) - 1
    zero = WPoly(ring, [])
    ar_inv = coeffs[r].inverse()
    rows = []
    row1 = [zero] * r
    row1[r - 1] = t_minus_theta(ring).scale(ar_inv)
    rows.append(row1)
    for i in range(2, r + 1):
        row = [zero] * r
        row[i - 2] = WPoly.const(ring, ring.one())
        row[r - 1] = row[r - 1] - WPoly.const(ring, ar_inv * coeffs[i - 1])
        rows.append(row)
    return rows


def check_intertwine(U, U_minus, phi_rho, phi_s):
    """U^(-1) Phi_rho = Phi_s U, with the recorded twist of U."""
    lhs = mat_mul(U_minus, phi_rho)
    rhs = mat_mul(phi_s, U)
    if not _wmat_eq(lhs, rhs):
        raise ConsistencyFailure("basis change does not intertwine the sigma matrices")
    return True


def _check_twist_pair(U, U_minus):
    """realize(U_minus) must equal the inverse Frobenius twist of realize(U),
    compared on four t-coefficients at precision 60."""
    for ru, rm in zip(U, U_minus):
        for cu, cm in zip(ru, rm):
            tu = cu.realize_tate(4, 60)
            tm = cm.realize_tate(4, 60)
            tw = tu.twist(-1)
            for a, b in zip(tw.coeffs, tm.coeffs):
                if not (a - b).is_zero():
                    raise ConsistencyFailure("recorded twist of U is wrong")
    return True


def _check_inverse_pair(U, U_inv, ring):
    prod = mat_mul(U, U_inv)
    n = len(U)
    for i in range(n):
        for j in range(n):
            expect = WPoly.const(ring, ring.one()) if i == j else WPoly(ring, [])
            if not (prod[i][j] - expect).is_zero():
                raise ConsistencyFailure("recorded inverse of U is wrong")
    return True


# ---------------------------------------------------------------------------
# builders


def carlitz_tensor_fixture(n, q, N=120):
    model = CMFieldModel("rational", q, name=f"carlitz-tensor:{n}" if n > 1 else "carlitz")
    xi = CMDivisor({THETA_POINT: n})
    motive = build_motive(model, solve_shtuka(model, xi), xi)
    tmod = None
    if n == 1:
        fld = model.base
        theta = InfElem.theta(fld, N)
        one = InfElem.const(fld, 1, N)
        tmod = TModule([theta, one], name="carlitz")
    return Fixture(
        name=model.name,
        model=model,
        xi=xi,
        motive=motive,
        tmodule=tmod,
        psi_power=n,
        notes={"trivialization": f"Omega^{n}"},
    )


def kummer_fixture(q, N=200):
    model = CMFieldModel(
        "monogenic", q, E=q - 1, u_coeffs=[0, (q - 1) if q > 2 else 1], name=f"kummer-t:{q}"
    )
    pts = model.points(N)
    anchor = next(p for p in pts if p.epsilon == 1)
    xi = CMDivisor({anchor.label: 1})
    motive = build_motive(model, solve_shtuka(model, xi), xi)
    fixture = Fixture(name=model.name, model=model, xi=xi, motive=motive)
    if q == 3:
        ring = motive.ring
        w = ring.w()
        theta = ring.theta()
        one, zero = ring.one(), ring.zero()
        # rho_t = theta + w (theta - 1) tau - tau^2, CM action rho_y = w + tau
        a1 = w * (theta - ring.scalar(1))
        a2 = -one
        coeffs_sym = [theta, a1, a2]
        phi_rho = drinfeld_phi(ring, coeffs_sym)
        U = _wmat(ring, [[zero, one], [one, theta * w]])
        U_minus = _wmat(ring, [[zero, one], [one, -w]])
        U_inv = _wmat(ring, [[-(theta * w), one], [one, zero]])
        check_intertwine(U, U_minus, phi_rho, motive.phi)
        _check_twist_pair(U, U_minus)
        _check_inverse_pair(U, U_inv, ring)
        coeffs = [c.realize(N) for c in coeffs_sym]
        cm = [w.realize(N), one.realize(N)]
        fixture.tmodule = TModule(coeffs, cm_action=cm, name="kummer-t:3")
        fixture.basis_change = (U, U_minus, U_inv)
        fixture.notes["tmodule"] = "rho_t = theta + w(theta-1) tau - tau^2"
    return fixture


def const_ext_fixture(q, ell=2, N=200):
    model = CMFieldModel("constant-ext", q, ell=ell, name=f"const-ext:{ell}")
    pts = model.points(N)
    anchor = next(p for p in pts if p.component == 0)
    xi = CMDivisor({anchor.label: 1})
    motive = build_motive(model, solve_shtuka(model, xi), xi)
    ring = motive.ring
    phi_rho = drinfeld_phi(ring, [ring.theta()] + [ring.zero()] * (ell - 1) + [ring.one()])
    ident = _wmat(ring, [[ring.one() if i == j else ring.zero() for j in range(ell)] for i in range(ell)])
    check_intertwine(ident, ident, phi_rho, motive.phi)
    fld = model.const_field
    theta = InfElem.theta(fld, N)
    one = InfElem.const(fld, 1, N)
    zero = InfElem.zero(fld, N)
    coeffs = [theta] + [zero] * (ell - 1) + [one]
    cm = [InfElem.const(fld, model.const_gen, N)]
    tmod = TModule(coeffs, cm_action=cm, name=f"const-ext:{ell}")
    return Fixture(
        name=model.name,
        model=model,
        xi=xi,
        motive=motive,
        tmodule=tmod,
        basis_change=None,
        notes={"tmodule": f"rho_t = theta + tau^{ell} with constants F_(q^{ell})"},
    )


def get_fixture(name, q=None, N=200):
    """Resolve a fixture by CLI name."""
    if name == "carlitz":
        return carlitz_tensor_fixture(1, q or 3, N)
    if name.startswith("carlitz-tensor:"):
        n = int(name.split(":", 1)[1])
        return carlitz_tensor_fixture(n, q or 3, N)
    if name.startswith("kummer-t:"):
        qq = int(name.split(":", 1)[1])
        return kummer_fixture(qq, N)
    if name.startswith("const-ext:"):
        ell = int(name.split(":", 1)[1])
        return const_ext_fixture(q or 3, ell, N)
    raise KeyError(f"unknown fixture {name!r}")


FIXTURE_NAMES = [
    "carlitz", "carlitz-tensor:2", "carlitz-tensor:3", "kummer-t:3", "kummer-t:5", "const-ext:2", "const-ext:3"
]
