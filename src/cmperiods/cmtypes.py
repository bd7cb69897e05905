"""CM fields as explicit genus-zero models, their points above theta, and
CM-type divisor combinatorics.

Three model kinds are supported:

* rational      -- K = F_q(t) itself;
* monogenic     -- Kummer presentations O_K = F_q[t][y]/(y^E - u(t)) with a
                   genus-zero parametrization by s = y;
* constant-ext  -- K = F_{q^ell}(t), presented by the modulus of F_{q^ell}.

All shipped models have maximal totally real subfield F_q(t) itself; the
divisor operations nevertheless work fiberwise so that synthetic point
sets with larger real subfields can be exercised directly.

The Galois action is model-supplied (Kummer zeta-twists, constant
Frobenius); generic splitting-field computation is rejected with a clear
error.  Points are labeled by sorting leading coefficients through their
discrete-log index, so labels are stable across runs and do not depend
on the precision of the point values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Fq, poly_roots_in_ext, q_split
from .errors import (
    GaloisDataInsufficient,
    PrecisionExhausted,
    RamifiedAboveTheta,
)
from .infinity import InfElem, inf_nth_root, newton_roots

THETA_POINT = "xi_theta"


@dataclass(frozen=True)
class CMPoint:
    """A point of the model above t = theta: an embedding K -> C_inf."""

    label: str
    value: InfElem  # nu_xi(y); for the rational model, theta itself
    fiber: str  # label of the image point in J_{K+}
    component: int | None = None  # constant-ext component index
    epsilon: int | None = None  # Kummer ratio nu(y)/w as an F_q element


class CMDivisor:
    """Integer divisor supported on the labeled points of J_K."""

    __slots__ = ("mults",)

    def __init__(self, mults=None):
        self.mults = {k: v for k, v in (mults or {}).items() if v}

    def __getitem__(self, label):
        return self.mults.get(label, 0)

    def __add__(self, other):
        out = dict(self.mults)
        for k, v in other.mults.items():
            out[k] = out.get(k, 0) + v
        return CMDivisor(out)

    def __sub__(self, other):
        out = dict(self.mults)
        for k, v in other.mults.items():
            out[k] = out.get(k, 0) - v
        return CMDivisor(out)

    def scale(self, n):
        return CMDivisor({k: n * v for k, v in self.mults.items()})

    def __eq__(self, other):
        return isinstance(other, CMDivisor) and self.mults == other.mults

    def __hash__(self):
        return hash(tuple(sorted(self.mults.items())))

    def degree(self):
        return sum(self.mults.values())

    def is_effective(self):
        return all(v > 0 for v in self.mults.values())

    def is_zero(self):
        return not self.mults

    def support(self):
        return sorted(self.mults)

    def vector(self, labels):
        return [self.mults.get(l, 0) for l in labels]

    def to_json(self):
        return dict(sorted(self.mults.items()))

    def __repr__(self):
        return " + ".join(f"{v}*{k}" for k, v in sorted(self.mults.items())) or "0"


class CMFieldModel:
    """Explicit model of a CM field over F_q(t)."""

    def __init__(self, kind, q, E=None, u_coeffs=None, ell=None, name=None):
        self.kind = kind
        p, a = q_split(q)
        self.p, self.a, self.q = p, a, q
        self.base = Fq.get(p, a, 1)
        self.name = name or kind
        if kind == "rational":
            self.degree = 1
        elif kind == "monogenic":
            if E is None or u_coeffs is None:
                raise ValueError("monogenic model needs E and u(t) coefficients")
            self.E = E
            self.u_coeffs = tuple(c % p**a for c in u_coeffs)
            self.degree = E
        elif kind == "constant-ext":
            if ell is None:
                raise ValueError("constant-ext model needs ell")
            self.ell = ell
            self.const_field = K = Fq.get(p, a, ell)
            # the presentation generator g: the least root of K's modulus
            self.const_gen = min(
                r for r, _ in poly_roots_in_ext(list(K.modulus), self.base, K, require_all=True)
            )
            self.degree = ell
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        # all shipped models have K+ = F_q(t)
        self.real_degree = 1
        self.cm_degree = self.degree // self.real_degree
        self._points = {}
        self._wring = None  # the scalar ring of its motives, see shtuka._model_wring

    # -- serialization ------------------------------------------------------

    def to_json(self):
        out = {"kind": self.kind, "q": self.q, "name": self.name}
        if self.kind == "monogenic":
            out["E"] = self.E
            out["u_coeffs"] = list(self.u_coeffs)
        if self.kind == "constant-ext":
            out["ell"] = self.ell
            out["const_modulus"] = list(self.const_field.modulus)
        return out

    @staticmethod
    def from_json(obj):
        return CMFieldModel(
            obj["kind"],
            obj["q"],
            E=obj.get("E"),
            u_coeffs=obj.get("u_coeffs"),
            ell=obj.get("ell"),
            name=obj.get("name"),
        )

    # -- minimal polynomial --------------------------------------------------

    def min_poly(self, prec):
        """m(x, y) as a coefficient list of InfElems in y.  Read with x = theta
        it gives the points; validation reads the same list over
        F_q((1/t)), x = t."""
        if self.kind == "monogenic":
            u = InfElem.from_poly(self.base, self.u_coeffs, prec)
            zero = InfElem.zero(self.base, prec)
            one = InfElem.const(self.base, 1, prec)
            return [-u] + [zero] * (self.E - 1) + [one]
        if self.kind == "constant-ext":
            return [InfElem.const(self.base, c, prec) for c in self.const_field.modulus]
        raise ValueError("rational model has no minimal polynomial")

    # -- Galois data ---------------------------------------------------------

    def automorphism_maps(self):
        """Permutations of point labels generating the supplied Galois data."""
        if self.kind == "rational":
            return [{}]
        if self.kind == "monogenic":
            # Kummer zeta-twists y -> eps*y for eps in mu_E(F_q)
            eps_list = [x for x in range(1, self.base.size) if self.base.pow(x, self.E) == 1]
            if len(eps_list) < self.E:
                raise GaloisDataInsufficient(
                    "mu_E is not contained in F_q; supply an explicit action"
                )
            pts = self.points()
            maps = []
            for eps in eps_list:
                perm = {}
                for pt in pts:
                    target_eps = self.base.mul(pt.epsilon, eps)
                    tgt = next(x for x in pts if x.epsilon == target_eps)
                    perm[pt.label] = tgt.label
                maps.append(perm)
            return maps
        if self.kind == "constant-ext":
            pts = self.points()
            maps = []
            for shift in range(self.ell):
                perm = {}
                for pt in pts:
                    tgt = next(
                        x for x in pts if x.component == (pt.component + shift) % self.ell
                    )
                    perm[pt.label] = tgt.label
                maps.append(perm)
            return maps
        raise GaloisDataInsufficient("no Galois data for this model")

    # -- J_K -----------------------------------------------------------------

    def points(self, prec=None):
        """The points above theta, their values known to prec.  Labels,
        fibers, components and epsilons do not depend on prec, so a caller
        that reads only those passes no prec: it gets the points already
        computed (at the first precision asked for), or points at 120 when
        there are none yet."""
        if prec is None:
            if self._points:
                return next(iter(self._points.values()))
            prec = 120
        cached = self._points.get(prec)
        if cached is not None:
            return cached
        if self.kind == "rational":
            pts = [
                CMPoint(THETA_POINT, InfElem.theta(self.base, prec), "xi_theta+")
            ]
        elif self.kind == "monogenic":
            pts = self._points_monogenic(prec)
        else:
            pts = self._points_const_ext(prec)
        self._points[prec] = pts
        return pts

    def _points_monogenic(self, prec):
        roots = newton_roots(self.min_poly(prec))
        if sum(m for _, m in roots) != self.E:
            raise PrecisionExhausted("point count does not match the degree")
        u = InfElem.from_poly(self.base, self.u_coeffs, prec)
        w = inf_nth_root(u, self.E)
        decorated = []
        for r, mult in roots:
            if mult != 1:
                raise RamifiedAboveTheta("m(theta, y) is inseparable")
            rr, ww = InfElem.align(r, w)
            ratio = rr / ww
            eps = ratio.lead_coeff()
            if ratio.coeffs != {0: eps} or not rr.field.in_base_q(eps):
                # coefficient rings richer than F_q[theta][w] are rejected
                raise GaloisDataInsufficient(
                    "point is not an F_q-twist of the canonical root; "
                    "unsupported coefficient ring"
                )
            key = rr.field.dlog(rr.lead_coeff()) if rr.lead_coeff() else -1
            decorated.append((key, rr, eps))
        decorated.sort(key=lambda x: x[0])
        return [
            CMPoint(f"xi{i}", rr, "xi_theta+", epsilon=eps)
            for i, (_, rr, eps) in enumerate(decorated)
        ]

    def _points_const_ext(self, prec):
        K = self.const_field
        decorated = []
        # the F_p-modulus has a*ell roots; the points are the ell
        # Frob_q-conjugates of g, component i: g^(q^(ell - i)) = Frob_q^(-i)(g)
        for comp in range(self.ell):
            r = K.frob_q(self.const_gen, -comp)
            decorated.append((K.dlog(r) if r else -1, InfElem.const(K, r, prec), comp))
        decorated.sort(key=lambda x: x[0])
        return [
            CMPoint(f"xi{i}", val, "xi_theta+", component=comp)
            for i, (_, val, comp) in enumerate(decorated)
        ]

    def point(self, label):
        for pt in self.points():
            if pt.label == label:
                return pt
        raise KeyError(label)

    def fibers(self):
        out = {}
        for pt in self.points():
            out.setdefault(pt.fiber, []).append(pt.label)
        return {k: sorted(v) for k, v in out.items()}

    # -- infinite places -----------------------------------------------------

    def infinite_places(self):
        """(place label, residue datum) reached by each point's embedding.

        The residue datum is the reduction of the embedded residue
        generator; it separates the conjugate geometric points sharing one
        closed place.
        """
        out = {}
        for pt in self.points():
            if self.kind == "constant-ext":
                # residue field F_{q^ell}; generator reduces to the component value
                datum = pt.value.lead_coeff()
                out[pt.label] = ("inf0", f"g{datum}")
            else:
                # totally ramified place with residue field F_q
                out[pt.label] = ("inf0", "1")
        return out


# ---------------------------------------------------------------------------
# validation


def validate_cm_field(model: CMFieldModel, prec=80):
    """Check the defining condition: the real subfield splits completely at
    infinity and contributes exactly one place of K above each real place.

    Returns a report dict with pass/fail and the witness place count.
    """
    report = {
        "model": model.name,
        "real_subfield": "F_q(t)",
        "totally_real_places": model.real_degree,
        "pass": True,
        "places_above_infinity": 1,
    }
    if model.kind == "rational":
        return report
    roots = newton_roots(model.min_poly(prec))
    classes = _places_from_roots([r for r, m in roots for _ in range(m)])
    report["places_above_infinity"] = len(classes)
    report["place_data"] = [
        {"e": cls[0].e, "residue_degree": cls[0].field.m, "size": len(cls)}
        for cls in classes
    ]
    if len(classes) != model.real_degree:
        report["pass"] = False
    return report


def _places_from_roots(roots):
    """Group roots over F_q((1/t)) into Galois-conjugacy classes."""
    classes = []
    used = [False] * len(roots)
    for i, r in enumerate(roots):
        if used[i]:
            continue
        orbit = [i]
        used[i] = True
        field = r.field
        e = r.e
        zetas = [z for z in range(1, field.size) if field.pow(z, e) == 1]
        images = []
        for j in range(field.m * field.a):
            twisted = {k: field.frob(c, j) for k, c in r.coeffs.items()}
            for z in zetas:
                img = {k: field.mul(c, field.pow(z, k)) for k, c in twisted.items()}
                images.append(InfElem(field, e, img, r.prec))
        for k, other in enumerate(roots):
            if used[k]:
                continue
            for img in images:
                if (img - other).is_zero():
                    used[k] = True
                    orbit.append(k)
                    break
        classes.append([roots[k] for k in orbit])
    return classes


# ---------------------------------------------------------------------------
# divisor operations


def cm_weight(div: CMDivisor, points):
    """Classify a divisor: weight, generalized CM type, CM type flags.

    Returns a dict; weight is None when fiber sums disagree (NOT_IN_IK0).
    """
    fibers = {}
    for pt in points:
        fibers.setdefault(pt.fiber, []).append(pt.label)
    sums = {f: sum(div[l] for l in labels) for f, labels in fibers.items()}
    values = set(sums.values())
    in_ik0 = len(values) == 1
    weight = values.pop() if in_ik0 else None
    effective = div.is_effective() and not div.is_zero()
    generalized = bool(in_ik0 and effective and weight and weight > 0)
    return {
        "in_ik0": in_ik0,
        "weight": weight if in_ik0 else None,
        "fiber_sums": sums,
        "effective": effective,
        "generalized_cm_type": generalized,
        "cm_type": generalized and weight == 1,
    }


def decompose_cm_type(div: CMDivisor, points):
    """Write a generalized CM type as a sum of CM types (greedy, label order)."""
    info = cm_weight(div, points)
    if not info["generalized_cm_type"]:
        raise ValueError("divisor is not a generalized CM type")
    fibers = {}
    for pt in points:
        fibers.setdefault(pt.fiber, []).append(pt.label)
    for f in fibers:
        fibers[f].sort()
    rest = CMDivisor(div.mults)
    out = []
    for _ in range(info["weight"]):
        part = {}
        for f, labels in sorted(fibers.items()):
            picked = next(l for l in labels if rest[l] > 0)
            part[picked] = 1
        part_div = CMDivisor(part)
        out.append(part_div)
        rest = rest - part_div
    return out


def inflate(div: CMDivisor, model: CMFieldModel):
    """Pull back a divisor on the theta-line to the model (K over F_q(t)).

    Pull-back along an unramified fiber counts each point once; the
    inseparable case is rejected.
    """
    if model.kind == "monogenic" and model.E % model.p == 0:
        raise RamifiedAboveTheta("theta ramifies in this presentation")
    n = div[THETA_POINT]
    return CMDivisor({pt.label: n for pt in model.points()})


def restrict(div: CMDivisor, model: CMFieldModel):
    """Push a divisor on the model forward to the theta-line."""
    total = sum(div[pt.label] for pt in model.points())
    return CMDivisor({THETA_POINT: total})


def reduction_at_infinity(div: CMDivisor, model: CMFieldModel):
    """The divisor I_Xi of reductions at infinity: (place, datum) -> mult."""
    places = model.infinite_places()
    out = {}
    for label, mult in div.mults.items():
        key = places[label]
        out[key] = out.get(key, 0) + mult
    return {k: v for k, v in out.items() if v}


def _int_matrix_rank(rows):
    """Fraction-free Gaussian elimination rank over the integers."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f1, f2 = rows[r][c], rows[i][c]
                rows[i] = [f1 * x - f2 * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def galois_orbit(div: CMDivisor, model: CMFieldModel):
    """Orbit of a divisor under the model-supplied abelian Galois data."""
    orbit = []
    for perm in model.automorphism_maps():
        image = CMDivisor({perm.get(l, l): m for l, m in div.mults.items()})
        if image not in orbit:
            orbit.append(image)
    return orbit


def galois_rank(div: CMDivisor, model: CMFieldModel):
    """rank of the subgroup of I_K^0 generated by the orbit of div."""
    labels = [pt.label for pt in model.points()]
    rows = [d.vector(labels) for d in galois_orbit(div, model)]
    return _int_matrix_rank(rows)


def all_cm_types(model: CMFieldModel):
    fibers = model.fibers()
    choices = [[None]]
    for f in sorted(fibers):
        choices = [c + [l] for c in choices for l in fibers[f]]
    out = []
    for c in choices:
        mults = {}
        for l in c[1:]:
            mults[l] = mults.get(l, 0) + 1
        out.append(CMDivisor(mults))
    return out


def rank_ik0(model: CMFieldModel):
    """rank of I_K^0, by the closed formula and by the CM-type lattice.

    The two computations must agree; both are returned.
    """
    c = model.cm_degree
    d = model.real_degree
    formula = 1 + (c - 1) * d
    labels = [pt.label for pt in model.points()]
    rows = [t.vector(labels) for t in all_cm_types(model)]
    lattice = _int_matrix_rank(rows)
    if lattice != formula:
        raise AssertionError(
            f"rank disagreement: formula {formula} vs lattice {lattice}"
        )
    return {"rank": formula, "formula": formula, "lattice": lattice}


def nondegenerate_xi0(model: CMFieldModel, xi0_label: str):
    """The canonical non-degenerate generalized CM type anchored at xi0.

    c*xi0 plus one copy of every point in the other fibers; the
    certificate records that its Galois orbit spans the full lattice.
    """
    points = model.points()
    anchor = model.point(xi0_label)
    c = model.cm_degree
    mults = {xi0_label: c}
    for pt in points:
        if pt.fiber != anchor.fiber:
            mults[pt.label] = mults.get(pt.label, 0) + 1
    xi0 = CMDivisor(mults)
    info = cm_weight(xi0, points)
    rank = galois_rank(xi0, model)
    full = rank_ik0(model)["rank"]
    return {
        "divisor": xi0,
        "weight": info["weight"],
        "generalized_cm_type": info["generalized_cm_type"],
        "orbit_rank": rank,
        "ik0_rank": full,
        "non_degenerate": rank == full,
    }
