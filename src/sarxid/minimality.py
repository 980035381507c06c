"""Strong minimality of SISO switched ARX models.

Two routes are offered.  The exact route embeds the model into its switched
state-space form and checks span-reachability and observability by rank.
The coprimality route evaluates a pair of sufficient conditions on
polynomials built from the mode coefficients: a characteristic polynomial
chi_q per mode, an observability polynomial upsilon_q per mode, and a
cross-mode family phi built through the psi recursion.  The coprimality
route is sound but not complete.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .lss import LssMinimalityCertificate, associated_lss, is_minimal_lss
from .rationals import InputError, Record, _ONE, _ZERO, format_rational
from .sarx import SarxModel
from .multipoly import MultiPoly
from .unipoly import Z_RING, is_coprime


def _horner(lead, coeffs, z):
    """lead z^k + coeffs[0] z^(k-1) + ... + coeffs[k-1], with k = len(coeffs)."""
    for c in coeffs:
        lead = lead * z + c
    return lead


class Theorem2Data:
    """Polynomial data backing the sufficient strong-minimality conditions.

    `Theorem2Data(ny, nu, h, ring)` runs the Theorem-2 recursions over any
    coefficient ring: h maps each mode label to its coefficients
    h_q^1..h_q^(ny+nu), and the polynomials are MultiPoly in `ring`, whose
    last variable is z: Z_RING for one model, the parameters and z for a
    family.  Only +, * and Horner steps are used, so the same code builds the
    data of one model and, symbolically, of a whole parametrized family.  A
    pair (q, qh) names first the mode q whose chi is tested; t_q = h_q^(ny+nu).

    pairs            the ordered pairs of distinct modes, in witness search order
    chi[q]           monic z^ny - sum h_q^j z^(ny-j)
    upsilon[q]       sum_{j<=ny} h_q^j z^(ny-j)
    d[q][j]          the first ny entries of A_q^j e_1, j = 0..nu (the rest are 0)
    psi(q, qh)[j]    monic degree-j polynomials with psi_j(A_q) e_1 = A_qh^j e_1
    phi(q, qh)       sum_j h_qh^(ny+j) psi_(nu-j); phi(A_q) e_1 = A_qh^nu B
    phi_next(q, qh)  sum_j h_qh^(ny+j) psi_(nu-j+1); represents A_qh^(nu+1) B
    b_scale(q, qh)   t_q (h_qh^ny t_q - h_q^ny t_qh) = t_q^2 condition_b_scalar

    The pair data are methods that build their value when called, q = qh
    included, and raise KeyError for an unknown label.  On the diagonal
    psi_j = z^j, so phi(q, q) = sum_{j<=nu} h_q^(ny+j) z^(nu-j) is the
    numerator N_q of mode q's transfer function.
    """

    __slots__ = ("ny", "nu", "_h", "_one", "_z", "pairs", "chi", "upsilon", "d")

    def __init__(self, ny, nu, h, ring):
        self.ny, self.nu, self._h = ny, nu, h
        self._one = one = MultiPoly.constant(ring, 1)
        self._z = z = MultiPoly.variable(ring, len(ring) - 1)
        self.pairs = tuple(permutations(h, 2))
        self.chi, self.upsilon, self.d = {}, {}, {}
        for q, hq in h.items():
            self.chi[q] = _horner(one, [-c for c in hq[:ny]], z)
            self.upsilon[q] = _horner(one * 0, hq[:ny], z)
            seq = [(_ONE,) + (_ZERO,) * (ny - 1)]
            for _ in range(nu):
                prev = seq[-1]
                seq.append((sum(c * x for c, x in zip(hq, prev)),) + prev[:-1])
            self.d[q] = seq

    def psi(self, q, qh):
        h, ny = self._h, self.ny
        diff = [a - b for a, b in zip(h[qh][:ny], h[q][:ny])]
        seq = [self._one]
        for j in range(self.nu):
            seq.append(self._z * seq[-1] + sum(c * x for c, x in zip(diff, self.d[qh][j])))
        return seq

    def _weighted(self, qh, seq):
        return sum((c * p for c, p in zip(self._h[qh][self.ny:], reversed(seq))), self._one * 0)

    def phi(self, q, qh):
        return self._weighted(qh, self.psi(q, qh)[:-1])

    def phi_next(self, q, qh):
        return self._weighted(qh, self.psi(q, qh)[1:])

    def b_scale(self, q, qh):
        h, ny = self._h, self.ny
        t = h[q][-1]
        return self._one * (t * (h[qh][ny - 1] * t - h[q][ny - 1] * h[qh][-1]))


def theorem2_polynomials(model: SarxModel) -> Theorem2Data:
    model.require_siso("scalar coefficient access")
    return Theorem2Data(model.ny, model.nu, {q: model.modes[q].row(0) for q in model.labels}, Z_RING)


def arx_is_minimal(data: Theorem2Data, q) -> bool:
    """Lone-mode ARX minimality: the transfer function z^(ny-nu) N_q / chi_q is reduced.

    N_q is phi(q, q).  The delay factor counts when ny > nu.
    `test_transfer_minimality_matches_sympy_gcd` checks it against sympy.
    """
    delay = MultiPoly.variable(data.chi[q].vars, 0, max(data.ny - data.nu, 0))
    return is_coprime(delay * data.phi(q, q), data.chi[q])


def gamma_polynomials(model: SarxModel, q):
    """Polynomials gamma_1..gamma_nu with e_{ny+j}^T = e_ny^T chi_q(A_q) gamma_j(A_q).

    Acceptance criterion 06 checks this row identity.

    Defined by gamma_1 = z^(nu-1) / h^(ny+nu) and
    gamma_i = (z^(nu-i) - sum_{j<i} gamma_j h^(ny+nu-i+j)) / h^(ny+nu);
    requires the leading input coefficient h_q^(ny+nu) to be nonzero.
    """
    ny, nu = model.ny, model.nu
    top = model.coeff(q, ny + nu)
    if top == 0:
        raise InputError("leading input coefficient of mode %r is zero" % (q,))
    gammas = []
    for i in range(1, nu + 1):
        acc = MultiPoly.variable(Z_RING, 0, nu - i)
        for j in range(1, i):
            acc = acc - model.coeff(q, ny + nu - i + j) * gammas[j - 1]
        gammas.append((1 / top) * acc)
    return gammas


def check_condition_a(data: Theorem2Data):
    """First pair (q0, q1) with chi_q0 coprime to phi_(q0,q1), or None."""
    for q0, q1 in data.pairs:
        if is_coprime(data.chi[q0], data.phi(q0, q1)):
            return (q0, q1)
    return None


def condition_b_scalar(model: SarxModel, q2, q3):
    """h_q3^ny - (h_q3^(ny+nu) / h_q2^(ny+nu)) h_q2^ny; needs the divisor nonzero."""
    ny, nu = model.ny, model.nu
    top2 = model.coeff(q2, ny + nu)
    if top2 == 0:
        raise InputError("leading input coefficient of mode %r is zero" % (q2,))
    return model.coeff(q3, ny) - model.coeff(q3, ny + nu) * model.coeff(q2, ny) / top2


def check_condition_b(data: Theorem2Data):
    """First pair (q2, q3) with b_scale nonzero and upsilon_q3 coprime to chi_q2, or None."""
    for q2, q3 in data.pairs:
        if not data.b_scale(q2, q3).is_zero() and is_coprime(data.upsilon[q3], data.chi[q2]):
            return (q2, q3)
    return None


def _condition(witness):
    """The report block of one Theorem-2 condition: whether it holds, and its witness pair."""
    return {"holds": witness is not None, "witness": list(witness) if witness else None}


class MinimalityVerdict(Record):
    """Outcome of a strong-minimality check.

    strong_minimal is None when only the sufficient conditions were run and
    they failed (the conditions are not necessary, so nothing follows).
    certificate is the rank route's evidence, None when only Theorem 2 ran.
    """

    method: str
    strong_minimal: bool | None
    condition_a_witness: tuple | None = None
    condition_b_witness: tuple | None = None
    condition_b_value: Fraction | None = None
    certificate: LssMinimalityCertificate | None = None

    @property
    def sufficient_holds(self) -> bool | None:
        """Whether both Theorem-2 witnesses were found; None when Theorem 2 did not run."""
        if self.method == "exact-rank":
            return None
        return self.condition_a_witness is not None and self.condition_b_witness is not None

    def to_json_dict(self):
        out = {
            "method": self.method,
            "strong_minimal": self.strong_minimal,
        }
        if self.sufficient_holds is not None:
            value = self.condition_b_value
            out["sufficient_conditions"] = {
                "hold": self.sufficient_holds,
                "A": _condition(self.condition_a_witness),
                "B": dict(_condition(self.condition_b_witness),
                          scalar=None if value is None else format_rational(value)),
            }
        if self.certificate is not None:
            out["certificates"] = {
                "reachable_dim": self.certificate.reachable_dim,
                "unobservable_dim": self.certificate.unobservable_dim,
                "state_dim": self.certificate.state_dim,
            }
        return out


def check_strong_minimality(model: SarxModel, method="exact-rank") -> MinimalityVerdict:
    if method not in ("exact-rank", "theorem2", "both"):
        raise ValueError("unknown method %r" % method)
    wa = wb = value = cert = None
    if method != "exact-rank":
        data = theorem2_polynomials(model)
        wa = check_condition_a(data)
        wb = check_condition_b(data)
        if wb is not None:
            value = condition_b_scalar(model, *wb)
    sufficient = wa is not None and wb is not None
    if method == "theorem2":
        strong = True if sufficient else None
    else:
        cert = is_minimal_lss(associated_lss(model))
        strong = cert.minimal
        if sufficient and not strong:
            raise AssertionError(
                "sufficient conditions held on a non-minimal system; "
                "this contradicts their soundness"
            )
    return MinimalityVerdict(
        method=method,
        strong_minimal=strong,
        condition_a_witness=wa,
        condition_b_witness=wb,
        condition_b_value=value,
        certificate=cert,
    )


def sarx_minimality_sufficient(model: SarxModel):
    """One-sided minimality certificate for SISO models.

    Returns ("minimal-certified", reason) when some single-mode ARX is
    minimal or the model is strongly minimal; otherwise ("unknown", None).
    Plain minimality has no complete decision procedure here.
    """
    data = theorem2_polynomials(model)
    for q in model.labels:
        if arx_is_minimal(data, q):
            return ("minimal-certified", "mode %s has a minimal ARX subsystem" % q)
    if check_strong_minimality(model, method="exact-rank").strong_minimal:
        return ("minimal-certified", "the associated switched state-space system is minimal")
    return ("unknown", None)

