"""Strong minimality of SISO switched ARX models.

Two routes are offered.  The exact route embeds the model into its switched
state-space form and checks span-reachability and observability by rank.
The coprimality route evaluates a pair of sufficient conditions on
polynomials built from the mode coefficients: a characteristic polynomial
chi_q per mode, an observability polynomial upsilon_q per mode, and a
cross-mode family phi built through the psi recursion.  The coprimality
route is sound but not complete.

The Theorem-2 data are numerators over one denominator D.  A model's
coefficients h_q are read off each mode row's integer form as int
numerators H_q over D, the lcm of the modes' denominators; a family's are
its coefficient polynomials, with D = 1.  The d recursion, psi's sums,
phi's weights and b_scale run on the numerators, with no Fraction, and
each polynomial in z is assembled once from its coefficient list over its
power of D (`_poly`): chi and upsilon over D, psi_j over D^j, phi over
D^nu, phi_next over D^(nu+1) and b_scale over D^3.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm

from .linalg import aligned
from .lss import LssMinimalityCertificate, associated_lss, is_minimal_lss
from .rationals import InputError, Record, format_rational
from .sarx import SarxModel
from .multipoly import MultiPoly
from .unipoly import Z_RING, is_coprime


def _poly(ring, coeffs, den):
    """sum_k coeffs[k] z^(n-1-k) / den, n = len(coeffs), as a MultiPoly in `ring`.

    z is the last variable of the ring, den a positive int, and each
    coefficient an int or a z-free MultiPoly in the ring, read through its
    integer form; the terms are brought to one denominator over int.
    """
    flat = (0,) * (len(ring) - 1)
    top = len(coeffs) - 1
    terms, dens = [], []
    for k, c in enumerate(coeffs):
        if type(c) is int:
            if c:
                terms.append((flat + (top - k,), c, 1))
        else:
            e, ints = c.integer_form()
            dens.append(e)
            terms.extend((exp[:-1] + (top - k,), x, e) for exp, x in ints.items())
    m = lcm(*dens)
    return MultiPoly._of(ring, den * m, {exp: x * (m // e) for exp, x, e in terms})


def _total(terms):
    """The sum of ints and MultiPolys, an int 0 when there are none."""
    return sum(terms[1:], terms[0]) if terms else 0


def _dot(a, b):
    """sum_i a_i b_i over the shorter length; terms with an int 0 in b are skipped."""
    return _total([x * y for x, y in zip(a, b) if not (type(y) is int and y == 0)])


class Theorem2Data:
    """Polynomial data backing the sufficient strong-minimality conditions.

    `Theorem2Data(ny, nu, h, den, ring)` runs the Theorem-2 recursions over
    any coefficient ring: h maps each mode label to the numerators
    H_q^1..H_q^(ny+nu) of its coefficients h_q^j = H_q^j / den (D in the
    module docstring), ints for one model, z-free MultiPolys in `ring` with
    den = 1 for a family.  The polynomials are MultiPoly in `ring`, whose
    last variable is z: Z_RING for one model, the parameters and z for a
    family.  The recursions use only + and * on numerators, so the same
    code builds the data of one model and, symbolically, of a whole
    parametrized family; each polynomial is assembled from its numerator's
    coefficient list over the power of den given below.  A pair (q, qh)
    names first the mode q whose chi is tested; t_q = h_q^(ny+nu).

    pairs            the ordered pairs of distinct modes, in witness search order
    chi[q]           monic z^ny - sum h_q^j z^(ny-j), over den
    upsilon[q]       sum_{j<=ny} h_q^j z^(ny-j), over den
    d[q][j]          the numerators over den^j of the first ny entries of
                     A_q^j e_1, j = 0..nu (the rest are 0)
    psi(q, qh)[j]    monic degree-j polynomials with psi_j(A_q) e_1 = A_qh^j e_1,
                     over den^j
    phi(q, qh)       sum_j h_qh^(ny+j) psi_(nu-j); phi(A_q) e_1 = A_qh^nu B,
                     over den^nu
    phi_next(q, qh)  sum_j h_qh^(ny+j) psi_(nu-j+1); represents A_qh^(nu+1) B,
                     over den^(nu+1)
    b_scale(q, qh)   t_q (h_qh^ny t_q - h_q^ny t_qh) = t_q^2 condition_b_scalar,
                     over den^3

    The pair data are methods that build their value when called, q = qh
    included, and raise KeyError for an unknown label.  On the diagonal
    psi_j = z^j, so phi(q, q) = sum_{j<=nu} h_q^(ny+j) z^(nu-j) is the
    numerator N_q of mode q's transfer function.
    `test_data_match_the_fraction_reference` checks every field against the
    Fraction recursion of `tests/oracles.py`.
    """

    __slots__ = ("ny", "nu", "den", "_h", "_ring", "pairs", "chi", "upsilon", "d")

    def __init__(self, ny, nu, h, den, ring):
        self.ny, self.nu, self.den, self._h, self._ring = ny, nu, den, h, ring
        self.pairs = tuple(permutations(h, 2))
        self.chi, self.upsilon, self.d = {}, {}, {}
        for q, hq in h.items():
            self.chi[q] = _poly(ring, [den] + [-c for c in hq[:ny]], den)
            self.upsilon[q] = _poly(ring, hq[:ny], den)
            # A_q d_j = (h_q . d_j, d_j shifted down), and one more factor of den
            seq = [(1,) + (0,) * (ny - 1)]
            for _ in range(nu):
                prev = seq[-1]
                tail = prev[:-1] if den == 1 else tuple(den * x for x in prev[:-1])
                seq.append((_dot(hq, prev),) + tail)
            self.d[q] = seq

    def _psi_numerators(self, q, qh):
        """Per j = 0..nu, the coefficient list, highest first, of den^j psi_j(q, qh).

        psi_(j+1) = z psi_j + (h_qh - h_q) . d_qh[j], so over den^(j+1) the
        list gains one entry, the dot product of the numerators.
        """
        h, ny, den = self._h, self.ny, self.den
        diff = [a - b for a, b in zip(h[qh][:ny], h[q][:ny])]
        seq = [[1]]
        for dj in self.d[qh][: self.nu]:
            prev = seq[-1] if den == 1 else [den * c for c in seq[-1]]
            seq.append(prev + [_dot(diff, dj)])
        return seq

    def psi(self, q, qh):
        """psi_0..psi_nu of the pair (`test_psi_d_phi_identities` checks them)."""
        nums, den, ring = self._psi_numerators(q, qh), self.den, self._ring
        return [_poly(ring, p, den**j) for j, p in enumerate(nums)]

    def _weighted(self, qh, nums, k):
        """sum_i h_qh^(ny+i) psi_(k-i), i = 1..nu, over den^k, off the psi numerators."""
        den = self.den
        acc = [[] for _ in range(k)]
        w = 1  # den^(i-1): psi_(k-i) is over den^(k-i)
        for i, c in enumerate(self._h[qh][self.ny :], 1):
            if not (type(c) is int and c == 0):
                cw = c if w == 1 else c * w
                for t, x in enumerate(nums[k - i], i - 1):
                    acc[t].append(cw if type(x) is int and x == 1 else cw * x)
            w *= den
        return _poly(self._ring, [_total(terms) for terms in acc], den**k)

    def phi(self, q, qh):
        return self._weighted(qh, self._psi_numerators(q, qh), self.nu)

    def phi_next(self, q, qh):
        return self._weighted(qh, self._psi_numerators(q, qh), self.nu + 1)

    def b_scale(self, q, qh):
        h, ny = self._h, self.ny
        t = h[q][-1]
        return _poly(self._ring, [t * (h[qh][ny - 1] * t - h[q][ny - 1] * h[qh][-1])], self.den**3)


def theorem2_polynomials(model: SarxModel) -> Theorem2Data:
    """The Theorem-2 data of one model, off the integer forms of its mode rows."""
    model.require_siso("scalar coefficient access")
    den, rows = aligned(*[model.modes[q] for q in model.labels])
    h = {q: r[0] for q, r in zip(model.labels, rows)}
    return Theorem2Data(model.ny, model.nu, h, den, Z_RING)


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

