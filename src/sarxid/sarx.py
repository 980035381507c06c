"""Switched ARX models and their exact input-output simulation.

`SarxType` is a type (n_y, n_u, p, m) with its modes, shared by a model and
a polynomial family.  A model holds one coefficient matrix h_q per discrete
mode; the output at time t is h_{q_t} applied to the regressor stacking the
last n_y outputs and n_u inputs, with everything before time 0 taken as
zero.  `simulate_sarx` applies h_q through `linalg.sparse_apply`, the one
product, to that regressor kept as a shift register.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import RatMatrix, lowest_terms, read_row, sparse_apply, sparse_rows
from .rationals import (
    InputError,
    JsonLoadable,
    Record,
    format_rational,
    malformed,
    parse_int,
    read_modes,
)

_HEADER = ("ny", "nu", "p", "m")


class SarxType(Record, JsonLoadable):
    """A SARX type (n_y, n_u, p, m) and its modes.

    A model (`SarxModel`) holds a coefficient matrix per mode, a family
    (`identifiability.PolyParametrization`) a polynomial per coefficient, and
    `instantiate` maps the family to a model of the same type.
    """

    ny: int
    nu: int
    p: int
    m: int
    modes: dict

    def __post_init__(self):
        if not (0 < self.nu <= self.ny):
            raise InputError("need 0 < n_u <= n_y, got (%d, %d)" % (self.ny, self.nu))
        if self.p < 1 or self.m < 1:
            raise InputError("need positive input/output dimensions")
        if not self.modes:
            raise InputError("mode set must be nonempty")

    @property
    def width(self):
        """Length of the regressor: the last n_y outputs and n_u inputs."""
        return self.ny * self.p + self.nu * self.m

    @property
    def labels(self):
        return sorted(self.modes)

    def is_siso(self):
        return self.p == 1 and self.m == 1

    def require_siso(self, what):
        if not self.is_siso():
            raise InputError("%s requires a SISO model" % what)

    def header(self):
        return {k: getattr(self, k) for k in _HEADER}

    @staticmethod
    def read_header(obj):
        return [parse_int(obj[k]) for k in _HEADER]


class SarxModel(SarxType):
    """A SARX type with one p x width coefficient matrix h_q per mode."""

    def __post_init__(self):
        super().__post_init__()
        for q, h in self.modes.items():
            if h.shape != (self.p, self.width):
                raise InputError(
                    "mode %r has shape %s, expected %s"
                    % (q, h.shape, (self.p, self.width))
                )

    def coeff(self, q, i):
        """SISO scalar coefficient h_q^i, 1-based as in the recursions."""
        self.require_siso("scalar coefficient access")
        return self.modes[q][0, i - 1]

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        return dict(self.header(), modes={q: self.modes[q].to_strings() for q in self.labels})

    @classmethod
    def from_json_dict(cls, obj):
        with malformed("SARX"):
            modes = read_modes(obj, RatMatrix.from_strings)
            return cls(*cls.read_header(obj), modes)


class HybridWord(JsonLoadable):
    """Finite sequence of (mode label, input vector) pairs, time-indexed from 0.

    A word is its integer steps, its only state: each step is (q, v, U),
    the input as the int vector U over the positive int v in lowest terms,
    read once by `linalg.read_row`, as a row of a `RatMatrix` is, for the
    simulators.  Iterating yields (q, inputs) with the inputs as
    Fractions, built when read.
    """

    __slots__ = ("integer_steps",)

    def __init__(self, steps):
        self.integer_steps = []
        for q, u in steps:
            v, ints = read_row(u)
            self.integer_steps.append((str(q), v, ints))
        if not self.integer_steps:
            raise InputError("hybrid word must be nonempty")

    def __iter__(self):
        return ((q, tuple(Fraction(x, v) for x in u)) for q, v, u in self.integer_steps)

    def to_json_dict(self):
        return {
            "steps": [
                {"q": q, "u": [format_rational(x, v) for x in u]}
                for q, v, u in self.integer_steps
            ]
        }

    @classmethod
    def from_json_dict(cls, obj):
        with malformed("word"):
            steps = []
            for s in obj["steps"]:
                if not isinstance(s["u"], list):
                    raise TypeError('a step\'s "u" must be a list')
                steps.append((s["q"], s["u"]))
            return cls(steps)


def simulate_sarx(model: SarxModel, word: HybridWord):
    """Exact output trace y_0..y_t for the hybrid word.

    The regressor phi, the last n_y outputs above the last n_u inputs, is
    kept as a shift register from zero: each step y_t = h_{q_t} phi_t, then
    y_t and u_t enter at the top of their blocks and the oldest drop out,
    the update the companion embedding of `lss.associated_lss` encodes.
    Each h_q = H / d is cleared to integers once, and phi is kept as an int
    vector over a positive int s, brought to one denominator when y_t and
    u_t enter and divided by its gcd with s.  Each output entry is one
    Fraction.
    """
    rows = {}
    for q, h in model.modes.items():
        d, ints = h.integer_form()
        rows[q] = (d, sparse_rows(ints))
    top, p, m = model.ny * model.p, model.p, model.m
    phi, s = [0] * model.width, 1
    outputs = []
    for q, v, u in word.integer_steps:
        if q not in rows:
            raise InputError("unknown mode label %r" % q)
        if len(u) != m:
            raise InputError("input dimension %d != m=%d" % (len(u), m))
        d, h = rows[q]
        y = sparse_apply(h, phi)
        outputs.append(tuple(Fraction(a, d * s) for a in y))
        # y = Y / (d s), the register phi / s and u = U / v, over d s v
        if d * v != 1:
            y = [v * a for a in y]
            phi = [d * v * a for a in phi]
        phi = [*y, *phi[: top - p], *[d * s * a for a in u], *phi[top:-m]]
        phi, s = lowest_terms(phi, d * s * v)
    return outputs


def reduce_trailing_zero(model: SarxModel) -> SarxModel:
    """Drop the last input coefficient when it vanishes in every mode.

    `test_reduce_trailing_zero_preserves_traces` checks that traces are kept.
    """
    model.require_siso("trailing-zero reduction")
    if model.nu < 2:
        raise InputError("n_u must be at least 2 to reduce")
    last = model.width
    if any(model.coeff(q, last) != 0 for q in model.labels):
        raise InputError("last coefficient is not zero in every mode")
    modes = {
        q: RatMatrix([[model.modes[q][0, j] for j in range(last - 1)]])
        for q in model.modes
    }
    return SarxModel(ny=model.ny, nu=model.nu - 1, p=1, m=1, modes=modes)
