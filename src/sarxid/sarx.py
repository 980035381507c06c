"""Switched ARX models and their exact input-output simulation.

A model of type (n_y, n_u) holds one coefficient matrix h_q per discrete
mode; the output at time t is h_{q_t} applied to the regressor stacking the
last n_y outputs and n_u inputs, with everything before time 0 taken as
zero.  `simulate_sarx` applies h_q through `linalg.sparse_apply`, the one
product, to that regressor kept as a shift register.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RatMatrix, sparse_apply, sparse_rows
from .rationals import (
    InputError,
    format_rational,
    load_json,
    malformed,
    parse_int,
    parse_rational,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SarxModel:
    ny: int
    nu: int
    p: int
    m: int
    modes: dict  # label -> RatMatrix, p x (ny*p + nu*m)

    def __post_init__(self):
        if not (0 < self.nu <= self.ny):
            raise InputError("need 0 < n_u <= n_y, got (%d, %d)" % (self.ny, self.nu))
        if self.p < 1 or self.m < 1:
            raise InputError("need positive input/output dimensions")
        if not self.modes:
            raise InputError("mode set must be nonempty")
        width = self.ny * self.p + self.nu * self.m
        for q, h in self.modes.items():
            if h.shape != (self.p, width):
                raise InputError(
                    "mode %r has shape %s, expected %s"
                    % (q, h.shape, (self.p, width))
                )

    @property
    def labels(self):
        return sorted(self.modes)

    def is_siso(self):
        return self.p == 1 and self.m == 1

    def coeff(self, q, i):
        """SISO scalar coefficient h_q^i, 1-based as in the recursions."""
        if not self.is_siso():
            raise InputError("scalar coefficient access requires a SISO model")
        return self.modes[q][0, i - 1]

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        return {
            "ny": self.ny,
            "nu": self.nu,
            "p": self.p,
            "m": self.m,
            "modes": {q: self.modes[q].to_strings() for q in self.labels},
        }

    @classmethod
    def from_json_dict(cls, obj):
        with malformed("SARX"):
            if not isinstance(obj["modes"], dict):
                raise TypeError('"modes" must be an object')
            modes = {
                str(q): RatMatrix.from_strings(rows)
                for q, rows in obj["modes"].items()
            }
            return cls(
                ny=parse_int(obj["ny"]),
                nu=parse_int(obj["nu"]),
                p=parse_int(obj["p"]),
                m=parse_int(obj["m"]),
                modes=modes,
            )

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(load_json(path))


class HybridWord:
    """Finite sequence of (mode label, input vector) pairs, time-indexed from 0."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = [
            (str(q), tuple(Fraction(x) for x in u)) for q, u in steps
        ]
        if not self.steps:
            raise InputError("hybrid word must be nonempty")

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def to_json_dict(self):
        return {
            "steps": [
                {"q": q, "u": [format_rational(x) for x in u]} for q, u in self.steps
            ]
        }

    @classmethod
    def from_json_dict(cls, obj):
        with malformed("word"):
            steps = []
            for s in obj["steps"]:
                if not isinstance(s["u"], list):
                    raise TypeError('a step\'s "u" must be a list')
                steps.append((s["q"], [parse_rational(x) for x in s["u"]]))
            return cls(steps)

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(load_json(path))


def simulate_sarx(model: SarxModel, word: HybridWord):
    """Exact output trace y_0..y_t for the hybrid word.

    The regressor phi, the last n_y outputs above the last n_u inputs, is
    kept as a shift register from zero: each step y_t = h_{q_t} phi_t, then
    y_t and u_t enter at the top of their blocks and the oldest drop out,
    the update the companion embedding of `lss.associated_lss` encodes.
    """
    rows = {q: sparse_rows(h.to_lists()) for q, h in model.modes.items()}
    top = model.ny * model.p
    phi = [_ZERO] * (top + model.nu * model.m)
    outputs = []
    for q, u in word:
        if q not in rows:
            raise InputError("unknown mode label %r" % q)
        if len(u) != model.m:
            raise InputError("input dimension %d != m=%d" % (len(u), model.m))
        y = sparse_apply(rows[q], phi)
        outputs.append(tuple(y))
        phi = [*y, *phi[: top - model.p], *u, *phi[top : -model.m]]
    return outputs


def reduce_trailing_zero(model: SarxModel) -> SarxModel:
    """Drop the last input coefficient when it vanishes in every mode.

    `test_reduce_trailing_zero_preserves_traces` checks that traces are kept.
    """
    if not model.is_siso():
        raise InputError("trailing-zero reduction implemented for SISO models")
    if model.nu < 2:
        raise InputError("n_u must be at least 2 to reduce")
    last = model.ny + model.nu
    if any(model.coeff(q, last) != 0 for q in model.labels):
        raise InputError("last coefficient is not zero in every mode")
    modes = {
        q: RatMatrix([[model.modes[q][0, j] for j in range(last - 1)]])
        for q in model.modes
    }
    return SarxModel(ny=model.ny, nu=model.nu - 1, p=1, m=1, modes=modes)
