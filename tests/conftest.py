import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sarxid import Z_RING, HybridWord, Lss, LssMode, MultiPoly, RatMatrix, SarxModel

FIXTURES = Path(__file__).parent.parent / "fixtures"


def fixture_path(name):
    return FIXTURES / name


def zpoly(*ascending_coeffs):
    """The polynomial sum_k c_k z^k in the one-variable ring of z."""
    return MultiPoly(Z_RING, {(k,): c for k, c in enumerate(ascending_coeffs)})


def matrix_power(a, k):
    """a^k by repeated products; a^0 is the identity."""
    result = RatMatrix.identity(a.rows)
    for _ in range(k):
        result = result @ a
    return result


def rank(m):
    return len(m.rref()[1])


def rand_fraction(rng, lo=-5, hi=5, max_den=1):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_word(labels, m, horizon, rng, lo=-3, hi=3, max_den=1):
    return HybridWord(
        [
            (rng.choice(labels), [
                Fraction(rng.randint(lo, hi), rng.randint(1, max_den) if max_den > 1 else 1)
                for _ in range(m)
            ])
            for _ in range(horizon)
        ]
    )


def random_siso_model(rng, max_ny=3, max_modes=3, nonzero_top=False):
    ny = rng.randint(1, max_ny)
    nu = rng.randint(1, ny)
    modes = {}
    for q in range(1, rng.randint(2, max_modes) + 1):
        row = [rand_fraction(rng) for _ in range(ny + nu)]
        if nonzero_top:
            while row[ny + nu - 1] == 0:
                row[ny + nu - 1] = rand_fraction(rng)
        modes[str(q)] = RatMatrix([row])
    return SarxModel(ny=ny, nu=nu, p=1, m=1, modes=modes)


def random_mimo_model(rng, max_ny=3, max_dim=2, max_modes=3):
    ny = rng.randint(1, max_ny)
    nu = rng.randint(1, ny)
    p = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    width = ny * p + nu * m
    modes = {}
    for q in range(1, rng.randint(2, max_modes) + 1):
        modes[str(q)] = RatMatrix(
            [[rand_fraction(rng) for _ in range(width)] for _ in range(p)]
        )
    return SarxModel(ny=ny, nu=nu, p=p, m=m, modes=modes)


def random_lss(rng, max_n=5, max_modes=3):
    n = rng.randint(1, max_n)
    m = rng.randint(1, 2)
    p = rng.randint(1, 2)
    modes = {}
    for q in range(1, rng.randint(1, max_modes) + 1):
        modes[str(q)] = LssMode(
            a=RatMatrix([[rand_fraction(rng, -2, 2) for _ in range(n)] for _ in range(n)]),
            b=RatMatrix([[rand_fraction(rng, -2, 2) for _ in range(m)] for _ in range(n)]),
            c=RatMatrix([[rand_fraction(rng, -2, 2) for _ in range(n)] for _ in range(p)]),
        )
    x0 = RatMatrix.column([rand_fraction(rng, -2, 2) for _ in range(n)])
    return Lss(n=n, m=m, p=p, modes=modes, x0=x0)


def random_rational_lss(rng, n, m, p, modes=2, max_den=4):
    """Every entry of A, B, C and x0 a fraction with denominator up to max_den."""

    def block(rows, cols):
        return RatMatrix([[rand_fraction(rng, -3, 3, max_den) for _ in range(cols)]
                          for _ in range(rows)], cols)

    return Lss(n=n, m=m, p=p, x0=block(n, 1),
               modes={str(q): LssMode(a=block(n, n), b=block(n, m), c=block(p, n))
                      for q in range(1, modes + 1)})


@pytest.fixture
def rng():
    return random.Random(0)
