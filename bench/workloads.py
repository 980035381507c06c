"""Seeded inputs and job lists for the benchmark workloads.

A job is the argument list of one `sarxid` CLI call plus what the oracle
needs to check its output.  Each workload has a fixed schedule of shapes
(state dimensions, mode counts, pair kinds, coefficient ranges) that is the
same for every seed; the seed only draws the numbers.  That keeps the work
in one pass over the job list comparable from seed to seed.

This module uses only the standard library: generating inputs must not
depend on the code under measurement.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

FIXTURES = "fixtures"

# region: the three SISO fixture families, then generated type-(1,1)
# families with 2 modes and affine entries c0 + c1*theta1 + c2*theta2, each
# c a nonzero integer in [-9, 9].  Most such families are generic (five
# polynomials in S) and take about 0.6 s; coefficient coincidences give
# cheaper degenerate ones.  With c in [-3, 3] about half were degenerate,
# and the median fell between the two groups and moved by 16% from seed to
# seed.
REGION_FIXTURES = ("example8_first_family", "example8_second_family", "example2_param")
REGION_GENERATED = 24
REGION_COEFF_BOUND = 9

# screen: (ny, nu, p, m, modes).  Small SISO models with n = ny + nu =
# 2..7 and MIMO models with n = p*ny + m*nu up to 12; fourteen SISO models
# with n = 8 and 3 modes, which hold the tail; and two SISO models with
# n = 12 and 3 modes, which are the slowest jobs.
SCREEN_SEEDED = [(n - n // 2, n // 2, 1, 1, 2) for n in range(2, 8)] + [
    (1, 1, 2, 2, 2),
    (2, 1, 2, 1, 2),
    (2, 2, 2, 1, 3),
    (2, 2, 1, 2, 2),
    (3, 2, 2, 1, 2),
    (2, 2, 2, 2, 3),
    (3, 2, 2, 2, 2),
    (3, 3, 2, 2, 2),
] + [(4, 4, 1, 1, 3)] * 14
SCREEN_ANCHORED = [(6, 6, 1, 1, 3)] * 2
# 64 steps put the median job inside the dense group of n = 8 simulations
# rather than in the sparse gap just above it
SCREEN_WORD_LENGTH = 64
SCREEN_PARAM_FIXTURES = ("engine_family", "trivial_param")
SCREEN_MODEL_FIXTURES = ("example3", "remark1_counterexample")

# iso: per pair kind, the state dimensions of one pass.  Cost grows like
# n^6 (a Kronecker system with n^2 unknowns), so most pairs are small.  The
# n = 5 self and perturbed pairs run faster than the conjugated and
# non-reachable ones; with these sizes the median falls in the middle of the
# slower n = 5 group rather than on its edge.
#
# The slowest jobs of screen and iso are "anchored": drawn from a fixed
# seed, like fixtures, so that job_max_s compares the same inputs across
# seeds (one such job's time moves by 10-25% from seed to seed).
ISO_KINDS = ("self", "conjugated", "perturbed", "nonreachable")
ISO_SIZES = (4, 5, 5, 5, 5, 6, 6, 6)
ISO_ANCHORED = (("self", 8),)
ISO_MODES = 2


def fixture(name):
    return os.path.join(FIXTURES, name + ".json")


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def fmt_matrix(rows):
    return [[fmt(x) for x in row] for row in rows]


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


# -- small exact matrix helpers ----------------------------------------


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(a):
    """Gauss-Jordan inverse over the rationals; the input must be invertible."""
    n = len(a)
    m = [list(row) + e for row, e in zip(a, identity(n))]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def companion_lss(ny, nu, p, m, modes):
    """Switched state-space realization whose state is the regressor.

    x_t = (y_{t-1}, ..., y_{t-ny}, u_{t-1}, ..., u_{t-nu}); y_t = h_q x_t.
    Returns (n, {label: (A, B, C)}) with dense Fraction row lists.
    """
    n = p * ny + m * nu
    out = {}
    for q, h in modes.items():
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(p):
            a[i] = list(h[i])
        for i in range(p, p * ny):
            a[i][i - p] = Fraction(1)
        for i in range(p * ny + m, n):
            a[i][i - m] = Fraction(1)
        b = [[Fraction(int(i == p * ny + j)) for j in range(m)] for i in range(n)]
        out[q] = (a, b, [list(r) for r in h])
    return n, out


def lss_json(n, m, p, modes, x0):
    return {
        "n": n,
        "m": m,
        "p": p,
        "modes": {
            q: {"A": fmt_matrix(a), "B": fmt_matrix(b), "C": fmt_matrix(c)}
            for q, (a, b, c) in sorted(modes.items())
        },
        "x0": [fmt(x) for x in x0],
    }


# -- generators ---------------------------------------------------------


def _nonzero(rng, bound):
    return Fraction(rng.choice([c for c in range(-bound, bound + 1) if c]))


def _affine_family(rng, bound):
    def entry():
        return {
            "terms": [
                {"c": fmt(_nonzero(rng, bound)), "e": e} for e in ([0, 0], [1, 0], [0, 1])
            ]
        }

    return {
        "vars": ["theta1", "theta2"],
        "ny": 1,
        "nu": 1,
        "p": 1,
        "m": 1,
        "modes": {str(q): [entry(), entry()] for q in (1, 2)},
    }


def _region(rng, seed, out):
    jobs = []
    for name in REGION_FIXTURES:
        jobs.append({"id": name, "kind": "region", "param": fixture(name)})
    for k in range(REGION_GENERATED):
        path = os.path.join(out, "family%02d.json" % k)
        write_json(path, _affine_family(rng, REGION_COEFF_BOUND))
        jobs.append({"id": "family%02d" % k, "kind": "region", "param": path})
    for job in jobs:
        job["argv"] = ["param-analyze", job["param"], "--seed", str(seed)]
    return jobs


def random_sarx(rng, ny, nu, p, m, modes):
    width = ny * p + nu * m
    return {
        str(q): [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(width)]
            for _ in range(p)
        ]
        for q in range(1, modes + 1)
    }


def _screen(rng, seed, out):
    jobs = []
    s = str(seed)
    anchor = random.Random("anchor:screen")
    schedule = [(rng, shape) for shape in SCREEN_SEEDED] + [(anchor, shape) for shape in SCREEN_ANCHORED]
    for k, (draw, (ny, nu, p, m, nmodes)) in enumerate(schedule):
        modes = random_sarx(draw, ny, nu, p, m, nmodes)
        model = os.path.join(out, "model%02d.json" % k)
        write_json(
            model,
            {"ny": ny, "nu": nu, "p": p, "m": m,
             "modes": {q: fmt_matrix(h) for q, h in modes.items()}},
        )
        word = os.path.join(out, "word%02d.json" % k)
        steps = [
            {"q": str(draw.randint(1, nmodes)), "u": [str(draw.randint(-3, 3)) for _ in range(m)]}
            for _ in range(SCREEN_WORD_LENGTH)
        ]
        write_json(word, {"steps": steps})
        siso = p == 1 and m == 1
        method = ["--method", "both"] if siso else []
        jobs.append({"id": "model%02d.min" % k, "kind": "check-min", "model": model,
                     "argv": ["check-min", model] + method + ["--seed", s]})
        jobs.append({"id": "model%02d.sim" % k, "kind": "simulate", "model": model, "word": word,
                     "argv": ["simulate", model, word, "--compare-lss", "--seed", s]})
    for name in SCREEN_PARAM_FIXTURES:
        jobs.append({"id": name, "kind": "param-generic", "param": fixture(name),
                     "argv": ["param-generic", fixture(name), "--seed", s]})
    for name in SCREEN_MODEL_FIXTURES:
        jobs.append({"id": name, "kind": "check-min", "model": fixture(name),
                     "argv": ["check-min", fixture(name), "--seed", s]})
    return jobs


def _unimodular(rng, n):
    lower = [[Fraction(int(i == j) or (rng.randint(-1, 1) if j < i else 0)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j) or (rng.randint(-1, 1) if j > i else 0)) for j in range(n)] for i in range(n)]
    return matmul(lower, upper)


def _conjugate(modes, x0, t):
    ti = inverse(t)
    out = {q: (matmul(matmul(t, a), ti), matmul(t, b), matmul(c, ti)) for q, (a, b, c) in modes.items()}
    return out, [row[0] for row in matmul(t, [[x] for x in x0])]


def _sarx_embedding(rng, n):
    ny = n - n // 2
    nu = n // 2
    return companion_lss(ny, nu, 1, 1, random_sarx(rng, ny, nu, 1, 1, ISO_MODES))[1]


def _nonreachable(rng, n):
    """Block upper-triangular modes with B and x0 in the first n//2 coordinates."""
    r = n // 2

    def small():
        return Fraction(rng.randint(-2, 2))

    modes = {}
    for q in range(1, ISO_MODES + 1):
        a = [[small() if i < r or j >= r else Fraction(0) for j in range(n)] for i in range(n)]
        b = [[small() if i < r else Fraction(0)] for i in range(n)]
        c = [[small() for _ in range(n)]]
        modes[str(q)] = (a, b, c)
    return modes


def _iso(rng, seed, out):
    jobs = []
    anchor = random.Random("anchor:iso")
    pairs = [(rng, kind, n) for kind in ISO_KINDS for n in ISO_SIZES]
    pairs += [(anchor, kind, n) for kind, n in ISO_ANCHORED]
    for k, (draw, kind, n) in enumerate(pairs):
        modes = _nonreachable(draw, n) if kind == "nonreachable" else _sarx_embedding(draw, n)
        x0 = [Fraction(0)] * n
        a_path = os.path.join(out, "pair%02d_a.json" % k)
        write_json(a_path, lss_json(n, 1, 1, modes, x0))
        if kind == "self":
            b_path = a_path
        else:
            b_modes, b_x0 = _conjugate(modes, x0, _unimodular(draw, n))
            if kind == "perturbed":
                # adding 1 to one diagonal entry changes trace(A_1), which
                # similarity preserves, so no isomorphism exists
                a1, b1, c1 = b_modes["1"]
                a1 = [list(row) for row in a1]
                a1[0][0] += 1
                b_modes["1"] = (a1, b1, c1)
            b_path = os.path.join(out, "pair%02d_b.json" % k)
            write_json(b_path, lss_json(n, 1, 1, b_modes, b_x0))
        jobs.append({"id": "pair%02d.%s.n%d" % (k, kind, n), "kind": "iso", "pair": kind,
                     "a": a_path, "b": b_path,
                     "argv": ["iso", a_path, b_path, "--seed", str(seed)]})
    return jobs


def generate(workload, seed, out):
    """Write the workload's inputs under `out` and return its job list."""
    rng = random.Random("%s:%d" % (workload, seed))
    os.makedirs(out, exist_ok=True)
    jobs = {"region": _region, "screen": _screen, "iso": _iso}[workload](rng, seed, out)
    write_json(os.path.join(out, "jobs.json"), {"workload": workload, "seed": seed, "jobs": jobs})
    return jobs
