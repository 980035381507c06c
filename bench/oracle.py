"""Independent checks of every job's output, made after the timed loop.

  python3 bench/oracle.py DIR

Reads DIR/jobs.json and DIR/results.json and writes DIR/verdicts.json,
{job id: {"ok": bool, "why": str}}.  Nothing here calls sarxid: the checks
use sympy over QQ and the bench's own exact helpers.

- region: S_A and S_B equal sympy's elimination of z from the paper's
  chi, phi_next and upsilon polynomials, built here in sympy's ring; I_A,
  I_B and S equal sympy's reduced grevlex bases of those generators (S from
  the products of sympy's I_A and I_B).  For seeded theta where some element
  of S does not vanish, the instance is strongly minimal.  The exit code is
  0 iff S is not the zero ideal.
- screen: the reachable and unobservable dimensions match a closure
  computed with sympy; a simulated trace matches a direct recursion and
  `lss_agrees` is true; a genericity witness is a strongly minimal instance.
- iso: a witness satisfies every intertwining equation exactly and has a
  nonzero determinant; conjugated pairs never return "none"; pairs whose
  A_q traces differ always return "none".
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

from sympy import QQ
from sympy.polys.groebnertools import groebner as ring_groebner
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grevlex, lex
from sympy.polys.rings import ring as polynomial_ring

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def load(path):
    with open(path) as fh:
        return json.load(fh)


def dm(rows):
    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(rows, (len(rows), len(rows[0]) if rows else 0), QQ)


def fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


# -- minimality by closure ---------------------------------------------


def closure_dim(n, maps, seeds):
    """Dimension of the smallest subspace holding `seeds`, invariant under `maps`.

    Vectors are length-n Fraction lists; the span is tracked by sympy ranks.
    """
    maps = [dm(a) for a in maps]
    basis = []
    frontier = seeds
    while frontier:
        fresh = []
        for v in frontier:
            cand = basis + [v]
            if dm(cand).rank() > len(basis):
                basis = cand
                fresh.append(v)
        frontier = []
        for v in fresh:
            col = dm([[x] for x in v])
            for a in maps:
                w = (a * col).to_Matrix()
                frontier.append([Fraction(int(e.p), int(e.q)) for e in w])
        if len(basis) == n:
            break
    return len(basis)


def sarx_dims(model):
    """(n, reachable dim, unobservable dim) of the regressor realization."""
    modes = {q: fractions(h) for q, h in model["modes"].items()}
    n, lss = workloads.companion_lss(model["ny"], model["nu"], model["p"], model["m"], modes)
    abc = list(lss.values())
    # x0 = 0, so the reachable span is generated by the B columns
    reach = closure_dim(n, [a for a, _, _ in abc], [list(col) for _, b, _ in abc for col in zip(*b)])
    # unobservable = kernel of the smallest A_q^T-invariant span of the C_q rows
    transposed = [[list(r) for r in zip(*a)] for a, _, _ in abc]
    observed = closure_dim(n, transposed, [list(r) for _, _, c in abc for r in c])
    return n, reach, n - observed


def is_strongly_minimal(model):
    n, reach, unobs = sarx_dims(model)
    return reach == n and unobs == 0


def instantiate(param, theta):
    def ev(poly):
        acc = Fraction(0)
        for t in poly["terms"]:
            term = Fraction(t["c"])
            for x, e in zip(theta, t["e"]):
                term *= x ** e
            acc += term
        return acc

    cols = param["ny"] * param["p"] + param["nu"] * param["m"]
    modes = {}
    for q, polys in param["modes"].items():
        values = [ev(f) for f in polys]
        modes[q] = [values[r * cols:(r + 1) * cols] for r in range(param["p"])]
    return {k: param[k] for k in ("ny", "nu", "p", "m")} | {"modes": modes}


# -- region -------------------------------------------------------------


def eliminated_generators(param, ring):
    """Per ordered pair (q, qh) of distinct modes: the z-free reduced bases of
    <chi_q, phi_next(q, qh)> and <chi_q, upsilon_qh>, and the scale of S_B.

    The polynomials follow the paper's recursions: chi_q = z^ny - sum_j
    h_q^j z^(ny-j), upsilon_q = sum_j h_q^j z^(ny-j); d_j = A_qh^j e_1 from
    the companion recursion; psi_0 = 1, psi_(j+1) = z psi_j + (h_qh - h_q).d_j;
    phi_next(q, qh) = sum_j h_qh^(ny+j) psi_(nu-j+1).  z is eliminated with a
    lex order in sympy, then the result is reduced in `ring` (grevlex).
    """
    ny, nu = param["ny"], param["nu"]
    big = polynomial_ring(["z"] + param["vars"], QQ, lex)[0]
    z = big.gens[0]

    def coeff(poly, r):
        terms = {}
        for t in poly["terms"]:
            c = Fraction(t["c"])
            exp = tuple(t["e"])
            terms[(0,) + exp if r is big else exp] = QQ(c.numerator, c.denominator)
        return r.from_dict(terms)

    h = {q: [coeff(f, big) for f in polys] for q, polys in param["modes"].items()}
    upsilon = {q: sum(h[q][j - 1] * z ** (ny - j) for j in range(1, ny + 1)) for q in h}
    chi = {q: z ** ny - upsilon[q] for q in h}

    def entry(q, i):
        """h_q^i (1-based) in `ring`."""
        return coeff(param["modes"][q][i - 1], ring)

    def eliminate(f, g):
        gb = ring_groebner([p for p in (f, g) if p], big)
        kept = [p for p in gb if all(m[0] == 0 for m in p.monoms())]
        kept = [ring.from_dict({m[1:]: c for m, c in p.items()}) for p in kept]
        return ring_groebner(kept, ring) if kept else []

    out = {}
    for q in sorted(h):
        for qh in sorted(h):
            if q == qh:
                continue
            d = [[big.one] + [big.zero] * (ny - 1)]
            for _ in range(nu):
                prev = d[-1]
                d.append([sum(h[qh][i] * prev[i] for i in range(ny))] + prev[: ny - 1])
            diff = [h[qh][i] - h[q][i] for i in range(ny)]
            psi = [big.one]
            for j in range(nu):
                psi.append(z * psi[-1] + sum(diff[i] * d[j][i] for i in range(ny)))
            phi_next = sum(h[qh][ny + j - 1] * psi[nu - j + 1] for j in range(1, nu + 1))
            top = entry(q, ny + nu)
            scale = top * (entry(qh, ny) * top - entry(q, ny) * entry(qh, ny + nu))
            out["%s,%s" % (q, qh)] = (eliminate(chi[q], phi_next), eliminate(chi[q], upsilon[qh]), scale)
    return out


def check_region(job, rc, out, seed):
    param = load(job["param"])
    ring, *_ = polynomial_ring(param["vars"], QQ, grevlex)
    index = {name: i for i, name in enumerate(param["vars"])}

    def parse(polys):
        """Polynomials printed as 'c*x^2*y + c*y + c' into ring elements."""
        parsed = []
        for text in polys:
            terms = {}
            for term in text.split(" + "):
                coeff, *factors = term.split("*")
                exp = [0] * len(index)
                for factor in factors:
                    name, _, power = factor.partition("^")
                    exp[index[name]] += int(power or 1)
                c = Fraction(coeff)
                terms[tuple(exp)] = QQ(c.numerator, c.denominator)
            parsed.append(ring.from_dict(terms))
        return parsed

    def reduced(gens):
        gens = [g for g in gens if g]
        return ring_groebner(gens, ring) if gens else []

    def as_set(polys):
        return {frozenset(p.items()) for p in polys}

    inter = out["intermediates"]
    expected = eliminated_generators(param, ring)
    if set(inter["S_A"]) != set(expected) or set(inter["S_B"]) != set(expected):
        return "pairs %s, expected %s" % (sorted(inter["S_A"]), sorted(expected))
    for pair, (s_a, s_b_raw, scale) in expected.items():
        for name, ref in (("S_A", s_a), ("S_B_unscaled", s_b_raw), ("S_B", [f * scale for f in s_b_raw])):
            if as_set(parse(inter[name][pair])) != as_set(ref):
                return "%s[%s] differs from sympy's elimination" % (name, pair)
    i_a = reduced([g for s_a, _, _ in expected.values() for g in s_a])
    i_b = reduced([f * scale for _, raw, scale in expected.values() for f in raw])
    s = reduced([f * g for f in i_a for g in i_b])
    for name, mine, ref in (("I_A", inter["I_A"], i_a), ("I_B", inter["I_B"], i_b), ("S", out["S"], s)):
        if as_set(parse(mine)) != as_set(ref):
            return "%s differs from sympy's reduced basis" % name
    if rc != (0 if s else 1):
        return "exit code %r for %s region" % (rc, "a nonempty" if s else "an empty")
    rng = random.Random("%d:%s" % (seed, job["id"]))
    for _ in range(3):
        theta = [Fraction(rng.randint(-5, 5)) for _ in index]
        point = [QQ(x.numerator, x.denominator) for x in theta]
        if any(f(*point) != 0 for f in s):
            if not is_strongly_minimal(instantiate(param, theta)):
                return "theta %s is in the region but not strongly minimal" % theta
    return None


# -- screen -------------------------------------------------------------


def simulate(model, word):
    """Direct recursion y_t = sum_j H^j y_{t-j} + sum_j H^(ny+j) u_{t-j}."""
    ny, nu, p, m = model["ny"], model["nu"], model["p"], model["m"]
    modes = {q: fractions(h) for q, h in model["modes"].items()}
    ys, us = [], []
    for step in word["steps"]:
        h = modes[step["q"]]
        reg = []
        for j in range(1, ny + 1):
            reg += ys[-j] if len(ys) >= j else [Fraction(0)] * p
        for j in range(1, nu + 1):
            reg += us[-j] if len(us) >= j else [Fraction(0)] * m
        ys.append([sum((a * x for a, x in zip(row, reg)), Fraction(0)) for row in h])
        us.append([Fraction(x) for x in step["u"]])
    return ys


def check_min(job, rc, out, seed):
    n, reach, unobs = sarx_dims(load(job["model"]))
    cert = out.get("certificates") or {}
    if (cert.get("reachable_dim"), cert.get("unobservable_dim"), cert.get("state_dim")) != (reach, unobs, n):
        return "certificates %r, expected reachable %d, unobservable %d, n %d" % (cert, reach, unobs, n)
    minimal = reach == n and unobs == 0
    if out["strong_minimal"] != minimal or rc != (0 if minimal else 1):
        return "verdict %r (exit %r), expected %r" % (out["strong_minimal"], rc, minimal)
    suff = out.get("sufficient_conditions")
    if suff and suff["hold"] and not minimal:
        return "sufficient conditions hold on a non-minimal model"
    return None


def check_simulate(job, rc, out, seed):
    expected = simulate(load(job["model"]), load(job["word"]))
    got = [[Fraction(x) for x in row] for row in out["outputs"]]
    if got != expected:
        return "output trace differs from the direct recursion"
    if out.get("lss_agrees") is not True or rc != 0:
        return "lss_agrees %r, exit %r" % (out.get("lss_agrees"), rc)
    return None


def check_generic(job, rc, out, seed):
    # both fixture families are generically strongly minimal, so a witness must exist
    if out["witness"] is None or rc != 0:
        return "no witness (exit %r)" % rc
    theta = [Fraction(x) for x in out["witness"]]
    if not is_strongly_minimal(instantiate(load(job["param"]), theta)):
        return "witness %s is not strongly minimal" % out["witness"]
    return None


# -- iso ----------------------------------------------------------------


def check_iso(job, rc, out, seed):
    a, b = load(job["a"]), load(job["b"])
    if out["witness"] is not None:
        s = dm(fractions(out["witness"]))
        if s.det() == 0:
            return "witness is singular"
        for q in a["modes"]:
            ma = {k: dm(fractions(v)) for k, v in a["modes"][q].items()}
            mb = {k: dm(fractions(v)) for k, v in b["modes"][q].items()}
            if s * ma["A"] != mb["A"] * s or s * ma["B"] != mb["B"] or mb["C"] * s != ma["C"]:
                return "witness breaks an intertwining equation of mode %s" % q
        x0a = dm([[Fraction(x)] for x in a["x0"]])
        x0b = dm([[Fraction(x)] for x in b["x0"]])
        if s * x0a != x0b:
            return "witness does not map x0 to x0'"
    if job["pair"] == "perturbed":
        traces_differ = any(
            sum(Fraction(a["modes"][q]["A"][i][i]) for i in range(a["n"]))
            != sum(Fraction(b["modes"][q]["A"][i][i]) for i in range(b["n"]))
            for q in a["modes"]
        )
        if not traces_differ:
            return "perturbed pair has equal traces"
        if out["kind"] != "none" or rc != 1:
            return "kind %r (exit %r) for a pair with differing traces" % (out["kind"], rc)
    elif out["kind"] == "none" or rc != 0:
        return "kind %r (exit %r) for a conjugated pair" % (out["kind"], rc)
    return None


CHECKS = {
    "region": check_region,
    "check-min": check_min,
    "simulate": check_simulate,
    "param-generic": check_generic,
    "iso": check_iso,
}


def verdict(job, entry, seed):
    if entry["error"]:
        return "raised: " + entry["error"].strip().splitlines()[-1]
    if not entry["consistent"]:
        return "output changed between passes"
    try:
        out = json.loads(entry["out"])
    except json.JSONDecodeError:
        return "output is not JSON"
    try:
        return CHECKS[job["kind"]](job, entry["rc"], out, seed)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return "malformed output: %r" % exc


def main():
    run_dir = sys.argv[1]
    spec = load(os.path.join(run_dir, "jobs.json"))
    results = load(os.path.join(run_dir, "results.json"))
    verdicts = {}
    for job, entry in zip(spec["jobs"], results["entries"]):
        why = verdict(job, entry, spec["seed"])
        verdicts[job["id"]] = {"ok": why is None, "why": why or ""}
    with open(os.path.join(run_dir, "verdicts.json"), "w") as fh:
        json.dump(verdicts, fh)


if __name__ == "__main__":
    main()
