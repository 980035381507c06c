"""Buchberger's algorithm, reduced Groebner bases, elimination ideals.

`buchberger` is the improved algorithm of Becker and Weispfenning,
*Groebner Bases* (1993), p. 232, in the shape of sympy's `groebnertools`:

- The generators are inter-reduced once up front (p. 203): each by those
  kept before it, so no two leading monomials are equal.
- Pairs are selected by the normal strategy: smallest lcm of the leading
  monomials in the active order, ties broken by basis index.
- Each new basis element goes through the Gebauer-Moeller `_update` (J.
  Symb. Comp. 6, 1988): the chain and product criteria drop new pairs,
  old pairs the new leading monomial makes redundant are pruned, and
  elements whose leading monomial it divides leave the working basis.
- Divisors and basis elements are used in their integer form: the
  primitive integer polynomial, with denominators cleared and content 1.
  A reduction step runs over `int` with one gcd, not one per term: with w
  the leading coefficient of the work, lc that of the divisor g and
  k = gcd(w, lc), the work becomes (lc/k)*work - (w/k)*x^shift*g, and the
  remainder already moved out is scaled by lc/k along with it.
  `normal_form` divides that scale back at the end, so it returns the
  exact remainder over `Fraction`.
- S-polynomials are built from the integer forms.  Only the final reduced
  basis is made monic over `Fraction`.
- Each call owns an `_OrderKeys` cache, so each monomial's order key and
  each divisor's integer form are computed once per call, not at every
  reduction.
- One final pass reduces each element by the others.  The result is the
  unique reduced basis, monic and sorted by leading monomial, largest
  first, whatever the order or scaling of the generators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .multipoly import (
    MonomialOrder,
    MultiPoly,
    _mono_div,
    _mono_divides,
    _mono_lcm,
    _mono_mul,
)


class _OrderKeys(dict):
    """Monomial -> order key, each computed once.  One per `buchberger` call.

    `forms` maps id(divisor) to the divisor and its integer form; holding
    the divisor keeps its id from being reused while the cache lives.
    """

    __slots__ = ("order", "forms")

    def __init__(self, order: MonomialOrder):
        super().__init__()
        self.order = order
        self.forms = {}

    def __missing__(self, exp):
        k = self[exp] = self.order.key(exp)
        return k

    def form(self, g: MultiPoly):
        """g made primitive over `int`: (leading monomial, its coefficient, other terms)."""
        held = self.forms.get(id(g))
        if held is None:
            d = lcm(*(c.denominator for c in g.terms.values()))
            ints = {e: c.numerator * (d // c.denominator) for e, c in g.terms.items()}
            content = gcd(*ints.values())
            lm = max(ints, key=self.__getitem__)
            lc = ints.pop(lm) // content
            held = self.forms[id(g)] = (g, (lm, lc, [(e, c // content) for e, c in ints.items()]))
        return held[1]


def normal_form(f: MultiPoly, basis, order) -> MultiPoly:
    """Remainder of f under multivariate division by `basis`.

    Divisors are tried in the order given.  `order` is a MonomialOrder, or
    the key cache of the running `buchberger` call.  The division runs on
    f with its denominators cleared and on the divisors' integer forms.
    """
    keys = order if isinstance(order, _OrderKeys) else _OrderKeys(order)
    key = keys.__getitem__
    divisors = [keys.form(g) for g in basis if g.terms]
    # raw term dicts avoid per-step polynomial construction in the hot loop;
    # scale * f and work + remainder differ by a member of the ideal
    scale = lcm(*(c.denominator for c in f.terms.values()))
    work = {e: c.numerator * (scale // c.denominator) for e, c in f.terms.items()}
    remainder = {}
    while work:
        lm = max(work, key=key)
        w = work.pop(lm)
        for glm, lc, tail in divisors:
            if _mono_divides(glm, lm):
                k = gcd(w, lc)
                a, b = lc // k, w // k
                if a != 1:
                    scale *= a
                    work = {e: a * c for e, c in work.items()}
                    remainder = {e: a * c for e, c in remainder.items()}
                shift = _mono_div(lm, glm)
                for e, c in tail:
                    te = _mono_mul(e, shift)
                    nc = work.get(te, 0) - b * c
                    if nc:
                        work[te] = nc
                    else:
                        del work[te]
                break
        else:
            remainder[lm] = w
    return MultiPoly(f.vars, {e: Fraction(c, scale) for e, c in remainder.items()})


def _s_polynomial(f: MultiPoly, g: MultiPoly, m, keys: _OrderKeys) -> MultiPoly:
    """S-polynomial of the integer forms of f and g, whose leading monomials have lcm m."""
    lf, cf, tf = keys.form(f)
    lg, cg, tg = keys.form(g)
    k = gcd(cf, cg)
    af, ag = cg // k, cf // k
    sf, sg = _mono_div(m, lf), _mono_div(m, lg)
    terms = {_mono_mul(e, sf): af * c for e, c in tf}
    for e, c in tg:
        e = _mono_mul(e, sg)
        c = terms.get(e, 0) - ag * c
        if c:
            terms[e] = c
        else:
            del terms[e]
    return MultiPoly(f.vars, terms)


def _update(basis, pairs, ih, lead):
    """Gebauer-Moeller update of the basis indices and the pair -> lcm map.

    [BW] p. 230: adds the pairs of `ih` with the basis that the chain and
    product criteria keep, prunes old pairs, and drops basis elements whose
    leading monomial lead[ih] divides.
    """
    mh = lead[ih]
    older = sorted(basis)
    lcms = [_mono_lcm(mh, lead[ig]) for ig in older]
    kept = []
    for n, ig in enumerate(older):
        m = lcms[n]
        # chain criterion: another pair of h with a dividing lcm covers this one
        if m == _mono_mul(mh, lead[ig]) or not (
            any(_mono_divides(other, m) for other in lcms[n + 1 :])
            or any(_mono_divides(other, m) for _, other in kept)
        ):
            kept.append((ig, m))
    pairs = {
        (i, j): m
        for (i, j), m in pairs.items()
        if not _mono_divides(mh, m)
        or _mono_lcm(lead[i], mh) == m
        or _mono_lcm(lead[j], mh) == m
    }
    # product criterion: coprime leading monomials reduce to zero
    pairs.update(((ig, ih), m) for ig, m in kept if m != _mono_mul(mh, lead[ig]))
    basis = {ig for ig in basis if not _mono_divides(mh, lead[ig])}
    basis.add(ih)
    return basis, pairs


def buchberger(generators, order: MonomialOrder):
    """The unique reduced Groebner basis of the generated ideal.

    The zero ideal yields an empty basis.
    """
    keys = _OrderKeys(order)
    key = keys.__getitem__
    polys = []  # every basis element of the run; the basis and pairs index it
    lead = []
    for g in generators:
        r = normal_form(g, polys, keys)
        if r.terms:
            polys.append(r)
            lead.append(keys.form(r)[0])
    basis, pairs = set(), {}
    for ih in sorted(range(len(polys)), key=lambda i: key(lead[i])):
        basis, pairs = _update(basis, pairs, ih, lead)
    while pairs:
        i, j = min(pairs, key=lambda pair: (key(pairs[pair]), pair))
        s = _s_polynomial(polys[i], polys[j], pairs.pop((i, j)), keys)
        # divisors with small leading monomials first [Cox-Little-O'Shea p. 111]
        divisors = sorted(basis, key=lambda ig: key(lead[ig]))
        h = normal_form(s, [polys[ig] for ig in divisors], keys)
        if h.terms:
            polys.append(h)
            lead.append(keys.form(h)[0])
            basis, pairs = _update(basis, pairs, len(polys) - 1, lead)

    # the leading monomials of the basis are distinct, so elements whose
    # leading monomial another one divides reduce to zero and the rest keep
    # their leading monomial
    reduced = (
        (ig, normal_form(polys[ig], [polys[o] for o in basis if o != ig], keys))
        for ig in sorted(basis, key=lambda ig: key(lead[ig]), reverse=True)
    )
    return [h * (1 / h.terms[lead[ig]]) for ig, h in reduced if h.terms]


def elimination_ideal(generators, drop):
    """Groebner basis of the ideal intersected with the subring omitting `drop`.

    The generators share one ring; the basis is taken in the block order
    ranking the dropped variables above the kept ones, and the result is
    returned over the kept variables only.
    """
    nvars = len(generators[0].vars)
    keep = [i for i in range(nvars) if i not in drop]
    return [
        g.restrict(keep)
        for g in buchberger(generators, MonomialOrder.elimination(nvars, drop))
        if not any(g.involves(i) for i in drop)
    ]


def ideals_equal(gens_a, gens_b, order: MonomialOrder) -> bool:
    """Ideal equality: the reduced Groebner basis of an ideal is unique.

    Acceptance criterion 03 compares ideals with it, and
    `test_ideals_equal_by_mutual_reduction` checks it.
    """
    return buchberger(gens_a, order) == buchberger(gens_b, order)
