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
- Divisors and S-polynomials are built from integer forms, primitive over
  `int`, and `normal_form` divides with `multipoly._remainder`.  Only the
  final reduced basis is made monic over `Fraction`.
- Each call owns an `_OrderKeys` cache, so each monomial's order key and
  each divisor's integer form are computed once per call, not at every
  reduction.
- One final pass reduces each element by the others.  The result is the
  unique reduced basis, monic and sorted by leading monomial, largest
  first, whatever the order or scaling of the generators.
"""

from __future__ import annotations

from math import gcd

from .multipoly import (
    MonomialOrder,
    MultiPoly,
    _mono_div,
    _mono_divides,
    _mono_lcm,
    _mono_mul,
    _primitive,
    _remainder,
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
        """g's integer form: (leading monomial, its coefficient, other terms)."""
        held = self.forms.get(id(g))
        if held is None:
            held = self.forms[id(g)] = (g, _primitive(g.terms, self.__getitem__))
        return held[1]


def normal_form(f: MultiPoly, basis, order) -> MultiPoly:
    """Remainder of f under multivariate division by `basis`.

    Divisors are tried in the order given.  `order` is a MonomialOrder, or
    the key cache of the running `buchberger` call.
    """
    keys = order if isinstance(order, _OrderKeys) else _OrderKeys(order)
    return _remainder(f, [keys.form(g) for g in basis if g.terms], keys.__getitem__)


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
    returned over the kept variables only.  No generators give no basis.
    """
    if not generators:
        return []
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
