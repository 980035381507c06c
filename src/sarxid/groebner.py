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
- Basis elements are monic over `Fraction`, so a reduction step needs no
  division and no rescaling.
- Each call owns an `_OrderKeys` cache, so each monomial's order key is
  computed once per call, not at every reduction step.
- One final pass reduces each element by the others.  The result is the
  unique reduced basis, monic and sorted by leading monomial, largest
  first, whatever the order or scaling of the generators.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import (
    MonomialOrder,
    MultiPoly,
    _mono_div,
    _mono_divides,
    _mono_lcm,
    _mono_mul,
)

_ZERO = Fraction(0)


class _OrderKeys(dict):
    """Monomial -> order key, each computed once.  One per `buchberger` call."""

    __slots__ = ("order",)

    def __init__(self, order: MonomialOrder):
        super().__init__()
        self.order = order

    def __missing__(self, exp):
        k = self[exp] = self.order.key(exp)
        return k


def normal_form(f: MultiPoly, basis, order) -> MultiPoly:
    """Remainder of f under multivariate division by `basis`.

    Divisors are tried in the order given, each made monic first.  `order`
    is a MonomialOrder, or the key cache of the running `buchberger` call.
    """
    keys = order if isinstance(order, _OrderKeys) else _OrderKeys(order)
    key = keys.__getitem__
    divisors = []
    for g in basis:
        if g.terms:
            lm = max(g.terms, key=key)
            lc = g.terms[lm]
            terms = g.terms if lc == 1 else {e: c / lc for e, c in g.terms.items()}
            divisors.append((lm, terms))
    # raw term dicts avoid per-step polynomial construction in the hot loop
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=key)
        for glm, gterms in divisors:
            if _mono_divides(glm, lm):
                shift = _mono_div(lm, glm)
                ratio = work[lm]
                for e, c in gterms.items():
                    te = _mono_mul(e, shift)
                    nc = work.get(te, _ZERO) - ratio * c
                    if nc:
                        work[te] = nc
                    else:
                        del work[te]
                break
        else:
            remainder[lm] = work.pop(lm)
    return MultiPoly(f.vars, remainder)


def _s_polynomial(f: MultiPoly, g: MultiPoly, lf, lg, lcm) -> MultiPoly:
    """S-polynomial of two monic polynomials with leading monomials lf, lg."""
    sf, sg = _mono_div(lcm, lf), _mono_div(lcm, lg)
    terms = {_mono_mul(e, sf): c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        e = _mono_mul(e, sg)
        c = terms.get(e, _ZERO) - c
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
    polys = []  # every monic polynomial of the run; the basis and pairs index it
    lead = []
    for g in generators:
        r = normal_form(g, polys, keys)
        if r.terms:
            lm = max(r.terms, key=key)
            polys.append(r * (1 / r.terms[lm]))
            lead.append(lm)
    basis, pairs = set(), {}
    for ih in sorted(range(len(polys)), key=lambda i: key(lead[i])):
        basis, pairs = _update(basis, pairs, ih, lead)
    while pairs:
        i, j = min(pairs, key=lambda pair: (key(pairs[pair]), pair))
        s = _s_polynomial(polys[i], polys[j], lead[i], lead[j], pairs.pop((i, j)))
        # divisors with small leading monomials first [Cox-Little-O'Shea p. 111]
        divisors = sorted(basis, key=lambda ig: key(lead[ig]))
        h = normal_form(s, [polys[ig] for ig in divisors], keys)
        if h.terms:
            lm = max(h.terms, key=key)
            polys.append(h * (1 / h.terms[lm]))
            lead.append(lm)
            basis, pairs = _update(basis, pairs, len(polys) - 1, lead)

    # the leading monomials of the basis are distinct, so elements whose
    # leading monomial another one divides reduce to zero and the rest keep
    # their monic leading term
    reduced = (
        normal_form(polys[ig], [polys[o] for o in basis if o != ig], keys)
        for ig in sorted(basis, key=lambda ig: key(lead[ig]), reverse=True)
    )
    return [h for h in reduced if h.terms]


class Ideal:
    """Polynomial ideal with a cached reduced Groebner basis."""

    __slots__ = ("generators", "order", "_basis")

    def __init__(self, generators, order: MonomialOrder):
        self.generators = list(generators)
        self.order = order
        self._basis = None

    @property
    def vars(self):
        return self.generators[0].vars if self.generators else ()

    def groebner_basis(self):
        if self._basis is None:
            self._basis = buchberger(self.generators, self.order)
        return self._basis

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        return normal_form(f, self.groebner_basis(), self.order)

    def contains(self, f: MultiPoly) -> bool:
        return self.normal_form(f).is_zero()

    def is_zero_ideal(self):
        return not self.groebner_basis()

    def is_unit_ideal(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()


def elimination_ideal(ideal: Ideal, drop):
    """Groebner basis of I intersected with the subring omitting `drop`.

    The ideal's order must rank the dropped variables strictly above the
    kept ones; results are returned over the kept variables only.
    """
    drop = sorted(set(drop))
    nvars = len(ideal.order.perm)
    if not ideal.order.eliminates(drop):
        raise ValueError("order is not an elimination order for the requested split")
    keep = [i for i in range(nvars) if i not in drop]
    kept = [
        g.restrict(keep)
        for g in ideal.groebner_basis()
        if not any(g.involves(i) for i in drop)
    ]
    return kept


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Ideal generated by all pairwise products of generators."""
    if a.generators and b.generators and a.vars != b.vars:
        raise ValueError("ideals live in different rings")
    gens = [f * g for f in a.generators for g in b.generators]
    prod = Ideal(gens, a.order)
    prod.groebner_basis()
    return prod


def ideals_equal(gens_a, gens_b, order: MonomialOrder) -> bool:
    """Ideal equality by mutual normal-form reduction to zero."""
    ia = Ideal(list(gens_a), order)
    ib = Ideal(list(gens_b), order)
    return all(ia.contains(g) for g in gens_b) and all(
        ib.contains(g) for g in gens_a
    )
