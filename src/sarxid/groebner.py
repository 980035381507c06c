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
- Each call packs its generators once (`multipoly` describes the packing)
  and keeps every basis element, S-polynomial and remainder as packed
  monomials with `int` coefficients: divisors are integer forms, primitive
  over `int`, and `normal_form` divides with `multipoly._remainder`.  The
  generators are packed from their integer forms and the final reduced
  basis is unpacked into integer forms, made monic by `MultiPoly._of`.
- `ideal_product` gives the basis of a product ideal, Procedure 1's S: it
  forms the products of the two bases packed, over `int`, and feeds them
  to the same run in ascending order of leading monomial.
- Every entry point takes polynomials of one ring and an order on that
  ring, and refuses others by `ValueError`.
- One final pass reduces each element by the others.  The result is the
  unique reduced basis, monic and sorted by leading monomial, largest
  first, whatever the order or scaling of the generators.
"""

from __future__ import annotations

from math import gcd

from .multipoly import (
    MonomialOrder,
    MultiPoly,
    _fieldmax,
    _overflow,
    _primitive,
    _remainder,
)


class _Packed:
    """A polynomial inside one Groebner run: packed monomial -> int."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def is_zero(self):
        return not self.terms


def normal_form(f, basis, order: MonomialOrder):
    """Remainder of f under multivariate division by `basis`.

    Divisors are tried in the order given.  f and `basis` are MultiPolys,
    and so is the remainder; inside a Groebner run, f is the run's
    packed polynomial, which the division consumes, `basis` holds integer
    forms, and the remainder is packed.
    """
    guard = order.guard
    if isinstance(f, _Packed):
        return _Packed(_remainder(f.terms, basis, guard)[0])
    basis = list(basis)
    _ring([f, *basis], order)
    d, work = order.pack(f)
    forms = [_primitive(order.pack(g)[1], guard) for g in basis if not g.is_zero()]
    r, scale = _remainder(work, forms, guard)
    unpack = order.unpack
    return MultiPoly._of(f.vars, d * scale, {unpack(e): c for e, c in r.items()})


def _s_polynomial(f, g, m, guard) -> _Packed:
    """S-polynomial of the integer forms f and g, whose leading monomials have lcm m."""
    lf, cf, tf, topf = f
    lg, cg, tg, topg = g
    sf, sg = m - lf, m - lg
    if (topf + sf) & guard or (topg + sg) & guard:
        raise _overflow()
    k = gcd(cf, cg)
    af, ag = cg // k, cf // k
    terms = {e + sf: af * c for e, c in tf}
    for e, c in tg:
        e += sg
        c = terms.get(e, 0) - ag * c
        if c:
            terms[e] = c
        else:
            del terms[e]
    return _Packed(terms)


def _update(basis, pairs, ih, lead, order):
    """Gebauer-Moeller update of the basis indices and the pair -> lcm map.

    [BW] p. 230: adds the pairs of `ih` with the basis that the chain and
    product criteria keep, prunes old pairs, and drops basis elements whose
    leading monomial lead[ih] divides.
    """
    guard, lcm = order.guard, order.lcm
    mh = lead[ih]
    older = sorted(basis)
    lcms = [lcm(mh, lead[ig]) for ig in older]
    kept = []
    for n, ig in enumerate(older):
        m = lcms[n]
        # chain criterion: another pair of h with a dividing lcm covers this one
        if m == mh + lead[ig] or not (
            any(not (m - other) & guard for other in lcms[n + 1 :])
            or any(not (m - other) & guard for _, other in kept)
        ):
            kept.append((ig, m))
    pairs = {
        (i, j): m
        for (i, j), m in pairs.items()
        if (m - mh) & guard or lcm(lead[i], mh) == m or lcm(lead[j], mh) == m
    }
    # product criterion: coprime leading monomials reduce to zero
    pairs.update(((ig, ih), m) for ig, m in kept if m != mh + lead[ig])
    basis = {ig for ig in basis if (lead[ig] - mh) & guard}
    basis.add(ih)
    return basis, pairs


def _ring(polys, order: MonomialOrder):
    """The one ring of the MultiPolys `polys`, which `order` must fit; None for none."""
    for f in polys[1:]:
        polys[0]._check_ring(f)
    if polys and len(polys[0].vars) != len(order.weights):
        raise ValueError(
            "an order on %d variables cannot order polynomials in %d"
            % (len(order.weights), len(polys[0].vars))
        )
    return polys[0].vars if polys else None


def buchberger(generators, order: MonomialOrder):
    """The unique reduced Groebner basis of the generated ideal.

    The zero ideal yields an empty basis.
    """
    generators = list(generators)
    ring = _ring(generators, order)
    return _reduced_basis([order.pack(g)[1] for g in generators], ring, order)


def ideal_product(a, b, order: MonomialOrder):
    """The reduced Groebner basis of the product of the ideals <a> and <b>.

    <a><b> is generated by the products f*g of f in a and g in b (Cox, Little
    and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 4, sec. 3).  Each
    nonzero element is packed once in its integer form, and a product of
    primitive polynomials is primitive (Gauss's lemma), so the products are
    formed over packed monomials and `int`.  They enter the run smallest
    leading monomial first, which leaves fewer S-polynomials to reduce.
    """
    a, b = list(a), list(b)
    ring = _ring(a + b, order)
    guard = order.guard
    fa, fb = (
        [_primitive(order.pack(f)[1], guard) for f in polys if not f.is_zero()] for polys in (a, b)
    )
    products = []
    for lf, cf, tf, topf in fa:
        for lg, cg, tg, topg in fb:
            # no field of a product's monomial exceeds the sum of the factors' maxima
            if (_fieldmax(lf, topf, guard) + _fieldmax(lg, topg, guard)) & guard:
                raise _overflow()
            terms = {}
            for e, c in [(lf, cf), *tf]:
                for e2, c2 in [(lg, cg), *tg]:
                    terms[e + e2] = terms.get(e + e2, 0) + c * c2
            products.append({e: c for e, c in terms.items() if c})
    return _reduced_basis(sorted(products, key=max), ring, order)


def _reduced_basis(packed, ring, order: MonomialOrder):
    """The reduced basis of the ideal that the packed int terms generate,
    consuming them, as MultiPolys over `ring`."""
    guard = order.guard
    forms = []  # the integer form of every basis element of the run; basis and pairs index it
    for terms in packed:
        r = normal_form(_Packed(terms), forms, order)
        if r.terms:
            forms.append(_primitive(r.terms, guard))
    lead = [form[0] for form in forms]
    basis, pairs = set(), {}
    for ih in sorted(range(len(forms)), key=lead.__getitem__):
        basis, pairs = _update(basis, pairs, ih, lead, order)
    while pairs:
        i, j = min(pairs, key=lambda pair: (pairs[pair], pair))
        s = _s_polynomial(forms[i], forms[j], pairs.pop((i, j)), guard)
        # divisors with small leading monomials first [Cox-Little-O'Shea p. 111]
        divisors = sorted(basis, key=lead.__getitem__)
        h = normal_form(s, [forms[ig] for ig in divisors], order)
        if h.terms:
            forms.append(_primitive(h.terms, guard))
            lead.append(forms[-1][0])
            basis, pairs = _update(basis, pairs, len(forms) - 1, lead, order)

    # the leading monomials of the basis are distinct, so elements whose
    # leading monomial another one divides reduce to zero and the rest keep
    # their leading monomial, whose coefficient is the denominator of the
    # monic element
    unpack = order.unpack
    out = []
    for ig in sorted(basis, key=lead.__getitem__, reverse=True):
        lm, lc, tail, _ = forms[ig]
        terms = dict(tail)
        terms[lm] = lc
        h = normal_form(_Packed(terms), [forms[o] for o in basis if o != ig], order).terms
        if h:
            out.append(MultiPoly._of(ring, h[lm], {unpack(e): c for e, c in h.items()}))
    return out


def elimination_ideal(generators, drop):
    """Groebner basis of the ideal intersected with the subring omitting `drop`.

    The generators share one ring; the basis is taken in the block order
    ranking the dropped variables above the kept ones, and the result is
    returned over the kept variables only.  No generators give no basis.
    """
    if not generators:
        return []
    ring = generators[0].vars
    kept = [v for i, v in enumerate(ring) if i not in drop]
    return [
        g.in_ring(kept)
        for g in buchberger(generators, MonomialOrder.elimination(len(ring), drop))
        if not any(g.involves(i) for i in drop)
    ]


def ideals_equal(gens_a, gens_b, order: MonomialOrder) -> bool:
    """Ideal equality: the reduced Groebner basis of an ideal is unique.

    Acceptance criterion 03 compares ideals with it, and
    `test_ideals_equal_by_mutual_reduction` checks it.
    """
    return buchberger(gens_a, order) == buchberger(gens_b, order)
