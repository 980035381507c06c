"""Independent reference implementations used to cross-check the library.

Each oracle recomputes a result by a different route (minor enumeration,
cofactor expansion, Sylvester resultants, direct recurrences, exhaustive
word enumeration, or sympy) so that agreement is meaningful evidence.
"""

import random
from bisect import insort
from fractions import Fraction
from itertools import combinations, permutations

import sympy

from sarxid import Z_RING, IsoSolution, MultiPoly, RatMatrix, Subspace, solve_affine

_ZERO = Fraction(0)
_ONE = Fraction(1)


def to_sympy(m: RatMatrix):
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in sum(m.to_lists(), [])]
    )


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def matrix_from_sympy(m) -> RatMatrix:
    return RatMatrix([[from_sympy(x) for x in m.row(i)] for i in range(m.rows)], m.cols)


def rank_by_minors(m: RatMatrix) -> int:
    """Largest k with a nonzero k x k minor, by exhaustive enumeration."""
    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0], cols[0]]
        acc = _ZERO
        sign = 1
        for idx, r in enumerate(rows):
            acc += sign * m[r, cols[0]] * det(
                rows[:idx] + rows[idx + 1 :], cols[1:]
            )
            sign = -sign
        return acc

    for k in range(min(m.rows, m.cols), 0, -1):
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                if det(list(rows), list(cols)) != 0:
                    return k
    return 0


def charpoly_by_cofactor(a: RatMatrix) -> MultiPoly:
    """det(zI - A) by Laplace expansion over polynomials in z."""
    n = a.rows
    z = MultiPoly.variable(Z_RING, 0)
    entries = [
        [z - a[i, j] if i == j else MultiPoly.constant(Z_RING, -a[i, j]) for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = MultiPoly(Z_RING)
        sign = 1
        for idx, r in enumerate(rows):
            acc = acc + sign * entries[r][cols[0]] * det(
                rows[:idx] + rows[idx + 1 :], cols[1:]
            )
            sign = -sign
        return acc

    return det(list(range(n)), list(range(n)))


def resultant(a: MultiPoly, b: MultiPoly) -> Fraction:
    """Sylvester-matrix resultant of two polynomials in one variable; nonzero
    iff the inputs are coprime (for nonzero inputs with at least one
    positive degree)."""
    da, db = a.total_degree(), b.total_degree()
    if da < 0 or db < 0:
        raise ValueError("resultant of zero polynomial")
    n = da + db
    if n == 0:
        return Fraction(1)
    rows = []
    for shift in range(db):
        row = [_ZERO] * n
        for k in range(da + 1):
            row[shift + k] = a.terms.get((da - k,), _ZERO)
        rows.append(row)
    for shift in range(da):
        row = [_ZERO] * n
        for k in range(db + 1):
            row[shift + k] = b.terms.get((db - k,), _ZERO)
        rows.append(row)
    return RatMatrix(rows).determinant()


# -- sympy bridges ----------------------------------------------------


def multipoly_to_sympy(f: MultiPoly, symbols):
    acc = sympy.Integer(0)
    for exp, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, exp):
            if e:
                term *= s**e
        acc += term
    return sympy.expand(acc)


def sympy_to_multipoly(expr, vars, symbols) -> MultiPoly:
    poly = sympy.Poly(sympy.expand(expr), *symbols)
    terms = {}
    for exp, c in poly.terms():
        c = sympy.Rational(c)
        terms[tuple(int(e) for e in exp)] = Fraction(int(c.p), int(c.q))
    return MultiPoly(vars, terms)


def unipoly_to_sympy(f: MultiPoly, z):
    """A polynomial in one variable as a sympy expression in z."""
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * z**k for (k,), c in f.terms.items()),
        sympy.Integer(0),
    )


def groebner_sympy(gens, symbols, order="grevlex"):
    """Reduced Groebner basis via sympy, as a set of expanded expressions."""
    exprs = [multipoly_to_sympy(g, symbols) for g in gens if not g.is_zero()]
    if not exprs:
        return set()
    gb = sympy.groebner(exprs, *symbols, order=order, field=True)
    return {sympy.expand(e) for e in gb.exprs}


def grevlex_key(exp):
    """Graded reverse lex as a tuple: larger tuple = larger monomial."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def order_key(order, exp):
    """`order` as a tuple key: grevlex, or grevlex on the dropped block, then on the kept one."""
    if not order.drop:
        return grevlex_key(exp)
    return (
        grevlex_key([exp[i] for i in order.drop]),
        grevlex_key([exp[i] for i in order.keep]),
    )


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mul_reference(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f * g by the double loop over `Fraction` terms, one product and sum per pair."""
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = mono_mul(ea, eb)
            out[e] = out.get(e, _ZERO) + ca * cb
    return MultiPoly(f.vars, out)


def add_reference(f: MultiPoly, g: MultiPoly):
    """The terms of f + g, exponent -> nonzero Fraction, summed term by term."""
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = out.get(e, _ZERO) + c
    return {e: c for e, c in out.items() if c}


def scale_reference(f: MultiPoly, c):
    """The terms of c * f, exponent -> nonzero Fraction."""
    return {e: c * v for e, v in f.terms.items() if c}


def in_ring_reference(f: MultiPoly, vars):
    """The terms of f over `vars`, each exponent moved to its variable's new position."""
    return {tuple(dict(zip(f.vars, e)).get(v, 0) for v in vars): c for e, c in f.terms.items()}


def substitute_reference(f: MultiPoly, assignment):
    """The terms of f with x_i = assignment[i], each term times x_i^e as a Fraction."""
    out = {}
    for e, c in f.terms.items():
        for i, x in assignment.items():
            c *= Fraction(x) ** e[i]
        e = tuple(0 if i in assignment else k for i, k in enumerate(e))
        out[e] = out.get(e, _ZERO) + c
    return {e: c for e, c in out.items() if c}


def normal_form_reference(f: MultiPoly, basis, order) -> MultiPoly:
    """Remainder of f under division by `basis`, over `Fraction` throughout.

    The division loop `groebner.normal_form` ran before it moved to integer
    coefficients and packed monomials: exponent tuples ranked by the tuple
    key `order_key`, divisors tried in the order given, each made monic
    first.
    """
    def key(exp):
        return order_key(order, exp)

    divisors = []
    for g in basis:
        if g.terms:
            lm = max(g.terms, key=key)
            lc = g.terms[lm]
            terms = g.terms if lc == 1 else {e: c / lc for e, c in g.terms.items()}
            divisors.append((lm, terms))
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=key)
        for glm, gterms in divisors:
            if mono_divides(glm, lm):
                shift = mono_div(lm, glm)
                ratio = work[lm]
                for e, c in gterms.items():
                    te = mono_mul(e, shift)
                    nc = work.get(te, _ZERO) - ratio * c
                    if nc:
                        work[te] = nc
                    else:
                        del work[te]
                break
        else:
            remainder[lm] = work.pop(lm)
    return MultiPoly(f.vars, remainder)


# -- the elimination over Fraction ------------------------------------------


def reference_insert(basis, v):
    """Add the row v to a reduced echelon basis over Fraction, in place.

    The reference for `linalg._insert`, which inserts primitive integer
    rows into an echelon basis instead.  basis is a list of
    (pivot, row) pairs sorted by pivot, each row 1 at its own pivot and 0 at
    every other.  v is reduced by the basis; what is left, divided by its
    leading entry, clears its pivot column from the other rows and is
    inserted in pivot order.  Returns None when v is in the span, else
    (pivot, leading entry, new row).
    """
    for p, row in basis:
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        return None
    lead = v[pivot]
    v = [x / lead for x in v]
    for k, (p, row) in enumerate(basis):
        c = row[pivot]
        if c:
            basis[k] = (p, [a - c * b for a, b in zip(row, v)])
    insort(basis, (pivot, v))
    return pivot, lead, v


def reference_gauss_jordan(m: RatMatrix):
    """(rref rows, pivots, determinant) of m, by `reference_insert` row by row.

    The determinant is the product of the leading entries with the sign of
    the permutation that sorts the pivots, and 0 when m is rank-deficient.
    """
    basis = []
    product = _ONE
    for row in m.to_lists():
        found = reference_insert(basis, row)
        if found is not None:
            pivot, lead, _ = found
            product *= -lead if sum(p > pivot for p, _ in basis) % 2 else lead
    rows = [row for _, row in basis] + [[_ZERO] * m.cols] * (m.rows - len(basis))
    return rows, [p for p, _ in basis], product if len(basis) == m.rows else _ZERO


def reference_kernel(rows, pivots, cols):
    """Kernel vectors, 1 at each free column, off rref rows whose first `cols` columns are an rref."""
    out = []
    for k in range(cols):
        if k not in pivots:
            v = [_ZERO] * cols
            v[k] = _ONE
            for row, p in zip(rows, pivots):
                v[p] = -row[k]
            out.append(v)
    return out


def reference_solve_affine(a: RatMatrix, b: RatMatrix):
    """(particular, kernel) of A x = b as coordinate lists, or None, from the rref of [A | b]."""
    aug = RatMatrix([ra + rb for ra, rb in zip(a.to_lists(), b.to_lists())], a.cols + 1)
    rows, pivots, _ = reference_gauss_jordan(aug)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for row, p in zip(rows, pivots):
        x[p] = row[a.cols]
    return x, reference_kernel(rows, pivots, a.cols)


def reference_closure(n, vectors, maps):
    """The rref rows of the smallest span holding the vectors and invariant under the maps.

    The worklist of `linalg.Subspace` over Fraction, with dense products.
    """
    maps = [m.to_lists() for m in maps]
    work = [list(v) for v in vectors]
    basis = []
    while work and len(basis) < n:
        found = reference_insert(basis, work.pop())
        if found is not None:
            v = found[2]
            work.extend([sum((a * x for a, x in zip(r, v)), _ZERO) for r in m] for m in maps)
    return [row for _, row in basis]


def lss_trace_oracle(sys, word):
    """y_t = C x_t, x_(t+1) = A x_t + B u_t on dense Fraction lists, from x0."""
    x = list(sys.x0.col(0))
    ys = []
    for q, u in word:
        md = sys.modes[q]
        ys.append(tuple(sum((c * xi for c, xi in zip(row, x)), _ZERO) for row in md.c.to_lists()))
        x = [
            sum((a * xi for a, xi in zip(ra + rb, x + list(u))), _ZERO)
            for ra, rb in zip(md.a.to_lists(), md.b.to_lists())
        ]
    return ys


# -- switched-system oracles ------------------------------------------


def siso_trace_oracle(model, word):
    """Direct scalar recurrence, bypassing matrix regressors entirely."""
    ny, nu = model.ny, model.nu
    ys = []
    us = []
    for q, u in word:
        y = _ZERO
        for j in range(1, ny + 1):
            if len(ys) - j >= 0:
                y += model.coeff(q, j) * ys[len(ys) - j]
        for j in range(1, nu + 1):
            if len(us) - j >= 0:
                y += model.coeff(q, ny + j) * us[len(us) - j]
        ys.append(y)
        us.append(u[0])
    return [(y,) for y in ys]


def mimo_trace_oracle(model, word):
    """Blockwise recurrence y_t = sum_j H^j y_{t-j} + sum_j H^(ny+j) u_{t-j}."""
    ny, nu, p, m = model.ny, model.nu, model.p, model.m

    def block(q, i):
        """H_q^i, 1-based: p x p for i <= ny, else p x m."""
        start, width = ((i - 1) * p, p) if i <= ny else (ny * p + (i - ny - 1) * m, m)
        h = model.modes[q]
        return RatMatrix([[h[r, start + c] for c in range(width)] for r in range(p)])

    ys = []
    us = []
    for q, u in word:
        acc = RatMatrix.zeros(p, 1)
        for j in range(1, ny + 1):
            if len(ys) - j >= 0:
                acc = acc + block(q, j) @ RatMatrix.column(ys[len(ys) - j])
        for j in range(1, nu + 1):
            if len(us) - j >= 0:
                acc = acc + block(q, ny + j) @ RatMatrix.column(us[len(us) - j])
        ys.append(tuple(acc[i, 0] for i in range(p)))
        us.append(u)
    return ys


def brute_force_reachable(sys, max_len=None) -> Subspace:
    """Span of A_w v over all seeds v and words w up to the state dimension."""
    if max_len is None:
        max_len = sys.n
    seeds = [sys.x0] if any(sys.x0.col(0)) else []
    for q in sys.labels:
        b = sys.modes[q].b
        seeds.extend(RatMatrix.column(b.col(j)) for j in range(b.cols))
    vectors = list(seeds)
    frontier = list(seeds)
    for _ in range(max_len):
        frontier = [sys.modes[q].a @ v for q in sys.labels for v in frontier]
        vectors.extend(frontier)
    return Subspace(sys.n, vectors)


def brute_force_unobservable(sys, max_len=None) -> Subspace:
    """Joint kernel of C_q A_w over all words w up to the state dimension."""
    if max_len is None:
        max_len = sys.n
    rows = [sys.modes[q].c for q in sys.labels]
    frontier = list(rows)
    for _ in range(max_len):
        frontier = [r @ sys.modes[q].a for r in frontier for q in sys.labels]
        rows.extend(frontier)
    return Subspace(sys.n, vstack(rows).kernel_basis())


def theorem2_witnesses_sympy(model):
    """First witness pairs of conditions A and B (or None), over QQ with sympy.

    Each polynomial comes from its defining property, not from the library's
    recursions: chi_q and upsilon_q from the coefficients, and phi_(qh,q) as
    the polynomial of degree < nu with phi(A_qh) e_1 = A_q^nu B, solved on the
    Krylov vectors of A_qh built here from the companion structure.
    Coprimality is sympy's gcd over QQ.
    """
    ny, nu = model.ny, model.nu
    n = ny + nu
    z = sympy.Symbol("z")
    h = {
        q: [sympy.Rational(c.numerator, c.denominator) for c in model.modes[q].row(0)]
        for q in model.labels
    }

    def companion(hq):
        a = sympy.zeros(n, n)
        a[0, :] = sympy.Matrix([hq])
        for i in list(range(1, ny)) + list(range(ny + 1, n)):
            a[i, i - 1] = 1
        return a

    a = {q: companion(hq) for q, hq in h.items()}
    e1, b = sympy.eye(n)[:, 0], sympy.eye(n)[:, ny]
    ups = {
        q: sympy.Poly(sum(hq[j - 1] * z ** (ny - j) for j in range(1, ny + 1)), z, domain="QQ")
        for q, hq in h.items()
    }
    chi = {q: sympy.Poly(z**ny, z, domain="QQ") - ups[q] for q in h}

    def phi(qh, q):
        krylov = sympy.Matrix.hstack(*[a[qh] ** k * e1 for k in range(nu)])
        coeffs = krylov.gauss_jordan_solve(a[q] ** nu * b)[0]
        return sympy.Poly(sum(c * z**k for k, c in enumerate(coeffs)), z, domain="QQ")

    def coprime(f, g):
        return f.gcd(g).degree() == 0

    def condition_a(q0, q1):
        p = phi(q0, q1)
        return not p.is_zero and coprime(chi[q0], p)

    def condition_b(q2, q3):
        top2 = h[q2][n - 1]
        return (
            top2 != 0
            and not ups[q3].is_zero
            and coprime(ups[q3], chi[q2])
            and h[q3][ny - 1] - h[q3][n - 1] * h[q2][ny - 1] / top2 != 0
        )

    pairs = list(permutations(model.labels, 2))
    return (
        next((pair for pair in pairs if condition_a(*pair)), None),
        next((pair for pair in pairs if condition_b(*pair)), None),
    )


def vstack(blocks):
    """The rows of the blocks, top to bottom."""
    cols = blocks[0].cols if blocks else 0
    if any(b.cols != cols for b in blocks):
        raise ValueError("vstack column mismatch")
    return RatMatrix([row for b in blocks for row in b.to_lists()], cols)


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product: the block in row i, column k is a[i, k] * b."""
    if not (a.rows and b.rows):
        return RatMatrix.zeros(0, a.cols * b.cols)
    rows_a, rows_b = a.to_lists(), b.to_lists()
    return RatMatrix([[x * y for x in ra for y in rb] for ra in rows_a for rb in rows_b])


def kronecker_solve(a, b, seed=0) -> IsoSolution:
    """`find_isomorphisms` from the linear system in all n^2 entries of S.

    One Kronecker block per equation family, no closure.  A family is
    classified by the first of up to 20 drawn points with a nonzero exact
    determinant, drawn as the library draws them.
    """
    n = a.n
    eye = RatMatrix.identity(n)

    def vec(m):  # row-major, the order of the unknowns vec(S)
        return [x for i in range(m.rows) for x in m.row(i)]

    blocks = []
    rhs = []
    for q in a.labels:
        ma, mb = a.modes[q], b.modes[q]
        blocks.append(kron(eye, ma.a.transpose()) - kron(mb.a, eye))  # S A_q = A'_q S
        blocks.append(kron(eye, ma.b.transpose()))  # S B_q = B'_q
        blocks.append(kron(mb.c, eye))  # C'_q S = C_q
        rhs += [_ZERO] * (n * n) + vec(mb.b) + vec(ma.c)
    blocks.append(kron(eye, a.x0.transpose()))  # S x0 = x0'
    rhs += vec(b.x0)

    solution = solve_affine(vstack(blocks), RatMatrix.column(rhs))
    if solution is None:
        return IsoSolution(kind="none", witness=None, family_dim=-1)
    particular, kernel = solution

    def unflatten(v):
        return RatMatrix([v.col(0)[i * n : (i + 1) * n] for i in range(n)])

    if not kernel:
        s = unflatten(particular)
        if s.determinant() == 0:
            return IsoSolution(kind="none", witness=None, family_dim=0)
        kind = "unique-identity" if s == eye else "unique-other"
        return IsoSolution(kind=kind, witness=s, family_dim=0)

    rng = random.Random(seed)
    witness = None
    for _ in range(20):
        point = particular
        for kv in kernel:
            point = point + kv.scale(Fraction(rng.randint(-9, 9)))
        s = unflatten(point)
        if s.determinant() != 0:
            witness = s
            break
    return IsoSolution(kind="affine-family", witness=witness, family_dim=len(kernel))
