"""Linear switched state-space systems and the companion embedding of SARX.

The embedding keeps the full regressor as state: the top block rows of each
A_q reproduce the output recursion, the remaining block rows shift old
outputs and inputs down, and B_q injects the fresh input.  The state at
time t therefore equals the regressor, so output traces match the switched
ARX model exactly.

Observability is reachability of `dual(sys)`, and an isomorphism's graph
holds the reachable span of a direct sum: one closure serves all three, and
one linear solve finds the n(n - r) entries of S that it leaves.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg import (
    RatMatrix,
    Subspace,
    _null_rows,
    _stacked,
    aligned,
    lowest_terms,
    solve_affine,
    sparse_apply,
    sparse_rows,
)
from .rationals import InputError, JsonLoadable, Record, malformed, parse_int, read_modes
from .sarx import HybridWord, SarxModel


class LssMode(Record):
    a: RatMatrix
    b: RatMatrix
    c: RatMatrix


class Lss(Record, JsonLoadable):
    n: int
    m: int
    p: int
    modes: dict  # label -> LssMode
    x0: RatMatrix  # n x 1

    def __post_init__(self):
        # m = 0 and p = 0 stay legal: the dual of an input-free system has p = 0
        if self.n < 1:
            raise InputError("need a positive state dimension n, got %d" % self.n)
        for k, v in (("m", self.m), ("p", self.p)):
            if v < 0:
                raise InputError("need a nonnegative dimension %s, got %d" % (k, v))
        if not self.modes:
            raise InputError("mode set must be nonempty")
        if self.x0.shape != (self.n, 1):
            raise InputError("x0 must be an n x 1 column")
        for q, md in self.modes.items():
            if md.a.shape != (self.n, self.n):
                raise InputError("mode %r: A must be %d x %d" % (q, self.n, self.n))
            if md.b.shape != (self.n, self.m):
                raise InputError("mode %r: B must be %d x %d" % (q, self.n, self.m))
            if md.c.shape != (self.p, self.n):
                raise InputError("mode %r: C must be %d x %d" % (q, self.p, self.n))

    @property
    def labels(self):
        return sorted(self.modes)

    def to_json_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "modes": {
                q: {
                    "A": self.modes[q].a.to_strings(),
                    "B": self.modes[q].b.to_strings(),
                    "C": self.modes[q].c.to_strings(),
                }
                for q in self.labels
            },
            "x0": [row[0] for row in self.x0.to_strings()],
        }

    @classmethod
    def from_json_dict(cls, obj):
        with malformed("LSS"):
            n, m, p = (parse_int(obj[k]) for k in ("n", "m", "p"))
            # JSON writes a 0 x n C (p = 0) as [], which does not give its width
            modes = read_modes(obj, lambda md: LssMode(
                a=RatMatrix.from_strings(md["A"]),
                b=RatMatrix.from_strings(md["B"]),
                c=RatMatrix.zeros(0, n) if md["C"] == [] else RatMatrix.from_strings(md["C"]),
            ))
            x0 = RatMatrix.from_strings([obj["x0"]]).transpose()
            return cls(n=n, m=m, p=p, modes=modes, x0=x0)


def associated_lss(model: SarxModel) -> Lss:
    """Companion-style state-space embedding with the regressor as state."""
    ny, nu, p, m, n = model.ny, model.nu, model.p, model.m, model.width
    b = [[0] * m for _ in range(n)]
    for i in range(m):
        b[ny * p + i][i] = 1
    b = RatMatrix._of(1, b, m)
    modes = {}
    for q in model.labels:
        h = model.modes[q]
        # A_q = a / d, h_q = H / d: next state's newest output is h_q applied to the state
        d, top = h.integer_form()
        a = [list(row) for row in top] + [[0] * n for _ in range(n - p)]
        # output shift: block row i copies output block i-1
        for blk in range(1, ny):
            for i in range(p):
                a[blk * p + i][(blk - 1) * p + i] = d
        # input shift: block row ny+blk copies input block blk-1
        for blk in range(1, nu):
            for i in range(m):
                a[ny * p + blk * m + i][ny * p + (blk - 1) * m + i] = d
        modes[q] = LssMode(a=RatMatrix._of(d, a, n), b=b, c=h)
    return Lss(n=n, m=m, p=p, modes=modes, x0=RatMatrix.zeros(n, 1))


def simulate_lss(sys: Lss, word: HybridWord):
    """Output trace y_t = C_{q_t} x_t with x_{t+1} = A_{q_t} x_t + B_{q_t} u_t.

    Per mode, C_q = C / e and [A_q | B_q] = M / d are read off the integer
    forms once, and the state is kept as x_t = X_t / s_t, an int vector over
    a positive int: with u_t = U / v, the word's integer form of the input,
    X_(t+1) = M (v X_t, s_t U) over d s_t v, both divided by their gcd.
    Each output entry is one Fraction.
    """
    modes = {}
    for q, md in sys.modes.items():
        e, c = md.c.integer_form()
        d, (a, b) = aligned(md.a, md.b)
        modes[q] = (e, sparse_rows(c), d, sparse_rows([ra + rb for ra, rb in zip(a, b)]))
    s, x = sys.x0.integer_form()
    x = [row[0] for row in x]
    outputs = []
    for q, v, u in word.integer_steps:
        if q not in modes:
            raise InputError("unknown mode label %r" % q)
        if len(u) != sys.m:
            raise InputError("input dimension %d != m=%d" % (len(u), sys.m))
        e, c, d, ab = modes[q]
        outputs.append(tuple(Fraction(y, e * s) for y in sparse_apply(c, x)))
        if v != 1:
            x = [v * a for a in x]
        x, s = lowest_terms(sparse_apply(ab, [*x, *[s * a for a in u]]), d * s * v)
    return outputs


def dual(sys: Lss) -> Lss:
    """(A_q^T, C_q^T, B_q^T) with x0 = 0: its reachable span is the observable span of sys."""
    modes = {q: LssMode(a=md.a.transpose(), b=md.c.transpose(), c=md.b.transpose())
             for q, md in sys.modes.items()}
    return Lss(n=sys.n, m=sys.p, p=sys.m, modes=modes, x0=RatMatrix.zeros(sys.n, 1))


def reachable_span(sys: Lss) -> Subspace:
    """Smallest subspace containing x0 and all B columns, invariant under every A_q."""
    # each seed enters as an integer multiple, which spans the same line
    seeds = [[row[0] for row in sys.x0.integer_form()[1]]]
    seeds += [col for q in sys.labels for col in zip(*sys.modes[q].b.integer_form()[1])]
    return Subspace(sys.n, seeds, [sys.modes[q].a for q in sys.labels])


def unobservable_space(sys: Lss) -> Subspace:
    """Largest A_q-invariant subspace inside the joint kernel of the C_q.

    It is the annihilator of the observable span, the reachable span of `dual(sys)`.
    """
    return reachable_span(dual(sys)).annihilator()


class LssMinimalityCertificate(Record):
    minimal: bool
    reachable_dim: int
    unobservable_dim: int
    state_dim: int


def is_minimal_lss(sys: Lss) -> LssMinimalityCertificate:
    """Minimal iff span-reachable (full reachable span) and observable."""
    r = reachable_span(sys).dim
    u = unobservable_space(sys).dim
    return LssMinimalityCertificate(
        minimal=(r == sys.n and u == 0),
        reachable_dim=r,
        unobservable_dim=u,
        state_dim=sys.n,
    )


class IsoSolution(Record):
    """Solution set of the exact intertwining system between two systems.

    kind is one of "none", "unique-identity", "unique-other",
    "affine-family".  witness, when present, is an invertible solution;
    family_dim is the dimension of the affine solution set.
    """

    kind: str
    witness: RatMatrix | None
    family_dim: int

    def to_json_dict(self):
        out = {"kind": self.kind, "family_dim": self.family_dim}
        out["witness"] = self.witness.to_strings() if self.witness is not None else None
        return out


def find_isomorphisms(a: Lss, b: Lss, seed=0) -> IsoSolution:
    """Solve {S A_q = A'_q S, S B_q = B'_q, C'_q S = C_q, S x0 = x0'} for S.

    A solution's graph {(x, Sx)} holds the reachable span W of the direct sum
    of a and b (`_graph_map`): the T mapping each u_i to v_i, for the rows
    (u_i, v_i) of W, are T = T0 + X F, X any n x k matrix.  The graph of S^T
    holds that of dual(b) and dual(a).  The closure leaving the smaller k is
    kept, as T = S or T = S^T, and only the equations it leaves open are
    written, at the k non-pivot columns, where F is the identity:
    - T A_q - A'_q T vanishes on the u_i, since W is invariant under
      diag(A_q, A'_q); there it reads X G_q - A'_q X = -R_q, with
      G_q = F A_q and R_q = T0 A_q - A'_q T0;
    - T B_q = B'_q and T x0 = x0' hold, since their seeds lie in W;
    - C'_q T = C_q is, on the u_i, the constant check C'_q v_i = C_q u_i,
      and there it reads C'_q X = -R, with R = C'_q T0 - C_q.
    When T = S^T, (dual(b), dual(a)) takes the place of (a, b), and S x0 = x0'
    is one more family like C's, x0^T T = x0'^T.  When k = 0 the checks
    decide; else the rows become one system in the n k entries of X, and a
    family is classified by the first of up to 20 drawn points whose T is
    invertible.
    """
    if (a.n, a.m, a.p) != (b.n, b.m, b.p) or a.labels != b.labels:
        raise InputError("systems must share dimensions and mode labels")
    n = a.n
    graph, transposed, (first, second) = _graph_map(a, b), False, (a, b)
    if graph is not None and graph[1]:
        duals = dual(b), dual(a)
        other = _graph_map(*duals)
        if other is None or len(other[1]) < len(graph[1]):
            graph, transposed, (first, second) = other, True, duals
    none = IsoSolution(kind="none", witness=None, family_dim=-1)
    if graph is None:
        return none
    t0, free, f, span = graph
    # each (C', R) asks C' T = C, and R = C' T0 - C must vanish on the u_i
    outs = [(second.modes[q].c, first.modes[q].c) for q in a.labels]
    if transposed:
        outs.append((a.x0.transpose(), b.x0.transpose()))
    outs = [(cp, cp @ t0 - c) for cp, c in outs]
    if any(any(row) for _, r in outs for row in (r @ span).integer_form()[1]):
        return none

    def oriented(t):
        return t.transpose() if transposed else t

    if not free:
        return _unique(oriented(t0))

    # X[j, i] takes column j k + i of the system, or i n + j when T = S^T:
    # either way S's row-major order, the order of the Kronecker reference
    k, rows, rhs = len(free), [], []

    def col(j, i):
        return i * n + j if transposed else j * k + i

    def equation(entries, value):
        row = [0] * (n * k)
        for (j, i), x in entries:
            row[col(j, i)] += x
        rows.append(row)
        rhs.append([-value])

    # each equation is written over int, times the common denominator of its
    # family: scaling an equation leaves the solution set as it is
    for q in a.labels:
        fa, sa = first.modes[q].a, second.modes[q].a
        _, (res, g, sa) = aligned(t0 @ fa - sa @ t0, f @ fa, sa)
        for i, c in enumerate(free):
            for r in range(n):
                equation([((r, i2), g[i2][c]) for i2 in range(k)]
                         + [((j, i), -sa[r][j]) for j in range(n)], res[r][c])
    for cp, res in outs:
        _, (cp, res) = aligned(cp, res)
        for i, c in enumerate(free):
            for r, cp_row in enumerate(cp):
                equation([((j, i), cp_row[j]) for j in range(n)], res[r][c])
    solution = solve_affine(RatMatrix._of(1, rows, n * k), RatMatrix._of(1, rhs, 1))
    if solution is None:
        return none
    particular, null = solution

    def at(point):
        d, x = point.integer_form()
        return oriented(t0 + RatMatrix._of(d, [[x[col(j, i)][0] for i in range(k)]
                                               for j in range(n)], k) @ f)

    if not null:
        return _unique(at(particular))
    rng = random.Random(seed)  # up to 20 points, entries drawn lazily in [-9, 9]
    points = (sum((kv.scale(rng.randint(-9, 9)) for kv in null), particular) for _ in range(20))
    witness = next((t for t in map(at, points) if t.determinant() != 0), None)
    return IsoSolution(kind="affine-family", witness=witness, family_dim=len(null))


def _graph_map(a, b):
    """Every T whose graph can hold W, the reachable span of the direct sum of a and b.

    W is the closure of (x0, x0') and the (B_q e_j, B'_q e_j) under
    diag(A_q, A'_q).  Row i of W's rref is (u_i, v_i).  None when some row is
    (0, v): no T exists.  Else (T0, free, F, U): T0 sends each u_i to v_i
    and each non-pivot e_k to 0, free lists the k non-pivot columns, F's
    rows are their f_k, each the vector with 1 at k and 0 at the other
    non-pivots that the u_i annihilate (`_null_rows`), and U holds integer
    multiples of the u_i as columns.  The T are T0 + X F, X any n x k matrix.
    """
    n, z = a.n, [0] * a.n
    # each pair of blocks over one denominator; a vector's or a map's
    # multiples give the same closure, so the denominators are dropped
    seeds, diags = [], []
    for xa, xb in [aligned(a.x0, b.x0)[1]] + [aligned(a.modes[q].b, b.modes[q].b)[1]
                                               for q in a.labels]:
        seeds += [ca + cb for ca, cb in zip(zip(*xa), zip(*xb))]
    for q in a.labels:
        _, (aa, ab) = aligned(a.modes[q].a, b.modes[q].a)
        diags.append(RatMatrix._of(1, [row + z for row in aa] + [z + row for row in ab], 2 * n))
    reduced = Subspace(2 * n, seeds, diags)._rows()
    if reduced and reduced[-1][0] >= n:
        return None
    by_pivot = dict(reduced)
    t0 = _stacked([(by_pivot[k][n:], by_pivot[k][k]) if k in by_pivot else (z, 1)
                   for k in range(n)], n).transpose()
    null = _null_rows(reduced, n)
    f = _stacked([(v, v[k]) for k, v in null], n)
    span = RatMatrix._of(1, [row[:n] for _, row in reduced], n).transpose()
    return t0, [k for k, _ in null], f, span


def _unique(s):
    """Classify S, the only solution."""
    if s.determinant() == 0:
        return IsoSolution(kind="none", witness=None, family_dim=0)
    if s == RatMatrix.identity(s.rows):
        return IsoSolution(kind="unique-identity", witness=s, family_dim=0)
    return IsoSolution(kind="unique-other", witness=s, family_dim=0)
