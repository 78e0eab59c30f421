"""Contravariant-form oracle: Chevalley bases, a Verma module, t-valuations.

This module recomputes Jantzen filtration layer dimensions from first
principles, with no reference to Hecke-algebra combinatorics.  The
deformed Verma module M(nu + t rho - rho) over Q[t] has the PBW basis of
weakly increasing words in the lowering generators, and the k-th simple
coroot acts on its highest weight vector by lambda_k = nu_k - 1 + t.
Once per type, over Z[lambda_1..lambda_n], generators act on basis words
with one memo entry per (generator, word), and the Gram matrix of the
contravariant (Shapovalov) form on each weight space comes from the one
below it by <f_b u, w> = <u, e_b w> (Shapovalov 1972; Jantzen, Math. Ann.
226, 1977).  Each nu specialises those matrices straight into rows of
integer coefficient lists: d^D times the Gram matrix, for d the least
common denominator of nu and D the largest degree of the space's
entries, which is a unit of the local ring Q[t]_(t).  Elimination over
that ring, pivoting on an entry of least t-valuation, yields their Smith
exponents, whose counting function gives dim of the i-th Jantzen
submodule.  The specialisation and the elimination both run mod t^N.
By default N exceeds every finite exponent, so a row that vanishes mod
t^N is a zero factor.  The oracle first takes N one above the
determinant formula's valuation of the space (Jantzen 1977), which
bounds every exponent when the formula holds; a row that vanishes there
only says that an exponent reached N, and the space is redone once at
the default N.  A wrong prediction can thus cost time, never an
exponent.

The Chevalley basis of every type comes from its root data: the
structure constants N(x, y) by the extraspecial-pair construction
(Carter, Simple Groups of Lie Type, 1972, 4.1-4.2), coroots for
[e_x, e_-x], and pairings for the Cartan action.  Before use the table
is certified a Lie algebra: integral constants, antisymmetry, and the
Jacobi identity in derivation form for x among the generators e_i, f_i
of the simple roots, which is the whole identity because they generate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from operator import add, sub

from jantzen.blocks import DefectError, normalize
from jantzen.filtration import layers, simple_weight_dims
from jantzen.roots import (
    LieType,
    RootSystem,
    Weight,
    build_root_system,
    partition_table,
    positive_integral_pairings,
    shifted_sum,
)

DEPTH_CAPS = {"A1": 8, "A2": 5, "B2": 4}
DEFAULT_DEPTH_CAP = 3


class DepthCapError(ValueError):
    """Requested height exceeds the per-type depth cap."""


class DegenerateFormError(DefectError):
    """A Gram matrix was singular over Q(t)."""


def depth_cap(lt: LieType) -> int:
    return DEPTH_CAPS.get(str(lt), DEFAULT_DEPTH_CAP)


@dataclass(frozen=True)
class ChevalleyBasis:
    """Exact integer structure constants of a Chevalley basis.

    Generators are indexed 0..2N+n-1: lowering operators f_b = e_{-beta_b}
    for each positive root beta_b (0 <= b < N), then the simple coroots
    h_k (N <= N+k), then raising operators e_b = e_{beta_b} (N+n <= N+n+b).
    brackets[(i, j)] maps a generator index to the integer coefficient of
    that generator in [g_i, g_j]; a missing pair brackets to 0.
    """

    rs: RootSystem
    num_positive: int
    rank: int
    brackets: dict

    def f(self, b: int) -> int:
        return b

    def e(self, b: int) -> int:
        return self.num_positive + self.rank + b

    def bracket(self, i: int, j: int) -> dict:
        return self.brackets.get((i, j), {})


def _neg(x: tuple) -> tuple:
    return tuple(-c for c in x)


def _structure_constants(rs: RootSystem) -> dict:
    """{(x, y): N} with [e_x, e_y] = N e_{x+y}, for roots x, y of either
    sign whose sum is a root (Carter, Simple Groups of Lie Type, 1972,
    4.1-4.2).

    Positive roots xi are taken in height order.  The extraspecial pair
    (a, b) of xi, a the earliest root with xi - a a later positive root,
    gets N(a, b) = p + 1, p the largest integer with b - p a a root.  Every
    other pair (a', b') summing to xi follows from the four-root relation
    for a' + b' - a - b = 0, whose other terms have lower sums.  Each value
    then spreads by N(y, x) = -N(x, y) = N(-x, -y) and by the three-root
    relation N(x, y) / |w|^2 = N(y, w) / |x|^2 = N(w, x) / |y|^2 for
    x + y + w = 0.  Lengths come from the coroots: x^vee = 2x / |x|^2 gives
    |x|^2 / |theta|^2 = x_k theta^vee_k / (x^vee_k theta_k) for theta the
    highest root and any k in the support of x.
    """
    pos = rs.positive_roots
    index = {x: i for i, x in enumerate(pos)}
    theta, theta_v = pos[-1], rs.coroots[-1]
    length = {}
    for x, xv in zip(pos, rs.coroots):
        k = next(k for k, c in enumerate(x) if c)
        ratio = Fraction(x[k] * theta_v[k], xv[k] * theta[k])
        length[x] = length[_neg(x)] = ratio
    consts = {}

    def put(x, y, c):
        for a, b, v in ((x, y, c), (y, x, -c), (_neg(x), _neg(y), -c), (_neg(y), _neg(x), c)):
            consts[a, b] = v

    for i, xi in enumerate(pos):
        pairs = []
        for a in pos[:i]:
            b = tuple(map(sub, xi, a))
            if index.get(b, -1) > index[a]:
                pairs.append((a, b))
        if not pairs:
            continue  # a simple root
        g, d = pairs[0]
        for a, b in pairs:
            if a == g:
                p = 0
                while rs.is_root(tuple(y - (p + 1) * x for x, y in zip(a, b))):
                    p += 1
                c = Fraction(p + 1)
            else:
                # N(a, b) N(-g, -d) / |xi|^2 + N(b, -g) N(a, -d) / |b - g|^2
                # + N(-g, a) N(b, -d) / |a - g|^2 = 0
                c = Fraction(0)
                for u, v, s, t in ((b, _neg(g), a, _neg(d)), (_neg(g), a, b, _neg(d))):
                    nn = consts.get((u, v), 0) * consts.get((s, t), 0)
                    if nn:
                        c += nn / length[tuple(map(add, u, v))]
                c *= length[xi] / consts[g, d]
            w = _neg(xi)
            put(a, b, c)
            put(b, w, c * length[a] / length[w])
            put(w, a, c * length[b] / length[w])
    return consts


@cache
def chevalley_basis(lt: LieType) -> ChevalleyBasis:
    """Build the structure-constant table and certify it a Lie algebra."""
    rs = build_root_system(lt)
    N, n = len(rs.positive_roots), rs.rank
    d = 2 * N + n
    gens = {}
    for b, x in enumerate(rs.positive_roots):
        gens[_neg(x)], gens[x] = b, N + n + b
    brackets = {}
    for x, g in gens.items():
        for k, c in enumerate(rs.root_to_weight_coords(x)):
            if c:
                brackets[N + k, g] = {g: c}
                brackets[g, N + k] = {g: -c}
        brackets[g, gens[_neg(x)]] = {
            N + k: c for k, c in enumerate(rs.coroot_of(x)) if c
        }
    for (x, y), c in _structure_constants(rs).items():
        if c.denominator != 1:
            raise DefectError("non-integral structure constant")
        brackets[gens[x], gens[y]] = {gens[tuple(map(add, x, y))]: int(c)}

    cb = ChevalleyBasis(rs=rs, num_positive=N, rank=n, brackets=brackets)

    # antisymmetry: [g_j, g_i] = -[g_i, g_j], and [g_i, g_i] = 0
    for (i, j), entry in brackets.items():
        if i == j or cb.bracket(j, i) != {g: -c for g, c in entry.items()}:
            raise DefectError("bracket table is not antisymmetric")
    # Jacobi: ad_x is a derivation, [x, [y, z]] = [[x, y], z] + [y, [x, z]],
    # for x in S = {e_i, f_i} and y < z (the rest follows by antisymmetry).
    # That is all of Jacobi: the x with ad_x a derivation span a subalgebra,
    # since ad_[x, x'] = [ad_x, ad_x'], and S generates.  (For x = e_i it
    # makes e_i, h_i, f_i act as sl2 on each alpha_i-string of root spaces,
    # which is then irreducible, so [e_i, e_y] != 0 when y + alpha_i is a root.)
    for x in (g for b in rs.simple_indices for g in (cb.e(b), cb.f(b))):
        adx = [cb.bracket(x, z) for z in range(d)]
        for y in range(d):
            for z in range(y + 1, d):
                terms = [(c, x, g) for g, c in cb.bracket(y, z).items()]
                terms += [(-c, g, z) for g, c in adx[y].items()]
                terms += [(-c, y, g) for g, c in adx[z].items()]
                acc: dict = {}
                for c, u, v in terms:
                    for g, k in cb.bracket(u, v).items():
                        acc[g] = acc.get(g, 0) + c * k
                if any(acc.values()):
                    raise DefectError("Jacobi identity failure")
    return cb


def weight_space_basis(rs: RootSystem, beta) -> tuple:
    """Kostant partitions of beta as weakly increasing root-index words, in
    sorted order."""
    beta = tuple(beta)
    if len(beta) != rs.rank or any(v < 0 for v in beta):
        raise ValueError(f"offset {beta} is not {rs.rank} nonnegative integers")
    out = []

    def rec(prefix, remaining, start):
        if all(v == 0 for v in remaining):
            out.append(tuple(prefix))
            return
        for b in range(start, len(rs.positive_roots)):
            vec = rs.positive_roots[b]
            if all(r >= v for r, v in zip(remaining, vec)):
                rec(
                    prefix + [b],
                    tuple(r - v for r, v in zip(remaining, vec)),
                    b,
                )

    rec([], beta, 0)
    return tuple(sorted(out))


def _sum_of_products(pairs) -> dict:
    """The sum of p q over the pairs, for polynomials {exponent tuple: int}
    in lambda_1..lambda_n."""
    acc: dict = {}
    for p, q in pairs:
        for m, a in p.items():
            for m2, b in q.items():
                k = tuple(map(add, m, m2))
                acc[k] = acc.get(k, 0) + a * b
    return {m: c for m, c in acc.items() if c}


class _GenericVerma:
    """M(lambda) over Z[lambda_1..lambda_n], h_k acting on v by lambda_k.

    A vector is a dict {weakly increasing root-index word: polynomial},
    the word (b_1, ..., b_k) standing for f_b1 ... f_bk v.  ``act`` is
    memoised per (generator, word) in ``_memo`` and ``gram`` per offset:
    both serve every weight of the type.
    """

    def __init__(self, cb: ChevalleyBasis):
        self.cb = cb
        n = cb.rank
        self._zero = (0,) * n  # the exponent of a constant
        self._lam = [{tuple(int(i == k) for i in range(n)): 1} for k in range(n)]
        self._memo: dict = {}
        self._grams: dict = {self._zero: (((),), [[{self._zero: 1}]], 0)}

    def act(self, g: int, word: tuple) -> dict:
        """g (word v): f_b before a word of letters >= b is prepended, h_k
        and e_b on v give lambda_k v and 0, and any other g before c rest
        is c (g rest) + [g, c] rest."""
        key = (g, word)
        if key in self._memo:
            return self._memo[key]
        N = self.cb.num_positive
        if g < N and (not word or g <= word[0]):
            out = {(g,) + word: {self._zero: 1}}
        elif not word:
            out = {(): self._lam[g - N]} if g < N + self.cb.rank else {}
        else:
            c, rest = word[0], word[1:]
            terms = [(p, self.act(c, w)) for w, p in self.act(g, rest).items()]
            for g2, k in self.cb.bracket(g, c).items():
                terms.append(({self._zero: k}, self.act(g2, rest)))
            pairs: dict = {}
            for p, vec in terms:
                for w, q in vec.items():
                    pairs.setdefault(w, []).append((p, q))
            out = {w: s for w, ps in pairs.items() if (s := _sum_of_products(ps))}
        self._memo[key] = out
        return out

    def gram(self, beta: tuple):
        """(basis, matrix, degree) on the weight space lambda - beta, by
        the Shapovalov recursion <f_b u, w> = <u, e_b w> from beta - beta_b;
        its symmetry is checked as an identity in lambda, and degree is
        the largest total degree of its entries."""
        if beta in self._grams:
            return self._grams[beta]
        cb = self.cb
        basis = weight_space_basis(cb.rs, beta)
        mat = []
        for b, *u in basis:
            lower = tuple(x - y for x, y in zip(beta, cb.rs.positive_roots[b]))
            lower_basis, lower_mat, _ = self.gram(lower)
            below = dict(zip(lower_basis, lower_mat[lower_basis.index(tuple(u))]))
            mat.append([
                _sum_of_products((p, below[w]) for w, p in self.act(cb.e(b), col).items())
                for col in basis
            ])
        for i in range(len(basis)):
            for j in range(i):
                if mat[i][j] != mat[j][i]:
                    raise DefectError("contravariant Gram matrix is not symmetric")
        degree = max((sum(m) for row in mat for p in row for m in p), default=0)
        self._grams[beta] = basis, mat, degree
        return self._grams[beta]


@cache
def _generic_verma(lt: LieType) -> _GenericVerma:
    return _GenericVerma(chevalley_basis(lt))


class VermaModule:
    """The deformed Verma module M(nu + t rho - rho) over Q[t]: the type's
    Gram matrices over Z[lambda] at lambda_k = nu_k - 1 + t, as rows of
    integer coefficient lists.

    With d the least common denominator of nu (1 on integral weights),
    a_k = d (nu_k - 1) and D the largest total degree of a space's generic
    entries, d^D times an entry sum_m c_m lambda^m is the integer
    polynomial sum_m c_m d^(D - |m|) prod_k (a_k + d t)^(m_k).  The rows of
    ``gram`` are the Gram matrix times d^D, a unit of Q[t]_(t), so they
    have its Smith exponents.  ``_images`` maps a monomial m to the
    coefficients of prod_k (a_k + d t)^(m_k); ``_memo`` is the type's
    action memo.
    """

    def __init__(self, cb: ChevalleyBasis, nu: Weight):
        if len(nu.num) != cb.rank:
            raise ValueError(f"weight {nu.serialize()} does not have rank {cb.rank}")
        self._generic = _generic_verma(cb.rs.lie_type)
        self._memo = self._generic._memo
        self._den = nu.den
        self._const = [k - nu.den for k in nu.num]  # a_k
        self._images: dict = {(0,) * cb.rank: (1,)}

    def _image(self, m: tuple) -> tuple:
        """prod_k (a_k + d t)^(m_k) for a monomial m not yet in
        ``_images``, which keeps it."""
        k = next(k for k, j in enumerate(m) if j)
        m_lower = m[:k] + (m[k] - 1,) + m[k + 1 :]
        lower = self._images.get(m_lower) or self._image(m_lower)
        a, d = self._const[k], self._den  # (a + d t) lower
        out = tuple(map(add, [a * c for c in lower] + [0], [0] + [d * c for c in lower]))
        self._images[m] = out
        return out

    def gram(self, beta: tuple, precision: int | None = None):
        """(basis, rows) on the weight space nu - rho - beta: d^D times its
        Gram matrix, each entry a list of integer coefficients of t, mod
        t^precision if given.  Symmetric: entries i <= j are computed and
        shared with j, i."""
        basis, generic, degree = self._generic.gram(beta)
        size = degree + 1 if precision is None else min(precision, degree + 1)
        images, d = self._images, self._den
        # scale[|m|] = d^(D - |m|); m's image has |m| + 1 coefficients
        scale = [d ** (degree - j) for j in range(degree + 1)] if d != 1 else None
        rows = [[None] * len(basis) for _ in basis]
        for i, row in enumerate(generic):
            for j in range(i, len(row)):
                out = [0] * size
                for m, c in row[j].items():
                    im = images.get(m) or self._image(m)
                    if scale:
                        c *= scale[len(im) - 1]
                    for k, a in enumerate(im[:size]):
                        out[k] += c * a
                rows[i][j] = rows[j][i] = out
        return basis, rows


def gram_matrix(
    cb: ChevalleyBasis,
    nu: Weight,
    beta,
    engine: VermaModule | None = None,
    precision: int | None = None,
):
    """Contravariant Gram matrix on the weight space nu - rho - beta,
    times the unit d^D of VermaModule.

    Entries are lists of the integer coefficients of polynomials in the
    deformation variable t, mod t^precision if given.  Returns (basis,
    rows) where basis lists the PBW words indexing rows and columns.
    ``engine``, the VermaModule of (cb, nu), keeps its memos.
    """
    if engine is None:
        engine = VermaModule(cb, nu)
    return engine.gram(tuple(beta), precision)


def smith_normal_form(rows, precision: int | None = None) -> tuple:
    """Exponents e_1 <= e_2 <= ... of the Smith form diag(t^e_i) over the
    local ring Q[t]_(t) of a square matrix whose entries are lists of
    integer coefficients of t, read mod t^N; ``None`` for a row that
    vanishes mod t^N, and those come last.

    By default N = 1 + the sum over rows of the row's longest list less
    one, which exceeds the degree, and so the valuation, of every nonzero
    minor: there ``None`` is a zero factor.  ``precision`` sets N to a
    hint instead, and there ``None`` means an exponent of at least N or a
    zero factor.  The exponents below N are exact either way, as mod t^N
    the elimination yields the Smith form diag(t^min(e_i, N)).

    One elimination over Z[t]/(t^N), the rows kept integral by units of
    the local ring: an entry t^v u with u(0) != 0 and v least in the
    matrix clears its column by row_i <- u row_i - (a_i / t^v)
    pivot_row, truncated mod t^N and divided by the gcd of its integer
    coefficients; its row then clears by column operations that leave the
    rest unchanged, so v is the next exponent.  Every remaining entry is
    then divisible by t^v: the rows keep the quotient, mod t^(N - v).
    """
    n = precision
    if n is None:
        n = 1 + sum(max([1, *map(len, row)]) - 1 for row in rows)
    rows = [[p[:n] for p in row] for row in rows]
    exps = []
    e = 0  # the rows hold the remaining matrix divided by t^e, mod t^n
    while rows:
        best = None
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                for v, c in enumerate(p if best is None else p[: best[0]]):
                    if c:
                        best = (v, i, j)
                        break
            if best is not None and best[0] == 0:
                break
        if best is None:
            return tuple(exps) + (None,) * len(rows)
        v, i, j = best
        pivot = rows.pop(i)
        u = pivot.pop(j)[v:]
        pivot = [y[v:] for y in pivot]
        n -= v
        for r, row in enumerate(rows):
            q = row.pop(j)[v:]
            if any(q):
                rows[r] = _primitive([_mul_sub(u, x[v:], q, y, n) for x, y in zip(row, pivot)])
            else:
                rows[r] = [x[v:] for x in row]
        e += v
        exps.append(e)
    return tuple(exps)


def _mul_sub(u: list, x: list, q: list, y: list, n: int) -> list:
    """u x - q y mod t^n, on coefficient lists; u and q have at most n."""
    out = [0] * n
    for i, a in enumerate(u):
        if a:
            for k, b in enumerate(x[: n - i], i):
                out[k] += a * b
    for i, a in enumerate(q):
        if a:
            for k, b in enumerate(y[: n - i], i):
                out[k] -= a * b
    return out


def _primitive(row: list) -> list:
    """The row of coefficient lists divided by the gcd of its coefficients."""
    g = math.gcd(*(c for p in row for c in p))
    if g > 1:
        return [[c // g for c in p] for p in row]
    return row


def jantzen_dims(exps) -> tuple:
    """dims[i-1] = dim of the i-th Jantzen submodule's slice: the number
    of Smith exponents at least i."""
    if None in exps:
        raise DegenerateFormError("invariant factor vanishes identically")
    top = exps[-1] if exps else 0
    return tuple(sum(1 for v in exps if v >= i) for i in range(1, top + 1))


@dataclass
class OracleReport:
    lie_type: LieType
    depth: int
    passed: bool
    spaces: int
    comparisons: int
    failures: tuple


def oracle_compare(rs: RootSystem, nu: Weight, depth: int | None = None) -> OracleReport:
    """Gram-matrix Jantzen dimensions against the layer-table prediction.

    For every root-lattice offset beta of height <= depth, computes the
    t-valuations of the deformed contravariant form exactly and compares,
    level by level, with dimensions predicted by the layer table and the
    simple-character expansion.  Also checks the total valuation against
    the sum-formula determinant prediction on each space.
    """
    lt = rs.lie_type
    cap = depth_cap(lt)
    if depth is None:
        depth = cap
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if depth > cap:
        raise DepthCapError(
            f"depth {depth} exceeds the depth cap {cap} for {lt}"
        )
    cb = chevalley_basis(lt)
    engine = VermaModule(cb, nu)

    block, y = normalize(rs, nu)
    tab = layers(block, y, None)
    levels = tab.level_multiplicities()

    # per level, the dims of its simples at nu - rho - beta, keyed by beta;
    # each z of a level counts once, not msum times, so a simple repeated
    # within a level is undercounted.  A box b of L(z) lands on b + off,
    # within the depth only for b among the first C(room + rank, rank)
    # boxes (the reach rule of shifted_sum), and on none if room < 0.
    rank = rs.rank
    preds = [{} for _ in levels[1:]]
    for z in tab.columns:
        off = block.offset(y, z)  # nu - z(mu), as nu = y(mu)
        room = depth - sum(off)
        if room < 0:
            continue
        holding = [pred for pred, level in zip(preds, levels[1:]) if z in level]
        dims = simple_weight_dims(block, z, depth)
        for b, d in islice(dims.items(), math.comb(room + rank, rank)):
            beta = tuple(map(add, b, off))
            for pred in holding:
                pred[beta] = pred.get(beta, 0) + d

    # the sum formula's determinant valuation: sum over the integral
    # alpha of the partition function shifted by <nu, alpha^vee> alpha
    kostant = partition_table(rs, depth)
    det_want = shifted_sum(
        kostant,
        [
            (1, tuple(int(p) * r for r in rs.positive_roots[i]))
            for i, p in positive_integral_pairings(rs, nu)
        ],
    )

    failures = []
    comparisons = 0
    for beta, size in kostant.items():
        # exponents below the hint are exact; one that reaches it shows as
        # None, and the space is redone at the exact default precision
        hint = det_want[beta] + 1
        _, mat = gram_matrix(cb, nu, beta, engine, hint)
        if len(mat) != size:
            raise DefectError("weight space basis does not match the partition count")
        exps = smith_normal_form(mat, hint)
        if None in exps:
            _, mat = gram_matrix(cb, nu, beta, engine)
            exps = smith_normal_form(mat)
        dims = jantzen_dims(exps)
        pred = [p.get(beta, 0) for p in preds]
        while pred and pred[-1] == 0:
            pred.pop()
        got = list(dims)  # its last entry counts the largest valuation: never 0
        comparisons += max(len(pred), len(got), 1)
        if got != pred:
            failures.append(
                f"beta={beta}: gram dims {got} != predicted {pred}"
            )
        det_val = sum(dims)
        want = det_want[beta]
        if det_val != want:
            failures.append(
                f"beta={beta}: determinant valuation {det_val} != {want}"
            )
    return OracleReport(
        lie_type=lt,
        depth=depth,
        passed=not failures,
        spaces=len(kostant),
        comparisons=comparisons,
        failures=tuple(failures),
    )
