"""Contravariant-form oracle: Chevalley bases, PBW reduction, exact SNF.

This module recomputes Jantzen filtration layer dimensions from first
principles, with no reference to Hecke-algebra combinatorics.  The
deformed Verma module over Q[t] has highest weight nu + t rho - rho, so
the Cartan generator attached to the k-th simple root acts on the
highest weight vector by nu_k - 1 + t.  Gram matrices of the
contravariant form on weight spaces are assembled by straightening PBW
words; their Smith normal form over Q[t] yields the t-valuations whose
counting function gives dim of the i-th Jantzen submodule.

Matrix realizations: sl(n+1) for type A and sp(2n) for type C, in bases
closed under transpose, which realizes the contravariant involution.
B2 is served by the C2 realization with the two simple roots swapped.
Other types are rejected.  All structure constants are extracted
exactly and revalidated (Jacobi, transpose antisymmetry, coroot and
weight bookkeeping) before use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from jantzen.blocks import DefectError, normalize, root_offset
from jantzen.filtration import layers, simple_weight_dims
from jantzen.poly import Poly, poly_gcd
from jantzen.roots import (
    LieType,
    RootSystem,
    Weight,
    boxes,
    build_root_system,
    kostant_partition,
    matmul,
    positive_integral_pairings,
    solve,
)

DEPTH_CAPS = {"A1": 8, "A2": 5, "B2": 4}
DEFAULT_DEPTH_CAP = 3


class UnsupportedTypeError(ValueError):
    """No transpose-closed matrix realization is wired up for this type."""


class DepthCapError(ValueError):
    """Requested height exceeds the per-type straightening budget."""


class DegenerateFormError(DefectError):
    """A Gram matrix was singular over Q(t)."""


def depth_cap(lt: LieType) -> int:
    return DEPTH_CAPS.get(str(lt), DEFAULT_DEPTH_CAP)


@dataclass(frozen=True)
class ChevalleyBasis:
    """Exact structure constants in a transpose-closed basis.

    Generators are indexed 0..2N+n-1: lowering operators f_b for each
    positive root b (0 <= b < N), then Cartan elements h_k (N <= N+k),
    then raising operators e_b (N+n <= N+n+b).  brackets[(i, j)] maps a
    generator index to the integer coefficient of that generator in
    [g_i, g_j]; pure scalars never arise since the basis spans a Lie
    algebra.
    """

    rs: RootSystem
    num_positive: int
    rank: int
    brackets: dict

    def f(self, b: int) -> int:
        return b

    def h(self, k: int) -> int:
        return self.num_positive + k

    def e(self, b: int) -> int:
        return self.num_positive + self.rank + b

    def sigma(self, gen: int) -> int:
        """Transpose on generators: swaps e and f, fixes h."""
        N, n = self.num_positive, self.rank
        if gen < N:
            return gen + N + n
        if gen < N + n:
            return gen
        return gen - N - n

    def bracket(self, i: int, j: int) -> dict:
        return self.brackets.get((i, j), {})


def _matrix_realization(lt: LieType):
    """Raising matrices aligned with the positive roots.

    The b-th matrix is the raising matrix for the b-th positive root of
    build_root_system(lt); the lowering matrix is its transpose.
    """
    rs = build_root_system(lt)
    family, n = lt.series, lt.rank
    if family == "A":
        m = n + 1
        mats = []
        for vec in rs.positive_roots:
            support = [k for k, c in enumerate(vec) if c]
            i, j = support[0], support[-1] + 1
            mats.append(_unit(m, i, j))
        return mats
    if family == "C" or (family == "B" and n == 2):
        perm = (1, 0) if family == "B" else tuple(range(n))
        m = 2 * n
        mats = []
        for vec in rs.positive_roots:
            cvec = tuple(vec[perm[k]] for k in range(n))
            # epsilon coordinates of sum c_k alpha_k in C_n
            eps = [0] * n
            for k, c in enumerate(cvec):
                if k < n - 1:
                    eps[k] += c
                    eps[k + 1] -= c
                else:
                    eps[k] += 2 * c
            pos = [k for k, v in enumerate(eps) if v > 0]
            if eps.count(2) == 1 and sum(map(abs, eps)) == 2:
                a = eps.index(2)
                mats.append(_unit(m, a, n + a))
            elif len(pos) == 1 and sum(map(abs, eps)) == 2:
                a = pos[0]
                b = eps.index(-1)
                mats.append(_msub(_unit(m, a, b), _unit(m, n + b, n + a)))
            else:
                a, b = pos
                mats.append(_madd(_unit(m, a, n + b), _unit(m, b, n + a)))
        return mats
    raise UnsupportedTypeError(
        f"no transpose-closed realization for {lt}; supported families are "
        "A_n, C_n, and B2"
    )


def _unit(m, i, j):
    return tuple(
        tuple(1 if (r, c) == (i, j) else 0 for c in range(m)) for r in range(m)
    )


def _madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _msub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mbracket(a, b):
    return _msub(matmul(a, b), matmul(b, a))


def _transpose(a):
    return tuple(tuple(row[c] for row in a) for c in range(len(a)))


@lru_cache(maxsize=None)
def chevalley_basis(lt: LieType) -> ChevalleyBasis:
    """Build and exhaustively validate the structure-constant table."""
    rs = build_root_system(lt)
    e_mats = _matrix_realization(lt)
    N, n = len(rs.positive_roots), rs.rank
    f_mats = [_transpose(x) for x in e_mats]
    h_mats = [_mbracket(e_mats[b], f_mats[b]) for b in rs.simple_indices]
    gens = list(f_mats) + list(h_mats) + list(e_mats)
    flat = [tuple(v for row in g for v in row) for g in gens]
    d = len(gens)

    brackets = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            br = _mbracket(gens[i], gens[j])
            tflat = tuple(v for row in br for v in row)
            sol = solve(flat, tflat)
            if sol is None:
                raise DefectError("bracket left the span of the basis")
            entry = {}
            for g, c in enumerate(sol):
                if c != 0:
                    if c.denominator != 1:
                        raise DefectError("non-integral structure constant")
                    entry[g] = int(c)
            if entry:
                brackets[(i, j)] = entry

    cb = ChevalleyBasis(rs=rs, num_positive=N, rank=n, brackets=brackets)

    # transpose closure pins the contravariant involution to the basis
    for b in range(N):
        if _transpose(e_mats[b]) != f_mats[b]:
            raise DefectError("raising matrix is not the transpose of lowering")
    # [e_b, f_b] must equal the coroot in the h basis, exactly
    for b in range(N):
        want = {cb.h(k): c for k, c in enumerate(rs.coroots[b]) if c != 0}
        if cb.bracket(cb.e(b), cb.f(b)) != want:
            raise DefectError("coroot normalization failure")
    # weights: [h_k, e_b] = <beta_b, alpha_k^vee> e_b and dually for f_b
    for k in range(n):
        for b in range(N):
            pair = rs.root_to_weight_coords(rs.positive_roots[b])[k]
            want = {cb.e(b): pair} if pair else {}
            if cb.bracket(cb.h(k), cb.e(b)) != want:
                raise DefectError("weight bookkeeping failure on raising gens")
            want = {cb.f(b): -pair} if pair else {}
            if cb.bracket(cb.h(k), cb.f(b)) != want:
                raise DefectError("weight bookkeeping failure on lowering gens")
    # sigma is an anti-automorphism of the abstract table
    for (i, j), entry in brackets.items():
        mirrored = {cb.sigma(g): c for g, c in entry.items()}
        if cb.bracket(cb.sigma(j), cb.sigma(i)) != mirrored:
            raise DefectError("transpose is not an anti-automorphism")
    # Jacobi identity over all generator triples of the abstract table
    for a in range(d):
        for b in range(d):
            for c in range(d):
                acc: dict = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for g, coef in cb.bracket(x, y).items():
                        for g2, coef2 in cb.bracket(g, z).items():
                            acc[g2] = acc.get(g2, 0) + coef * coef2
                if any(v != 0 for v in acc.values()):
                    raise DefectError("Jacobi identity failure")
    return cb


class PBWEngine:
    """Rewrites generator words into the ordered PBW basis.

    Words are tuples of generator indices; the normal form is a linear
    combination of weakly increasing words, i.e. lowering, then Cartan,
    then raising generators.  Straightening uses x y = y x + [x, y] with
    memoization on whole words.
    """

    def __init__(self, cb: ChevalleyBasis):
        self.cb = cb
        self._memo: dict = {(): {(): 1}}

    def normal_form(self, word) -> dict:
        word = tuple(word)
        got = self._memo.get(word)
        if got is not None:
            return got
        bad = next(
            (i for i in range(len(word) - 1) if word[i] > word[i + 1]), None
        )
        if bad is None:
            out = {word: 1}
            self._memo[word] = out
            return out
        x, y = word[bad], word[bad + 1]
        pre, post = word[:bad], word[bad + 2 :]
        acc: dict = {}
        _merge(acc, self.normal_form(pre + (y, x) + post), 1)
        for g, c in self.cb.bracket(x, y).items():
            _merge(acc, self.normal_form(pre + (g,) + post), c)
        acc = {w: c for w, c in acc.items() if c != 0}
        self._memo[word] = acc
        return acc


def _merge(acc, terms, scale):
    for w, c in terms.items():
        acc[w] = acc.get(w, 0) + c * scale


def weight_space_basis(rs: RootSystem, beta) -> tuple:
    """Kostant partitions of beta as weakly increasing root-index words."""
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

    rec([], tuple(beta), 0)
    return tuple(sorted(out))


def gram_matrix(cb: ChevalleyBasis, nu: Weight, beta, engine: PBWEngine | None = None):
    """Contravariant Gram matrix on the weight space nu - rho - beta.

    Entries are polynomials in the deformation variable t.  Returns
    (basis, matrix) where basis lists the PBW words indexing rows and
    columns.
    """
    rs = cb.rs
    if engine is None:
        engine = PBWEngine(cb)
    basis = weight_space_basis(rs, beta)
    hw = [Poly((Fraction(c) - 1, 1)) for c in nu.coords]
    N, n = cb.num_positive, cb.rank

    def entry(rowword, colword) -> Poly:
        word = tuple(cb.sigma(g) for g in reversed(rowword)) + colword
        total = Poly()
        for nf_word, coeff in engine.normal_form(word).items():
            if any(g < N or g >= N + n for g in nf_word):
                continue
            term = Poly.const(coeff)
            for g in nf_word:
                term = term * hw[g - N]
            total = total + term
        return total

    mat = [[entry(a, b) for b in basis] for a in basis]
    for i in range(len(basis)):
        for j in range(i):
            if mat[i][j] != mat[j][i]:
                raise DefectError("contravariant Gram matrix is not symmetric")
    return basis, mat


def smith_normal_form(mat) -> tuple:
    """Invariant factors of a square polynomial matrix, monic, in a
    divisibility chain; zero factors come last."""
    a = [row[:] for row in mat]
    size = len(a)
    diag = []
    for k in range(size):
        pivot = None
        best = None
        for i in range(k, size):
            for j in range(k, size):
                if not a[i][j].is_zero():
                    if best is None or a[i][j].degree < best:
                        best = a[i][j].degree
                        pivot = (i, j)
        if pivot is None:
            diag.extend(Poly() for _ in range(size - k))
            break
        i0, j0 = pivot
        a[k], a[i0] = a[i0], a[k]
        for row in a:
            row[k], row[j0] = row[j0], row[k]
        while True:
            dirty = False
            for i in range(k + 1, size):
                if a[i][k].is_zero():
                    continue
                q, r = a[i][k].divmod(a[k][k])
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                if not r.is_zero():
                    a[k], a[i] = a[i], a[k]
                    dirty = True
            for j in range(k + 1, size):
                if a[k][j].is_zero():
                    continue
                q, r = a[k][j].divmod(a[k][k])
                for row in a:
                    row[j] = row[j] - q * row[k]
                if not r.is_zero():
                    for row in a:
                        row[k], row[j] = row[j], row[k]
                    dirty = True
            if dirty:
                continue
            offender = None
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    if not a[i][j].divmod(a[k][k])[1].is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
        diag.append(a[k][k])
    out = [p.monic() for p in diag]
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i].is_zero():
                out[i], out[j] = out[j], out[i]
                continue
            if out[j].divmod(out[i])[1].is_zero():
                continue
            g = poly_gcd(out[i], out[j])
            lcm = (out[i].divmod(g)[0] * out[j]).monic()
            out[i], out[j] = g, lcm
    return tuple(out)


def jantzen_dims_from_gram(mat) -> tuple:
    """dims[i-1] = dim of the i-th Jantzen submodule's slice, from SNF."""
    factors = smith_normal_form(mat)
    vals = []
    for p in factors:
        if p.is_zero():
            raise DegenerateFormError("invariant factor vanishes identically")
        vals.append(p.valuation)
    top = max(vals, default=0)
    return tuple(sum(1 for v in vals if v >= i) for i in range(1, top + 1))


@dataclass
class OracleReport:
    lie_type: LieType
    nu: Weight
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
            f"depth {depth} exceeds the straightening budget {cap} for {lt}"
        )
    cb = chevalley_basis(lt)
    engine = PBWEngine(cb)

    block, y = normalize(rs, nu)
    tab = layers(block, y, None)
    levels = tab.level_multiplicities()

    offsets = {}
    sdims = {}
    for z in tab.columns:
        offsets[z] = root_offset(rs, nu - block.apply(z))
        sdims[z] = simple_weight_dims(block, z, depth)

    det_shifts = [
        (int(p), rs.positive_roots[i]) for i, p in positive_integral_pairings(rs, nu)
    ]

    failures = []
    comparisons = 0
    spaces = 0
    for beta in boxes(rs.rank, depth):
        spaces += 1
        _, mat = gram_matrix(cb, nu, beta, engine)
        if len(mat) != kostant_partition(rs, beta):
            raise DefectError("weight space basis does not match the partition count")
        dims = jantzen_dims_from_gram(mat)
        pred = []
        i = 1
        while True:
            if i >= len(levels):
                break
            total = 0
            for z, msum in levels[i].items():
                off = tuple(b - o for b, o in zip(beta, offsets[z]))
                if any(v < 0 for v in off):
                    continue
                total += sdims[z].get(off, 0)
            pred.append(total)
            i += 1
        while pred and pred[-1] == 0:
            pred.pop()
        got = list(dims)  # its last entry counts the largest valuation: never 0
        comparisons += max(len(pred), len(got), 1)
        if got != pred:
            failures.append(
                f"beta={beta}: gram dims {got} != predicted {pred}"
            )
        det_val = sum(dims)
        want = 0
        for mult, root in det_shifts:
            arg = tuple(b - mult * r for b, r in zip(beta, root))
            if any(v < 0 for v in arg):
                continue
            want += kostant_partition(rs, arg)
        if det_val != want:
            failures.append(
                f"beta={beta}: determinant valuation {det_val} != {want}"
            )
    return OracleReport(
        lie_type=lt,
        nu=nu,
        depth=depth,
        passed=not failures,
        spaces=spaces,
        comparisons=comparisons,
        failures=tuple(failures),
    )
