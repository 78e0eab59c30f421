"""First-principles contravariant-form oracle: Chevalley bases, the Verma
module action, deformed Gram matrices, the Smith exponents over the local
ring Q[t]_(t), and the comparison against the layer-table predictions.

Gram matrices are checked against a reference inside this module:
``_reference_gram`` straightens each whole word sigma(row) col in U(g) and
keeps its pure Cartan part, as the oracle once did.

The deformation direction is rho: the Gram entries are polynomials in t
with h_k acting on the highest weight by <nu - rho, alpha_k^vee> + t.
``gram_matrix`` returns them times a unit d^D as integer coefficient
rows; ``_poly_view`` divides that unit out again for comparison with the
references, and ``_rows`` turns a matrix of QPolys into such rows for
``smith_normal_form``.  Everything below is exact; no floats anywhere.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jantzen import clear_caches, shapovalov
from jantzen.blocks import DefectError, integral_block
from jantzen.roots import LieType, Weight, boxes, build_root_system, partition_table
from jantzen.shapovalov import (
    DegenerateFormError,
    DepthCapError,
    VermaModule,
    chevalley_basis,
    depth_cap,
    gram_matrix,
    jantzen_dims,
    oracle_compare,
    smith_normal_form,
    weight_space_basis,
)
from jantzen.suite import ACCEPTANCE_TYPES, suite_weights
from reference import QPoly

T = QPoly((0, 1))
ONE = QPoly.const(1)


def _rows(mat):
    """A matrix of Polys as integer coefficient rows, each row scaled by
    the lcm of its coefficient denominators (a unit of Q[t]_(t))."""
    out = []
    for row in mat:
        scale = math.lcm(*(Fraction(c).denominator for p in row for c in p.coeffs))
        out.append([[int(c * scale) for c in p.coeffs] for p in row])
    return out


def _poly_view(cb, nu, beta, mod):
    """gram_matrix's (basis, rows) with the rows divided by their unit
    d^D: d the least common denominator of nu, D the largest total degree
    of the space's generic entries.  Asserts the rows are integral."""
    basis, rows = gram_matrix(cb, nu, beta, mod)
    _, generic, _ = shapovalov._generic_verma(cb.rs.lie_type).gram(tuple(beta))
    unit = nu.den ** max(sum(m) for row in generic for p in row for m in p)
    assert all(type(c) is int for row in rows for p in row for c in p)
    return basis, [[QPoly(Fraction(c, unit) for c in p) for p in row] for row in rows]


def _at_nu(nu, p):
    """The polynomial p in lambda, {exponent tuple: int}, at
    lambda_k = nu_k - 1 + t, by QPoly arithmetic."""
    lam = [T + QPoly.const(c - 1) for c in nu.coords]
    total = QPoly()
    for m, c in p.items():
        term = QPoly.const(c)
        for x, j in zip(lam, m):
            for _ in range(j):
                term = term * x
        total = total + term
    return total


def _rs(name):
    return build_root_system(LieType.parse(name))


@lru_cache(maxsize=None)
def _normal_form(name, word):
    """Weakly increasing words (lowering, Cartan, raising) with integer
    coefficients, by x y = y x + [x, y] at the first descent of the word."""
    bad = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
    if bad is None:
        return {word: 1}
    x, y = word[bad], word[bad + 1]
    pre, post = word[:bad], word[bad + 2 :]
    out = dict(_normal_form(name, pre + (y, x) + post))
    for g, c in chevalley_basis(LieType.parse(name)).bracket(x, y).items():
        for w, k in _normal_form(name, pre + (g,) + post).items():
            out[w] = out.get(w, 0) + c * k
    return {w: c for w, c in out.items() if c != 0}


def _h(cb, k):
    """The generator index of the k-th simple coroot h_k."""
    return cb.num_positive + k


def _sigma(cb, gen):
    """The transpose on generators: swaps e_b and f_b, fixes h_k.  It is
    an anti-automorphism: N(-x, -y) = -N(x, y) makes it one."""
    N, n = cb.num_positive, cb.rank
    if gen < N:
        return gen + N + n
    if gen < N + n:
        return gen
    return gen - N - n


def _reference_gram(cb, nu, beta):
    """<a v, b v> is the pure Cartan part of sigma(a) b, h_k -> nu_k - 1 + t."""
    N, n = cb.num_positive, cb.rank
    hw = [T + QPoly.const(c - 1) for c in nu.coords]
    basis = weight_space_basis(cb.rs, beta)

    def entry(a, b):
        total = QPoly()
        word = tuple(_sigma(cb, g) for g in reversed(a)) + b
        for w, c in _normal_form(str(cb.rs.lie_type), word).items():
            if all(N <= g < N + n for g in w):
                term = QPoly.const(c)
                for g in w:
                    term = term * hw[g - N]
                total = total + term
        return total

    return basis, [[entry(a, b) for b in basis] for a in basis]


def test_depth_caps():
    assert depth_cap(LieType.parse("A1")) == 8
    assert depth_cap(LieType.parse("A2")) == 5
    assert depth_cap(LieType.parse("B2")) == 4
    # everything else uses the default depth cap
    assert depth_cap(LieType.parse("C3")) == 3
    assert depth_cap(LieType.parse("A3")) == 3


def test_supported_types_build():
    # every type builds from its root data and passes the table's own
    # certificate (integrality, antisymmetry, Jacobi on e_i and f_i); E8
    # takes about a second
    for name in ACCEPTANCE_TYPES + ("A4", "B4", "C4", "D4", "D5", "F4", "E6", "E7", "E8"):
        cb = chevalley_basis(LieType.parse(name))
        assert cb.num_positive == len(cb.rs.positive_roots)
        assert cb.rank == cb.rs.rank


def _neg(x):
    return tuple(-c for c in x)


def _pairs_by_sum(rs):
    """{xi: [(a, b), ...]}: the positive roots a before b with a + b = xi,
    in the construction's order, so each list starts with xi's
    extraspecial pair and every later pair comes from the four-root
    relation."""
    pos = rs.positive_roots
    out = {}
    for xi in pos:
        for i, a in enumerate(pos):
            if (b := tuple(x - y for x, y in zip(xi, a))) in pos[i + 1 :]:
                out.setdefault(xi, []).append((a, b))
    return out


def _put(consts, x, y, c):
    # one entry orbit: N(y, x) = -N(x, y) = N(-x, -y)
    for a, b, v in ((x, y, c), (y, x, -c), (_neg(x), _neg(y), -c), (_neg(y), _neg(x), c)):
        consts[a, b] = v


def _extraspecial_plus_one(rs, consts):
    # p + 2 on the extraspecial pair of the lowest non-simple root
    a, b = next(iter(_pairs_by_sum(rs).values()))[0]
    _put(consts, a, b, consts[a, b] + 1)


def _four_root_sign_flip(rs, consts):
    a, b = next(p[1] for p in _pairs_by_sum(rs).values() if len(p) > 1)
    _put(consts, a, b, -consts[a, b])


def _sigma_break(rs, consts):
    # N(-x, -y) written as +N(x, y) for one pair, still antisymmetric
    x, y = next(iter(_pairs_by_sum(rs).values()))[0]
    c = consts[x, y]
    consts[_neg(x), _neg(y)], consts[_neg(y), _neg(x)] = c, -c


@pytest.mark.parametrize("name", ["B3", "G2", "F4"])
@pytest.mark.parametrize(
    "corrupt", [_extraspecial_plus_one, _four_root_sign_flip, _sigma_break]
)
def test_certificate_rejects_corrupt_constants(monkeypatch, name, corrupt):
    built = shapovalov._structure_constants

    def corrupted(rs):
        consts = built(rs)
        corrupt(rs, consts)
        return consts

    monkeypatch.setattr(shapovalov, "_structure_constants", corrupted)
    with pytest.raises(DefectError):
        chevalley_basis.__wrapped__(LieType.parse(name))


def test_sigma_swaps_raising_and_lowering():
    cb = chevalley_basis(LieType.parse("B2"))
    for b in range(cb.num_positive):
        assert _sigma(cb, cb.f(b)) == cb.e(b)
        assert _sigma(cb, cb.e(b)) == cb.f(b)
    for k in range(cb.rank):
        assert _sigma(cb, _h(cb, k)) == _h(cb, k)


def test_sl2_structure_constants():
    cb = chevalley_basis(LieType.parse("A1"))
    e, f, h = cb.e(0), cb.f(0), _h(cb, 0)
    assert cb.bracket(e, f) == {h: 1}
    assert cb.bracket(h, e) == {e: 2}
    assert cb.bracket(h, f) == {f: -2}
    assert cb.bracket(f, e) == {h: -1}


def test_cartan_pairing_of_e_f_is_the_coroot():
    # [e_b, f_b] must expand in the h_k with the simple-coroot coefficients
    # of the b-th positive coroot; this pins the normalization for long
    # and short roots at once.
    for name in ("A1", "A2", "B2", "B3", "C3", "G2"):
        rs = _rs(name)
        cb = chevalley_basis(LieType.parse(name))
        for b, coroot in enumerate(rs.coroots):
            want = {_h(cb, k): c for k, c in enumerate(coroot) if c != 0}
            assert cb.bracket(cb.e(b), cb.f(b)) == want, (name, b)


def test_antisymmetry_of_brackets():
    cb = chevalley_basis(LieType.parse("A2"))
    dim = 2 * cb.num_positive + cb.rank
    for i in range(dim):
        for j in range(dim):
            lhs = cb.bracket(i, j)
            rhs = {g: -c for g, c in cb.bracket(j, i).items()}
            assert lhs == rhs, (i, j)


def test_verma_action_sl2():
    # over Z[lambda]: a polynomial is {exponent tuple: int}
    cb = chevalley_basis(LieType.parse("A1"))
    gen = shapovalov._generic_verma(cb.rs.lie_type)
    e, f, h = cb.e(0), cb.f(0), _h(cb, 0)
    one, lam = {(0,): 1}, {(1,): 1}
    assert gen.act(f, ()) == {(0,): one}
    assert gen.act(h, ()) == {(): lam}
    assert gen.act(e, ()) == {}
    # e f v = [e, f] v = lambda(h) v
    assert gen.act(e, (0,)) == {(): lam}
    # e f^2 v = h f v + f h v = 2 (lambda - 1) f v
    assert gen.act(e, (0, 0)) == {(0,): {(1,): 2, (0,): -2}}
    # h f v = f h v + [h, f] v = (lambda - 2) f v
    assert gen.act(h, (0,)) == {(0,): {(1,): 1, (0,): -2}}
    # at nu = 3 they specialise, lambda = nu - 1 + t, to the QPolys over Q[t]
    lam_t = T + QPoly.const(2)

    def at_nu(g, word):
        return {w: _at_nu(Weight.of(3), p) for w, p in gen.act(g, word).items()}

    assert at_nu(f, ()) == {(0,): ONE}
    assert at_nu(h, ()) == {(): lam_t}
    assert at_nu(e, (0,)) == {(): lam_t}
    assert at_nu(e, (0, 0)) == {(0,): (lam_t - ONE) * 2}
    assert at_nu(h, (0,)) == {(0,): lam_t - QPoly.const(2)}


def test_sl2_closed_form_at_depth_30():
    # <f^n v, f^n v> = n! (lambda)(lambda - 1)...(lambda - n + 1)
    cb = chevalley_basis(LieType.parse("A1"))
    nu = Weight.of(Fraction(1, 2))
    mod = VermaModule(cb, nu)
    lam = T + QPoly.const(nu.coords[0] - 1)
    want = ONE
    for n in range(1, 31):
        want = want * (lam - QPoly.const(n - 1)) * n
        assert _poly_view(cb, nu, (n,), mod) == (((0,) * n,), [[want]])


def test_a2_depth_7_action_memo_stays_small():
    # the action memo is the type's: cleared first so that it holds this
    # module's entries only
    clear_caches()
    cb = chevalley_basis(LieType.parse("A2"))
    nu = Weight.of(1, 1)
    mod = VermaModule(cb, nu)
    for beta in partition_table(cb.rs, 7):
        gram_matrix(cb, nu, beta, mod)
    # whole-word straightening memoised 24,608 words on this module
    assert mod._memo is shapovalov._generic_verma(cb.rs.lie_type)._memo
    assert len(mod._memo) == 255


def test_second_weight_adds_no_action_memo_entries():
    # the action and the Gram recursion are over Z[lambda], so a second
    # weight of the type only specialises what the first one built
    clear_caches()
    cb = chevalley_basis(LieType.parse("B2"))
    sizes = []
    for nu in (Weight.of(1, 1), Weight.of(Fraction(-1, 2), 0)):
        mod = VermaModule(cb, nu)
        for beta in partition_table(cb.rs, 4):
            gram_matrix(cb, nu, beta, mod)
        sizes.append(len(mod._memo))
    assert sizes[0] == sizes[1] > 0


class _PerWeightVerma:
    """The oracle's former engine, kept as a reference: M(nu + t rho - rho)
    built for one nu, with QPoly coefficients, its action memoised per
    (generator, word) and its Gram matrices per offset."""

    def __init__(self, cb, nu):
        self.cb = cb
        lam = [c - 1 if c.denominator != 1 else int(c) - 1 for c in nu.coords]
        self._hw = [QPoly((c, 1)) for c in lam]
        self._memo = {}
        self._grams = {(0,) * cb.rank: (((),), [[ONE]])}

    def act(self, g, word):
        key = (g, word)
        if key in self._memo:
            return self._memo[key]
        N = self.cb.num_positive
        if g < N and (not word or g <= word[0]):
            out = {(g,) + word: ONE}
        elif not word:
            out = {(): self._hw[g - N]} if g < N + self.cb.rank else {}
        else:
            c, rest = word[0], word[1:]
            terms = [(p, self.act(c, w)) for w, p in self.act(g, rest).items()]
            terms += [(k, self.act(g2, rest)) for g2, k in self.cb.bracket(g, c).items()]
            out = {}
            for scale, vec in terms:
                for w, q in vec.items():
                    out[w] = out.get(w, QPoly()) + q * scale
            out = {w: p for w, p in out.items() if not p.is_zero()}
        self._memo[key] = out
        return out

    def gram(self, beta):
        if beta in self._grams:
            return self._grams[beta]
        cb = self.cb
        basis = weight_space_basis(cb.rs, beta)
        mat = []
        for b, *u in basis:
            lower = tuple(x - y for x, y in zip(beta, cb.rs.positive_roots[b]))
            lower_basis, lower_mat = self.gram(lower)
            below = dict(zip(lower_basis, lower_mat[lower_basis.index(tuple(u))]))
            mat.append([
                sum((p * below[w] for w, p in self.act(cb.e(b), col).items()), QPoly())
                for col in basis
            ])
        self._grams[beta] = basis, mat
        return basis, mat


def _check_integer_rows(cb, nu, beta, mod, want):
    """gram_matrix's integer rows against want, the basis and exact QPoly
    Gram matrix: rows / d^D equal it, their Smith exponents at the default
    precision and at hints 1, 2, 3 and 50 are those of the unscaled
    elimination on it, and the rows asked for mod t^hint are the full
    rows cut there."""
    basis, rows = gram_matrix(cb, nu, beta, mod)
    assert _poly_view(cb, nu, beta, mod) == want, (nu, beta)
    assert _exponents_at_every_hint(rows) == _unscaled_smith(want[1]), (nu, beta)
    for hint in (1, 2, 3, 50):
        cut = [[p[:hint] for p in row] for row in rows]
        assert gram_matrix(cb, nu, beta, mod, hint) == (basis, cut), (nu, beta, hint)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "A3", "G2"])
def test_gram_matches_per_weight_module(name):
    # every weight space, at the default cap, of every seed-0 and seed-1
    # suite module: the type's matrices over Z[lambda], specialised to
    # integer rows, equal the ones built for that weight alone over the
    # unit d^D and have their Smith exponents
    rs = _rs(name)
    cb = chevalley_basis(rs.lie_type)
    modules = {}
    for seed in (0, 1):
        for _, mu in suite_weights(rs, seed):
            block = integral_block(rs, mu)
            for w in block.coset_reps():
                nu = block.apply(w)
                modules[nu.coords] = nu
    for nu in modules.values():
        mod, ref = VermaModule(cb, nu), _PerWeightVerma(cb, nu)
        for beta in partition_table(rs, depth_cap(rs.lie_type)):
            _check_integer_rows(cb, nu, beta, mod, ref.gram(beta))


_GRAM_CASES = {"A1": 8, "A2": 5, "B2": 4, "A3": 3, "G2": 3, "B3": 2}


@st.composite
def _weights(draw, max_den=3):
    # one weight per type, so that every type is drawn in every example
    out = {}
    for name in _GRAM_CASES:
        rank = int(name[1:])
        coords = [
            Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, max_den)))
            for _ in range(rank)
        ]
        out[name] = Weight.of(*coords)
    return out


@settings(derandomize=True, max_examples=12, deadline=None)
@given(_weights())
def test_gram_matches_whole_word_straightening(weights):
    # every weight space up to the type's depth
    for name, nu in weights.items():
        cb = chevalley_basis(LieType.parse(name))
        mod = VermaModule(cb, nu)
        for beta in partition_table(cb.rs, _GRAM_CASES[name]):
            got = _poly_view(cb, nu, beta, mod)
            assert got == _reference_gram(cb, nu, beta), (name, beta)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(_weights(max_den=6))
def test_integer_rows_keep_exact_smith_exponents(weights):
    # denominators up to 6: every weight space up to the type's depth
    for name, nu in weights.items():
        cb = chevalley_basis(LieType.parse(name))
        mod, ref = VermaModule(cb, nu), _PerWeightVerma(cb, nu)
        for beta in partition_table(cb.rs, _GRAM_CASES[name]):
            _check_integer_rows(cb, nu, beta, mod, ref.gram(beta))


def test_wrong_length_offset_raises():
    cb = chevalley_basis(LieType.parse("A2"))
    with pytest.raises(ValueError, match="2 nonnegative integers"):
        weight_space_basis(cb.rs, (1,))
    with pytest.raises(ValueError, match="2 nonnegative integers"):
        gram_matrix(cb, Weight.of(1, 1), (1,))


def test_negative_offset_raises():
    cb = chevalley_basis(LieType.parse("A2"))
    with pytest.raises(ValueError, match="nonnegative"):
        weight_space_basis(cb.rs, (-1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        gram_matrix(cb, Weight.of(1, 1), (-1, 2))


def test_wrong_rank_weight_raises():
    cb = chevalley_basis(LieType.parse("A2"))
    with pytest.raises(ValueError, match="rank 2"):
        gram_matrix(cb, Weight.of(1), (1, 1))


def test_weight_space_basis_matches_kostant_partitions():
    rs = _rs("A2")
    # beta = alpha1 + alpha2: either the height-two root or alpha1, alpha2
    assert weight_space_basis(rs, (1, 1)) == ((0, 1), (2,))
    # beta = 2 alpha1 + alpha2
    assert weight_space_basis(rs, (2, 1)) == ((0, 0, 1), (0, 2))
    # empty offset has the empty word only
    assert weight_space_basis(rs, (0, 0)) == ((),)


def test_sl2_gram_closed_forms():
    cb = chevalley_basis(LieType.parse("A1"))
    basis, mat = gram_matrix(cb, Weight.of(1), (1,))
    assert basis == ((0,),)
    assert mat == [[[0, 1]]]
    basis, mat = gram_matrix(cb, Weight.of(1), (2,))
    # (f^2 v, f^2 v) = 2t^2 - 2t at nu = (1): vanishes at t = 0 to order 1
    assert mat == [[[0, -2, 2]]]
    basis, mat = gram_matrix(cb, Weight.of(0), (1,))
    assert mat == [[[-1, 1]]]
    # at nu = 1/2, d = 2 and D = 2: the rows are 4 (2 lambda^2 - 2 lambda)
    # for lambda = t - 1/2, that is 8t^2 - 16t + 6
    basis, mat = gram_matrix(cb, Weight.of(Fraction(1, 2)), (2,))
    assert mat == [[[6, -16, 8]]]


def test_a2_gram_and_dims():
    cb = chevalley_basis(LieType.parse("A2"))
    mod = VermaModule(cb, Weight.of(1, 1))
    basis, polys = _poly_view(cb, Weight.of(1, 1), (1, 1), mod)
    assert basis == ((0, 1), (2,))
    assert polys == [
        [QPoly((0, 1, 1)), QPoly((0, -1))],
        [QPoly((0, -1)), QPoly((0, 2))],
    ]
    # the invariant factors over Q[t] are t and t/2 + t^2
    _, mat = gram_matrix(cb, Weight.of(1, 1), (1, 1), mod)
    assert smith_normal_form(mat) == (1, 1)
    # both invariant factors vanish at t = 0 to order exactly 1: the
    # Jantzen filtration has a two-dimensional first slice here and stops
    assert jantzen_dims(smith_normal_form(mat)) == (2,)


def test_gram_is_symmetric():
    cb = chevalley_basis(LieType.parse("B2"))
    mod = VermaModule(cb, Weight.of(1, 1))
    for beta in ((1, 1), (2, 1), (1, 2), (2, 2)):
        _, mat = gram_matrix(cb, Weight.of(1, 1), beta, mod)
        for i in range(len(mat)):
            for j in range(len(mat)):
                assert mat[i][j] == mat[j][i]


def test_smith_normal_form_examples():
    # 3x3 with invariant factors 1 | t-1 | t^2-1: units at t = 0
    m = [
        [T - ONE, ONE, -ONE],
        [QPoly(), T, -ONE],
        [QPoly(), -ONE, T],
    ]
    assert smith_normal_form(_rows(m)) == (0, 0, 0)
    # coprime diagonal: invariant factors 1 | t(t+1)
    m = [[T, QPoly()], [QPoly(), T + ONE]]
    assert smith_normal_form(_rows(m)) == (0, 1)
    # rank-one polynomial matrix: invariant factors t, 0; the zero comes last
    m = [[T, T], [T, T]]
    assert smith_normal_form(_rows(m)) == (1, None)
    # constant matrices only see rank
    rows = ((2, 1, 0, 0), (1, 2, 1, 0), (0, 1, 2, 1), (0, 1, 2, 1))
    m = [[QPoly.const(v) for v in row] for row in rows]
    assert smith_normal_form(_rows(m)) == (0, 0, 0, None)


def test_smith_normal_form_divisibility_chain():
    # t^a divides t^b iff a <= b: the exponents are nondecreasing
    m = [
        [T * T, T, ONE],
        [T, T * T, T],
        [ONE, T, T * T],
    ]
    exps = smith_normal_form(_rows(m))
    assert None not in exps
    assert list(exps) == sorted(exps)


def _unscaled_smith(mat) -> tuple:
    """smith_normal_form's elimination by least valuation, run on the
    entries as given, without clearing denominators first."""
    rows = [list(row) for row in mat]
    exps = []
    while rows:
        best = None
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                v = p.valuation
                if v >= 0 and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            return tuple(exps) + (None,) * len(rows)
        v, i, j = best
        pivot = rows.pop(i)
        u = QPoly(pivot.pop(j).coeffs[v:])
        for r, row in enumerate(rows):
            q = QPoly(row.pop(j).coeffs[v:])
            rows[r] = [u * x - q * y for x, y in zip(row, pivot)]
        exps.append(v)
    return tuple(exps)


def test_smith_scaling_keeps_exponents_on_nonintegral_grams():
    # the 56 weight spaces of height <= 5 of A3 at nu = (1/2, 1/2, 0): Gram
    # entries with Fraction coefficients, up to 7 x 7
    cb = chevalley_basis(LieType.parse("A3"))
    nu = Weight.of(Fraction(1, 2), Fraction(1, 2), 0)
    mod = VermaModule(cb, nu)
    mats = [_poly_view(cb, nu, beta, mod)[1] for beta in boxes(3, 5)]
    assert len(mats) == 56
    assert any(
        isinstance(c, Fraction) for m in mats for row in m for p in row for c in p.coeffs
    )
    for beta, m in zip(boxes(3, 5), mats):
        rows = gram_matrix(cb, nu, beta, mod)[1]
        assert _exponents_at_every_hint(rows) == _unscaled_smith(m), beta


_fraction_entries = st.builds(
    lambda shift, coeffs: QPoly(coeffs).shift(shift),
    st.integers(0, 2),
    st.lists(st.fractions(-3, 3, max_denominator=6), max_size=3),
)


@st.composite
def _fraction_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[draw(_fraction_entries) for _ in range(n)] for _ in range(n)]


def _hinted_smith(mat, hint: int) -> tuple:
    """The oracle's use of a precision hint on integer rows: the exponents
    mod t^hint, redone at the default precision when a row vanishes."""
    exps = smith_normal_form(mat, hint)
    if None in exps:
        exps = smith_normal_form(mat)
    return exps


def _exponents_at_every_hint(mat) -> tuple:
    """The default exponents, after checking what hints 1, 2, 3 and 50
    give: mod t^hint, each exponent below the hint exactly and any other
    (or a zero factor) as None, and after the redo all of them."""
    exps = smith_normal_form(mat)
    for hint in (1, 2, 3, 50):
        cut = tuple(e if e is not None and e < hint else None for e in exps)
        assert smith_normal_form(mat, hint) == cut
        assert _hinted_smith(mat, hint) == exps
    return exps


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_fraction_matrices())
def test_smith_scaling_keeps_exponents_on_fraction_matrices(m):
    assert _exponents_at_every_hint(_rows(m)) == _unscaled_smith(m)


def _det(m) -> QPoly:
    """Leibniz expansion; the sign of a permutation from its inversions."""
    n = len(m)
    total = QPoly()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = QPoly.const(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term = term * m[r][c]
        total = total + term
    return total


_entries = st.builds(
    lambda shift, coeffs: QPoly(coeffs).shift(shift),
    st.integers(0, 2),
    st.lists(st.integers(-2, 2), max_size=3),
)


@st.composite
def _poly_matrices(draw):
    n = draw(st.integers(1, 4))
    return [
        [QPoly()] * n if draw(st.booleans()) and draw(st.booleans())
        else [draw(_entries) for _ in range(n)]
        for _ in range(n)
    ]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_poly_matrices())
def test_smith_exponents_match_minor_valuations(m):
    # over a discrete valuation ring the k-th determinantal divisor is the
    # least valuation of a k x k minor, and it equals e_1 + ... + e_k
    exps = _exponents_at_every_hint(_rows(m))
    assert exps == _unscaled_smith(m)
    n = len(m)
    assert len(exps) == n
    known = [e for e in exps if e is not None]
    assert exps[: len(known)] == tuple(known) and known == sorted(known)
    for k in range(1, n + 1):
        vals = [
            _det([[m[r][c] for c in cols] for r in rows]).valuation
            for rows in itertools.combinations(range(n), k)
            for cols in itertools.combinations(range(n), k)
        ]
        vals = [v for v in vals if v >= 0]
        if k <= len(known):
            assert min(vals) == sum(known[:k])
        else:
            assert vals == []


def test_smith_hint_examples():
    # exponents (0, 1, 3): mod t^2 the last row vanishes, mod t the last two
    m = [
        [ONE, QPoly(), QPoly()],
        [QPoly(), T, QPoly()],
        [QPoly(), QPoly(), T * T * T],
    ]
    assert smith_normal_form(_rows(m)) == (0, 1, 3)
    assert smith_normal_form(_rows(m), 1) == (0, None, None)
    assert smith_normal_form(_rows(m), 2) == (0, 1, None)
    assert smith_normal_form(_rows(m), 4) == (0, 1, 3)
    # after a pivot of valuation 1 the quotient rows are known mod t^2
    # only, so at hint 3 the exponent 3 is out of reach: None, not 3
    m = [
        [QPoly((0, -1, -1, 1)), QPoly((0, 0, 2, -1))],
        [QPoly((0, -1)), QPoly((0, 0, 2, 1))],
    ]
    assert smith_normal_form(_rows(m)) == (1, 3)
    assert smith_normal_form(_rows(m), 3) == (1, None)
    # the default precision is exact: a zero factor stays None at any hint
    m = [[T, T], [T, T]]
    assert smith_normal_form(_rows(m)) == smith_normal_form(_rows(m), 99) == (1, None)


def _plant_det_want(monkeypatch, beta, delta):
    """Shift the determinant formula's valuation at beta by delta, and
    record the precision of every Smith form at beta."""
    orig_sum, orig_smith = shapovalov.shifted_sum, shapovalov.smith_normal_form
    beta_mats = {}
    precisions = []

    def planted(*args):
        out = dict(orig_sum(*args))
        out[beta] += delta
        return out

    def gram(cb, nu, b, engine=None, precision=None):
        basis, mat = gram_matrix(cb, nu, b, engine, precision)
        if tuple(b) == beta:
            beta_mats[id(mat)] = mat
        return basis, mat

    def smith(mat, precision=None):
        if id(mat) in beta_mats:
            precisions.append(precision)
        return orig_smith(mat, precision)

    monkeypatch.setattr(shapovalov, "shifted_sum", planted)
    monkeypatch.setattr(shapovalov, "gram_matrix", gram)
    monkeypatch.setattr(shapovalov, "smith_normal_form", smith)
    return precisions


def test_hint_below_an_exponent_retries_once(monkeypatch):
    # A1 at nu = 1: the space beta = 2 has the one exponent 1, and the
    # determinant formula predicts 1.  Planted as 0, the hint 1 reaches
    # that exponent, so the space is redone once at the default precision:
    # the same dims, and only the determinant check fails.
    rs, nu = _rs("A1"), Weight.of(1)
    honest = oracle_compare(rs, nu, 4)
    assert honest.passed
    precisions = _plant_det_want(monkeypatch, (2,), -1)
    rep = oracle_compare(rs, nu, 4)
    assert precisions == [1, None]
    assert rep.failures == ("beta=(2,): determinant valuation 1 != 0",)
    assert rep.comparisons == honest.comparisons


def test_planted_high_det_want_still_fails(monkeypatch):
    # A2 at nu = (1, 1): the space beta = (1, 1) has exponents (1, 1).  A
    # prediction one too high only raises the precision; the determinant
    # check still sees the true valuation 2.
    rs, nu = _rs("A2"), Weight.of(1, 1)
    precisions = _plant_det_want(monkeypatch, (1, 1), 1)
    rep = oracle_compare(rs, nu, 2)
    assert precisions == [4]
    assert rep.failures == ("beta=(1, 1): determinant valuation 2 != 3",)


def test_jantzen_dims_from_valuations():
    m = [[T, QPoly()], [QPoly(), T * T * T]]
    # valuations (1, 3): one vector survives past levels 2 and 3
    assert jantzen_dims(smith_normal_form(_rows(m))) == (2, 1, 1)
    m = [[ONE, QPoly()], [QPoly(), ONE]]
    assert jantzen_dims(smith_normal_form(_rows(m))) == ()


def test_degenerate_form_raises():
    with pytest.raises(DegenerateFormError):
        jantzen_dims(smith_normal_form([[[], []], [[], []]]))
    with pytest.raises(DegenerateFormError):
        jantzen_dims(smith_normal_form([[[0, 1], [0, 1]], [[0, 1], [0, 1]]]))


def test_oracle_small_cases_pass():
    cases = [
        ("A1", ("1",), 4),
        ("A1", ("0",), 4),
        ("A1", ("-1/2",), 4),
        ("A2", ("1", "1"), 2),
        ("B2", ("1", "1"), 2),
    ]
    for name, coords, depth in cases:
        rs = _rs(name)
        nu = Weight.of(*coords)
        rep = oracle_compare(rs, nu, depth)
        assert rep.passed, (name, coords, rep.failures)
        assert rep.failures == ()
        assert rep.spaces > 0 and rep.comparisons >= rep.spaces


@pytest.mark.parametrize(
    "name, weight, depth",
    [
        ("E6", "1,1/101,1/103,1/107,1/109,1/113", None),
        ("E7", "1,1,1/103,1/107,1/109,1/113,1/127", None),
        ("E8", "1,1/101,1/103,1/107,1/109,1/113,1/127,1/131", 2),
    ],
    ids=["E6", "E7", "E8"],
)
def test_oracle_on_e_types(name, weight, depth):
    # nonintegral weights with small integral systems: the E types'
    # Chevalley bases, normalize and Gram matrices end to end
    rep = oracle_compare(_rs(name), Weight.parse(weight), depth)
    assert rep.passed, rep.failures
    assert rep.spaces > 0


@pytest.mark.parametrize("name, weight", [("A3", "0,1,0"), ("B3", "0,1,-1")])
@pytest.mark.xfail(
    strict=True,
    reason="oracle_compare drops the level multiplicity msum: "
    "beta=(1, 1, 1): gram dims [2, 1, 1] != predicted [1, 1, 1]",
)
def test_oracle_counts_repeated_simples(name, weight):
    # a simple that occurs twice in one level must count twice
    rep = oracle_compare(_rs(name), Weight.parse(weight))
    assert rep.passed, rep.failures


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_oracle_cold_and_warm_reports_agree(name):
    # cold: every per-block memo emptied before the call; warm: the same
    # modules again, reading what the whole suite left in the memos
    rs = _rs(name)
    modules = []
    for _, mu in suite_weights(rs, 0):
        block = integral_block(rs, mu)
        modules += [block.apply(w) for w in block.coset_reps()]
    cold = []
    for nu in modules:
        clear_caches()
        cold.append(oracle_compare(rs, nu))
    warm = [oracle_compare(rs, nu) for nu in modules]
    assert warm == cold
    assert all(rep.passed for rep in cold)


def test_oracle_depth_cap_enforced():
    rs = _rs("A1")
    with pytest.raises(DepthCapError):
        oracle_compare(rs, Weight.of(1), 99)
    rs = _rs("C3")
    with pytest.raises(DepthCapError):
        oracle_compare(rs, Weight.of(-1, -1, -1), 4)


def test_oracle_rejects_negative_depth():
    # a negative depth has no weight spaces, so the oracle would pass vacuously
    with pytest.raises(ValueError, match="nonnegative"):
        oracle_compare(_rs("A1"), Weight.of(1), -3)
