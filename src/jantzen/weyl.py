"""Weyl groups as integer-indexed tables: lengths, Bruhat order, cosets.

A ``CoxeterSystem`` is a reflection subsystem of an ambient root system
(the full system, or the integral subsystem of a block) with its own simple
roots, length function (inversion count over the subsystem) and Bruhat
order; Kazhdan-Lusztig combinatorics runs against this interface without
caring which case it is.

A group element is an int: its index in the system's enumeration order.
The first query on a system enumerates the group breadth-first from the
identity, which yields the elements in (length, canonical word) order: the
identity is 0, the generator s_i is i + 1 and the longest element w0 comes
last.  Enumeration is deterministic, so an index names the same element in
every system built for the same root set.  Per element the system keeps one
integer matrix, the action on weight coordinates, which recognizes an
element reached twice during the walk and is the one weight action
(``apply``); and one list each for the length, the canonical reduced word,
the right-descent bitmask, the products w s_i, the inverse and w0 w.  Every
other query is a lookup or a walk through these lists.  A group larger than
``MAX_GROUP_ORDER`` is never enumerated: its first query raises
``CapExceededError``.

Systems are interned: ``subsystem`` keeps one per (type, positive-root
index set) for the life of the process, and checks the root-system axioms
of the subsystem once, when it first builds it.  ``weyl_group`` is the
entry for the full root set.
"""

from __future__ import annotations

from dataclasses import dataclass

from jantzen.roots import (
    RootSystem,
    Weight,
    coroot_pairing,
    identity_matrix,
    matmul,
    solve,
)

MAX_GROUP_ORDER = 1152

# The Coxeter matrix entry m(s_a, s_b) of two simple roots a, b, keyed by
# the product of their Cartan integers <a, b^vee> <b, a^vee>; the product
# is 4 only for a = b, where m = 1.
_COXETER_ENTRY = {0: 2, 1: 3, 2: 4, 3: 6, 4: 1}


class CapExceededError(ValueError):
    """Group enumeration would exceed the supported order cap."""


class DefectError(RuntimeError):
    """A structural invariant failed; results would not be trustworthy."""


def _root_pairing(rs: RootSystem, root, alpha) -> int:
    """<root, alpha^vee> for roots in simple-root coordinates."""
    return coroot_pairing(Weight(rs.root_to_weight_coords(root)), rs.coroot_of(alpha))


def _reflection_matrix(rs: RootSystem, alpha):
    """The reflection lambda -> lambda - <lambda, alpha^vee> alpha, acting
    on weight coordinates."""
    n = rs.rank
    coroot = rs.coroot_of(alpha)
    wc = rs.root_to_weight_coords(alpha)
    return tuple(
        tuple((1 if i == j else 0) - wc[i] * coroot[j] for j in range(n))
        for i in range(n)
    )


def _walk(right, w: int, word) -> int:
    """w s_{i1} ... s_{ik} for the word (i1, ..., ik)."""
    for i in word:
        w = right[w][i]
    return w


@dataclass(frozen=True)
class CosetData:
    """Minimal-length coset representatives for a standard parabolic W_J."""

    J: tuple[int, ...]
    reps: tuple[int, ...]


class _Tables:
    """The per-element lists of an enumerated system, indexed by element.

    ``right[w][i]`` is w s_i, bit i of ``descents[w]`` is set iff
    l(w s_i) < l(w), ``matrix[w]`` is the action of w on weight
    coordinates, and ``reflections`` lists the reflections of the system
    in the order of its positive roots.
    """

    __slots__ = (
        "matrix", "length", "word", "descents", "right", "inverse", "w0x",
        "reflections",
    )


class CoxeterSystem:
    """A finite reflection subsystem with Coxeter-group combinatorics.

    ``simple_idx`` and ``pos_idx`` index into the ambient positive-root list.
    Lengths are inversion counts over ``pos_idx``; words are over the local
    generator indices (0-based internally, 1-based in serialized form).
    """

    def __init__(self, rs: RootSystem, simple_idx, pos_idx):
        self.rs = rs
        self.simple_idx = tuple(simple_idx)
        self.pos_idx = tuple(sorted(pos_idx))
        self.simple_roots = tuple(rs.positive_roots[i] for i in self.simple_idx)
        self.identity = 0
        # the elements of length one, in word order
        self.gens = tuple(range(1, len(self.simple_idx) + 1))
        self._info = None  # _Tables, once enumerated
        self._downsets = None
        self._coxeter_matrix = None

    # -- basic structure ---------------------------------------------------

    @property
    def num_gens(self) -> int:
        return len(self.simple_idx)

    def _tables(self) -> _Tables:
        if self._info is None:
            self._enumerate()
        return self._info

    def length(self, w: int) -> int:
        return self._tables().length[w]

    def right_descent(self, w: int, i: int) -> bool:
        """True iff l(w s_i) < l(w)."""
        return bool(self._tables().descents[w] >> i & 1)

    def first_right_descent(self, w: int):
        mask = self._tables().descents[w]
        return (mask & -mask).bit_length() - 1 if mask else None

    def right_mul(self, w: int, i: int) -> int:
        """The product w s_i."""
        return self._tables().right[w][i]

    def _left_mul(self, i: int, w: int) -> int:
        """The product s_i w, as (w^-1 s_i)^-1."""
        t = self._tables()
        return t.inverse[t.right[t.inverse[w]][i]]

    def mul(self, x: int, y: int) -> int:
        """The product x y, as a walk along the shorter of the two reduced
        words: x s_{j1} ... s_{jm} for the word of y, or
        (y^-1 s_{ik} ... s_{i1})^-1 for the word (i1, ..., ik) of x."""
        t = self._tables()
        if t.length[x] < t.length[y]:
            return t.inverse[_walk(t.right, t.inverse[y], reversed(t.word[x]))]
        return _walk(t.right, x, t.word[y])

    def element_from_word(self, word) -> int:
        word = tuple(word)
        for i in word:
            if not 0 <= i < self.num_gens:
                raise ValueError(f"generator index {i} out of range")
        return _walk(self._tables().right, 0, word)

    def longest_times(self, w: int) -> int:
        """The product w0 w, w0 the longest element."""
        return self._tables().w0x[w]

    def apply(self, w: int, weight: Weight) -> Weight:
        """The image w(lambda) of a weight in the pairing basis.

        Row i of the matrix of w is the coroot w^-1(alpha_i^vee), since
        <w lambda, alpha_i^vee> = <lambda, w^-1 alpha_i^vee>."""
        return Weight(
            tuple(coroot_pairing(weight, row) for row in self._tables().matrix[w])
        )

    def coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        if self._coxeter_matrix is None:
            rs, simples = self.rs, self.simple_roots
            self._coxeter_matrix = tuple(
                tuple(
                    _COXETER_ENTRY[_root_pairing(rs, a, b) * _root_pairing(rs, b, a)]
                    for b in simples
                )
                for a in simples
            )
        return self._coxeter_matrix

    # -- enumeration ---------------------------------------------------------

    def _enumerate(self):
        """Breadth-first walk from the identity, one length level at a time.

        Every element of length L + 1 is w s_i for some w of length L, so a
        product not seen yet is new at length L + 1, and a product already
        seen at length L - 1 marks a right descent.  Within a level the
        frontier is in word order and each element's canonical word is
        that of its first discoverer plus one generator, so indices are
        handed out in (length, word) order and the walk visits the elements
        in index order.
        """
        if self._info is not None:
            return
        rs = self.rs
        gens = [_reflection_matrix(rs, alpha) for alpha in self.simple_roots]
        e = identity_matrix(rs.rank)
        index = {e: 0}
        matrix, length, word, descents, right = [e], [0], [()], [0], []
        frontier = [0]
        while frontier:
            new = []
            for w in frontier:
                m, lw = matrix[w], length[w]
                row = []
                for i, g in enumerate(gens):
                    prod = matmul(m, g)
                    u = index.get(prod)
                    if u is None:
                        u = len(matrix)
                        if u >= MAX_GROUP_ORDER:
                            raise CapExceededError(
                                f"group order exceeds cap {MAX_GROUP_ORDER}"
                            )
                        index[prod] = u
                        matrix.append(prod)
                        length.append(lw + 1)
                        word.append(word[w] + (i,))
                        descents.append(0)
                        new.append(u)
                    elif length[u] < lw:
                        descents[w] |= 1 << i
                    row.append(u)
                right.append(tuple(row))
            frontier = new
        t = _Tables()
        t.matrix, t.length, t.word, t.descents, t.right = (
            matrix, length, word, descents, right
        )
        w0 = len(matrix) - 1  # the unique element of maximal length
        t.inverse = [_walk(right, 0, reversed(v)) for v in word]
        t.w0x = [_walk(right, w0, v) for v in word]
        t.reflections = tuple(
            index[_reflection_matrix(rs, rs.positive_roots[k])] for k in self.pos_idx
        )
        self._info = t

    def elements(self) -> range:
        """All elements, in (length, canonical word) order."""
        return range(self.order())

    def order(self) -> int:
        return len(self._tables().length)

    def word(self, w: int) -> tuple[int, ...]:
        """A canonical reduced word (from the deterministic enumeration)."""
        return self._tables().word[w]

    def inverse(self, w: int) -> int:
        return self._tables().inverse[w]

    def reflections(self) -> tuple[int, ...]:
        """The reflections in the positive roots, in root order."""
        return self._tables().reflections

    # -- Bruhat order ----------------------------------------------------------

    def _build_downsets(self):
        """Bit x of downsets[w] is set iff x lies below w: the elements
        below w are w itself and those below each w t, for the reflections
        t with l(w t) < l(w)."""
        if self._downsets is not None:
            return
        t = self._tables()
        length, right = t.length, t.right
        refl_words = [t.word[r] for r in t.reflections]
        downsets = []
        for w, lw in enumerate(length):
            bits = 1 << w
            for v in refl_words:
                u = _walk(right, w, v)
                if length[u] < lw:
                    bits |= downsets[u]
            downsets.append(bits)
        self._downsets = downsets

    def bruhat_leq(self, x: int, w: int) -> bool:
        if self._downsets is None:
            self._build_downsets()
        return bool(self._downsets[w] >> x & 1)

    def bruhat_interval_below(self, w: int) -> list[int]:
        """All x <= w, in index order."""
        if self._downsets is None:
            self._build_downsets()
        bits = bin(self._downsets[w])[:1:-1]  # bit x is character x
        return [x for x, c in enumerate(bits) if c == "1"]

    # -- cosets ---------------------------------------------------------------

    def min_coset_reps(self, J) -> CosetData:
        """Minimal-length representatives of W / W_J, in index order."""
        J = tuple(sorted(J))
        mask = sum(1 << j for j in J)
        reps = tuple(w for w, d in enumerate(self._tables().descents) if not d & mask)
        return CosetData(J=J, reps=reps)

    def is_min_coset_rep(self, w: int, J) -> bool:
        mask = self._tables().descents[w]
        return not any(mask >> j & 1 for j in J)

    def decompose_yx(self, w: int, J) -> tuple[int, int]:
        """w = y x with y in W^J, x in W_J, lengths adding."""
        descents = self._tables().descents
        v = w
        peeled = []
        while True:
            j = next((j for j in J if descents[v] >> j & 1), None)
            if j is None:
                break
            v = self.right_mul(v, j)
            peeled.append(j)
        return v, self.element_from_word(reversed(peeled))

    def subgroup_elements(self, I) -> tuple[int, ...]:
        """All elements of the standard parabolic subgroup W_I, in index
        order: those whose reduced words use generators in I only."""
        I = set(I)
        return tuple(w for w, v in enumerate(self._tables().word) if I.issuperset(v))

    def longest_element(self, I=None) -> int:
        """Longest element of W_I (of the whole group when I is None)."""
        if I is None:
            I = range(self.num_gens)
        I = tuple(I)
        w = self.identity
        changed = True
        while changed:
            changed = False
            for i in I:
                if not self.right_descent(w, i):
                    w = self.right_mul(w, i)
                    changed = True
        return w

    def upper_coset_membership(self, w: int, I, J) -> bool:
        """True iff w lies in {}^I W^J: w in W^J and left multiplication by
        each generator in I lengthens w and stays inside W^J."""
        if not self.is_min_coset_rep(w, J):
            return False
        lw = self.length(w)
        for i in I:
            u = self._left_mul(i, w)
            if self.length(u) != lw + 1:
                return False
            if not self.is_min_coset_rep(u, J):
                return False
        return True


# -- interned subsystems -------------------------------------------------------


def _indecomposables(rs: RootSystem, pos_idx) -> tuple[int, ...]:
    vecs = {rs.positive_roots[i] for i in pos_idx}
    simple = []
    for i in pos_idx:
        alpha = rs.positive_roots[i]
        decomposable = False
        for beta in vecs:
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            if gamma != alpha and gamma in vecs:
                decomposable = True
                break
        if not decomposable:
            simple.append(i)
    # root index order is (height, leftmost support first) order
    return tuple(sorted(simple))


def _validate_subsystem(rs: RootSystem, simple_idx, pos_idx) -> None:
    """Root-system axioms for the integral subsystem; defect on failure."""
    simples = [rs.positive_roots[i] for i in simple_idx]
    pos_vecs = [rs.positive_roots[i] for i in pos_idx]
    pos_set = set(pos_vecs)
    # every integral positive root is a nonnegative integer combination of
    # the indecomposables
    for vec in pos_vecs:
        coeffs = solve(simples, vec)
        if coeffs is None or any(
            c.denominator != 1 or c < 0 for c in coeffs
        ):
            raise DefectError(
                f"integral root {vec} is not a nonnegative integer "
                f"combination of the indecomposables {simples}"
            )
    # the simple reflections permute the subsystem
    for srv in simples:
        for vec in pos_vecs:
            p = _root_pairing(rs, vec, srv)
            img = tuple(v - p * a for v, a in zip(vec, srv))
            if img not in pos_set and tuple(-c for c in img) not in pos_set:
                raise DefectError(
                    f"reflection in {srv} does not preserve the integral "
                    f"subsystem (moved {vec} to {img})"
                )


# (lie type, sorted positive-root index set) -> CoxeterSystem.  Finite: one
# entry per reflection subsystem that the process has asked for.
_systems: dict = {}


def subsystem(rs: RootSystem, pos_idx) -> CoxeterSystem:
    """The interned CoxeterSystem of a reflection subsystem.

    ``pos_idx`` lists the ambient positive roots of the subsystem (for a
    block, its integral positive roots).  Its simple roots are the
    indecomposable ones; on the first request for a key the subsystem's
    root-system axioms are checked, and a failure raises DefectError.
    """
    pos_idx = tuple(sorted(pos_idx))
    key = (rs.lie_type, pos_idx)
    got = _systems.get(key)
    if got is None:
        simple_idx = _indecomposables(rs, pos_idx)
        _validate_subsystem(rs, simple_idx, pos_idx)
        got = CoxeterSystem(rs, simple_idx, pos_idx)
        _systems[key] = got
    return got


def clear_systems() -> None:
    """Forget every interned system; later requests build them afresh."""
    _systems.clear()


def weyl_group(rs: RootSystem) -> CoxeterSystem:
    """The ambient Weyl group: the interned system of the full root set."""
    return subsystem(rs, range(len(rs.positive_roots)))


def format_word(word) -> str:
    """Serialize a word as 1-based space-separated generator indices."""
    return " ".join(str(i + 1) for i in word)


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        out = tuple(int(p) - 1 for p in text.split())
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}") from exc
    if any(i < 0 for i in out):
        raise ValueError(f"word indices must be >= 1: {text!r}")
    return out
