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
every system built for the same root set.  The walk recognises an element
by the integer vector w^-1(rho), rho the ambient all-ones weight: rho is
regular, so the vector names the element in every subsystem, and one
reflection of it gives the vector of w s_i.  The system keeps one list
per element each for the length, the canonical reduced word, the
right-descent bitmask, the products w s_i, the inverse and w0 w; every
other query is a lookup or a walk through these lists.  An element acts
on weights only through a block (``blocks.Block.apply``), which follows
its canonical word one simple reflection at a time.  A group larger than
``MAX_GROUP_ORDER`` is never enumerated: its first query raises
``CapExceededError``, and every later query raises it again at once.

Systems are interned: ``subsystem`` keeps one per (type, positive-root
index set) until ``jantzen.clear_caches()``, and checks the root-system
axioms of the subsystem once, when it first builds it.  ``weyl_group`` is
the entry for the full root set.
"""

from __future__ import annotations

from functools import cache

from jantzen.roots import RootSystem, pairing_numerator, plain_text, reflect_vector

MAX_GROUP_ORDER = 1152

# The Coxeter matrix entry m(s_a, s_b) of two simple roots a, b, keyed by
# the product of their Cartan integers <a, b^vee> <b, a^vee>; the product
# is 4 only for a = b, where m = 1.
_COXETER_ENTRY = {0: 2, 1: 3, 2: 4, 3: 6, 4: 1}


class CapExceededError(ValueError):
    """Group enumeration would exceed the supported order cap."""


class DefectError(RuntimeError):
    """A structural invariant failed; results would not be trustworthy."""


def _walk(right, w: int, word) -> int:
    """w s_{i1} ... s_{ik} for the word (i1, ..., ik)."""
    for i in word:
        w = right[w][i]
    return w


class _Tables:
    """The per-element lists of an enumerated system, indexed by element.

    ``right[w][i]`` is w s_i, bit i of ``descents[w]`` is set iff
    l(w s_i) < l(w), and ``reflections`` lists the reflections of the
    system in the order of its positive roots.
    """

    __slots__ = ("length", "word", "descents", "right", "inverse", "w0x", "reflections")


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
        self._over_cap = False  # set when enumeration passed MAX_GROUP_ORDER
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

    @property
    def lengths(self):
        """l(w) for every element, indexed by w, for loops over many
        elements; callers read it and must not change it."""
        return self._tables().length

    def first_right_descent(self, w: int):
        mask = self._tables().descents[w]
        return (mask & -mask).bit_length() - 1 if mask else None

    def right_mul(self, w: int, i: int) -> int:
        """The product w s_i."""
        return self._tables().right[w][i]

    def left_mul(self, i: int, w: int) -> int:
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
        """The element of a word of 0-based generator indices; a bad index
        is reported 1-based, as words are shown."""
        word = tuple(word)
        for i in word:
            if not 0 <= i < self.num_gens:
                raise ValueError(
                    f"generator index {i + 1} out of range; the system has "
                    f"{self.num_gens} generators"
                )
        return _walk(self._tables().right, 0, word)

    def longest_times(self, w: int) -> int:
        """The product w0 w, w0 the longest element."""
        return self._tables().w0x[w]

    def coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        if self._coxeter_matrix is None:
            rs, simples = self.rs, self.simple_idx

            def pairing(a, b):  # <alpha_a, alpha_b^vee>
                return pairing_numerator(rs.root_weights[a], rs.coroots[b])

            self._coxeter_matrix = tuple(
                tuple(_COXETER_ENTRY[pairing(a, b) * pairing(b, a)] for b in simples)
                for a in simples
            )
        return self._coxeter_matrix

    # -- enumeration ---------------------------------------------------------

    def _enumerate(self):
        """Breadth-first walk from the identity, one length level at a time.

        An element w is recognised by its key, the integer weight
        coordinates of w^-1(rho) for the ambient rho: rho is regular, so
        the key is injective on every subsystem, and the key of w s_i is
        s_i applied to the key of w, one O(rank) step.

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
        if self._over_cap:
            raise CapExceededError(f"group order exceeds cap {MAX_GROUP_ORDER}")
        rs = self.rs
        # per generator: its coroot and the weight coordinates of its root
        steps = [(i, rs.coroots[k], rs.root_weights[k]) for i, k in enumerate(self.simple_idx)]
        rho = (1,) * rs.rank
        index = {rho: 0}
        keys, length, word, descents, right = [rho], [0], [()], [0], []
        frontier = [0]
        while frontier:
            new = []
            for w in frontier:
                k, lw = keys[w], length[w]
                row = []
                for i, coroot, root in steps:
                    key = reflect_vector(k, coroot, root)
                    u = index.get(key)
                    if u is None:
                        u = len(keys)
                        if u >= MAX_GROUP_ORDER:
                            self._over_cap = True
                            raise CapExceededError(
                                f"group order exceeds cap {MAX_GROUP_ORDER}"
                            )
                        index[key] = u
                        keys.append(key)
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
        t.length, t.word, t.descents, t.right = length, word, descents, right
        w0 = len(keys) - 1  # the unique element of maximal length
        t.inverse = [_walk(right, 0, reversed(v)) for v in word]
        t.w0x = [_walk(right, w0, v) for v in word]
        # a reflection is an involution, so its key is s_beta(rho)
        t.reflections = tuple(
            index[reflect_vector(rho, rs.coroots[k], rs.root_weights[k])] for k in self.pos_idx
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

    def downsets(self) -> list[int]:
        """Per element w, the bitmask of the x <= w."""
        if self._downsets is None:
            self._build_downsets()
        return self._downsets

    def bruhat_leq(self, x: int, w: int) -> bool:
        return bool(self.downsets()[w] >> x & 1)

    def bruhat_interval_below(self, w: int) -> list[int]:
        """All x <= w, in index order."""
        return set_bits(self.downsets()[w])

    # -- cosets ---------------------------------------------------------------

    def min_coset_reps(self, J) -> tuple[int, ...]:
        """Minimal-length representatives of W / W_J, in index order."""
        mask = sum(1 << j for j in J)
        return tuple(w for w, d in enumerate(self._tables().descents) if not d & mask)

    def is_min_coset_rep(self, w: int, J) -> bool:
        mask = self._tables().descents[w]
        return not any(mask >> j & 1 for j in J)

    def coset_rep(self, w: int, J) -> int:
        """The W^J part y of w = y x, x in W_J, lengths adding: the
        minimal-length element of w W_J, by peeling right descents in J."""
        descents = self._tables().descents
        while (j := next((j for j in J if descents[w] >> j & 1), None)) is not None:
            w = self.right_mul(w, j)
        return w

    def subgroup_elements(self, I) -> tuple[int, ...]:
        """All elements of the standard parabolic subgroup W_I, in index
        order: those whose reduced words use generators in I only."""
        I = set(I)
        return tuple(w for w, v in enumerate(self._tables().word) if I.issuperset(v))

    def upper_coset_membership(self, w: int, I, J) -> bool:
        """True iff w lies in {}^I W^J: w in W^J and left multiplication by
        each generator in I lengthens w and stays inside W^J."""
        if not self.is_min_coset_rep(w, J):
            return False
        lw = self.length(w)
        for i in I:
            u = self.left_mul(i, w)
            if self.length(u) != lw + 1:
                return False
            if not self.is_min_coset_rep(u, J):
                return False
        return True


def set_bits(mask: int) -> list[int]:
    """The elements of a bitmask of elements, in index order."""
    bits = bin(mask)[:1:-1]  # bit x is character x
    return [x for x, c in enumerate(bits) if c == "1"]


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
    """Root-system axioms for the integral subsystem; defect on failure.

    The reflections in the indecomposables must permute the subsystem's
    roots up to sign.  That alone certifies the indecomposables as a
    simple system.  For two of them, a != b with <a, b^vee> > 0, one of
    the pairings <a, b^vee>, <b, a^vee> is 1, so a - b = s_b(a) or
    b - a = s_a(b) would be a root of the subsystem up to sign, and a or
    b would decompose.  So they are pairwise obtuse, hence linearly
    independent (Humphreys, Reflection Groups and Coxeter Groups, 1.3),
    and by induction on height every root of the subsystem is a
    nonnegative integer sum of them.
    """
    # checked on the roots' weight coordinates
    weights = {rs.root_weights[i] for i in pos_idx}
    for s in simple_idx:
        for i in pos_idx:
            img = reflect_vector(rs.root_weights[i], rs.coroots[s], rs.root_weights[s])
            if img not in weights and tuple(-c for c in img) not in weights:
                raise DefectError(
                    f"reflection in {rs.positive_roots[s]} does not preserve the "
                    f"integral subsystem (moved {rs.positive_roots[i]} to the "
                    f"root of weight coordinates {img})"
                )


def subsystem(rs: RootSystem, pos_idx) -> CoxeterSystem:
    """The interned CoxeterSystem of a reflection subsystem.

    ``pos_idx`` lists the ambient positive roots of the subsystem (for a
    block, its integral positive roots).  Its simple roots are the
    indecomposable ones; on the first request for a root set the
    subsystem's root-system axioms are checked, and a failure raises
    DefectError.
    """
    return _subsystem(rs, tuple(sorted(pos_idx)))


@cache
def _subsystem(rs: RootSystem, pos_idx: tuple[int, ...]) -> CoxeterSystem:
    simple_idx = _indecomposables(rs, pos_idx)
    _validate_subsystem(rs, simple_idx, pos_idx)
    return CoxeterSystem(rs, simple_idx, pos_idx)


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
        out = tuple(int(p) - 1 for p in plain_text(text).split())
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}") from exc
    if any(i < 0 for i in out):
        raise ValueError(f"word indices must be >= 1: {text!r}")
    return out
