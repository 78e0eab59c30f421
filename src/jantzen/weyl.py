"""Weyl group elements as exact integer matrices; lengths, Bruhat order, cosets.

A group element stores two integer action matrices: ``wt`` acts on weight
coordinates, ``rt`` on root coordinates.  Identity is matrix equality, so
braid-equivalent words collapse automatically.  A ``CoxeterSystem`` is a
reflection subsystem of an ambient root system (the full system, or the
integral subsystem of a block) with its own simple roots, length function
(inversion count over the subsystem) and Bruhat order; Kazhdan-Lusztig
combinatorics runs against this interface without caring which case it is.

Systems are interned: ``subsystem`` keeps one per (type, positive-root
index set) for the life of the process, and checks the root-system axioms
of the subsystem once, when it first builds it.  ``weyl_group`` is the
entry for the full root set.

The first query that needs the group enumerates it breadth-first from the
identity, which yields the elements in (length, canonical word) order.
Each element gets one record (``_Elem``, in ``_info``): its index in that
order, length, canonical reduced word, inverse, the products w s_i for
every generator, the right-descent bitmask and the product w0 w.  Every
element a record refers to is the canonical object the group stores, so
descents, generator products, words, coset tests and w0 w are answered by
lookups instead of matrix arithmetic.  Elements outside the group (a
product formed by the caller with ``*`` that is equal to no member, or a
member of another system) fall back to the matrix definitions, and so does
every element of a group larger than ``MAX_GROUP_ORDER``: such a group is
never enumerated, so only its enumeration-based queries (``elements``,
``word``, ``index``, Bruhat order, ``min_coset_reps``) raise
``CapExceededError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from jantzen.roots import RootSystem, Weight, identity_matrix, invert, matmul, solve

MAX_GROUP_ORDER = 1152


class CapExceededError(ValueError):
    """Group enumeration would exceed the supported order cap."""


class DefectError(RuntimeError):
    """A structural invariant failed; results would not be trustworthy."""


def _matvec(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


class WeylElem:
    """One Weyl group element; equality and hashing use the weight action."""

    __slots__ = ("wt", "rt", "_hash")

    def __init__(self, wt, rt):
        self.wt = wt
        self.rt = rt
        self._hash = None

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        return WeylElem(matmul(self.wt, other.wt), matmul(self.rt, other.rt))

    def __eq__(self, other):
        return isinstance(other, WeylElem) and self.wt == other.wt

    def __hash__(self):
        # elements are dictionary keys throughout; the nested tuple is
        # hashed once per object
        if self._hash is None:
            self._hash = hash(self.wt)
        return self._hash

    def apply(self, w: Weight) -> Weight:
        return Weight(_matvec(self.wt, w.coords))

    def apply_root(self, vec) -> tuple[int, ...]:
        return _matvec(self.rt, tuple(vec))

    def is_identity(self) -> bool:
        return self.wt == identity_matrix(len(self.wt))

    def inverse(self) -> "WeylElem":
        return WeylElem(_int_inverse(self.wt), _int_inverse(self.rt))

    def __repr__(self):
        return f"WeylElem({self.wt})"


def _int_inverse(mat):
    inv = invert(mat)
    if any(v.denominator != 1 for row in inv for v in row):
        raise AssertionError("matrix inverse is not integral")
    return tuple(tuple(int(v) for v in row) for row in inv)


def identity_elem(rank: int) -> WeylElem:
    m = identity_matrix(rank)
    return WeylElem(m, m)


def reflection_elem(rs: RootSystem, root_vec) -> WeylElem:
    """The reflection in a (positive) root, as exact matrices."""
    n = rs.rank
    rc = tuple(root_vec)
    coroot = rs.coroot_of(rc)
    wc = rs.root_to_weight_coords(rc)
    wt = tuple(
        tuple((1 if i == j else 0) - wc[i] * coroot[j] for j in range(n))
        for i in range(n)
    )
    kc = tuple(
        sum(coroot[j] * rs.cartan[j][l] for j in range(n)) for l in range(n)
    )
    rt = tuple(
        tuple((1 if i == j else 0) - rc[i] * kc[j] for j in range(n))
        for i in range(n)
    )
    return WeylElem(wt, rt)


def _first_nonzero(vec):
    for v in vec:
        if v != 0:
            return v
    return 0


@dataclass(frozen=True)
class CosetData:
    """Minimal-length coset representatives for a standard parabolic W_J."""

    J: tuple[int, ...]
    reps: tuple[WeylElem, ...]


class _Elem:
    """Everything a CoxeterSystem records about one of its elements.

    ``elem``, ``inverse``, ``right`` and ``w0x`` hold canonical element
    objects; ``right[i]`` is w s_i and bit i of ``descents`` is set iff
    l(w s_i) < l(w).
    """

    __slots__ = ("elem", "index", "length", "word", "inverse", "right", "descents", "w0x")

    def __init__(self, elem, index, length, word):
        self.elem = elem
        self.index = index
        self.length = length
        self.word = word
        self.inverse = None
        self.right = ()
        self.descents = 0
        self.w0x = None


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
        self.gens = tuple(
            reflection_elem(rs, rs.positive_roots[i]) for i in self.simple_idx
        )
        self.identity = identity_elem(rs.rank)
        self._pos_vecs = tuple(rs.positive_roots[i] for i in self.pos_idx)
        self._info = None  # elem -> _Elem
        self._too_large = False  # enumeration hit MAX_GROUP_ORDER
        self._order_list = None
        self._downsets = None
        self._coxeter_matrix = None

    # -- basic structure ---------------------------------------------------

    @property
    def num_gens(self) -> int:
        return len(self.gens)

    def _tables(self):
        """The per-element records, or None for a group over the cap."""
        if self._info is None and not self._too_large:
            try:
                self._enumerate()
            except CapExceededError:
                pass
        return self._info

    def _record(self, w: WeylElem):
        """The record of a group element; None for a non-member, and for
        every element of a group too large to enumerate."""
        info = self._tables()
        return None if info is None else info.get(w)

    def length(self, w: WeylElem) -> int:
        rec = self._record(w)
        if rec is not None:
            return rec.length
        return sum(
            1 for vec in self._pos_vecs if _first_nonzero(w.apply_root(vec)) < 0
        )

    def _descents(self, w: WeylElem) -> int:
        """Right-descent bitmask: bit i is set iff l(w s_i) < l(w)."""
        rec = self._record(w)
        if rec is not None:
            return rec.descents
        return sum(
            1 << i
            for i, vec in enumerate(self.simple_roots)
            if _first_nonzero(w.apply_root(vec)) < 0
        )

    def right_descent(self, w: WeylElem, i: int) -> bool:
        """True iff l(w s_i) < l(w)."""
        return bool(self._descents(w) >> i & 1)

    def first_right_descent(self, w: WeylElem):
        mask = self._descents(w)
        return (mask & -mask).bit_length() - 1 if mask else None

    def right_mul(self, w: WeylElem, i: int) -> WeylElem:
        """The product w s_i."""
        rec = self._record(w)
        return rec.right[i] if rec is not None else w * self.gens[i]

    def _left_mul(self, i: int, w: WeylElem) -> WeylElem:
        """The product s_i w, as (w^-1 s_i)^-1."""
        rec = self._record(w)
        if rec is None:
            return self.gens[i] * w
        info = self._info
        return info[info[rec.inverse].right[i]].inverse

    def _walk(self, w: WeylElem, word) -> WeylElem:
        """w s_{i1} ... s_{ik} for a group element w and word (i1, ..., ik)."""
        info = self._info
        for i in word:
            w = info[w].right[i]
        return w

    def mul(self, x: WeylElem, y: WeylElem) -> WeylElem:
        """The product x y of two group elements, as a walk along the
        shorter of their reduced words: x s_{j1} ... s_{jm} for the word of
        y, or (y^-1 s_{ik} ... s_{i1})^-1 for the word (i1, ..., ik) of x."""
        self._enumerate()
        info = self._info
        rx, ry = info[x], info[y]
        if rx.length < ry.length:
            return info[self._walk(ry.inverse, reversed(rx.word))].inverse
        return self._walk(x, ry.word)

    def element_from_word(self, word) -> WeylElem:
        word = tuple(word)
        for i in word:
            if not 0 <= i < self.num_gens:
                raise ValueError(f"generator index {i} out of range")
        if self._tables() is None:
            out = self.identity
            for i in word:
                out = out * self.gens[i]
            return out
        return self._walk(self.identity, word)

    def longest_times(self, w: WeylElem) -> WeylElem:
        """The product w0 w for a group element w, w0 the longest element."""
        self._enumerate()
        return self._info[w].w0x

    def coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        if self._coxeter_matrix is None:
            k = self.num_gens
            mat = [[1] * k for _ in range(k)]
            for i in range(k):
                for j in range(k):
                    if i == j:
                        continue
                    prod = self.gens[i] * self.gens[j]
                    power = prod
                    order = 1
                    while not power.is_identity():
                        power = power * prod
                        order += 1
                        if order > 6:
                            raise AssertionError("generator product order > 6")
                    mat[i][j] = order
            self._coxeter_matrix = tuple(tuple(row) for row in mat)
        return self._coxeter_matrix

    # -- enumeration ---------------------------------------------------------

    def _enumerate(self):
        """Breadth-first walk from the identity, one length level at a time.

        Every element of length L + 1 is w s_i for some w of length L, so a
        product not seen yet is new at length L + 1, and a product already
        seen at length L - 1 marks a right descent.  Within a level the
        frontier is in word order and each element's canonical word is
        that of its first discoverer plus one generator, so the elements
        come out sorted by (length, word).
        """
        if self._info is not None:
            return
        if self._too_large:
            raise CapExceededError(f"group order exceeds cap {MAX_GROUP_ORDER}")
        gens = self.gens
        info = {self.identity: _Elem(self.identity, 0, 0, ())}
        order_list = [self.identity]
        frontier = [self.identity]
        while frontier:
            new = []
            for w in frontier:
                rec = info[w]
                right = []
                for i, g in enumerate(gens):
                    u = w * g
                    got = info.get(u)
                    if got is None:
                        if len(info) >= MAX_GROUP_ORDER:
                            self._too_large = True
                            raise CapExceededError(
                                f"group order exceeds cap {MAX_GROUP_ORDER}"
                            )
                        got = _Elem(u, len(info), rec.length + 1, rec.word + (i,))
                        info[u] = got
                        order_list.append(u)
                        new.append(u)
                    elif got.length < rec.length:
                        rec.descents |= 1 << i
                    right.append(got.elem)
                rec.right = tuple(right)
            frontier = new
        self._info = info
        self._order_list = order_list
        w0 = order_list[-1]  # the unique element of maximal length
        for rec in info.values():
            rec.inverse = self._walk(self.identity, reversed(rec.word))
            rec.w0x = self._walk(w0, rec.word)

    def elements(self) -> tuple[WeylElem, ...]:
        """All elements, sorted by (length, canonical word)."""
        self._enumerate()
        return tuple(self._order_list)

    def order(self) -> int:
        return len(self.elements())

    def index(self, w: WeylElem) -> int:
        self._enumerate()
        return self._info[w].index

    def word(self, w: WeylElem) -> tuple[int, ...]:
        """A canonical reduced word (from the deterministic enumeration)."""
        self._enumerate()
        return self._info[w].word

    def inverse(self, w: WeylElem) -> WeylElem:
        rec = self._record(w)
        return rec.inverse if rec is not None else w.inverse()

    def contains(self, w: WeylElem) -> bool:
        return self._record(w) is not None

    def sort_key(self, w: WeylElem):
        return (self.length(w), self.word(w))

    def reflections(self) -> tuple[WeylElem, ...]:
        return tuple(reflection_elem(self.rs, vec) for vec in self._pos_vecs)

    # -- Bruhat order ----------------------------------------------------------

    def _build_downsets(self):
        """Bit i of downsets[w] is set iff element i lies below w: the
        elements below w are w itself and those below each w t, for the
        reflections t with l(w t) < l(w)."""
        if self._downsets is not None:
            return
        self._enumerate()
        info = self._info
        refl_words = [info[t].word for t in self.reflections()]
        downsets = {}
        for w in self._order_list:
            rec = info[w]
            bits = 1 << rec.index
            for word in refl_words:
                u = self._walk(w, word)
                if info[u].length < rec.length:
                    bits |= downsets[u]
            downsets[w] = bits
        self._downsets = downsets

    def bruhat_leq(self, x: WeylElem, w: WeylElem) -> bool:
        self._build_downsets()
        return bool(self._downsets[w] >> self._info[x].index & 1)

    def bruhat_interval_below(self, w: WeylElem) -> list[WeylElem]:
        """All x <= w, sorted by (length, word)."""
        self._build_downsets()
        bits = self._downsets[w]
        return [u for i, u in enumerate(self._order_list) if bits >> i & 1]

    # -- cosets ---------------------------------------------------------------

    def min_coset_reps(self, J) -> CosetData:
        """Minimal-length representatives of W / W_J, sorted by (length, word)."""
        J = tuple(sorted(J))
        reps = tuple(w for w in self.elements() if self.is_min_coset_rep(w, J))
        return CosetData(J=J, reps=reps)

    def is_min_coset_rep(self, w: WeylElem, J) -> bool:
        mask = self._descents(w)
        return not any(mask >> j & 1 for j in J)

    def decompose_yx(self, w: WeylElem, J) -> tuple[WeylElem, WeylElem]:
        """w = y x with y in W^J, x in W_J, lengths adding."""
        v = w
        peeled = []
        while True:
            mask = self._descents(v)
            j = next((j for j in J if mask >> j & 1), None)
            if j is None:
                break
            v = self.right_mul(v, j)
            peeled.append(j)
        return v, self.element_from_word(reversed(peeled))

    def subgroup_elements(self, I) -> tuple[WeylElem, ...]:
        """All elements of the standard parabolic subgroup W_I, by length."""
        I = tuple(I)
        seen = {self.identity}
        frontier = [self.identity]
        out = [self.identity]
        while frontier:
            new = []
            for w in frontier:
                for i in I:
                    u = self.right_mul(w, i)
                    if u not in seen:
                        if len(seen) >= MAX_GROUP_ORDER:
                            raise CapExceededError(
                                f"subgroup order exceeds cap {MAX_GROUP_ORDER}"
                            )
                        seen.add(u)
                        out.append(u)
                        new.append(u)
            frontier = new
        out.sort(key=lambda w: (self.length(w), w.wt))
        return tuple(out)

    def longest_element(self, I=None) -> WeylElem:
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

    def upper_coset_membership(self, w: WeylElem, I, J) -> bool:
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
        s = reflection_elem(rs, srv)
        for vec in pos_vecs:
            img = s.apply_root(vec)
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
