"""Blocks: integral Weyl subsystems, antidominant normal forms, singularity data.

For an antidominant weight mu, the block data is the integral subsystem
Phi_mu = {alpha : <mu, alpha^vee> in Z}, its simple system Delta_mu (the
indecomposable integral positive roots), the singularity set
J = {delta in Delta_mu : <mu, delta^vee> = 0}, and the reflection subgroup
W_mu realized inside the ambient Weyl group.  Every weight nu has a unique
antidominant representative mu = w^{-1} nu with w a minimal-length coset
representative modulo W_J.

A block parametrises its weights by w -> w(mu) on the indices of W_mu: the
entry of w is built from that of s_i w, i the first letter of w's
canonical word, by one reflection of the weight and one step of its root
coordinates (``_orbit``).  The W^J of a (system, J) is kept as one
bitmask (``_rep_mask``), which ``Block.coset_reps`` and ``Block.is_rep``
read and ``filtration`` ANDs with a Bruhat downset to list the simples
of a module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import sub

from jantzen.roots import (
    RootSystem,
    Weight,
    is_antidominant,
    pairing_numerator,
    reflect,
    reflect_vector,
)
from jantzen.weyl import CoxeterSystem, DefectError, set_bits, subsystem


def _integral_positive_indices(rs: RootSystem, w: Weight) -> tuple[int, ...]:
    if len(w.num) != rs.rank:
        raise ValueError(
            f"weight has {len(w.num)} coordinates, expected {rs.rank}"
        )
    return tuple(
        i
        for i, coroot in enumerate(rs.coroots)
        if pairing_numerator(w.num, coroot) % w.den == 0
    )


@dataclass(frozen=True)
class Block:
    """An antidominant weight together with its integral Weyl group data."""

    rs: RootSystem
    mu: Weight
    system: CoxeterSystem
    J: tuple[int, ...]

    @property
    def delta_roots(self) -> tuple[tuple[int, ...], ...]:
        return self.system.simple_roots

    def coset_reps(self) -> tuple[int, ...]:
        return tuple(set_bits(_rep_mask(self.system, self.J)))

    def is_rep(self, w: int) -> bool:
        return bool(_rep_mask(self.system, self.J) >> w & 1)

    def apply(self, w: int) -> Weight:
        """The weight w(mu): one ``_orbit`` entry, kept until clear_caches()."""
        return _orbit(self.system, self.mu, w)[0]

    def rise(self, w: int) -> tuple[int, ...]:
        """Root coordinates of w(mu) - mu, a sum of positive roots since mu
        is antidominant: read from the same ``_orbit`` entry as apply(w)."""
        return _orbit(self.system, self.mu, w)[1]

    def offset(self, x: int, y: int) -> tuple[int, ...]:
        """Root coordinates of x(mu) - y(mu), read as rise(x) - rise(y); it
        must be a sum of positive roots, DefectError if not."""
        off = tuple(map(sub, self.rise(x), self.rise(y)))
        if any(c < 0 for c in off):
            # every weight of the block has mu's den: a reflection in the
            # block keeps num mod den
            a, b = self.apply(x), self.apply(y)
            diff = Weight.scaled(a.den, tuple(map(sub, a.num, b.num)))
            raise DefectError(f"{diff.serialize()} is not a sum of positive roots")
        return off


@cache
def _rep_mask(system: CoxeterSystem, J: tuple[int, ...]) -> int:
    """The bitmask of W^J: bit w is set iff w is minimal in w W_J."""
    return sum(1 << w for w in system.min_coset_reps(J))


@cache
def _orbit(system: CoxeterSystem, mu: Weight, w: int) -> tuple[Weight, tuple[int, ...]]:
    """(w(mu), root coordinates of w(mu) - mu) for an antidominant mu.

    With v = s_i w for the first letter i of w's canonical word, l(v) <
    l(w), so v^-1(alpha_i) is a positive root of the system and
    p = <v(mu), alpha_i^vee> is an integer <= 0; then w(mu) = v(mu) - p
    alpha_i, and w(mu) - mu = (v(mu) - mu) - p alpha_i.  DefectError if p is
    not an integer <= 0, which happens only when mu is not antidominant."""
    if w == system.identity:
        return mu, (0,) * len(mu.num)
    i = system.word(w)[0]
    vmu, vrise = _orbit(system, mu, system.left_mul(i, w))
    rs, k = system.rs, system.simple_idx[i]
    coroot, alpha = rs.coroots[k], rs.positive_roots[k]
    p, r = divmod(pairing_numerator(vmu.num, coroot), vmu.den)
    if p > 0 or r:
        raise DefectError(
            f"{mu.serialize()} is not antidominant: <{vmu.serialize()}, "
            f"alpha^vee> is not an integer <= 0 for alpha = {alpha}"
        )
    image = Weight.scaled(vmu.den, reflect_vector(vmu.num, coroot, rs.root_weights[k]))
    return image, tuple([c - p * a for c, a in zip(vrise, alpha)])


def _block(rs: RootSystem, mu: Weight, pos_idx) -> Block:
    """Block of an antidominant weight whose integral positive roots are
    ``pos_idx``.  The integral root set is invariant under the integral
    Weyl group, so normalize passes the set it computed for nu.  Here and
    in normalize a pairing is tested by the sign of den <mu, alpha^vee>."""
    if not is_antidominant(rs, mu):
        raise ValueError(
            f"{mu.serialize()} is not antidominant; use normalize() to reach "
            "the antidominant representative first"
        )
    system = subsystem(rs, pos_idx)
    J = tuple(
        i
        for i, k in enumerate(system.simple_idx)
        if pairing_numerator(mu.num, rs.coroots[k]) == 0
    )
    return Block(rs=rs, mu=mu, system=system, J=J)


def integral_block(rs: RootSystem, mu: Weight) -> Block:
    """Block data for an antidominant weight; rejects other weights."""
    return _block(rs, mu, _integral_positive_indices(rs, mu))


def normalize(rs: RootSystem, nu: Weight) -> tuple[Block, int]:
    """Antidominant representative of nu and the minimal w with w(mu) = nu."""
    pos_idx = _integral_positive_indices(rs, nu)
    system = subsystem(rs, pos_idx)

    # nu = s_{i1} ... s_{ik} cur, with word = (i1, ..., ik)
    cur = nu
    word = []
    changed = True
    while changed:
        changed = False
        for i, k in enumerate(system.simple_idx):
            if pairing_numerator(cur.num, rs.coroots[k]) > 0:
                cur = reflect(rs, cur, rs.positive_roots[k])
                word.append(i)
                changed = True
                break
    block = _block(rs, cur, pos_idx)
    y = system.coset_rep(system.element_from_word(word), block.J)
    if block.apply(y) != nu:
        raise DefectError("normalization did not reproduce the input weight")
    return block, y
