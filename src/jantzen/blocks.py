"""Blocks: integral Weyl subsystems, antidominant normal forms, singularity data.

For an antidominant weight mu, the block data is the integral subsystem
Phi_mu = {alpha : <mu, alpha^vee> in Z}, its simple system Delta_mu (the
indecomposable integral positive roots), the singularity set
J = {delta in Delta_mu : <mu, delta^vee> = 0}, and the reflection subgroup
W_mu realized inside the ambient Weyl group.  Every weight nu has a unique
antidominant representative mu = w^{-1} nu with w a minimal-length coset
representative modulo W_J.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from jantzen.roots import (
    RootSystem,
    Weight,
    coroot_pairing,
    is_antidominant,
    positive_integral_pairings,
    reflect,
)
from jantzen.weyl import CoxeterSystem, DefectError, subsystem


def _integral_positive_indices(rs: RootSystem, w: Weight) -> tuple[int, ...]:
    if len(w.coords) != rs.rank:
        raise ValueError(
            f"weight has {len(w.coords)} coordinates, expected {rs.rank}"
        )
    return tuple(
        i
        for i, coroot in enumerate(rs.coroots)
        if Fraction(coroot_pairing(w, coroot)).denominator == 1
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
        return self.system.min_coset_reps(self.J).reps

    def is_rep(self, w: int) -> bool:
        return self.system.is_min_coset_rep(w, self.J)

    def reps_below(self, w: int) -> list[int]:
        """The z in W^J with z <= w, sorted by (length, word)."""
        return [z for z in self.system.bruhat_interval_below(w) if self.is_rep(z)]

    def apply(self, w: int) -> Weight:
        """The weight w(mu)."""
        return self.system.apply(w, self.mu)

    def same_block(self, other: "Block") -> bool:
        return self.rs is other.rs and self.mu == other.mu


def _block(rs: RootSystem, mu: Weight, pos_idx) -> Block:
    """Block of an antidominant weight whose integral positive roots are
    ``pos_idx``.  The integral root set is invariant under the integral
    Weyl group, so normalize passes the set it computed for nu."""
    if not is_antidominant(rs, mu):
        raise ValueError(
            f"{mu.serialize()} is not antidominant; use normalize() to reach "
            "the antidominant representative first"
        )
    system = subsystem(rs, pos_idx)
    J = tuple(
        i
        for i, k in enumerate(system.simple_idx)
        if coroot_pairing(mu, rs.coroots[k]) == 0
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
            if coroot_pairing(cur, rs.coroots[k]) > 0:
                cur = reflect(rs, cur, rs.positive_roots[k])
                word.append(i)
                changed = True
                break
    block = _block(rs, cur, pos_idx)
    y, _ = system.decompose_yx(system.element_from_word(word), block.J)
    if block.apply(y) != nu:
        raise DefectError("normalization did not reproduce the input weight")
    return block, y


def root_offset(rs: RootSystem, diff: Weight) -> tuple[int, ...]:
    """Root coordinates of a weight difference that must be a sum of
    positive roots (an offset below a highest weight); DefectError if not."""
    rc = rs.weight_to_root_coords(diff.coords)
    if any(c.denominator != 1 or c < 0 for c in rc):
        raise DefectError(f"{diff.serialize()} is not a sum of positive roots")
    return tuple(int(c) for c in rc)


def phi_plus_count(rs: RootSystem, nu: Weight) -> int:
    """|{alpha > 0 : <nu, alpha^vee> is a positive integer}|."""
    return sum(1 for _ in positive_integral_pairings(rs, nu))
