"""Reference Weyl group action for the tests, apart from the package's
memoised orbit entries: an element acts along its canonical word by
``roots.reflect``, and a weight of the root lattice gets its root
coordinates by ``roots.solve`` against the simple roots' weight
coordinates.  A positive root's index is its place in the root list."""

from jantzen.roots import reflect, solve


def word_apply(sys, w, lam):
    """w(lam) for an element w of the Coxeter system sys: the simple
    reflections of w's canonical word, the last letter first."""
    for i in reversed(sys.word(w)):
        lam = reflect(sys.rs, lam, sys.simple_roots[i])
    return lam


def root_coords(rs, weights) -> list:
    """Per weight, its coordinates in the simple roots, as Fractions."""
    simple = [rs.root_weights[k] for k in rs.simple_indices]
    return solve(simple, [lam.coords for lam in weights])


def root_index(rs, vec) -> int:
    """The index of a positive root of rs; ValueError for any other vector."""
    vec = tuple(vec)
    if vec not in rs.positive_roots:
        raise ValueError(f"{vec} is not a positive root of {rs.lie_type}")
    return rs.positive_roots.index(vec)
