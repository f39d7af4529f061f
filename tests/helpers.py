"""Deliberately broken instance wrappers for the negative tests.

Each wrapper delegates every query to the wrapped instance and corrupts
exactly one of them, so a verifier that passes on the clean instance must
fail with a witness naming the corrupted query.
"""

from pita.finskel import FinMap, compose


class Wrapper:
    def __init__(self, base):
        self._base = base
        self.name = base.name + "+mutation"
        self.finmap_backed = base.finmap_backed

    def __getattr__(self, attr):
        return getattr(self._base, attr)


class CorruptFibre(Wrapper):
    """Reports every fibre one element too large."""

    def fibre(self, f, i):
        return self._base.fibre(f, i) + 1


class CorruptFibreMap(Wrapper):
    """Precomposes fibre maps with the swap of the first two points."""

    def fibre_morphism(self, g, f, i):
        fm = self._base.fibre_morphism(g, f, i)
        if fm.dom < 2:
            return fm
        swap = FinMap(fm.dom, fm.dom, (2, 1) + tuple(range(3, fm.dom + 1)))
        return compose(swap, fm)


class WrongTerminal(Wrapper):
    """Chooses the ordinal 2 as its own local terminal."""

    def chosen_terminal(self, X):
        if X == 2:
            return 2, self._base.identity(2)
        return self._base.chosen_terminal(X)


class CompositeOutsideHoms(Wrapper):
    """Composes into an ordinal far above any bound."""

    def compose(self, g, f):
        return FinMap(g.dom, 9, (9,) * g.dom)


class RemoveHom(Wrapper):
    """Drops one morphism from one hom set."""

    def __init__(self, base, X, Y, victim):
        super().__init__(base)
        self._gap = (X, Y)
        self._victim = victim

    def hom(self, X, Y):
        fs = self._base.hom(X, Y)
        if (X, Y) == self._gap:
            return tuple(f for f in fs if f != self._victim)
        return fs
