"""Deliberately broken instance wrappers for the negative tests.

Each wrapper delegates every query to the wrapped instance and corrupts
exactly one of them, so a verifier that passes on the clean instance must
fail with a witness naming the corrupted query.
"""

from collections import Counter

from pita.finskel import FinMap, compose, identity


class Wrapper:
    def __init__(self, base):
        self._base = base
        self.name = base.name + "+mutation"

    def __getattr__(self, attr):
        return getattr(self._base, attr)


class CorruptFibre(Wrapper):
    """Reports every fibre one element too large."""

    def fibre(self, f, i):
        return self._base.fibre(f, i) + 1


class MiscountSwap(Wrapper):
    """Reports each fibre of the swap of two points one element too large,
    and every other fibre right."""

    def fibre(self, f, i):
        count = self._base.fibre(f, i)
        return count + 1 if f == FinMap(2, 2, (2, 1)) else count


class CorruptFibreMap(Wrapper):
    """Precomposes fibre maps with the swap of the first two points."""

    def fibre_morphism(self, g, f, i):
        fm = self._base.fibre_morphism(g, f, i)
        if fm.dom < 2:
            return fm
        swap = FinMap(fm.dom, fm.dom, (2, 1) + tuple(range(3, fm.dom + 1)))
        return compose(swap, fm)


class WidenFibreMap(Wrapper):
    """Gives every fibre map one more point in its codomain while that
    stays at most 3, so at bound 3 the fibre maps are still morphisms but
    no longer compose with one another."""

    def fibre_morphism(self, g, f, i):
        fm = self._base.fibre_morphism(g, f, i)
        if fm.cod + 1 <= 3:
            return FinMap(fm.dom, fm.cod + 1, fm.values)
        return fm


class WrongTerminal(Wrapper):
    """Chooses the ordinal 2 as its own local terminal."""

    def chosen_terminal(self, X):
        if X == 2:
            return 2, identity(2)
        return self._base.chosen_terminal(X)


class CompositeOutsideHoms(Wrapper):
    """Composes into an ordinal far above any bound."""

    def compose(self, g, f):
        return FinMap(g.dom, 9, (9,) * g.dom)


class ShrinkComposite(Wrapper):
    """Merges the top two points of the codomain of every composite with
    at least two; the composite stays a morphism of each base instance."""

    def compose(self, g, f):
        c = self._base.compose(g, f)
        if c.cod < 2:
            return c
        return FinMap(c.dom, c.cod - 1, tuple(min(v, c.cod - 1) for v in c.values))


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


class Counting(Wrapper):
    """Corrupts nothing; counts every query asked of it, by name."""

    def __init__(self, base):
        super().__init__(base)
        self.calls = Counter()

    def __getattr__(self, attr):
        found = getattr(self._base, attr)
        if not callable(found):
            return found

        def counted(*args, **kwargs):
            self.calls[attr] += 1
            return found(*args, **kwargs)

        return counted
