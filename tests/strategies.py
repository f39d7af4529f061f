"""Hypothesis strategies for maps between finite ordinals, and the
bijections, identity test and quasibijection lists that only the tests
use."""

import itertools

from hypothesis import strategies as st

from pita.finskel import FinMap
from pita.opcat import is_quasibijection


def enumerate_bijections(n: int):
    for perm in itertools.permutations(range(1, n + 1)):
        yield FinMap(n, n, perm)


def is_identity(f: FinMap) -> bool:
    return f.dom == f.cod and f.values == tuple(range(1, f.dom + 1))


def quasibijections(inst, X: int, Y: int):
    """The quasibijections of inst from X to Y, in hom order."""
    return [q for q in inst.hom(X, Y) if is_quasibijection(q, inst)]


@st.composite
def finmaps(draw, max_card=5, min_dom=0, surjective=False, dom=None):
    """A map with domain up to max_card, or exactly dom when given."""
    if dom is None:
        dom = draw(st.integers(min_value=min_dom, max_value=max_card))
    if dom == 0:
        cod = 0 if surjective else draw(st.integers(0, max_card))
        return FinMap(0, cod, ())
    if surjective:
        cod = draw(st.integers(1, dom))
        # hit every target once, fill the rest freely, then shuffle
        base = list(range(1, cod + 1))
        extra = draw(
            st.lists(st.integers(1, cod), min_size=dom - cod, max_size=dom - cod)
        )
        values = draw(st.permutations(base + extra))
        return FinMap(dom, cod, tuple(values))
    cod = draw(st.integers(1, max_card))
    values = draw(st.lists(st.integers(1, cod), min_size=dom, max_size=dom))
    return FinMap(dom, cod, tuple(values))


@st.composite
def composable_pairs(draw, max_card=5, surjective=False):
    """(g, f) with g.cod == f.dom, i.e. g runs first."""
    g = draw(finmaps(max_card=max_card, surjective=surjective))
    f = draw(finmaps(max_card, dom=g.cod, surjective=surjective))
    return g, f


@st.composite
def composable_triples(draw, max_card=4, surjective=False):
    """(h, g, f) with h.cod == g.dom and g.cod == f.dom."""
    h = draw(finmaps(max_card=max_card, surjective=surjective))
    g = draw(finmaps(max_card, dom=h.cod, surjective=surjective))
    f = draw(finmaps(max_card, dom=g.cod, surjective=surjective))
    return h, g, f
