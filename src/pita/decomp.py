"""Incidence comultiplication of surjections and the factorisation fibres.

On the surjection instance the comultiplication of an order-preserving
map f sums, over all two-step factorisations f = compose(h, e) whose
second leg is order-preserving, the op part eta(h) of the first leg
tensored with e, both recorded up to isomorphism as weakly decreasing
fibre-size labels. Precomposing with the bijection pi(h) keeps fibre
sizes, so eta(h) has the label of h and h is never split. With unit
weights this reproduces the exponential coefficient table (k! times the
partial Bell numbers on connected classes); the classical composition
coefficients drop the k! and the two tables already disagree in degree
2, which keeps the routes distinguishable.

The decomposition-space part compares the fibre of the inner face over
a locally order-preserving 3-chain (f, middle, bottom), f first, with
the same fibre over its reflected chain degeneracy(2, top_face(chain))
= (eta_rel(f, middle), eta(middle), identity). The fibre C_1 over a
chain consists of the factorisations (g, e) of f with compose(e,
compose(middle, bottom)) order-preserving, with a morphism x -> y for
every middle quasibijection sigma satisfying both factorisation
triangles whose square over (e_x, e_y) followed by middle is fibrewise
order-preserving. Over the reflected chain it is C_2, which is
discrete. The comparison functors land exactly:

    F(g, e) = (eta_rel(g, compose(e, middle)), eta_rel(e, middle))
    G(h, h2) = (compose(pi(compose(f, middle)), h),
                compose(h2, inverse(pi(middle))))

with F after G the identity and the unit at (g, e) the quasibijection
pi(compose(e, middle)). The comparison over a 2-chain c = (f, bottom)
is the one over its degeneracy(1, c) = (f, identity, bottom).
verify_decomposition_fibres checks all of this by enumeration at both
levels. The groupoids ask the instance through the chain's interner
(see Ids in nerve): hom sets, quasibijection tests, fop squares,
relative op parts and splits, once per id or id pair. The legs, the
triangles and the quotient compose FinMaps with finskel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial
from operator import le

from . import finskel
from .errors import ShapeError, UnsupportedInstanceError
from .finskel import (
    FinMap,
    compose,
    finmap_to_json,
    fold,
    identity,
    inverse,
    ordinal_sum,
)
from .nerve import Chain, chain_to_json, degeneracy, enumerate_p, top_face
from .opcat import OperadicInstance, Report, equivalence_classes

IsoClassLabel = tuple[int, ...]


def label(f: FinMap) -> IsoClassLabel:
    """Fibre sizes of f, weakly decreasing, empty fibres left out.
    Classifies f up to iso."""
    sizes = map(f.values.count, range(1, f.cod + 1))
    return tuple(sorted(filter(None, sizes), reverse=True))


def _require_surjection_instance(inst: OperadicInstance):
    if getattr(inst, "name", None) != "fin-surj":
        raise UnsupportedInstanceError(
            "the comultiplication lives on the surjection instance, got "
            f"{getattr(inst, 'name', inst)!r}"
        )


@dataclass
class CoalgebraElement:
    """Integer combination of label (x) label tensors."""

    terms: dict[tuple[IsoClassLabel, IsoClassLabel], int] = field(
        default_factory=dict
    )

    def add(self, left: IsoClassLabel, right: IsoClassLabel, coeff: int = 1):
        key = (tuple(left), tuple(right))
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def __mul__(self, other: "CoalgebraElement") -> "CoalgebraElement":
        out = CoalgebraElement()
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                out.add(_merge(l1, l2), _merge(r1, r2), c1 * c2)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json(self) -> dict:
        return {
            "terms": [
                {"left": list(left), "right": list(right), "coeff": coeff}
                for (left, right), coeff in self.sorted_terms()
            ]
        }

    def text(self) -> str:
        """`coeff left (x) right` terms joined by ` + `, a label as the
        product of its A_k; the empty label is 1, the zero element 0."""
        return " + ".join(
            f"{coeff} {_label_text(left)} (x) {_label_text(right)}"
            for (left, right), coeff in self.sorted_terms()
        ) or "0"


def _label_text(label: IsoClassLabel) -> str:
    return ".".join(f"A{part}" for part in label) or "1"


def _merge(a: IsoClassLabel, b: IsoClassLabel) -> IsoClassLabel:
    return tuple(sorted(a + b, reverse=True))


def _quotient(h: FinMap, f: FinMap) -> FinMap | None:
    """The e with compose(h, e) == f, for a surjection h; None when h
    does not refine the fibres of f. h hits every slot and every value
    comes from f, so e is valid by construction."""
    vals = [0] * h.cod
    for t, v in zip(h.values, f.values):
        if vals[t - 1] == 0:
            vals[t - 1] = v
        elif vals[t - 1] != v:
            return None
    return FinMap._trusted(h.cod, f.cod, tuple(vals))


def factorisations(f: FinMap):
    """All (h, e) with compose(h, e) == f, both legs surjective.

    h determines e, so only h is enumerated and e is its quotient. The
    pairs come by middle object, then by h in value-table order."""
    for mid in range(min(1, f.dom), f.dom + 1):
        for h in finskel.enumerate_surjections(f.dom, mid):
            e = _quotient(h, f)
            if e is not None and len(set(e.values)) == e.cod:
                yield h, e


def comult(inst: OperadicInstance, f: FinMap) -> CoalgebraElement:
    """Sum of eta(h) (x) e over factorisations f = compose(h, e), e op,
    as labels; label(h) is label(eta(h))."""
    _require_surjection_instance(inst)
    if not finskel.is_surjective(f):
        raise ValueError(f"not a surjection: {f}")
    if not finskel.is_order_preserving(f):
        raise ValueError(f"comultiplication needs an order-preserving map, got {f}")
    out = CoalgebraElement()
    # few distinct e occur (for f = fold n, e is fold(mid)): label each once
    e_labels: dict = {}
    for h, e in factorisations(f):
        v = e.values
        if all(map(le, v, v[1:])):
            if e not in e_labels:
                e_labels[e] = label(e)
            out.add(label(h), e_labels[e])
    return out


def bell_partial(n: int, k: int) -> dict[IsoClassLabel, int]:
    """Partitions of an n-set into k blocks, counted by block-size shape."""
    if n < 0 or k < 0:
        raise ShapeError(f"bell_partial needs n, k >= 0, got {n}, {k}")
    out: dict[IsoClassLabel, int] = {}
    if k == 0:
        if n == 0:
            out[()] = 1
        return out

    def descend(rest, largest, acc):
        if len(acc) == k:
            if rest == 0:
                shape = tuple(acc)
                denom = 1
                for part in shape:
                    denom *= factorial(part)
                for m in Counter(shape).values():
                    denom *= factorial(m)
                out[shape] = factorial(n) // denom
            return
        slots = k - len(acc) - 1
        for part in range(min(largest, rest - slots), 0, -1):
            descend(rest - part, part, acc + [part])

    descend(n, n, [])
    return out


def _bell_expansion(n: int, weight) -> CoalgebraElement:
    """Partial Bell expansion of A_n, its k-block terms times weight(k)."""
    if n < 1:
        raise ShapeError(f"the Bell expansion is defined for n >= 1, got {n}")
    out = CoalgebraElement()
    for k in range(1, n + 1):
        for shape, count in bell_partial(n, k).items():
            out.add(shape, (k,), weight(k) * count)
    return out


def comult_closed_form(n: int) -> CoalgebraElement:
    """k!-weighted partial Bell expansion of the connected class A_n."""
    return _bell_expansion(n, factorial)


def comult_composition_form(n: int) -> CoalgebraElement:
    """Partial Bell expansion without the k!, for contrast.

    This is the classical composition-of-series table; it first differs
    from comult_closed_form at n = 2.
    """
    return _bell_expansion(n, lambda k: 1)


def _op_surjections(lo: int, bound: int):
    """Order-preserving surjections with domain from lo up to the bound,
    by domain, then codomain, then value table."""
    for m in range(lo, bound + 1):
        for l in range(min(m, 1), m + 1):
            for f in finskel.enumerate_surjections(m, l):
                if finskel.is_order_preserving(f):
                    yield f


def verify_coassociativity(
    inst: OperadicInstance,
    bound: int,
    max_violations: int = 50,
    table: str = "incidence",
) -> Report:
    """(comult (x) id) after comult == (id (x) comult) after comult.

    Checked on every order-preserving surjection with domain up to the
    bound, expanding comult on labels multiplicatively. With the default
    incidence table (the k!-weighted one) the comparison FAILS, first at
    the fold of 2: the left iteration produces 2 on the slot
    (A_1^2, A_1^2, A_2) while the right produces 4. The defect is the
    automorphism order of the middle class, which unit-weight set-level
    counting cannot see; the report carries the witnesses rather than
    hiding them. Passing table="composition" runs the same comparison
    for the k!-free composition table, which is coassociative, as a
    control that the expansion machinery itself is sound.
    """
    _require_surjection_instance(inst)
    if table not in ("incidence", "composition"):
        raise ShapeError(f"unknown coefficient table {table!r}")
    rep = Report(
        f"coassociativity[{inst.name}, bound={bound}, table={table}]",
        max_violations=max_violations,
    )
    cache: dict[int, CoalgebraElement] = {}

    def generator(part: int) -> CoalgebraElement:
        if part not in cache:
            if table == "incidence":
                cache[part] = comult(inst, fold(part))
            else:
                cache[part] = comult_composition_form(part)
        return cache[part]

    def expand(lab: IsoClassLabel) -> CoalgebraElement:
        out = CoalgebraElement()
        out.add((), ())
        for part in lab:
            out = out * generator(part)
        return out

    for f in _op_surjections(0, bound):
        rep.count("coassociativity")
        base = comult(inst, f) if table == "incidence" else expand(label(f))
        lhs: Counter = Counter()
        rhs: Counter = Counter()
        for (left, right), coeff in base.terms.items():
            for (l1, l2), c in expand(left).terms.items():
                lhs[(l1, l2, right)] += coeff * c
            for (r1, r2), c in expand(right).terms.items():
                rhs[(left, r1, r2)] += coeff * c
        if +lhs != +rhs:
            diff = sorted(
                str(k)
                for k in set(lhs) | set(rhs)
                if lhs.get(k, 0) != rhs.get(k, 0)
            )
            rep.add(
                "coassociativity",
                {"f": finmap_to_json(f), "differing_slots": diff},
                {str(k): v for k, v in sorted(lhs.items())},
                {str(k): v for k, v in sorted(rhs.items())},
            )
    return rep


def verify_bialgebra(
    inst: OperadicInstance, bound: int, max_violations: int = 50
) -> Report:
    """comult(f (+) g) == comult(f) * comult(g), plus the empty unit."""
    _require_surjection_instance(inst)
    rep = Report(
        f"bialgebra[{inst.name}, bound={bound}]",
        max_violations=max_violations,
    )
    empty = comult(inst, FinMap(0, 0, ()))
    rep.count("bialgebra-unit")
    if empty.terms != {((), ()): 1}:
        rep.add("bialgebra-unit", None, empty.to_json(), {((), ()): 1})

    ops = list(_op_surjections(1, bound))
    for f in ops:
        for g in ops:
            if f.dom + g.dom > bound:
                continue
            rep.count("bialgebra-multiplicativity")
            lhs = comult(inst, ordinal_sum(f, g))
            rhs = comult(inst, f) * comult(inst, g)
            if lhs != rhs:
                rep.add(
                    "bialgebra-multiplicativity",
                    {"f": finmap_to_json(f), "g": finmap_to_json(g)},
                    lhs.to_json(),
                    rhs.to_json(),
                )
    return rep


def verify_counit(
    inst: OperadicInstance, bound: int, max_violations: int = 50
) -> Report:
    """The identity-labelled right factor appears once, carrying f itself."""
    _require_surjection_instance(inst)
    rep = Report(
        f"counit[{inst.name}, bound={bound}]",
        max_violations=max_violations,
    )
    for f in _op_surjections(1, bound):
        rep.count("counit")
        picked = [
            (left, coeff)
            for (left, right), coeff in comult(inst, f).terms.items()
            if right == (1,) * len(right)
        ]
        if picked != [(label(f), 1)]:
            rep.add("counit", finmap_to_json(f), picked, [(label(f), 1)])
    return rep


@dataclass
class FactorisationGroupoid:
    """The fibre of the inner face over a locally order-preserving
    3-chain (f, middle, bottom), where f runs first.

    Its objects are the factorisations (g, e) of f that keep the
    extended chain locally order-preserving, so compose(e,
    compose(middle, bottom)) must be op. A morphism x -> y is a middle
    quasibijection satisfying both factorisation triangles whose square
    over compose(e, middle), e the second leg, is fibrewise
    order-preserving. First legs are surjective, so the first triangle
    leaves at most one candidate, which is solved for rather than
    searched.

    It is compared with `reflected`, the same fibre over the reflected
    chain. The comparison over a 2-chain c is the one over
    degeneracy(1, c), whose middle map is the identity. Groupoids that
    share fibres, the groupoids built so far by chain, build each once.
    Objects and morphisms are FinMaps; the morphism test, forward,
    backward and unit_at read the chain's interner.
    """

    chain: Chain
    fibres: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.chain.length != 3:
            raise ShapeError("the fibres lie over 3-chains")
        if not self.chain.locally_op:
            raise ShapeError("the chain is not locally order-preserving")
        self._t = self.chain._t
        self.f, self.middle, self.bottom = self.chain.maps

    @cached_property
    def objects(self) -> list[tuple[FinMap, FinMap]]:
        lower = self.chain.down_composite(2)
        return [
            (g, e)
            for g, e in factorisations(self.f)
            if finskel.is_order_preserving(compose(e, lower))
        ]

    @cached_property
    def reflected(self) -> FactorisationGroupoid:
        """The same fibre over degeneracy(2, top_face(chain)) =
        (eta_rel(f, middle), eta(middle), identity)."""
        return _fibre(degeneracy(2, top_face(self.chain)), self.fibres)

    def _morphism(self, x, y) -> FinMap | None:
        """The morphism x -> y, if any: the first triangle solves for it,
        since the first leg of x is surjective."""
        sigma = _quotient(x[0], y[0])
        if sigma is not None and self.is_morphism(sigma, x, y):
            return sigma
        return None

    def is_morphism(self, sigma: FinMap, x, y) -> bool:
        """Is sigma a middle quasibijection satisfying both triangles whose
        square over compose(e, middle) is fop, e the second leg?"""
        g1, e1 = x
        g2, e2 = y
        mid = e1.dom
        t = self._t
        s = t.id(sigma)
        if e2.dom != mid or s not in t.hom[mid, mid]:
            return False
        if not t.quasibijective[s]:
            return False
        if compose(g1, sigma) != g2 or compose(sigma, e2) != e1:
            return False
        return t.fop_square(
            s,
            t.identity[self.middle.cod],
            t.id(compose(e1, self.middle)),
            t.id(compose(e2, self.middle)),
        )

    @cached_property
    def iso_classes(self) -> list[list[tuple[FinMap, FinMap]]]:
        return equivalence_classes(
            self.objects, lambda x, y: self._morphism(x, y) is not None
        )

    @cached_property
    def is_discrete(self) -> bool:
        # the first triangle forces every morphism x -> x to be the identity
        objs = self.objects
        return all(
            self._morphism(x, y) is None for x in objs for y in objs if x != y
        )

    def forward(self, x) -> tuple[FinMap, FinMap]:
        """This fibre -> reflected, the top face: relative op parts over
        the middle."""
        g, e = x
        t = self._t
        relative = t.eta_rel
        return (
            t.maps[relative[t.id(g), t.id(compose(e, self.middle))]],
            t.maps[relative[t.id(e), self.chain.ids[1]]],
        )

    @cached_property
    def _backward_legs(self) -> tuple[FinMap, FinMap]:
        t = self._t
        top = t.pi[t.id(compose(self.f, self.middle))]
        return t.maps[top], t.maps[t.inverse[t.pi[self.chain.ids[1]]]]

    def backward(self, y) -> tuple[FinMap, FinMap]:
        """reflected -> this fibre: precompose with the quasibijection
        part of compose(f, middle), undo the one of middle."""
        h, h2 = y
        top, undo = self._backward_legs
        return compose(top, h), compose(h2, undo)

    def unit_at(self, x) -> FinMap:
        """The morphism x -> backward(forward(x))."""
        _, e = x
        t = self._t
        return t.maps[t.pi[t.id(compose(e, self.middle))]]


def _fibre(chain: Chain, fibres: dict) -> FactorisationGroupoid:
    """The groupoid over chain kept in fibres, built there on first use."""
    if chain not in fibres:
        fibres[chain] = FactorisationGroupoid(chain, fibres)
    return fibres[chain]


def _verify_fibre_pair(rep: Report, groupoid: FactorisationGroupoid, tag: str):
    """Compare the fibre C_1 with the reflected fibre C_2: backward lands
    in C_1 and forward undoes it, C_2 is discrete, the unit is an
    invertible C_1 morphism, and the iso classes of C_1 match the objects
    of C_2 one for one."""
    where = {
        "f": finmap_to_json(groupoid.f),
        "middle": finmap_to_json(groupoid.middle),
        "bottom": finmap_to_json(groupoid.bottom),
    }

    def legs(obj):
        return [finmap_to_json(m) for m in obj]

    def at(obj):
        return {**where, "object": legs(obj)}

    c1 = groupoid.objects
    c2 = groupoid.reflected.objects
    members = set(c1)
    for y in c2:
        rep.count(f"{tag}-retraction")
        back = groupoid.backward(y)
        there = groupoid.forward(back)
        if there != y:
            rep.add(
                f"{tag}-retraction",
                at(y),
                legs(there),
                legs(y),
            )
        if back not in members:
            rep.add(
                f"{tag}-backward-leaves-fibre",
                at(y),
                legs(back),
                "a C_1 object",
            )
    rep.count(f"{tag}-c2-not-discrete")
    if not groupoid.reflected.is_discrete:
        rep.add(f"{tag}-c2-not-discrete", where, "morphisms found", "discrete")
    for x in c1:
        rep.count(f"{tag}-unit-not-a-morphism")
        unit = groupoid.unit_at(x)
        target = groupoid.backward(groupoid.forward(x))
        if not groupoid.is_morphism(unit, x, target):
            rep.add(
                f"{tag}-unit-not-a-morphism",
                at(x),
                finmap_to_json(unit),
                "a C_1 morphism to backward(forward(x))",
            )
        if not finskel.is_bijective(unit) or not groupoid.is_morphism(
            inverse(unit), target, x
        ):
            rep.add(
                f"{tag}-unit-not-invertible",
                at(x),
                finmap_to_json(unit),
                "invertible",
            )
    rep.count(f"{tag}-class-count")
    classes = groupoid.iso_classes
    if len(classes) != len(c2):
        rep.add(f"{tag}-class-count", where, len(classes), len(c2))


def verify_decomposition_fibres(
    inst: OperadicInstance, bound: int, max_violations: int = 50
) -> Report:
    """Fibre comparison across all desk-scale chains.

    Compares the fibres over the degeneracy(1, c) of every 2-chain c
    that is a fold m -> 1 over the identity with m <= bound or a locally
    order-preserving 2-chain with objects up to min(bound, 3), tagging
    violations fibre-*; then over every locally order-preserving
    3-chain with objects up to min(bound, 3), tagging them chain-fibre-*.
    A comparison that raises on a broken instance is one fibre-error or
    chain-fibre-error witness. Above bound 3 the title names that cap.
    """
    _require_surjection_instance(inst)
    chain_bound = min(bound, 3)
    cap = f", chains<={chain_bound}" if chain_bound < bound else ""
    rep = Report(
        f"decomposition-fibres[{inst.name}, bound={bound}{cap}]",
        max_violations=max_violations,
    )
    seen = {
        Chain.of(inst, (fold(m), identity(1)), 1)
        for m in range(1, bound + 1)
    }
    seen.update(enumerate_p(inst, 2, chain_bound))
    # the groupoids of this sweep by chain, each built once
    fibres: dict = {}

    def compare(c, over, tag):
        with rep.guard(
            f"{tag}-error", lambda: {"chain": chain_to_json(c)},
            "comparable fibres",
        ):
            _verify_fibre_pair(rep, _fibre(over, fibres), tag)

    for c in sorted(seen, key=lambda c: (c.objects[0], c.maps[0].values,
                                         c.maps[1].values)):
        compare(c, degeneracy(1, c), "fibre")
    for c in enumerate_p(inst, 3, chain_bound):
        compare(c, c, "chain-fibre")
    return rep
