"""The splitting calculus on a strictly factorisable instance.

Every morphism splits uniquely as a quasibijection followed by an
order-preserving morphism, with the extra condition that the splitting
triangle is fibrewise order-preserving. On top of the splitting itself
this module computes the relative op part of a map over a continuation
(the unique filler eta_rel with compose(pi(compose(f, g)), eta_rel) ==
compose(f, pi(g))), and the induced horizontal of a square with
quasibijective bottom (omega). The chainwise reflection onto locally
order-preserving chains is a lift of this calculus and lives in nerve.

Each operation has a production route (closed formulas through the
splitting) and an oracle route (exhaustive filler search over the
instance's homs, erroring unless exactly one filler exists); tests run
both and compare. Composition is diagrammatic: compose(g, f) applies g
first.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import finskel
from .errors import (
    IntegrityError,
    NotFactorisableError,
    ShapeError,
    UnsupportedInstanceError,
)
from .finskel import FinMap, finmap_to_json
from .opcat import (
    OperadicInstance,
    Report,
    default_threads,
    is_op_morphism,
    is_quasibijection,
    universe,
)

@dataclass(frozen=True)
class PitaFactorisation:
    """A morphism f split as compose(pi, eta): quasibijection pi into the
    middle object, then order-preserving eta, with the splitting triangle
    fibrewise order-preserving (which is what makes the pair unique).

    Uniqueness is also the invariant: a pair other than finskel.pita(f)
    is not the split of f, whichever of the defining properties it
    lacks."""

    f: FinMap
    pi: FinMap
    mid: int
    eta: FinMap

    def __post_init__(self):
        if self.pi.dom != self.f.dom or self.pi.cod != self.mid:
            raise ShapeError("quasibijection part does not match f and mid")
        if self.eta.dom != self.mid or self.eta.cod != self.f.cod:
            raise ShapeError("order-preserving part does not match mid and f")
        if (self.pi, self.eta) != finskel.pita(self.f):
            raise IntegrityError("parts are not the unique fop splitting")


def pita_general(
    inst: OperadicInstance, f: FinMap, mode: str = "production"
) -> PitaFactorisation:
    """Split a morphism of the instance. Production mode computes the
    splitting on the cardinality map; oracle mode searches the homs for
    all fop splittings and insists on exactly one."""
    card = inst.cardinality(f)
    if mode == "production":
        p, e = finskel.pita(card)
        return PitaFactorisation(f=f, pi=p, mid=p.cod, eta=e)
    if mode == "oracle":
        X, Y = card.dom, card.cod
        found = []
        for p in inst.hom(X, X):
            if not is_quasibijection(p, inst):
                continue
            for e in inst.hom(X, Y):
                if not is_op_morphism(e, inst):
                    continue
                if inst.compose(p, e) != f:
                    continue
                if all(
                    is_op_morphism(inst.fibre_morphism(p, e, i), inst)
                    for i in range(1, inst.cardinality(e).cod + 1)
                ):
                    found.append((p, e))
        if len(found) != 1:
            raise NotFactorisableError(
                f"{len(found)} fop splittings of {f}: {found[:4]}"
            )
        p, e = found[0]
        return PitaFactorisation(f=f, pi=p, mid=p.cod, eta=e)
    raise ShapeError(f"unknown mode {mode!r}")


def eta_rel(
    inst: OperadicInstance, f: FinMap, g: FinMap, mode: str = "production"
) -> FinMap:
    """Relative op part of f over a following map g (f: T->S applied
    first, then g: S->R). It is the unique map satisfying both

        compose(pi(compose(f, g)), eta_rel) == compose(f, pi(g))
        compose(eta_rel, eta(g)) == eta(compose(f, g))

    and is generally not order-preserving itself."""
    fg = inst.compose(f, g)
    split_fg = pita_general(inst, fg)
    split_g = pita_general(inst, g)
    try:
        unwind = finskel.inverse(inst.cardinality(split_fg.pi))
    except ShapeError as exc:
        raise UnsupportedInstanceError(
            "relative op parts need invertible quasibijections"
        ) from exc
    if mode == "production":
        return inst.compose(inst.compose(unwind, f), split_g.pi)
    if mode == "oracle":
        card = inst.cardinality(f)
        right = inst.compose(f, split_g.pi)
        found = [
            s
            for s in inst.hom(card.dom, card.cod)
            if inst.compose(split_fg.pi, s) == right
            and inst.compose(s, split_g.eta) == split_fg.eta
        ]
        if len(found) != 1:
            raise NotFactorisableError(
                f"{len(found)} relative op parts of ({f}, {g})"
            )
        return found[0]
    raise ShapeError(f"unknown mode {mode!r}")


def omega(
    inst: OperadicInstance,
    sigma: FinMap,
    tau: FinMap,
    f: FinMap,
    g: FinMap,
    mode: str = "production",
) -> FinMap:
    """Induced middle horizontal of a commuting square (top sigma, left f,
    right g, bottom tau) whose bottom is a quasibijection: the unique map
    w with compose(pi(f), w) == compose(sigma, pi(g)) and
    compose(w, eta(g)) == compose(eta(f), tau). It splits the square into
    a quasibijection square on top of an order-preserving square."""
    cs, ct = inst.cardinality(sigma), inst.cardinality(tau)
    cf, cg = inst.cardinality(f), inst.cardinality(g)
    if cs.dom != cf.dom or cs.cod != cg.dom:
        raise ShapeError("top map does not match the verticals")
    if ct.dom != cf.cod or ct.cod != cg.cod:
        raise ShapeError("bottom map does not match the verticals")
    if inst.compose(sigma, g) != inst.compose(f, tau):
        raise ShapeError("square does not commute")
    if not is_quasibijection(tau, inst):
        raise ShapeError("bottom map must be a quasibijection")
    split_f = pita_general(inst, f)
    split_g = pita_general(inst, g)
    if mode == "production":
        return inst.compose(
            inst.compose(finskel.inverse(inst.cardinality(split_f.pi)), sigma),
            split_g.pi,
        )
    if mode == "oracle":
        found = [
            w
            for w in inst.hom(cs.dom, cs.cod)
            if inst.compose(split_f.pi, w) == inst.compose(sigma, split_g.pi)
            and inst.compose(w, split_g.eta) == inst.compose(split_f.eta, tau)
        ]
        if len(found) != 1:
            raise NotFactorisableError(f"{len(found)} square fillers found")
        return found[0]
    raise ShapeError(f"unknown mode {mode!r}")


# ----------------------------------------------------------- the verifier


def _pair_checks(rep, inst, f, g, fg, splits, er):
    """Shared per-pair assertions of the loop route."""
    s_f, s_g, s_fg = splits[f], splits[g], splits[fg]

    def bad(tag, lhs, rhs):
        where = {"f": finmap_to_json(f), "g": finmap_to_json(g)}
        rep.add(tag, where, finmap_to_json(lhs), finmap_to_json(rhs))

    rep.count("relative-part-left-triangle")
    lhs = inst.compose(er, s_g.eta)
    if lhs != s_fg.eta:
        bad("relative-part-left-triangle", lhs, s_fg.eta)
    rep.count("relative-part-defining-square")
    lhs = inst.compose(s_fg.pi, er)
    rhs = inst.compose(f, s_g.pi)
    if lhs != rhs:
        bad("relative-part-defining-square", lhs, rhs)
    rep.count("op-part-composition")
    mid = inst.compose(s_f.eta, s_g.pi)
    lhs = inst.compose(
        pita_general(inst, mid).eta if mid not in splits else splits[mid].eta,
        s_g.eta,
    )
    if lhs != s_fg.eta:
        bad("op-part-composition", lhs, s_fg.eta)
    if finskel.is_identity(inst.cardinality(g)):
        rep.count("relative-part-over-identity")
        if er != s_f.eta:
            bad("relative-part-over-identity", er, s_f.eta)
    if finskel.is_identity(inst.cardinality(f)):
        rep.count("relative-part-of-identity")
        if er != f:
            bad("relative-part-of-identity", er, f)
    if is_op_morphism(g, inst) and is_op_morphism(fg, inst):
        rep.count("relative-part-op-pair")
        if er != f:
            bad("relative-part-op-pair", er, f)
    points = range(1, inst.cardinality(er).cod + 1)
    rep.count("unit-square-not-fop", len(points))
    for i in points:
        fm = inst.fibre_morphism(s_fg.pi, er, i)
        if not is_op_morphism(fm, inst):
            rep.add(
                "unit-square-not-fop",
                {"f": finmap_to_json(f), "g": finmap_to_json(g), "i": i},
                finmap_to_json(fm), "an order-preserving fibre map",
            )


def verify_eta_identities(
    inst: OperadicInstance,
    bound: int,
    threads: int | None = None,
    max_violations: int = 50,
) -> Report:
    """Exhaustively check the splitting calculus below the bound.

    Covers the unary splitting identities (splitting a quasibijection or
    an op morphism is trivial on the matching side), the criterion that
    order-preserving quasibijections are identities, the two defining
    equations of relative op parts plus their degenerate special cases,
    the composition law for op parts through the twisted middle term, the
    fibrewise order-preservation of every unit square, and the cocycle
    rule for relative op parts over composable triples. Switches to the
    vectorised table engine on large universes. Checks are counted per
    site in by_axiom, each site keyed by the tag it reports.
    """
    if threads is None:
        threads = default_threads()
    rep = Report(
        f"splitting[{inst.name}, bound={bound}]",
        max_violations=max_violations,
    )
    u = universe(inst, bound)
    if u.vectorised:
        table = u.table()
        table.sweep_splitting_identities(rep)
        table.sweep_relative_part_cocycle(rep, threads=threads)
        return rep

    objs = list(inst.objects(bound))
    homs = {(X, Y): list(inst.hom(X, Y)) for X in objs for Y in objs}
    all_maps = [f for fs in homs.values() for f in fs]
    by_dom: dict = {}
    for f in all_maps:
        by_dom.setdefault(f.dom, []).append(f)
    pairs = [
        (f, g) for f in all_maps for g in by_dom.get(f.cod, [])
    ]
    splits = {f: pita_general(inst, f) for f in all_maps}
    for tag in (
        "pi-of-pi", "eta-of-eta", "pi-of-eta", "eta-of-pi",
        "op-quasibijection-not-identity",
    ):
        rep.count(tag, len(all_maps))
    for f in all_maps:
        s = splits[f]
        where = {"f": finmap_to_json(f)}
        again = finskel.pita(inst.cardinality(s.pi))[0]
        if again != s.pi:
            rep.add("pi-of-pi", where, finmap_to_json(again), finmap_to_json(s.pi))
        again = finskel.pita(inst.cardinality(s.eta))[1]
        if again != s.eta:
            rep.add("eta-of-eta", where, finmap_to_json(again), finmap_to_json(s.eta))
        one = inst.identity(inst.cardinality(f).dom)
        again = finskel.pita(inst.cardinality(s.eta))[0]
        if again != one:
            rep.add("pi-of-eta", where, finmap_to_json(again), finmap_to_json(one))
        again = finskel.pita(inst.cardinality(s.pi))[1]
        if again != one:
            rep.add("eta-of-pi", where, finmap_to_json(again), finmap_to_json(one))
        if (
            is_op_morphism(f, inst)
            and is_quasibijection(f, inst)
            and not finskel.is_identity(inst.cardinality(f))
        ):
            rep.add(
                "op-quasibijection-not-identity",
                where, finmap_to_json(f), finmap_to_json(one),
            )

    composite = {}
    rel = {}
    for f, g in pairs:
        fg = inst.compose(f, g)
        composite[(f, g)] = fg
        if fg not in splits:
            splits[fg] = pita_general(inst, fg)
        er = eta_rel(inst, f, g)
        rel[(f, g)] = er
        _pair_checks(rep, inst, f, g, fg, splits, er)

    def rel_of(f, g):
        er = rel.get((f, g))
        return eta_rel(inst, f, g) if er is None else er

    cocycles = 0
    for f, g in pairs:
        gs = by_dom.get(g.cod, [])
        cocycles += len(gs)
        for h in gs:
            gh = composite[(g, h)]
            lhs = inst.compose(rel_of(f, gh), rel[(g, h)])
            rhs = rel_of(composite[(f, g)], h)
            if lhs != rhs:
                rep.add(
                    "relative-part-cocycle",
                    {
                        "f": finmap_to_json(f),
                        "g": finmap_to_json(g),
                        "h": finmap_to_json(h),
                    },
                    finmap_to_json(lhs), finmap_to_json(rhs),
                )
    rep.count("relative-part-cocycle", cocycles)
    return rep
