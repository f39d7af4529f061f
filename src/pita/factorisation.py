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

The pair and triple identities of verify_eta_identities are written once
here, over id lookups; its loop evaluates them on single ids and _tables
on numpy id arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import finskel
from .errors import (
    IntegrityError,
    NotFactorisableError,
    ShapeError,
    UnsupportedInstanceError,
)
from .finskel import FinMap
from .opcat import (
    OperadicInstance,
    Report,
    _by_pair,
    _require_square,
    is_fop_square,
    is_quasibijection,
    universe,
)

@dataclass(frozen=True)
class PitaFactorisation:
    """A morphism f split as compose(pi, eta): quasibijection pi into the
    middle object, then order-preserving eta, with the splitting triangle
    fibrewise order-preserving (which is what makes the pair unique).

    f alone determines the split, so the parts are computed from it and
    a pair other than finskel.pita(f) cannot be built."""

    f: FinMap
    pi: FinMap = field(init=False)
    eta: FinMap = field(init=False)

    def __post_init__(self):
        pi, eta = finskel.pita(self.f)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "eta", eta)


def pita_general(
    inst: OperadicInstance, f: FinMap, mode: str = "production"
) -> PitaFactorisation:
    """Split a morphism of the instance. Production mode computes the
    splitting on the handle with finskel.pita; oracle mode searches the
    homs for all fop splittings, insists on exactly one and checks it
    against the production split."""
    if mode == "production":
        return PitaFactorisation(f)
    if mode == "oracle":
        X, Y = f.dom, f.cod
        tau = finskel.identity(Y)
        found = [
            (p, e)
            for p in inst.hom(X, X)
            if is_quasibijection(p, inst)
            for e in inst.hom(X, Y)
            if finskel.is_order_preserving(e)
            and inst.compose(p, e) == f
            and is_fop_square(p, tau, f, e, inst)
        ]
        if len(found) != 1:
            raise NotFactorisableError(
                f"{len(found)} fop splittings of {f}: {found[:4]}"
            )
        split = PitaFactorisation(f)
        if found[0] != (split.pi, split.eta):
            raise IntegrityError("the searched split is not finskel.pita(f)")
        return split
    raise ShapeError(f"unknown mode {mode!r}")


def _unwind(compose, inverse, top, a, bottom):
    """compose(compose(inverse(top), a), bottom) for a quasibijection top:
    the closed form of relative op parts, of omega and of each step of the
    nerve's lift. It runs on FinMaps (inst.compose, finskel.inverse) and
    on the nerve's ids (its interner's compose and inverse)."""
    try:
        back = inverse(top)
    except ShapeError as exc:
        raise UnsupportedInstanceError(
            "relative op parts need invertible quasibijections"
        ) from exc
    return compose(compose(back, a), bottom)


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
    if mode == "production":
        return _unwind(
            inst.compose, finskel.inverse, split_fg.pi, f, split_g.pi
        )
    if mode == "oracle":
        right = inst.compose(f, split_g.pi)
        found = [
            s
            for s in inst.hom(f.dom, f.cod)
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
    _require_square(sigma, tau, f, g, inst)
    if not is_quasibijection(tau, inst):
        raise ShapeError("bottom map must be a quasibijection")
    split_f = pita_general(inst, f)
    split_g = pita_general(inst, g)
    if mode == "production":
        return _unwind(
            inst.compose, finskel.inverse, split_f.pi, sigma, split_g.pi
        )
    if mode == "oracle":
        found = [
            w
            for w in inst.hom(sigma.dom, sigma.cod)
            if inst.compose(split_f.pi, w) == inst.compose(sigma, split_g.pi)
            and inst.compose(w, split_g.eta) == inst.compose(split_f.eta, tau)
        ]
        if len(found) != 1:
            raise NotFactorisableError(f"{len(found)} square fillers found")
        return found[0]
    raise ShapeError(f"unknown mode {mode!r}")


# ------------------------------------------------ the splitting identities

# Both routes of verify_eta_identities evaluate these. They read ids
# through C(x, y), the composite of x then y, and R(x, y), the relative
# op part of x over y, each a lookup by cell x * (n + 1) + y
# (opcat._by_pair, on the universe's lists or the table's arrays), and
# PI, ETA (the splits), ID (the identity on the domain) and OP
# (order-preserving) indexed by id. Only indexing, ==, != and & occur,
# so they run on single ids and on broadcast numpy id arrays.


def _pair_sites(C, PI, ETA, ID, OP, a, b, c, er):
    """(tag, applies, lhs, rhs) of each pair site over the pair (a, b) with
    composite c and relative op part er: the defining equations of er,
    the op-part composition law and the three degenerate cases of er."""
    return (
        ("relative-part-left-triangle", True, C(er, ETA[b]), ETA[c]),
        ("relative-part-defining-square", True, C(PI[c], er), C(a, PI[b])),
        (
            "op-part-composition", True,
            C(ETA[C(ETA[a], PI[b])], ETA[b]), ETA[c],
        ),
        ("relative-part-over-identity", b == ID[b], er, ETA[a]),
        ("relative-part-of-identity", a == ID[a], er, a),
        ("relative-part-op-pair", OP[b] & OP[c], er, a),
    )


def _unit_square(PI, c, er):
    """The pair whose fibre maps must all be op: (pi(c), er)."""
    return PI[c], er


_COCYCLE = "relative-part-cocycle"


def _cocycle_sides(C, R, a, b, h):
    """Both sides of the relative-part cocycle over the triple (a, b, h)."""
    return C(R(a, C(b, h)), R(b, h)), R(C(a, b), h)


# ----------------------------------------------------------- the verifier


def verify_eta_identities(
    inst: OperadicInstance,
    bound: int,
    max_violations: int = 50,
) -> Report:
    """Exhaustively check the splitting calculus below the bound.

    Covers the unary splitting identities (splitting a quasibijection or
    an op morphism is trivial on the matching side), the criterion that
    order-preserving quasibijections are identities, the pair sites of
    _pair_sites, the fibrewise order-preservation of every unit square,
    and the cocycle rule for relative op parts over composable triples,
    on the instance's answers as ids in its universe. The unary sites are
    one pass over the maps; the pair and triple sites run in a loop, or
    on the vectorised table engine for large universes. An instance whose
    answers leave its own homs fails the sweep with one splitting-error
    violation, after the checks made up to that point.
    """
    rep = Report(
        f"splitting[{inst.name}, bound={bound}]",
        max_violations=max_violations,
    )
    with rep.guard("splitting-error", lambda: None, "a closed universe"):
        _sweep_splitting(rep, universe(inst, bound))
    return rep


def _sweep_splitting(rep: Report, u) -> None:
    """The sites of verify_eta_identities over the universe u; raises
    IntegrityError where the instance's answers leave its homs."""
    maps, n, w, json_of = u.maps, u.n, u.bound, u.json_of
    pis, etas, _ = u.splits
    ids = u.dom_identity

    for tag in (
        "pi-of-pi", "eta-of-eta", "pi-of-eta", "eta-of-pi",
        "op-quasibijection-not-identity",
    ):
        rep.count(tag, n)
    for k in range(n):
        pi, eta, idk = pis[k], etas[k], ids[k]
        found = [
            ("pi-of-pi", pis[pi], pi),
            ("eta-of-eta", etas[eta], eta),
            ("pi-of-eta", pis[eta], idk),
            ("eta-of-pi", etas[pi], idk),
        ]
        if u.order_preserving[k] and u.quasibijective[k] and k != idk:
            found.append(("op-quasibijection-not-identity", k, idk))
        for tag, lhs, rhs in found:
            if lhs != rhs:
                rep.add(tag, {"f": json_of(k)}, json_of(lhs), json_of(rhs))

    if u.vectorised:
        table = u.table
        table.sweep_splitting_identities(rep)
        table.sweep_relative_part_cocycle(rep)
        return

    rel, composites, op = u.relative_parts, u.composites, u.order_preserving
    first, second, stride = u.pair_first, u.pair_second, n + 1
    C, R = _by_pair(stride, composites), _by_pair(stride, rel)
    for a, b in zip(first, second):
        cell = a * stride + b
        c, er = composites[cell], rel[cell]
        where = {"f": json_of(a), "g": json_of(b)}
        for tag, applies, lhs, rhs in _pair_sites(
            C, pis, etas, ids, op, a, b, c, er
        ):
            if applies:
                rep.count(tag)
                if lhs != rhs:
                    rep.add(tag, where, json_of(lhs), json_of(rhs))
        top, side = _unit_square(pis, c, er)
        q = top * stride + side
        # the universe is closed, so only a pair that does not compose
        # has composite -1
        if composites[q] < 0:
            raise IntegrityError("unit square is not composable")
        rep.count("unit-square-not-fop", maps[er].cod)
        for i in range(maps[er].cod):
            fm = u.fibre_maps[q * w + i]
            if not op[fm]:
                rep.add(
                    "unit-square-not-fop", {**where, "i": i + 1},
                    json_of(fm), "an order-preserving fibre map",
                )

    for a, b in zip(first, second):
        hs = u.out_of[maps[b].cod]
        rep.count(_COCYCLE, len(hs))
        for h in hs:
            lhs, rhs = _cocycle_sides(C, R, a, b, h)
            if lhs != rhs:
                rep.add(
                    _COCYCLE,
                    {"f": json_of(a), "g": json_of(b), "h": json_of(h)},
                    json_of(lhs), json_of(rhs),
                )
