"""Chains, ladders and the top-lax simplicial structure.

A chain is a finite composable string of morphisms drawn as running down
to a bottom object; it is locally order-preserving when every composite
down to the bottom is an op morphism. Ladders (FopDiagram) are the
morphisms between chains: levelwise quasibijections, commuting squares,
and every horizontal fibrewise order-preserving with respect to the
bottom one over the composite verticals.

The face operators compose a chain at an inner object or drop the top;
the missing last face is the top face, which drops the bottom map and
reflects the remainder back into the locally order-preserving world. The
only simplicial identity that survives just up to a cell is the one
comparing the two double-top-faces; its mediating ladders (beta) are
built from the unique lift property: a locally order-preserving chain
plus a quasibijection out of its bottom object determine a unique ladder.
The lift pushes the chain's maps one by one onto that quasibijection and
splits each composite once; consecutive quasibijection parts are the
horizontals and unwind each map to its relative op part. The reflection
of an arbitrary chain runs the same lift loop over the identity on its
bottom object.
Three verifiers sweep all of this exhaustively below a bound.

Indexing: a chain of length n has faces 0..n-1 plus the top face, and
degeneracies 0..n. face(0) drops the top object; face(i) composes at the
i-th object from the top. In the standard numbering where vertex 0 is
the top, face(i) is the i-th face and the top face is face n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from . import finskel
from .errors import IntegrityError, ShapeError
from .factorisation import _unwind, eta_rel, pita_general
from .finskel import FinMap, finmap_to_json
from .opcat import (
    OperadicInstance,
    Report,
    is_fop_square,
    is_quasibijection,
    quasibijections,
)

@dataclass(frozen=True)
class Chain:
    """A composable string of morphisms running down to a bottom object.

    maps = (f_n, ..., f_1) with f_k: T_k -> T_{k-1} and bottom = T_0.
    The maps fix every other object: objects = (T_n, ..., T_0) is
    derived, so maps[j] runs from objects[j] to objects[j+1]. Equality
    and hashing read the instance, the maps and the bottom.
    """

    inst: OperadicInstance
    maps: tuple
    bottom: int
    objects: tuple = field(init=False, compare=False)

    def __post_init__(self):
        maps = tuple(self.maps)
        objects = tuple(f.dom for f in maps) + (self.bottom,)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "objects", objects)
        for j, f in enumerate(maps):
            if f.cod != objects[j + 1]:
                raise ShapeError(f"map {j} does not end at object {j + 1}")

    @property
    def length(self) -> int:
        return len(self.maps)

    @cached_property
    def _down(self):
        acc = finskel.identity(self.bottom)
        out = [acc]
        for f in reversed(self.maps):
            acc = self.inst.compose(f, acc)
            out.append(acc)
        return tuple(out)

    def down_composite(self, k: int) -> FinMap:
        """Composite of the bottom k maps (k=0 gives the identity)."""
        if not 0 <= k <= self.length:
            raise IndexError(f"no composite of {k} maps in a chain of {self.length}")
        return self._down[k]

    @cached_property
    def locally_op(self) -> bool:
        return all(map(finskel.is_order_preserving, self._down[1:]))


def chain_to_json(chain: Chain) -> dict:
    return {
        "objects": [int(X) for X in chain.objects],
        "maps": [finmap_to_json(f) for f in chain.maps],
    }


def chain_from_json(inst: OperadicInstance, data: dict) -> Chain:
    """The chain of a chain_to_json document, whose objects must be the
    ones its maps fix."""
    objects = list(data["objects"])
    maps = tuple(map(finskel.finmap_from_json, data["maps"]))
    chain = Chain(inst, maps, objects[-1] if objects else None)
    if list(chain.objects) != objects:
        raise ShapeError("the chain's objects disagree with its maps")
    return chain


@dataclass(frozen=True)
class FopDiagram:
    """A ladder between two chains of the same length: horizontals
    (sigma_n, ..., sigma_0) aligned with the objects, source maps on the
    left, target maps on the right."""

    source: Chain
    target: Chain
    horizontals: tuple

    def __post_init__(self):
        object.__setattr__(self, "horizontals", tuple(self.horizontals))
        n = self.source.length
        if self.target.length != n:
            raise ShapeError("ladder endpoints have different lengths")
        if len(self.horizontals) != n + 1:
            raise ShapeError("a ladder needs one horizontal per object")
        for j, s in enumerate(self.horizontals):
            if s.dom != self.source.objects[j]:
                raise ShapeError(f"horizontal {j} does not start on the source")
            if s.cod != self.target.objects[j]:
                raise ShapeError(f"horizontal {j} does not end on the target")

    @property
    def bottom(self) -> FinMap:
        return self.horizontals[-1]

    def is_valid(self) -> bool:
        """Quasibijective horizontals, commuting squares, and every
        horizontal fibrewise order-preserving with respect to the bottom
        one over the composite verticals."""
        inst = self.source.inst
        return (
            all(is_quasibijection(s, inst) for s in self.horizontals)
            and self._squares_hold()
        )

    def _squares_hold(self) -> bool:
        """is_valid without the quasibijection test, for ladders whose
        horizontals were drawn from quasibijections()."""
        inst = self.source.inst
        n = self.source.length
        sig = self.horizontals
        for j in range(n):
            if inst.compose(sig[j], self.target.maps[j]) != inst.compose(
                self.source.maps[j], sig[j + 1]
            ):
                return False
        for j in range(n):
            try:
                if not is_fop_square(
                    sig[j],
                    sig[-1],
                    self.source.down_composite(n - j),
                    self.target.down_composite(n - j),
                    inst,
                ):
                    return False
            except ShapeError:
                return False
        return True


def identity_ladder(chain: Chain) -> FopDiagram:
    return FopDiagram(
        chain, chain, tuple(map(finskel.identity, chain.objects))
    )


# ------------------------------------------------------------ enumeration


def _all_chains(inst: OperadicInstance, n: int, bound: int, locally_op: bool):
    objs = list(inst.objects(bound))
    level = [Chain(inst, (), X) for X in objs]
    for _ in range(n):
        nxt = []
        for c in level:
            T = c.objects[0]
            full = c.down_composite(c.length)
            for X in objs:
                for f in inst.hom(X, T):
                    if locally_op and not finskel.is_order_preserving(
                        inst.compose(f, full)
                    ):
                        continue
                    nxt.append(Chain(inst, (f,) + c.maps, c.bottom))
        level = nxt
    return level


def enumerate_p(inst: OperadicInstance, n: int, bound: int):
    """All locally order-preserving n-chains with objects below the
    bound, exhaustively and deterministically."""
    if n < 0 or bound < 1:
        raise ShapeError("need n >= 0 and bound >= 1")
    yield from _all_chains(inst, n, bound, locally_op=True)


# ------------------------------------------------- simplicial operators


def face(i: int, chain: Chain) -> Chain:
    """Drop the top object (i=0) or compose at the i-th object from the
    top (1 <= i <= n-1). The missing last face is top_face."""
    n = chain.length
    if not 0 <= i <= n - 1:
        raise IndexError(f"face {i} undefined on a chain of length {n}")
    if i == 0:
        return Chain(chain.inst, chain.maps[1:], chain.bottom)
    merged = chain.inst.compose(chain.maps[i - 1], chain.maps[i])
    maps = chain.maps[: i - 1] + (merged,) + chain.maps[i + 1 :]
    return Chain(chain.inst, maps, chain.bottom)


def top_face(chain: Chain) -> Chain:
    """Drop the bottom object and map, then reflect the remainder back
    into the locally order-preserving chains."""
    n = chain.length
    if n < 1:
        raise IndexError("top face needs a chain of length at least 1")
    trunc = Chain(chain.inst, chain.maps[:-1], chain.objects[-2])
    return reflect_chain(trunc).target


def degeneracy(i: int, chain: Chain) -> Chain:
    """Duplicate the i-th object from the top by inserting an identity."""
    n = chain.length
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy {i} undefined on a chain of length {n}")
    ident = finskel.identity(chain.objects[i])
    return Chain(
        chain.inst, chain.maps[:i] + (ident,) + chain.maps[i:], chain.bottom
    )


# ------------------------------------------------------------ the lifts


def opfibration_lift(chain: Chain, sigma0: FinMap) -> FopDiagram:
    """The unique ladder out of a locally order-preserving chain with the
    given bottom quasibijection: the k-th horizontal is the
    quasibijection part of the k-th down-composite pushed through the
    bottom, and the k-th target map is the relative op part of the k-th
    source map over the pushed continuation."""
    inst = chain.inst
    if not chain.locally_op:
        raise ShapeError("lifts start from locally order-preserving chains")
    if sigma0.dom != chain.bottom:
        raise ShapeError("bottom map does not start at the bottom object")
    if not is_quasibijection(sigma0, inst):
        raise ShapeError("bottom map must be a quasibijection")
    return _lift(chain, sigma0)


def reflect_chain(chain: Chain) -> FopDiagram:
    """The unit ladder of the reflection onto locally order-preserving
    chains: the lift of the chain, which need not be locally
    order-preserving, through the identity on its bottom object. Its
    target is the reflected chain, whose k-th map is the relative op part
    of the k-th chain map over the composite below it; its k-th
    horizontal is the quasibijection part of that composite. Idempotent:
    locally order-preserving chains reflect onto themselves."""
    return _lift(chain, finskel.identity(chain.bottom))


def _lift(chain: Chain, sigma0: FinMap) -> FopDiagram:
    """The lift loop of opfibration_lift and reflect_chain, without their
    preconditions. Each step splits the pushed composite once: its
    quasibijection part is the step's horizontal and, with the previous
    step's, unwinds the step's map to its relative op part (the first
    step unwinds against the quasibijection part of sigma0)."""
    inst = chain.inst
    horizontals = [sigma0]
    new_maps = []
    pushed = sigma0
    below = pita_general(inst, sigma0).pi
    for hk in reversed(chain.maps):
        pushed = inst.compose(hk, pushed)
        above = pita_general(inst, pushed).pi
        new_maps.append(_unwind(inst, above, hk, below))
        horizontals.append(above)
        below = above
    target = Chain(inst, tuple(reversed(new_maps)), sigma0.cod)
    return FopDiagram(chain, target, tuple(reversed(horizontals)))


def compose_ladders(first: FopDiagram, second: FopDiagram) -> FopDiagram:
    """Horizontal composite: apply the first ladder, then the second."""
    if first.target != second.source:
        raise ShapeError("ladders do not meet end to end")
    inst = first.source.inst
    return FopDiagram(
        first.source,
        second.target,
        tuple(
            inst.compose(a, b)
            for a, b in zip(first.horizontals, second.horizontals)
        ),
    )


def ladder_top_face(ladder: FopDiagram) -> FopDiagram:
    """Top face of a ladder between locally order-preserving chains: drop
    the bottom square and reflect both sides; the result is the unique
    lift of the second-from-bottom horizontal, trusted to land on the top
    face of the target (the coherence sweep compares whole ladders)."""
    if ladder.source.length < 1:
        raise IndexError("top face needs ladders of length at least 1")
    return opfibration_lift(top_face(ladder.source), ladder.horizontals[-2])


def beta(n: int, chain: Chain, mode: str = "production") -> FopDiagram:
    """The mediating cell at a chain of length n+2: the unique ladder with
    bottom the quasibijection part of the second-from-bottom map, from
    the top face of the last inner face to the double top face.
    Production trusts the lift. Oracle mode checks that the ladder lands
    on the double top face, recomputes every horizontal from the direct
    pattern (the quasibijection part of each op down-composite pushed
    through the bottom) and insists they agree."""
    if chain.length != n + 2:
        raise ShapeError(f"beta {n} lives on chains of length {n + 2}")
    if not chain.locally_op:
        raise ShapeError("beta lives on locally order-preserving chains")
    inst = chain.inst
    sigma0 = pita_general(inst, chain.maps[-2]).pi
    source = top_face(face(n + 1, chain))
    ladder = opfibration_lift(source, sigma0)
    if mode == "oracle":
        if ladder.target != top_face(top_face(chain)):
            raise IntegrityError("beta ladder missed the double top face")
        above = Chain(inst, chain.maps[:-2], chain.objects[-3])
        for k in range(n + 1):
            pushed = inst.compose(
                pita_general(inst, above.down_composite(k)).eta, sigma0
            )
            direct = pita_general(inst, pushed).pi
            if ladder.horizontals[n - k] != direct:
                raise IntegrityError(
                    f"beta horizontal {k} differs from the direct pattern"
                )
    elif mode != "production":
        raise ShapeError(f"unknown mode {mode!r}")
    return ladder


# ------------------------------------------------------------- verifiers


def verify_strict_identities(
    inst: OperadicInstance, bound: int, maxlen: int, max_violations: int = 50
) -> Report:
    """Exhaustively check, on all locally order-preserving chains up to
    maxlen below the bound, every simplicial identity except the
    double-top-face one: face-face, face-degeneracy,
    degeneracy-degeneracy, the three families mixing the top face with
    faces and degeneracies, the locally order-preserving postcondition of
    the top face, and naturality and idempotence of the reflection on
    arbitrary chains (lengths 1 and 2). A chain whose operators raise on
    a broken instance is a strict-identities-error witness."""
    rep = Report(
        f"strict-identities[{inst.name}, bound={bound}, maxlen={maxlen}]",
        max_violations=max_violations,
    )

    def bad(tag, chain, extra=None):
        witness = {"chain": chain_to_json(chain)}
        if extra:
            witness.update(extra)
        rep.add(tag, witness, "differs", "equal chains")

    def simplicial(n, c):
        rep.count("top-face-not-locally-op")
        top = top_face(c)
        if not top.locally_op:
            bad("top-face-not-locally-op", c)
        for j in range(n):
            for i in range(j):
                rep.count("face-face")
                if face(i, face(j, c)) != face(j - 1, face(i, c)):
                    bad("face-face", c, {"i": i, "j": j})
        for i in range(n - 1):
            rep.count("face-top-face")
            if face(i, top) != top_face(face(i, c)):
                bad("face-top-face", c, {"i": i})
        for j in range(n + 1):
            d = degeneracy(j, c)
            for i in range(n + 1):
                rep.count("face-degeneracy")
                got = face(i, d)
                if i in (j, j + 1):
                    expect = c
                elif i < j:
                    expect = degeneracy(j - 1, face(i, c))
                else:
                    expect = degeneracy(j, face(i - 1, c))
                if got != expect:
                    bad("face-degeneracy", c, {"i": i, "j": j})
            tag = (
                "top-face-bottom-degeneracy"
                if j == n
                else "degeneracy-top-face"
            )
            rep.count(tag)
            expect = c if j == n else degeneracy(j, top)
            if top_face(d) != expect:
                bad(tag, c, {"j": j})
            for i in range(j + 1):
                rep.count("degeneracy-degeneracy")
                if degeneracy(i, d) != degeneracy(j + 1, degeneracy(i, c)):
                    bad("degeneracy-degeneracy", c, {"i": i, "j": j})

    # reflection on arbitrary chains: idempotence, the unit ladder, and
    # naturality along every conjugating ladder of quasibijections. The
    # ladders of a sweep share few targets and bottom lifts, so each is
    # computed once: reflected by target chain, lifts by (rc, sigma0).
    reflected = {}
    lifts = {}

    def reflection(n, c):
        rep.count("reflection-not-locally-op")
        unit = reflect_chain(c)
        rc = unit.target
        if not rc.locally_op:
            bad("reflection-not-locally-op", c)
        if reflect_chain(rc).target != rc:
            bad("reflection-idempotent", c)
        if unit.source != c or not unit.is_valid():
            bad("reflection-unit-invalid", c)
        perms = [quasibijections(inst, X, X) for X in c.objects]
        for ladder in _conjugate_ladders(c, perms):
            # the horizontals come from quasibijections(): only the
            # squares are left to decide
            if not ladder._squares_hold():
                continue
            rep.count("reflection-naturality")
            sig = ladder.horizontals
            target, key = ladder.target, (rc, sig[-1])
            if target not in reflected:
                reflected[target] = reflect_chain(target)
            if key not in lifts:
                lifts[key] = opfibration_lift(*key)
            unit2, lifted = reflected[target], lifts[key]
            mismatch = lifted.target != unit2.target
            for j in range(n + 1):
                if inst.compose(
                    unit.horizontals[j], lifted.horizontals[j]
                ) != inst.compose(sig[j], unit2.horizontals[j]):
                    mismatch = True
            if mismatch:
                bad(
                    "reflection-naturality",
                    c,
                    {"horizontals": [finmap_to_json(s) for s in sig]},
                )

    def guard(c):
        # a broken instance can make the chain operators raise; that is
        # a witness against the instance, and the sweep runs on
        return rep.guard(
            "strict-identities-error", {"chain": chain_to_json(c)},
            "equal chains",
        )

    for n in range(1, maxlen + 1):
        for c in enumerate_p(inst, n, bound):
            with guard(c):
                simplicial(n, c)
    for n in range(1, min(maxlen, 2) + 1):
        for c in _all_chains(inst, n, bound, locally_op=False):
            with guard(c):
                reflection(n, c)
    return rep


def verify_beta_coherence(
    inst: OperadicInstance,
    bound: int,
    maxlen: int = 4,
    max_violations: int = 50,
) -> Report:
    """Check the mediating cells below the bound, level by level, for
    m = 0 .. max(maxlen, 3) - 3: agreement of the lift construction of
    beta m with the direct horizontal pattern on (m+2)-chains, the ladder
    form of the coherence-m equation on (m+3)-chains, and triviality of
    beta m at bottom-degenerate (m+1)-chains. Level 0 always runs, and
    also checks the direct scalar form of its equation, inside the same
    coherence-0-error guard as the ladder form."""
    rep = Report(
        f"beta-coherence[{inst.name}, bound={bound}]",
        max_violations=max_violations,
    )

    def w(chain):
        return {"chain": chain_to_json(chain)}

    for m in range(max(maxlen, 3) - 2):
        for c in enumerate_p(inst, m + 2, bound):
            rep.count(f"beta-{m}-construction")
            with rep.guard(f"beta-{m}-construction", w(c), "agreement"):
                beta(m, c, mode="oracle")

        for c in enumerate_p(inst, m + 3, bound):
            if m == 0:
                rep.count("coherence-0-direct")
            rep.count(f"coherence-{m}")
            with rep.guard(f"coherence-{m}-error", w(c), "composable cells"):
                if m == 0:
                    direct_l, direct_r = _scalar_coherence_0(c)
                    if direct_l != direct_r:
                        rep.add(
                            "coherence-0-direct", w(c),
                            finmap_to_json(direct_l),
                            finmap_to_json(direct_r),
                        )
                lhs = compose_ladders(
                    beta(m, face(m + 1, c)), beta(m, top_face(c))
                )
                rhs = compose_ladders(
                    beta(m, face(m + 2, c)), ladder_top_face(beta(m + 1, c))
                )
                if lhs != rhs:
                    rep.add(f"coherence-{m}", w(c), "differs", "equal ladders")
                elif m == 0 and lhs.horizontals[0] != direct_l:
                    rep.add(
                        "coherence-0-cross", w(c),
                        finmap_to_json(lhs.horizontals[0]),
                        finmap_to_json(direct_l),
                    )

        for c in enumerate_p(inst, m + 1, bound):
            rep.count("beta-at-bottom-degeneracy")
            trivial = "the identity ladder"
            with rep.guard("beta-at-bottom-degeneracy", w(c), trivial):
                cell = beta(m, degeneracy(m + 1, c))
                if cell != identity_ladder(cell.source):
                    rep.add(
                        "beta-at-bottom-degeneracy", w(c),
                        "a nontrivial ladder", trivial,
                    )
    return rep


def _scalar_coherence_0(chain: Chain):
    """Both sides of the coherence-0 equation at a 3-chain (f3, f2, f1),
    written directly in splits rather than through ladders."""
    inst = chain.inst
    f3, f2 = chain.maps[0], chain.maps[1]
    lhs = inst.compose(
        pita_general(inst, inst.compose(f3, f2)).pi,
        pita_general(inst, eta_rel(inst, f3, f2)).pi,
    )
    s3 = pita_general(inst, f3)
    pushed = inst.compose(s3.eta, pita_general(inst, f2).pi)
    rhs = inst.compose(s3.pi, pita_general(inst, pushed).pi)
    return lhs, rhs


def verify_opfibration(
    inst: OperadicInstance, n: int, bound: int, max_violations: int = 50
) -> Report:
    """For every locally order-preserving n-chain and every
    quasibijection out of its bottom object: the constructed lift is a
    valid ladder into a locally order-preserving chain, and brute-force
    enumeration of all candidate ladders over that quasibijection finds
    exactly the constructed one. A lift that raises on a broken instance
    is an opfibration-lift-error witness. The identity is always a
    quasibijection, so an instance that leaves it out is asked to lift
    it first and fails there, rather than leave a chain unchecked."""
    rep = Report(
        f"opfibration[{inst.name}, n={n}, bound={bound}]",
        max_violations=max_violations,
    )
    for chain in enumerate_p(inst, n, bound):
        bottoms = quasibijections(inst, chain.bottom, chain.bottom)
        one = finskel.identity(chain.bottom)
        if one not in bottoms:
            bottoms.insert(0, one)
        for sigma0 in bottoms:
            rep.count("opfibration-lift-invalid")
            witness = {
                "chain": chain_to_json(chain), "sigma0": finmap_to_json(sigma0),
            }
            with rep.guard(
                "opfibration-lift-error", witness, "a valid ladder"
            ):
                # all three are made before any add, so a lift that is
                # invalid and whose candidates raise reports only the error
                lift = opfibration_lift(chain, sigma0)
                valid = lift.is_valid() and lift.target.locally_op
                found = _lift_candidates(chain, sigma0)
                if not valid:
                    rep.add(
                        "opfibration-lift-invalid", witness,
                        "an invalid ladder", "a valid ladder",
                    )
                if len(found) != 1:
                    rep.add("opfibration-lift-count", witness, len(found), 1)
                elif found[0] != lift:
                    rep.add(
                        "opfibration-lift-mismatch", witness,
                        "a different ladder", "the constructed lift",
                    )
    return rep


def _conjugate_ladders(chain: Chain, perms):
    """Every ladder out of the chain whose horizontals are drawn from
    perms, one list per object: each map of the target chain is the
    conjugate of the source map by the two horizontals at its ends.
    Tuples with a conjugate outside the instance's homs are skipped;
    validity of the ladder is left to the caller."""
    inst = chain.inst
    objects = chain.objects
    homs = [frozenset(inst.hom(X, Y)) for X, Y in zip(objects, objects[1:])]
    drawn = [[(s, finskel.inverse(s)) for s in p] for p in perms]
    for pairs in itertools.product(*drawn):
        maps = []
        for j, f in enumerate(chain.maps):
            g = inst.compose(pairs[j][1], inst.compose(f, pairs[j + 1][0]))
            if g not in homs[j]:
                break
            maps.append(g)
        else:
            sig = tuple(s for s, _ in pairs)
            yield FopDiagram(chain, Chain(inst, tuple(maps), sig[-1].cod), sig)


def _lift_candidates(chain: Chain, sigma0: FinMap):
    """All valid ladders out of the chain with the given bottom, by brute
    force over quasibijection tuples."""
    inst = chain.inst
    perms = [quasibijections(inst, X, X) for X in chain.objects[:-1]]
    return [
        ladder
        for ladder in _conjugate_ladders(chain, perms + [[sigma0]])
        if ladder.target.locally_op and ladder.is_valid()
    ]
