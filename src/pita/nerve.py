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

Ids. Each instance has one open interner (_Ids), kept weakly by
instance like opcat's universes: every map the nerve meets gets a small
integer id, in the order met, composites and fibre maps that leave the
instance's homs included. The interner asks the instance once per id
pair for a composite and for whether every fibre map of sigma over g is
op, and once per id for the quasibijection test; it memoises splits,
relative op parts, inverses and identities by id too. An answer that
raises is not kept, so it raises again where it is asked again. Chains
and ladders store ids only, and compare and hash on them; their maps and
horizontals are read from the interner when asked. FinMaps come in only
at the edges: Chain.of and FopDiagram.of, chain_from_json, the lifts'
public bottom map and beta's oracle, and they go out in witness JSON.
The operators, the cells and the ladder squares work on ids, and build
their chains from them, checking only the ends that changed. The closed
opcat.Universe is not used: it gives -1 to answers outside the homs,
where a chain must still carry the stray map and fail on it as its
public constructor would.

Indexing: a chain of length n has faces 0..n-1 plus the top face, and
degeneracies 0..n. face(0) drops the top object; face(i) composes at the
i-th object from the top. In the standard numbering where vertex 0 is
the top, face(i) is the i-th face and the top face is face n.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property

from . import finskel
from .errors import IntegrityError, ShapeError
from .factorisation import _unwind, pita_general
from .finskel import FinMap, finmap_to_json
from .opcat import (
    OperadicInstance,
    Report,
    _fibrewise_op,
    is_quasibijection,
    quasibijections,
)


class _Memo(dict):
    """A dict that computes a missing value once, as compute(key); a
    compute that raises stores nothing."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _Ids:
    """The open interner of one instance (see Ids in the module
    docstring): maps, dom, cod and op (order-preserving) by id, and the
    memos by id or id pair. It holds the instance weakly, so that the
    instance and its interner go together."""

    def __init__(self, inst: OperadicInstance):
        ask = weakref.ref(inst)
        self.maps = maps = []
        self.dom: list = []
        self.cod: list = []
        self.op: list = []
        self.index: dict = {}
        self.composite = _Memo(
            lambda ab: self.id(ask().compose(maps[ab[0]], maps[ab[1]]))
        )
        self.fibrewise_op = _Memo(
            lambda sg: _fibrewise_op(maps[sg[0]], maps[sg[1]], ask())
        )
        self.quasibijective = _Memo(
            lambda k: is_quasibijection(maps[k], ask())
        )
        self.hom = _Memo(lambda XY: frozenset(map(self.id, ask().hom(*XY))))
        self.pi = _Memo(lambda k: self.id(pita_general(ask(), maps[k]).pi))
        self.eta = _Memo(lambda k: self.id(pita_general(ask(), maps[k]).eta))
        # the relative op part of a over b (factorisation.eta_rel), by its
        # closed form on ids
        self.eta_rel = _Memo(
            lambda ab: _unwind(
                self.compose, self.inverse.__getitem__,
                self.pi[self.composite[ab]], ab[0], self.pi[ab[1]],
            )
        )
        self.inverse = _Memo(lambda k: self.id(finskel.inverse(maps[k])))
        self.identity = _Memo(lambda X: self.id(finskel.identity(X)))

    def id(self, f: FinMap) -> int:
        k = self.index.get(f)
        if k is None:
            k = self.index[f] = len(self.maps)
            self.maps.append(f)
            self.dom.append(f.dom)
            self.cod.append(f.cod)
            self.op.append(finskel.is_order_preserving(f))
        return k

    def compose(self, a: int, b: int) -> int:
        return self.composite[a, b]

    def fop_square(self, s: int, t: int, f: int, g: int) -> bool:
        """opcat.is_fop_square on ids, False where that raises ShapeError:
        the square's ends must match and it must commute."""
        dom, cod = self.dom, self.cod
        ends = (dom[s], cod[s], dom[t], cod[t])
        if ends != (dom[f], dom[g], cod[f], cod[g]):
            return False
        composite = self.composite
        return composite[s, g] == composite[f, t] and self.fibrewise_op[s, g]


_IDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _ids(inst: OperadicInstance) -> _Ids:
    """The interner of inst, made on first use."""
    t = _IDS.get(inst)
    if t is None:
        t = _IDS[inst] = _Ids(inst)
    return t


def _check_ends(t: _Ids, objects, ids, start: int = 0) -> None:
    """ShapeError at the first map j >= start, of id ids[j - start], whose
    codomain is not objects[j + 1]: the check of Chain.__post_init__."""
    for j, k in enumerate(ids, start):
        if t.cod[k] != objects[j + 1]:
            raise ShapeError(f"map {j} does not end at object {j + 1}")


def _check_horizontals(source, target, hids) -> None:
    """ShapeError at the first horizontal, by id, that does not run from
    the source chain's object to the target chain's at its level."""
    t = source._t
    for j, (k, X, Y) in enumerate(zip(hids, source.objects, target.objects)):
        if t.dom[k] != X:
            raise ShapeError(f"horizontal {j} does not start on the source")
        if t.cod[k] != Y:
            raise ShapeError(f"horizontal {j} does not end on the target")


@dataclass(frozen=True)
class Chain:
    """A composable string of morphisms running down to a bottom object.

    maps = (f_n, ..., f_1) with f_k: T_k -> T_{k-1} and bottom = T_0.
    The chain stores ids, the maps' ids in the instance's interner, and
    reads maps from it when asked. The maps fix every other object:
    objects = (T_n, ..., T_0) is derived, so maps[j] runs from objects[j]
    to objects[j+1]. Equality and hashing read the instance, the ids and
    the bottom. The constructor checks the maps' ends, and Chain.of makes
    a chain of FinMaps; the operators build their chains through _chain
    and check the ends they change.
    """

    inst: OperadicInstance
    ids: tuple
    bottom: int
    objects: tuple = field(init=False, compare=False)

    def __post_init__(self):
        t = _ids(self.inst)
        ids = tuple(self.ids)
        objects = tuple(map(t.dom.__getitem__, ids)) + (self.bottom,)
        _check_ends(t, objects, ids)
        self.__dict__.update(ids=ids, objects=objects, _t=t)

    @classmethod
    def of(cls, inst: OperadicInstance, maps, bottom: int) -> Chain:
        """The chain of these maps over the bottom object."""
        return cls(inst, tuple(map(_ids(inst).id, maps)), bottom)

    @property
    def maps(self) -> tuple:
        return tuple(map(self._t.maps.__getitem__, self.ids))

    @property
    def length(self) -> int:
        return len(self.ids)

    @cached_property
    def _down(self) -> tuple:
        """Ids of the composites of the bottom 0, 1, ..., n maps."""
        t = self._t
        composite = t.composite
        acc = t.identity[self.bottom]
        out = [acc]
        for k in reversed(self.ids):
            acc = composite[k, acc]
            out.append(acc)
        return tuple(out)

    def down_composite(self, k: int) -> FinMap:
        """Composite of the bottom k maps (k=0 gives the identity)."""
        if not 0 <= k <= self.length:
            raise IndexError(f"no composite of {k} maps in a chain of {self.length}")
        return self._t.maps[self._down[k]]

    @cached_property
    def locally_op(self) -> bool:
        op = self._t.op
        return all(op[k] for k in self._down[1:])


def _chain(like: Chain, ids: tuple, bottom: int, objects: tuple) -> Chain:
    """The chain of like's instance with these map ids, bottom and
    objects, built without the constructor's checks: the caller has
    checked the ends it changed."""
    c = object.__new__(Chain)
    c.__dict__.update(
        inst=like.inst, ids=ids, bottom=bottom, objects=objects, _t=like._t
    )
    return c


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
    chain = Chain.of(inst, maps, objects[-1] if objects else None)
    if list(chain.objects) != objects:
        raise ShapeError("the chain's objects disagree with its maps")
    return chain


@dataclass(frozen=True)
class FopDiagram:
    """A ladder between two chains of the same length: horizontals
    (sigma_n, ..., sigma_0) aligned with the objects, source maps on the
    left, target maps on the right. The ladder stores hids, the
    horizontals' ids, and reads the horizontals from the interner when
    asked; FopDiagram.of makes a ladder of FinMap horizontals."""

    source: Chain
    target: Chain
    hids: tuple

    def __post_init__(self):
        hids = tuple(self.hids)
        object.__setattr__(self, "hids", hids)
        n = self.source.length
        if self.target.length != n:
            raise ShapeError("ladder endpoints have different lengths")
        if len(hids) != n + 1:
            raise ShapeError("a ladder needs one horizontal per object")
        _check_horizontals(self.source, self.target, hids)

    @classmethod
    def of(cls, source: Chain, target: Chain, horizontals) -> FopDiagram:
        """The ladder with these horizontals from source to target."""
        return cls(source, target, tuple(map(source._t.id, horizontals)))

    @property
    def horizontals(self) -> tuple:
        return tuple(map(self.source._t.maps.__getitem__, self.hids))

    @property
    def bottom(self) -> FinMap:
        return self.source._t.maps[self.hids[-1]]

    def is_valid(self) -> bool:
        """Quasibijective horizontals, commuting squares, and every
        horizontal fibrewise order-preserving with respect to the bottom
        one over the composite verticals."""
        quasibijective = self.source._t.quasibijective
        return all(
            map(quasibijective.__getitem__, self.hids)
        ) and self._squares_hold()

    def _squares_hold(self) -> bool:
        """is_valid without the quasibijection test, for ladders whose
        horizontals were drawn from quasibijections()."""
        source, target, sig = self.source, self.target, self.hids
        t = source._t
        composite = t.composite
        n = len(source.ids)
        for j in range(n):
            if composite[sig[j], target.ids[j]] != composite[
                source.ids[j], sig[j + 1]
            ]:
                return False
        for j in range(n):
            if not t.fop_square(
                sig[j], sig[-1], source._down[n - j], target._down[n - j]
            ):
                return False
        return True


def _ladder(source: Chain, target: Chain, hids: tuple) -> FopDiagram:
    """The ladder with these horizontal ids, built without the
    constructor's checks: the caller has checked its horizontals."""
    ladder = object.__new__(FopDiagram)
    ladder.__dict__.update(source=source, target=target, hids=hids)
    return ladder


def _checked_ladder(source: Chain, target_ids: tuple, hids: tuple):
    """The target chain of new map ids over the bottom horizontal, and
    the horizontals, after the checks the Chain and FopDiagram
    constructors would make, in their order."""
    t = source._t
    bottom = t.cod[hids[-1]]
    objects = tuple(map(t.dom.__getitem__, target_ids)) + (bottom,)
    _check_ends(t, objects, target_ids)
    target = _chain(source, target_ids, bottom, objects)
    _check_horizontals(source, target, hids)
    return target, hids


def identity_ladder(chain: Chain) -> FopDiagram:
    return _ladder(
        chain, chain, tuple(map(chain._t.identity.__getitem__, chain.objects))
    )


# ------------------------------------------------------------ enumeration


def _all_chains(inst: OperadicInstance, n: int, bound: int, locally_op: bool):
    objs = list(inst.objects(bound))
    level = [Chain(inst, (), X) for X in objs]
    t = _ids(inst)
    for _ in range(n):
        nxt = []
        for c in level:
            T = c.objects[0]
            full = c._down[-1]
            for X in objs:
                for k in map(t.id, inst.hom(X, T)):
                    if locally_op and not t.op[t.composite[k, full]]:
                        continue
                    nxt.append(Chain(inst, (k,) + c.ids, c.bottom))
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
    ids, objects = chain.ids, chain.objects
    n = len(ids)
    if not 0 <= i <= n - 1:
        raise IndexError(f"face {i} undefined on a chain of length {n}")
    if i == 0:
        return _chain(chain, ids[1:], chain.bottom, objects[1:])
    t = chain._t
    merged = t.composite[ids[i - 1], ids[i]]
    ids = ids[: i - 1] + (merged,) + ids[i + 1 :]
    objects = objects[: i - 1] + (t.dom[merged],) + objects[i + 1 :]
    # only the merged map and the one above it can end off their objects
    start = max(i - 2, 0)
    _check_ends(t, objects, ids[start:i], start)
    return _chain(chain, ids, chain.bottom, objects)


def top_face(chain: Chain) -> Chain:
    """Drop the bottom object and map, then reflect the remainder back
    into the locally order-preserving chains."""
    ids, objects = chain.ids, chain.objects
    if not ids:
        raise IndexError("top face needs a chain of length at least 1")
    trunc = _chain(chain, ids[:-1], objects[-2], objects[:-1])
    return _lift(trunc, chain._t.identity[objects[-2]])[0]


def degeneracy(i: int, chain: Chain) -> Chain:
    """Duplicate the i-th object from the top by inserting an identity."""
    ids, objects = chain.ids, chain.objects
    n = len(ids)
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy {i} undefined on a chain of length {n}")
    ident = chain._t.identity[objects[i]]
    return _chain(
        chain, ids[:i] + (ident,) + ids[i:], chain.bottom,
        objects[: i + 1] + objects[i:],
    )


# ------------------------------------------------------------ the lifts


def opfibration_lift(chain: Chain, sigma0: FinMap) -> FopDiagram:
    """The unique ladder out of a locally order-preserving chain with the
    given bottom quasibijection: the k-th horizontal is the
    quasibijection part of the k-th down-composite pushed through the
    bottom, and the k-th target map is the relative op part of the k-th
    source map over the pushed continuation."""
    if not chain.locally_op:
        raise ShapeError("lifts start from locally order-preserving chains")
    if sigma0.dom != chain.bottom:
        raise ShapeError("bottom map does not start at the bottom object")
    t = chain._t
    s0 = t.id(sigma0)
    if not t.quasibijective[s0]:
        raise ShapeError("bottom map must be a quasibijection")
    return _ladder(chain, *_lift(chain, s0))


def reflect_chain(chain: Chain) -> FopDiagram:
    """The unit ladder of the reflection onto locally order-preserving
    chains: the lift of the chain, which need not be locally
    order-preserving, through the identity on its bottom object. Its
    target is the reflected chain, whose k-th map is the relative op part
    of the k-th chain map over the composite below it; its k-th
    horizontal is the quasibijection part of that composite. Idempotent:
    locally order-preserving chains reflect onto themselves."""
    return _ladder(chain, *_lift(chain, chain._t.identity[chain.bottom]))


def _lift(chain: Chain, s0: int):
    """The lift loop of opfibration_lift, reflect_chain and top_face,
    without their preconditions, from the bottom horizontal with id s0:
    the target chain and the horizontals' ids. Each step pushes the
    step's map onto the composite so far: the relative op part of the map
    over that composite is the step's target map, and the quasibijection
    part of the pushed composite is the step's horizontal."""
    t = chain._t
    composite, pi, eta_rel = t.composite, t.pi, t.eta_rel
    horizontals = [s0]
    new_maps = []
    pushed = s0
    for hk in reversed(chain.ids):
        new_maps.append(eta_rel[hk, pushed])
        pushed = composite[hk, pushed]
        horizontals.append(pi[pushed])
    return _checked_ladder(
        chain, tuple(reversed(new_maps)), tuple(reversed(horizontals))
    )


def compose_ladders(first: FopDiagram, second: FopDiagram) -> FopDiagram:
    """Horizontal composite: apply the first ladder, then the second."""
    if first.target != second.source:
        raise ShapeError("ladders do not meet end to end")
    source, target = first.source, second.target
    composite = source._t.composite
    hids = tuple(map(composite.__getitem__, zip(first.hids, second.hids)))
    _check_horizontals(source, target, hids)
    return _ladder(source, target, hids)


def ladder_top_face(ladder: FopDiagram) -> FopDiagram:
    """Top face of a ladder between locally order-preserving chains: drop
    the bottom square and reflect both sides; the result is the unique
    lift of the second-from-bottom horizontal, trusted to land on the top
    face of the target (the coherence sweep compares whole ladders)."""
    source = ladder.source
    if source.length < 1:
        raise IndexError("top face needs ladders of length at least 1")
    return opfibration_lift(top_face(source), source._t.maps[ladder.hids[-2]])


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
    t = chain._t
    sigma0 = t.maps[t.pi[chain.ids[-2]]]
    source = top_face(face(n + 1, chain))
    ladder = opfibration_lift(source, sigma0)
    if mode == "oracle":
        inst = chain.inst
        if ladder.target != top_face(top_face(chain)):
            raise IntegrityError("beta ladder missed the double top face")
        objects = chain.objects
        above = _chain(chain, chain.ids[:-2], objects[-3], objects[:-2])
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
    composite = _ids(inst).composite

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
            sig = ladder.hids
            target, key = ladder.target, (rc, sig[-1])
            if target not in reflected:
                reflected[target] = reflect_chain(target)
            if key not in lifts:
                lifts[key] = opfibration_lift(rc, ladder.bottom)
            unit2, lifted = reflected[target], lifts[key]
            mismatch = lifted.target != unit2.target
            for j in range(n + 1):
                if composite[unit.hids[j], lifted.hids[j]] != composite[
                    sig[j], unit2.hids[j]
                ]:
                    mismatch = True
            if mismatch:
                bad(
                    "reflection-naturality",
                    c,
                    {"horizontals": [
                        finmap_to_json(s) for s in ladder.horizontals
                    ]},
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
    t = chain._t
    composite, pi = t.composite, t.pi
    f3, f2 = chain.ids[0], chain.ids[1]
    lhs = composite[pi[composite[f3, f2]], pi[t.eta_rel[f3, f2]]]
    pushed = composite[t.eta[f3], pi[f2]]
    rhs = composite[pi[f3], pi[pushed]]
    return t.maps[lhs], t.maps[rhs]


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
    t = chain._t
    objects = chain.objects
    homs = [t.hom[X, Y] for X, Y in zip(objects, objects[1:])]
    composite = t.composite
    drawn = [[(s, t.inverse[s]) for s in map(t.id, p)] for p in perms]
    for pairs in itertools.product(*drawn):
        maps = []
        for j, f in enumerate(chain.ids):
            g = composite[pairs[j][1], composite[f, pairs[j + 1][0]]]
            if g not in homs[j]:
                break
            maps.append(g)
        else:
            sig = tuple(s for s, _ in pairs)
            yield _ladder(chain, *_checked_ladder(chain, tuple(maps), sig))


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
