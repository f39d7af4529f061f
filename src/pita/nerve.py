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
relative op parts, inverses and identities by id too, and each object's
quasibijections. An answer that
raises is not kept, so it raises again where it is asked again. Chains
and ladders store ids only, and compare and hash on them; their maps and
horizontals are read from the interner when asked. FinMaps come in only
at the edges: Chain.of and FopDiagram.of, chain_from_json, the lifts'
public bottom map and beta's oracle, and they go out in witness JSON.
The operators, the cells and the ladder squares work on ids, checking
only the ends that changed. Each of face, degeneracy and top_face has
one implementation, over (interner, ids, objects) and returning (ids,
objects); the public operator wraps it on Chains, and the
strict-identities sweep runs on those pairs without building a Chain,
comparing them as tuples. That sweep keeps the top faces of one level
while it runs the next, where they come back as the top faces of faces;
it keeps no more, since face and degeneracy tables over every level
took 1.1 GB of peak RSS at op bound 3, against 44 MB. The closed
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
from functools import cached_property, partial

from . import finskel
from .errors import IntegrityError, ShapeError
from .factorisation import _unwind, pita_general
from .finskel import FinMap, finmap_to_json
from .opcat import (
    OperadicInstance,
    Report,
    _fibrewise_op,
    is_quasibijection,
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
        # the quasibijections of X to itself, in hom order
        self.quasibijections = _Memo(
            lambda X: tuple(
                k for k in map(self.id, ask().hom(X, X))
                if self.quasibijective[k]
            )
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


def _check_horizontals(t: _Ids, source, target, hids) -> None:
    """ShapeError at the first horizontal, by id, that does not run from
    the source chain's object to the target chain's at its level; source
    and target are the two chains' objects."""
    for j, (k, X, Y) in enumerate(zip(hids, source, target)):
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
        return _down_composites(self._t, self.ids, self.objects)

    def down_composite(self, k: int) -> FinMap:
        """Composite of the bottom k maps (k=0 gives the identity)."""
        if not 0 <= k <= self.length:
            raise IndexError(f"no composite of {k} maps in a chain of {self.length}")
        return self._t.maps[self._down[k]]

    @cached_property
    def locally_op(self) -> bool:
        return _locally_op(self._t, self._down)


def _down_composites(t: _Ids, ids: tuple, objects: tuple) -> tuple:
    """Ids of the composites of the bottom 0, 1, ..., n maps of the chain
    with these map ids and objects."""
    composite = t.composite
    acc = t.identity[objects[-1]]
    out = [acc]
    for k in reversed(ids):
        acc = composite[k, acc]
        out.append(acc)
    return tuple(out)


def _locally_op(t: _Ids, down: tuple) -> bool:
    """Whether every composite down to the bottom, by the ids of
    _down_composites, is an op morphism."""
    op = t.op
    return all(op[k] for k in down[1:])


def _chain(like: Chain, ids: tuple, objects: tuple) -> Chain:
    """The chain of like's instance with these map ids and objects, the
    last one its bottom, built without the constructor's checks: the
    caller has checked the ends it changed."""
    c = object.__new__(Chain)
    c.__dict__.update(
        inst=like.inst, ids=ids, bottom=objects[-1], objects=objects,
        _t=like._t,
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
        _check_horizontals(
            self.source._t, self.source.objects, self.target.objects, hids
        )

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
        source, target = self.source, self.target
        return _is_valid(
            source._t, source.ids, source._down, target.ids, target.objects,
            self.hids,
        )


def _is_valid(t: _Ids, ids, down, target_ids, target_objects, hids) -> bool:
    """FopDiagram.is_valid on ids: the source chain's map ids and down
    composites, the target chain's map ids and objects, and the
    horizontals."""
    quasibijective = t.quasibijective
    return all(map(quasibijective.__getitem__, hids)) and _squares_hold(
        t, ids, down, target_ids, target_objects, hids
    )


def _squares_hold(t: _Ids, ids, down, target_ids, target_objects, hids):
    """_is_valid without the quasibijection test, for ladders whose
    horizontals were drawn from _Ids.quasibijections."""
    composite = t.composite
    n = len(ids)
    for j in range(n):
        if composite[hids[j], target_ids[j]] != composite[ids[j], hids[j + 1]]:
            return False
    target_down = _down_composites(t, target_ids, target_objects)
    for j in range(n):
        if not t.fop_square(hids[j], hids[-1], down[n - j], target_down[n - j]):
            return False
    return True


def _ladder(source: Chain, target: Chain, hids: tuple) -> FopDiagram:
    """The ladder with these horizontal ids, built without the
    constructor's checks: the caller has checked its horizontals."""
    ladder = object.__new__(FopDiagram)
    ladder.__dict__.update(source=source, target=target, hids=hids)
    return ladder


def _ladder_to(source: Chain, target_ids, target_objects, hids) -> FopDiagram:
    """_ladder onto the target chain of these map ids and objects, as
    _checked_target returns them."""
    return _ladder(source, _chain(source, target_ids, target_objects), hids)


def _checked_target(t: _Ids, objects, target_ids: tuple, hids: tuple):
    """The target chain's map ids and objects, new map ids over the
    bottom horizontal, and the horizontals' ids, after the checks the
    Chain and FopDiagram constructors would make, in their order, against
    the source chain's objects."""
    target = tuple(map(t.dom.__getitem__, target_ids)) + (t.cod[hids[-1]],)
    _check_ends(t, target, target_ids)
    _check_horizontals(t, objects, target, hids)
    return target_ids, target, hids


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


def _face(t: _Ids, i: int, ids: tuple, objects: tuple):
    n = len(ids)
    if not 0 <= i <= n - 1:
        raise IndexError(f"face {i} undefined on a chain of length {n}")
    if i == 0:
        return ids[1:], objects[1:]
    merged = t.composite[ids[i - 1], ids[i]]
    ids = ids[: i - 1] + (merged,) + ids[i + 1 :]
    objects = objects[: i - 1] + (t.dom[merged],) + objects[i + 1 :]
    # only the merged map and the one above it can end off their objects
    start = max(i - 2, 0)
    _check_ends(t, objects, ids[start:i], start)
    return ids, objects


def _top_face(t: _Ids, ids: tuple, objects: tuple):
    if not ids:
        raise IndexError("top face needs a chain of length at least 1")
    return _lift(t, ids[:-1], objects[:-1], t.identity[objects[-2]])[:2]


def _degeneracy(t: _Ids, i: int, ids: tuple, objects: tuple):
    n = len(ids)
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy {i} undefined on a chain of length {n}")
    ident = t.identity[objects[i]]
    return ids[:i] + (ident,) + ids[i:], objects[: i + 1] + objects[i:]


def face(i: int, chain: Chain) -> Chain:
    """Drop the top object (i=0) or compose at the i-th object from the
    top (1 <= i <= n-1). The missing last face is top_face."""
    return _chain(chain, *_face(chain._t, i, chain.ids, chain.objects))


def top_face(chain: Chain) -> Chain:
    """Drop the bottom object and map, then reflect the remainder back
    into the locally order-preserving chains."""
    return _chain(chain, *_top_face(chain._t, chain.ids, chain.objects))


def degeneracy(i: int, chain: Chain) -> Chain:
    """Duplicate the i-th object from the top by inserting an identity."""
    return _chain(chain, *_degeneracy(chain._t, i, chain.ids, chain.objects))


# ------------------------------------------------------------ the lifts


def opfibration_lift(chain: Chain, sigma0: FinMap) -> FopDiagram:
    """The unique ladder out of a locally order-preserving chain with the
    given bottom quasibijection: the k-th horizontal is the
    quasibijection part of the k-th down-composite pushed through the
    bottom, and the k-th target map is the relative op part of the k-th
    source map over the pushed continuation."""
    t = chain._t
    return _ladder_to(
        chain, *_opfibration_lift(t, chain.ids, chain.objects, t.id(sigma0))
    )


def _opfibration_lift(t: _Ids, ids: tuple, objects: tuple, s0: int):
    """opfibration_lift on ids, from the bottom horizontal with id s0:
    the target chain's map ids and objects and the horizontals' ids."""
    if not _locally_op(t, _down_composites(t, ids, objects)):
        raise ShapeError("lifts start from locally order-preserving chains")
    if t.dom[s0] != objects[-1]:
        raise ShapeError("bottom map does not start at the bottom object")
    if not t.quasibijective[s0]:
        raise ShapeError("bottom map must be a quasibijection")
    return _lift(t, ids, objects, s0)


def reflect_chain(chain: Chain) -> FopDiagram:
    """The unit ladder of the reflection onto locally order-preserving
    chains: the lift of the chain, which need not be locally
    order-preserving, through the identity on its bottom object. Its
    target is the reflected chain, whose k-th map is the relative op part
    of the k-th chain map over the composite below it; its k-th
    horizontal is the quasibijection part of that composite. Idempotent:
    locally order-preserving chains reflect onto themselves."""
    t = chain._t
    return _ladder_to(
        chain, *_lift(t, chain.ids, chain.objects, t.identity[chain.bottom])
    )


def _lift(t: _Ids, ids: tuple, objects: tuple, s0: int):
    """The lift loop of opfibration_lift, reflect_chain and top_face,
    without their preconditions, from the bottom horizontal with id s0
    on the chain with these map ids and objects: the target chain's map
    ids and objects and the horizontals' ids. Each step pushes the step's
    map onto the composite so far: the relative op part of the map over
    that composite is the step's target map, and the quasibijection part
    of the pushed composite is the step's horizontal."""
    composite, pi, eta_rel = t.composite, t.pi, t.eta_rel
    horizontals = [s0]
    new_maps = []
    pushed = s0
    for hk in reversed(ids):
        new_maps.append(eta_rel[hk, pushed])
        pushed = composite[hk, pushed]
        horizontals.append(pi[pushed])
    return _checked_target(
        t, objects, tuple(reversed(new_maps)), tuple(reversed(horizontals))
    )


def compose_ladders(first: FopDiagram, second: FopDiagram) -> FopDiagram:
    """Horizontal composite: apply the first ladder, then the second."""
    if first.target != second.source:
        raise ShapeError("ladders do not meet end to end")
    source, target = first.source, second.target
    composite = source._t.composite
    hids = tuple(map(composite.__getitem__, zip(first.hids, second.hids)))
    _check_horizontals(source._t, source.objects, target.objects, hids)
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
        above = _chain(chain, chain.ids[:-2], objects[:-2])
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

    # the sweep runs on (ids, objects) pairs, which within one instance
    # are equal exactly when their chains are. The faces of a level-n
    # chain are chains of level n - 1, whose top faces were computed
    # there: tops keeps them by (ids, bottom) for one level only, and
    # tops_below is the level below's
    t = _ids(inst)
    tops_below = tops = {}

    def top_of_face(x):
        key = x[0], x[1][-1]
        top = tops_below.get(key)
        if top is None:
            top = tops_below[key] = _top_face(t, *x)
        return top

    def simplicial(n, c, keep):
        x = c.ids, c.objects
        rep.count("top-face-not-locally-op")
        top = _top_face(t, *x)
        if keep:
            tops[x[0], c.bottom] = top
        if not _locally_op(t, _down_composites(t, *top)):
            bad("top-face-not-locally-op", c)
        # each face of c is computed where the sweep first uses it, so
        # that a face that raises does so after the same checks counted
        faces = _Memo(lambda i: _face(t, i, *x))
        for j in range(n):
            for i in range(j):
                rep.count("face-face")
                if _face(t, i, *faces[j]) != _face(t, j - 1, *faces[i]):
                    bad("face-face", c, {"i": i, "j": j})
        for i in range(n - 1):
            rep.count("face-top-face")
            if _face(t, i, *top) != top_of_face(faces[i]):
                bad("face-top-face", c, {"i": i})
        for j in range(n + 1):
            d = _degeneracy(t, j, *x)
            for i in range(n + 1):
                rep.count("face-degeneracy")
                got = _face(t, i, *d)
                if i in (j, j + 1):
                    expect = x
                elif i < j:
                    expect = _degeneracy(t, j - 1, *faces[i])
                else:
                    expect = _degeneracy(t, j, *faces[i - 1])
                if got != expect:
                    bad("face-degeneracy", c, {"i": i, "j": j})
            tag = (
                "top-face-bottom-degeneracy"
                if j == n
                else "degeneracy-top-face"
            )
            rep.count(tag)
            expect = x if j == n else _degeneracy(t, j, *top)
            if _top_face(t, *d) != expect:
                bad(tag, c, {"j": j})
            for i in range(j + 1):
                rep.count("degeneracy-degeneracy")
                if _degeneracy(t, i, *d) != _degeneracy(
                    t, j + 1, *_degeneracy(t, i, *x)
                ):
                    bad("degeneracy-degeneracy", c, {"i": i, "j": j})

    # reflection on arbitrary chains: idempotence, the unit ladder, and
    # naturality along every conjugating ladder of quasibijections. The
    # ladders of a sweep share few targets and bottom lifts, so each is
    # computed once: reflected by target chain and lifts by (reflected
    # chain, bottom). Every chain here reflects through the identity on
    # c's bottom, which the ladders out of c share.
    reflected = {}
    lifts = {}
    composite = t.composite

    def reflection(n, c):
        ids, objects = c.ids, c.objects
        one = t.identity[c.bottom]
        rep.count("reflection-not-locally-op")
        rids, robjects, unit = _lift(t, ids, objects, one)
        if not _locally_op(t, _down_composites(t, rids, robjects)):
            bad("reflection-not-locally-op", c)
        if _lift(t, rids, robjects, one)[:2] != (rids, robjects):
            bad("reflection-idempotent", c)
        down = c._down
        if not _is_valid(t, ids, down, rids, robjects, unit):
            bad("reflection-unit-invalid", c)
        perms = [t.quasibijections[X] for X in objects]
        for tids, tobjects, sig in _conjugate_ladders(t, ids, objects, perms):
            # the horizontals are quasibijections: only the squares are
            # left to decide
            if not _squares_hold(t, ids, down, tids, tobjects, sig):
                continue
            rep.count("reflection-naturality")
            target, key = (tids, tobjects[-1]), (rids, robjects[-1], sig[-1])
            if target not in reflected:
                reflected[target] = _lift(t, tids, tobjects, one)
            if key not in lifts:
                lifts[key] = _opfibration_lift(t, rids, robjects, sig[-1])
            unit2, lifted = reflected[target], lifts[key]
            mismatch = lifted[:2] != unit2[:2]
            for j in range(n + 1):
                if composite[unit[j], lifted[2][j]] != composite[
                    sig[j], unit2[2][j]
                ]:
                    mismatch = True
            if mismatch:
                bad(
                    "reflection-naturality",
                    c,
                    {"horizontals": [
                        finmap_to_json(t.maps[s]) for s in sig
                    ]},
                )

    def guard(c):
        # a broken instance can make the chain operators raise; that is
        # a witness against the instance, and the sweep runs on
        return rep.guard(
            "strict-identities-error", lambda: {"chain": chain_to_json(c)},
            "equal chains",
        )

    for n in range(1, maxlen + 1):
        tops_below, tops = tops, {}
        for c in enumerate_p(inst, n, bound):
            with guard(c):
                simplicial(n, c, n < maxlen)
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
    levels = max(maxlen, 3) - 2
    # the next level's equations ask again for the production cells
    # below the top level, so this call keeps them; each top-level cell,
    # beta(levels, .), is asked for once, and a cell that raises is not
    # kept
    kept = {}

    def cell(m, chain):
        if m == levels:
            return beta(m, chain)
        key = m, chain.ids, chain.bottom
        ladder = kept.get(key)
        if ladder is None:
            ladder = kept[key] = beta(m, chain)
        return ladder

    def w(chain):
        return {"chain": chain_to_json(chain)}

    for m in range(levels):
        for c in enumerate_p(inst, m + 2, bound):
            rep.count(f"beta-{m}-construction")
            witness = partial(w, c)
            with rep.guard(f"beta-{m}-construction", witness, "agreement"):
                beta(m, c, mode="oracle")

        for c in enumerate_p(inst, m + 3, bound):
            if m == 0:
                rep.count("coherence-0-direct")
            rep.count(f"coherence-{m}")
            with rep.guard(
                f"coherence-{m}-error", partial(w, c), "composable cells"
            ):
                if m == 0:
                    direct_l, direct_r = _scalar_coherence_0(c)
                    if direct_l != direct_r:
                        rep.add(
                            "coherence-0-direct", w(c),
                            finmap_to_json(direct_l),
                            finmap_to_json(direct_r),
                        )
                lhs = compose_ladders(
                    cell(m, face(m + 1, c)), cell(m, top_face(c))
                )
                rhs = compose_ladders(
                    cell(m, face(m + 2, c)), ladder_top_face(cell(m + 1, c))
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
            witness = partial(w, c)
            with rep.guard("beta-at-bottom-degeneracy", witness, trivial):
                ladder = cell(m, degeneracy(m + 1, c))
                if ladder != identity_ladder(ladder.source):
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
    t = _ids(inst)
    quasi = t.quasibijections

    def witness(chain, s0):
        sigma0 = finmap_to_json(t.maps[s0])
        return {"chain": chain_to_json(chain), "sigma0": sigma0}

    for chain in enumerate_p(inst, n, bound):
        ids, objects = chain.ids, chain.objects
        bottoms = quasi[chain.bottom]
        one = t.identity[chain.bottom]
        if one not in bottoms:
            bottoms = (one, *bottoms)
        for s0 in bottoms:
            rep.count("opfibration-lift-invalid")
            w = partial(witness, chain, s0)
            with rep.guard("opfibration-lift-error", w, "a valid ladder"):
                # all three are made before any add, so a lift that is
                # invalid and whose candidates raise reports only the error
                lift = _opfibration_lift(t, ids, objects, s0)
                valid = _valid_lift(t, chain, lift)
                perms = [quasi[X] for X in objects[:-1]] + [(s0,)]
                ladders = _conjugate_ladders(t, ids, objects, perms)
                found = [x for x in ladders if _valid_lift(t, chain, x)]
                if not valid:
                    rep.add(
                        "opfibration-lift-invalid", w(),
                        "an invalid ladder", "a valid ladder",
                    )
                if len(found) != 1:
                    rep.add("opfibration-lift-count", w(), len(found), 1)
                elif found[0] != lift:
                    rep.add(
                        "opfibration-lift-mismatch", w(),
                        "a different ladder", "the constructed lift",
                    )
    return rep


def _conjugate_ladders(t: _Ids, ids: tuple, objects: tuple, perms):
    """Every ladder out of the chain with these map ids and objects whose
    horizontals are drawn from perms, one list of ids per object: each
    map of the target chain is the conjugate of the source map by the two
    horizontals at its ends. Each ladder comes as _checked_target returns
    it. Tuples with a conjugate outside the instance's homs are skipped;
    validity of the ladder is left to the caller."""
    homs = [t.hom[X, Y] for X, Y in zip(objects, objects[1:])]
    composite, inverse = t.composite, t.inverse
    # every inverse is asked for before the first ladder, so that one
    # that raises does so before any ladder is counted
    for p in perms:
        for s in p:
            inverse[s]
    for sig in itertools.product(*perms):
        maps = []
        for j, f in enumerate(ids):
            g = composite[inverse[sig[j]], composite[f, sig[j + 1]]]
            if g not in homs[j]:
                break
            maps.append(g)
        else:
            yield _checked_target(t, objects, tuple(maps), sig)


def _valid_lift(t: _Ids, chain: Chain, target) -> bool:
    """Whether the ladder out of chain with this target, an (ids,
    objects, horizontals) triple as _checked_target returns it, is valid
    and lands on a locally order-preserving chain."""
    tids, tobjects, hids = target
    return _locally_op(t, _down_composites(t, tids, tobjects)) and _is_valid(
        t, chain.ids, chain._down, tids, tobjects, hids
    )
