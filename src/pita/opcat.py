"""Operadic-category instances as query interfaces, and the axiom verifier.

An instance exposes a small set of queries (objects up to a bound, homs,
composition, chosen local terminals, fibres and fibre maps) and
verify_axioms checks the defining equations of an operadic category against
those answers by exhaustive enumeration below the bound. Violations are
collected into a Report with machine-readable witnesses instead of raising,
so a broken instance can be inspected.

Composition is diagrammatic throughout: compose(g, f) applies g first.
"""

from __future__ import annotations

import os
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

from . import finskel
from .errors import IntegrityError, PitaError, ShapeError
from .finskel import FinMap, finmap_to_json

# Above this many composable triples the sweeps over a universe switch to
# the vectorised table engine (see Universe.vectorised).
_TRIPLE_LOOP_CUTOFF = 300_000


class OperadicInstance:
    """Query interface for a desk-scale operadic category.

    The queries are objects, hom, compose, chosen_terminal, fibre and
    fibre_morphism. Object handles are natural numbers and morphism
    handles are FinMaps between them: handles are their own
    cardinalities, so the cardinality functor is read off the handle
    (X, f, f.cod) and has no query, and since a functor keeps identities
    the identity of X is finskel.identity(X), with no query either. The
    fibre query answers with an object, so by default it counts the
    points of f over i; finskel.fibre gives the inclusion itself.
    Subclasses fill in the object range and the hom filter.
    """

    name = "abstract"

    def objects(self, bound: int):
        raise NotImplementedError

    def hom(self, X: int, Y: int):
        raise NotImplementedError

    def compose(self, g: FinMap, f: FinMap) -> FinMap:
        return finskel.compose(g, f)

    def chosen_terminal(self, X: int):
        raise NotImplementedError

    def fibre(self, f: FinMap, i: int) -> int:
        return f.values.count(i)

    def fibre_morphism(self, g: FinMap, f: FinMap, i: int) -> FinMap:
        return finskel.fibre_map(g, f, i)


# ---------------------------------------------------------------- reports


@dataclass
class Report:
    """Outcome of an enumeration sweep: per-site check counts plus
    violations.

    Every check is recorded through count, so by_axiom splits the checks
    of every report by check site, each site keyed by the tag it reports
    (by one of its tags when one check can report several), and checks
    is their sum. by_axiom stays out of to_json so the JSON document is
    unchanged by it. max_violations caps the violation list, never the
    sweep: past the cap add drops the violation and sets truncated, and
    the sweep runs on and counts every check. A check site that a
    broken instance can make raise runs inside guard, which turns the
    raise into one violation of the site's error tag.
    """

    title: str
    violations: list = field(default_factory=list)
    max_violations: int = 50
    truncated: bool = False
    by_axiom: Counter = field(default_factory=Counter)

    @property
    def checks(self) -> int:
        return sum(self.by_axiom.values())

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    def add(self, axiom: str, witness, lhs, rhs):
        if len(self.violations) >= self.max_violations:
            self.truncated = True
            return
        self.violations.append(
            {"axiom": axiom, "witness": witness, "lhs": lhs, "rhs": rhs}
        )

    def count(self, axiom: str, n: int = 1):
        """Record n checks made at the site keyed by axiom."""
        self.by_axiom[axiom] += n

    @contextmanager
    def guard(self, axiom: str, witness, rhs):
        """A PitaError raised inside is one violation of axiom, its text
        as lhs, and the sweep runs on; any other exception is a fault of
        the program and propagates."""
        try:
            yield
        except PitaError as exc:
            self.add(axiom, witness, str(exc), rhs)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": self.checks,
            "violations": self.violations,
            "truncated": self.truncated,
            # no sweep skips anything; the key stays for the JSON schema
            "skipped": [],
        }

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        extra = " (list truncated)" if self.truncated else ""
        return f"{self.title}: {self.checks} checks, {state}{extra}"


# ------------------------------------------------------------- predicates


def is_quasibijection(f: FinMap, inst: OperadicInstance) -> bool:
    """True when every fibre of f is a chosen local terminal. The instance
    is required: it answers the fibre and terminal questions."""
    points = range(1, f.cod + 1)
    return all(_is_point(inst.fibre(f, i), inst) for i in points)


def _is_point(F, inst: OperadicInstance) -> bool:
    """True when the object F is a chosen local terminal of cardinality
    1: what every fibre of a quasibijection must be."""
    return inst.chosen_terminal(F)[0] == F and F == 1


def is_fop_square(
    sigma: FinMap,
    tau: FinMap,
    f: FinMap,
    g: FinMap,
    inst: OperadicInstance,
) -> bool:
    """Fibrewise order-preservation of the commuting square

        . --sigma--> .
        |            |
        f            g
        |            |
        v            v
        . ---tau---> .

    The square must commute (compose(sigma, g) == compose(f, tau)), else
    ShapeError. It is fop when every fibre map of sigma over g is an op
    morphism. The instance is required: composites and fibre maps are
    its answers.
    """
    _require_square(sigma, tau, f, g, inst)
    return _fibrewise_op(sigma, g, inst)


def _fibrewise_op(sigma: FinMap, g: FinMap, inst: OperadicInstance) -> bool:
    """Whether every fibre map of sigma over g is an op morphism."""
    return all(
        finskel.is_order_preserving(inst.fibre_morphism(sigma, g, i))
        for i in range(1, g.cod + 1)
    )


def _require_square(sigma, tau, f, g, inst: OperadicInstance) -> None:
    """ShapeError unless (sigma, tau, f, g) is a commuting square."""
    if sigma.dom != f.dom or sigma.cod != g.dom:
        raise ShapeError("top map does not match the verticals")
    if tau.dom != f.cod or tau.cod != g.cod:
        raise ShapeError("bottom map does not match the verticals")
    if inst.compose(sigma, g) != inst.compose(f, tau):
        raise ShapeError("square does not commute")


def quasibijections(inst: OperadicInstance, X: int, Y: int):
    return [q for q in inst.hom(X, Y) if is_quasibijection(q, inst)]


# ------------------------------------------------------------ the verifier


def equivalence_classes(items: list, related) -> list[list]:
    """Classes of the equivalence relation generated by related(a, b).

    related is asked once for each pair with a listed before b, and only
    while a and b are not yet known to be equivalent, so an expensive
    relation is consulted as little as possible. Classes come out in
    order of their first member, members in list order.
    """
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if find(i) != find(j) and related(items[i], items[j]):
                parent[find(i)] = find(j)
    classes: dict[int, list] = {}
    for i, item in enumerate(items):
        classes.setdefault(find(i), []).append(item)
    return list(classes.values())


def default_threads() -> int:
    """PITA_THREADS, 1 when unset; ValueError unless a positive integer."""
    value = os.environ.get("PITA_THREADS", "1")
    if not value.strip().isdecimal() or int(value) < 1:
        raise ValueError(
            f"PITA_THREADS must be a positive integer, not {value!r}"
        )
    return int(value)


class Universe:
    """Every morphism of an instance below a bound, interned once.

    Morphisms get integer ids in hom order (objects X, then Y, then the
    order of inst.hom). The instance's answers about them are asked once,
    through the instance methods, and kept as id lists: composites of the
    composable pairs, fibres and fibre maps. An answer outside the
    instance's homs gets id -1. Next to them sit the finskel inclusions of
    the fibres of every morphism, the id of the identity on its domain
    (dom_identity, -1 where that identity is not a morphism) and two flags
    per morphism: whether it is order-preserving, and whether the instance
    calls it a quasibijection.
    The finskel reference composites and fibre maps that the axioms
    compare against are computed in verify_axioms' pair sweep: by finskel
    for every pair on the loop route, and on the table route compared
    point by point in numpy (MapTable.pairs_to_recheck), with finskel
    recomputing only the pairs whose answers differ. The splits
    and relative op parts of the splitting calculus are derived from these
    lists on first use (splits, relative_parts).

    Layout: pair p is (pair_first[p], pair_second[p]), the first applied
    first; pairs run through a in id order, then b in id order. The flat
    (n + 1) x (n + 1) pair_index has pair_index[a * (n + 1) + b] == p, -1
    where a, b do not compose, and a last row and column of -1. The lists
    by pair, composites and relative_parts, end in one -1. The fibre maps
    of pair p over i = 1, 2, ... sit at p * bound + i - 1, -1 past the
    codomain (no object below the bound has more than bound points), and
    end in a block of bound -1s. A negative index lands in the padding,
    in a list as in a numpy array, so -1 in reads -1 out with no branch.
    """

    def __init__(self, inst: OperadicInstance, bound: int):
        self.bound = bound
        self.objects = objs = list(inst.objects(bound))
        maps: list = []
        self.homs: dict = {}
        for X in objs:
            for Y in objs:
                start = len(maps)
                maps.extend(inst.hom(X, Y))
                self.homs[(X, Y)] = range(start, len(maps))
        self.maps = maps
        self.n = n = len(maps)
        self.index = index = {f: k for k, f in enumerate(maps)}
        self.into = {
            Y: [k for X in objs for k in self.homs[(X, Y)]] for Y in objs
        }
        self.out_of = {
            X: [k for Y in objs for k in self.homs[(X, Y)]] for X in objs
        }
        identity = {X: index.get(finskel.identity(X), -1) for X in objs}
        self.dom_identity = [identity[f.dom] for f in maps]

        self.order_preserving = [finskel.is_order_preserving(f) for f in maps]
        self.inclusions = []
        self.fibres = []
        for f in maps:
            points = range(1, f.cod + 1)
            self.inclusions.append(tuple(
                finskel.fibre(f, i).values for i in points
            ))
            self.fibres.append(tuple(inst.fibre(f, i) for i in points))
        self.quasibijective = [
            all(_is_point(F, inst) for F in fibres) for fibres in self.fibres
        ]

        stride = n + 1
        self.pair_index = pair_index = [-1] * (stride * stride)
        first: list = []
        second: list = []
        for (T, S), gs in self.homs.items():
            for a in gs:
                for b in self.out_of[S]:
                    pair_index[a * stride + b] = len(first)
                    first.append(a)
                    second.append(b)
        self.pair_first, self.pair_second = first, second

        w = bound
        self.composites = []
        self.fibre_maps = fms = [-1] * ((len(first) + 1) * w)
        self.strays = 0
        for p, (a, b) in enumerate(zip(first, second)):
            g, f = maps[a], maps[b]
            c = index.get(inst.compose(g, f), -1)
            self.composites.append(c)
            self.strays += c < 0
            for i in range(1, f.cod + 1):
                k = index.get(inst.fibre_morphism(g, f, i), -1)
                fms[p * w + i - 1] = k
                self.strays += k < 0
        self.composites.append(-1)

    @property
    def triples(self) -> int:
        """The number of composable triples of morphisms."""
        return sum(
            len(self.into[T]) * len(gs) * len(self.out_of[S])
            for (T, S), gs in self.homs.items()
        )

    @property
    def vectorised(self) -> bool:
        """Whether sweeps over this universe take the numpy table route:
        true above _TRIPLE_LOOP_CUTOFF composable triples."""
        return self.triples > _TRIPLE_LOOP_CUTOFF

    @cached_property
    def splits(self) -> tuple[list, list, list]:
        """Ids of pi and eta of every morphism, and of the inverse
        of every bijective one (-1 for the others), computed on
        first use. IntegrityError when one of them is not a morphism."""
        pis, etas, inverses = [], [], []
        for f in self.maps:
            pi, eta = finskel.pita(f)
            inv = finskel.inverse(f) if finskel.is_bijective(f) else None
            pis.append(self._member(pi))
            etas.append(self._member(eta))
            inverses.append(-1 if inv is None else self._member(inv))
        return pis, etas, inverses

    def _member(self, f) -> int:
        k = self.index.get(f)
        if k is None:
            raise IntegrityError(
                f"instance produced a morphism outside its own homs: {f}"
            )
        return k

    def require_closed(self):
        """IntegrityError unless every composite and fibre map the
        instance gave stayed inside its own homs."""
        if self.strays:
            raise IntegrityError(
                f"instance produced {self.strays} composites or fibre "
                "maps outside its own homs"
            )

    def json_of(self, k: int):
        """The JSON form of the morphism with id k, None for -1."""
        return finmap_to_json(self.maps[k]) if k >= 0 else None

    def pair(self, a: int, b: int) -> int:
        """Id of the pair (a, b), -1 when either is -1 or they do not
        compose."""
        return self.pair_index[a * (self.n + 1) + b]

    @cached_property
    def relative_parts(self) -> list:
        """Id of the relative op part of every composable pair p = (a, b),
        compose(compose(inverse(pi(a;b)), a), pi(b)), computed on first
        use and ending in -1. IntegrityError when the instance left its
        homs on the way."""
        self.require_closed()
        pis, _, inverses = self.splits
        compose = _by_pair(self.pair_index, self.n + 1, self.composites)
        rel = [
            compose(compose(inverses[pis[c]], a), pis[b])
            for a, b, c in zip(
                self.pair_first, self.pair_second, self.composites
            )
        ]
        if -1 in rel:
            raise IntegrityError("relative splitting left the universe")
        return rel + [-1]

    @cached_property
    def table(self):
        """The numpy view of this universe (see _tables), built once."""
        from ._tables import MapTable

        return MapTable(self)


def _by_pair(index, stride: int, values):
    """(a, b) -> values[pair of (a, b)] on the padded layout of Universe,
    so -1 where a, b do not compose or either is -1: the universe's lists
    and single ids on the loop route, numpy arrays of them on the table."""
    if isinstance(values, list):
        return lambda a, b: values[index[a * stride + b]]
    # take gives what [] gives on arrays of ids, at a fraction of the cost
    return lambda a, b: values.take(index.take(a * stride + b))


# Universes by instance object, then bound. Weak keys let an instance and
# its universes go together; a universe holds no reference back to its
# instance. Keyed here rather than cached on the instance, so a wrapper
# that delegates attribute lookups to another instance never sees that
# instance's universe.
_UNIVERSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def universe(inst: OperadicInstance, bound: int) -> Universe:
    """The interned universe of inst below the bound, built on first use."""
    by_bound = _UNIVERSES.setdefault(inst, {})
    if bound not in by_bound:
        by_bound[bound] = Universe(inst, bound)
    return by_bound[bound]


def verify_axioms(
    inst: OperadicInstance,
    bound: int,
    max_violations: int = 50,
) -> Report:
    """Check the operadic-category axioms on all data below the bound.

    Runs, in order: cardinality and idempotence of chosen local terminals
    plus their terminality inside each connected component; fibres of
    identities; compatibility of composites, fibre sizes and fibre maps
    with the cardinality functor (finskel on the handles); recovery of
    objects and morphisms from the fibres of the chosen terminal maps;
    fibres of fibre maps; and the iterated fibre-map equation over all
    composable triples. The pair and triple sweeps read the instance's
    answers from its universe. On large universes both switch to the
    vectorised engine: the pair sweep recomputes with finskel only the
    pairs whose answers a numpy screen finds differ from finskel's,
    point by point, and the triple sweep, the expensive one, walks the
    points of each middle map's codomain. It needs a closed universe and
    reports one axioms-error violation in its place when the instance's
    answers left its homs.
    """
    rep = Report(
        f"axioms[{inst.name}, bound={bound}]", max_violations=max_violations
    )
    u = universe(inst, bound)
    objs, maps, homs = u.objects, u.maps, u.homs
    # connected components of the zigzag relation induced by nonempty homs
    components = equivalence_classes(
        objs, lambda X, Y: bool(homs[(X, Y)] or homs[(Y, X)])
    )
    comp_of = {X: k for k, members in enumerate(components) for X in members}

    # chosen local terminals
    for X in objs:
        U, tau = inst.chosen_terminal(X)
        rep.count("terminal-cardinality")
        if U != 1:
            rep.add(
                "terminal-cardinality", {"object": X, "terminal": U}, U, 1
            )
        if u.index.get(tau, -1) not in homs.get((X, U), ()):
            rep.add(
                "terminal-map-missing",
                {"object": X, "map": finmap_to_json(tau)},
                "not a morphism", f"hom({X}, {U})",
            )
        U2, tau2 = inst.chosen_terminal(U)
        if U2 != U or tau2 != finskel.identity(U):
            rep.add(
                "terminal-idempotence", {"object": X, "terminal": U},
                {"object": U2, "map": finmap_to_json(tau2)},
                {"object": U, "map": finmap_to_json(finskel.identity(U))},
            )
        if U in comp_of and comp_of.get(X) != comp_of.get(U):
            rep.add(
                "terminal-outside-component", {"object": X}, U, "same component"
            )
        for Y in objs:
            if comp_of.get(Y) != comp_of.get(U):
                continue
            rep.count("terminal-not-terminal")
            n = len(homs[(Y, U)])
            if n != 1:
                rep.add(
                    "terminal-not-terminal",
                    {"object": X, "terminal": U, "probe": Y},
                    n, 1,
                )

    # fibres of identities are chosen terminals
    for X in objs:
        idX = finskel.identity(X)
        for i in range(1, X + 1):
            F = inst.fibre(idX, i)
            rep.count("identity-fibre-not-terminal")
            if F != 1 or inst.chosen_terminal(F)[0] != F:
                rep.add(
                    "identity-fibre-not-terminal",
                    {"object": X, "i": i},
                    F, "a chosen local terminal",
                )

    # fibres of the chosen terminal maps recover objects and morphisms
    for X in objs:
        U, tau = inst.chosen_terminal(X)
        rep.count("terminal-fibre-object")
        if inst.fibre(tau, 1) != X:
            rep.add(
                "terminal-fibre-object", {"object": X}, inst.fibre(tau, 1), X
            )
    for (X, Y), ids in homs.items():
        U, tauY = inst.chosen_terminal(Y)
        for k in ids:
            f = maps[k]
            rep.count("terminal-fibre-morphism")
            back = inst.fibre_morphism(f, tauY, 1)
            if back != f:
                rep.add(
                    "terminal-fibre-morphism", {"f": finmap_to_json(f)},
                    finmap_to_json(back), finmap_to_json(f),
                )

    # pair sweep: the instance's composites, fibre sizes and fibre maps
    # against the finskel reference computed on the handles; the table
    # route counts at once the pairs its screen finds to be finskel's
    w, fms = u.bound, u.fibre_maps
    fibres, inclusions = u.fibres, u.inclusions
    json_of = u.json_of

    def answer_json(k):
        """An instance answer as a witness side: -1 was outside its homs."""
        return json_of(k) if k >= 0 else "not a morphism"

    if u.vectorised:
        pairs, size_checks, fibre_checks = u.table.pairs_to_recheck()
    else:
        pairs, size_checks, fibre_checks = range(len(u.pair_first)), 0, 0
    for p in pairs:
        g, f = u.pair_first[p], u.pair_second[p]
        c, expected = u.composites[p], finskel.compose(maps[g], maps[f])
        if c < 0 or maps[c] != expected:
            rep.add(
                "cardinality-not-functorial",
                {"g": json_of(g), "f": json_of(f)},
                answer_json(c), finmap_to_json(expected),
            )
        size_checks += len(inclusions[f])
        for i, eps in enumerate(inclusions[f]):
            if fibres[f][i] != len(eps):
                rep.add(
                    "cardinality-fibre-size", {"f": json_of(f), "i": i + 1},
                    fibres[f][i], len(eps),
                )
            fm = fms[p * w + i]
            expected = finskel.fibre_map(maps[g], maps[f], i + 1)
            if fm < 0 or maps[fm] != expected:
                rep.add(
                    "fibre-map-cardinality",
                    {"g": json_of(g), "f": json_of(f), "i": i + 1},
                    answer_json(fm), finmap_to_json(expected),
                )
                continue
            # fibres of the fibre map match fibres of g along the inclusion
            fibre_checks += len(eps)
            for j, e in enumerate(eps):
                if fibres[fm][j] != fibres[g][e - 1]:
                    rep.add(
                        "fibre-of-fibre-map",
                        {
                            "g": json_of(g), "f": json_of(f),
                            "i": i + 1, "j": j + 1,
                        },
                        fibres[fm][j], fibres[g][e - 1],
                    )
    rep.count("cardinality-fibre-size", size_checks)
    rep.count("fibre-of-fibre-map", fibre_checks)

    # iterated fibre maps over composable triples: with pairs (h, g) and
    # (g, f), the fibre map of [h over g;f at i] over [g over f at i] at j
    # equals the fibre map of h over g at epsilon(j)
    if u.vectorised:
        with rep.guard("axioms-error", None, "a closed universe"):
            u.table.sweep_iterated_fibre_maps(rep)
        return rep

    pair = u.pair
    checks = 0
    for p, (g, f) in enumerate(zip(u.pair_first, u.pair_second)):
        hs, gf = u.into[maps[g].dom], u.composites[p]
        for i, eps in enumerate(inclusions[f]):
            checks += len(hs) * len(eps)
            for h in hs:
                # the pair (h over g;f at i, g over f at i)
                AB = pair(fms[pair(h, gf) * w + i], fms[p * w + i])
                hg = pair(h, g)
                for j, e in enumerate(eps):
                    lhs, rhs = fms[AB * w + j], fms[hg * w + e - 1]
                    if lhs != rhs:
                        rep.add(
                            "iterated-fibre-map",
                            {
                                "h": json_of(h), "g": json_of(g),
                                "f": json_of(f), "i": i + 1, "j": j + 1,
                            },
                            json_of(lhs), json_of(rhs),
                        )
    rep.count("iterated-fibre-map", checks)
    return rep
