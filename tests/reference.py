"""An independent reference for the pair and triple sites of the
splitting sweep (verify_eta_identities), for every site of the axiom
sweep (verify_axioms), and for the nerve's chain operators.

For the splitting sweep it recomputes the six pair sites, the unit
squares and the relative-part cocycle on plain value tuples (dom, cod,
values). The split is its own stable sort, identities, inverses and
order-preservation are read off the tuples, and composites and fibre maps
are asked of the instance through its compose and fibre_morphism. For the
axiom sweep it compares the instance's compose, fibre and fibre_morphism
with composites, fibres and fibre maps computed here from the values, and
checks its chosen terminals against its homs, with connected components
found by its own search.
Nothing comes from pita.finskel, from the Universe or from the sweeps' own
definitions, so an equation that both routes of a sweep share and get
wrong shows up as a difference from this module.

The chain operators face, degeneracy, top_face and the lift behind
reflect_chain and opfibration_lift, the ladder operators, production
beta and the scalar form of the coherence-0 equation, and the
decomposition groupoid's morphism test, forward, backward and unit_at
are written here on the public Chain and FopDiagram values, map by map,
as the nerve and decomp wrote them before they ran on interned ids:
every chain and ladder goes through its checking constructor (Chain.of,
FopDiagram.of), composites, fibres and fibre maps are the instance's,
and splits, inverses and identities come from the tuples as above. The
groupoid's legs and triangles compose with finskel.compose, as decomp
does.

For the unary sites of the splitting sweep it recomputes each split
identity and the op-quasibijection criterion on the tuples, asking the
instance only for fibres and chosen terminals.

Composition is diagrammatic: compose(x, y) applies x first.
"""

from pita.errors import ShapeError
from pita.finskel import FinMap, compose
from pita.nerve import Chain, FopDiagram


def _key(f) -> tuple:
    return (f.dom, f.cod, tuple(f.values))


def _json(x: tuple) -> dict:
    dom, cod, values = x
    return {"dom": dom, "cod": cod, "values": list(values)}


def _identity(X: int) -> tuple:
    return (X, X, tuple(range(1, X + 1)))


def _inverse(x: tuple) -> tuple:
    dom, cod, values = x
    back = [0] * dom
    for i, v in enumerate(values, 1):
        back[v - 1] = i
    return (cod, dom, tuple(back))


def _is_op(x: tuple) -> bool:
    values = x[2]
    return all(u <= v for u, v in zip(values, values[1:]))


def _compose(x: tuple, y: tuple) -> tuple:
    return (x[0], y[1], tuple(y[2][v - 1] for v in x[2]))


def _inclusion(y: tuple, i: int) -> tuple:
    """The points of y over i, in increasing order."""
    return tuple(p for p, v in enumerate(y[2], 1) if v == i)


def _fibre_map(x: tuple, y: tuple, i: int) -> tuple:
    """The fibre map of x over y at i: each point of x;y over i, in
    order, goes to the rank of its image among the points of y over i."""
    rank = {p: r for r, p in enumerate(_inclusion(y, i), 1)}
    values = tuple(rank[v] for v in x[2] if v in rank)
    return (len(values), len(rank), values)


class _Findings:
    """Check counts and violations per tag, as a sweep's Report keeps
    them; a check made with count=0 reports without being counted."""

    def __init__(self):
        self.counts: dict = {}
        self.found: dict = {}

    def check(self, tag, where, passed, lhs, rhs, count=1):
        self.counts[tag] = self.counts.get(tag, 0) + count
        if not passed:
            self.found.setdefault(tag, []).append(
                {"axiom": tag, "witness": where, "lhs": lhs, "rhs": rhs}
            )

    def result(self) -> dict:
        return {
            tag: (n, self.found.get(tag, [])) for tag, n in self.counts.items()
        }


def _split(x: tuple) -> tuple[tuple, tuple]:
    """(pi, eta): pi ranks the points by (value, point), so it is a
    bijection increasing on each fibre; eta lists the values sorted."""
    dom, cod, values = x
    order = sorted(range(dom), key=lambda i: (values[i], i))
    rank = [0] * dom
    for r, i in enumerate(order, 1):
        rank[i] = r
    return (dom, dom, tuple(rank)), (dom, cod, tuple(sorted(values)))


def _quasibijective(inst, f) -> bool:
    """Every fibre of f is the chosen local terminal of cardinality 1."""
    return all(
        inst.chosen_terminal(F)[0] == F and F == 1
        for F in (inst.fibre(f, i) for i in range(1, f.cod + 1))
    )


def unary_splitting_reference(inst, bound: int) -> dict:
    """Per tag, the check count and the violation list (each as the
    sweep reports it) of the unary sites below the bound: splitting a
    split part is trivial on the matching side, and an order-preserving
    quasibijection is an identity."""
    objs = list(inst.objects(bound))
    check = (findings := _Findings()).check
    for f in (f for X in objs for Y in objs for f in inst.hom(X, Y)):
        a = _key(f)
        pi, eta = _split(a)
        one = _identity(a[0])
        where = {"f": _json(a)}
        for tag, lhs, rhs in (
            ("pi-of-pi", _split(pi)[0], pi),
            ("eta-of-eta", _split(eta)[1], eta),
            ("pi-of-eta", _split(eta)[0], one),
            ("eta-of-pi", _split(pi)[1], one),
        ):
            check(tag, where, lhs == rhs, _json(lhs), _json(rhs))
        criterion = not (_is_op(a) and _quasibijective(inst, f) and a != one)
        check(
            "op-quasibijection-not-identity", where, criterion, _json(a),
            _json(one),
        )
    return findings.result()


def splitting_reference(inst, bound: int) -> dict:
    """Per tag, the check count and the violation list (each as the
    sweep reports it) of the pair sites, unit-square-not-fop and
    relative-part-cocycle below the bound. The instance's composites and
    fibre maps must stay inside its homs."""
    objs = list(inst.objects(bound))
    handle = {
        _key(f): f for X in objs for Y in objs for f in inst.hom(X, Y)
    }
    maps = list(handle)

    def compose(x, y):
        return _key(inst.compose(handle[x], handle[y]))

    def pi(x):
        return _split(x)[0]

    def eta(x):
        return _split(x)[1]

    def rel(x, y):
        """The relative op part of x over y, by its closed form."""
        return compose(compose(_inverse(pi(compose(x, y))), x), pi(y))

    check = (findings := _Findings()).check
    for a in maps:
        for b in maps:
            if b[0] != a[1]:
                continue
            c, er = compose(a, b), rel(a, b)
            where = {"f": _json(a), "g": _json(b)}
            sides = [
                (
                    "relative-part-left-triangle",
                    compose(er, eta(b)), eta(c),
                ),
                (
                    "relative-part-defining-square",
                    compose(pi(c), er), compose(a, pi(b)),
                ),
                (
                    "op-part-composition",
                    compose(eta(compose(eta(a), pi(b))), eta(b)), eta(c),
                ),
            ]
            if b == _identity(b[0]):
                sides.append(("relative-part-over-identity", er, eta(a)))
            if a == _identity(a[0]):
                sides.append(("relative-part-of-identity", er, a))
            if _is_op(b) and _is_op(c):
                sides.append(("relative-part-op-pair", er, a))
            for tag, lhs, rhs in sides:
                check(tag, where, lhs == rhs, _json(lhs), _json(rhs))
            # the unit square of the pair: every fibre map of pi(c) over
            # er is order-preserving
            for i in range(1, er[1] + 1):
                fm = _key(inst.fibre_morphism(handle[pi(c)], handle[er], i))
                check(
                    "unit-square-not-fop", {**where, "i": i}, _is_op(fm),
                    _json(fm), "an order-preserving fibre map",
                )
            for h in maps:
                if h[0] != b[1]:
                    continue
                lhs = compose(rel(a, compose(b, h)), rel(b, h))
                rhs = rel(compose(a, b), h)
                check(
                    "relative-part-cocycle", {**where, "h": _json(h)},
                    lhs == rhs, _json(lhs), _json(rhs),
                )
    return findings.result()


def _terminal_sites(inst, objs: list, check) -> None:
    """The sites of verify_axioms on chosen terminals and on the fibres
    of identities. Objects are connected when a zigzag of nonempty homs
    joins them; the sweep looks for a terminal's probes only in its
    component, and only when the terminal is an object below the bound.
    The missing-map, idempotence and component sites report but count
    nothing, as in the sweep."""
    homs = {(X, Y): inst.hom(X, Y) for X in objs for Y in objs}
    component: dict = {}
    for X in objs:
        if X in component:
            continue
        component[X], todo = X, [X]
        while todo:
            A = todo.pop()
            for B in objs:
                if B not in component and (homs[(A, B)] or homs[(B, A)]):
                    component[B] = X
                    todo.append(B)

    for X in objs:
        U, tau = inst.chosen_terminal(X)
        check(
            "terminal-cardinality", {"object": X, "terminal": U}, U == 1, U, 1
        )
        check(
            "terminal-map-missing", {"object": X, "map": _json(_key(tau))},
            _key(tau) in map(_key, homs.get((X, U), ())),
            "not a morphism", f"hom({X}, {U})", count=0,
        )
        U2, tau2 = inst.chosen_terminal(U)
        check(
            "terminal-idempotence", {"object": X, "terminal": U},
            (U2, _key(tau2)) == (U, _identity(U)),
            {"object": U2, "map": _json(_key(tau2))},
            {"object": U, "map": _json(_identity(U))}, count=0,
        )
        if U not in component:
            continue
        check(
            "terminal-outside-component", {"object": X},
            component[X] == component[U], U, "same component", count=0,
        )
        for Y in objs:
            if component[Y] == component[U]:
                n = len(homs[(Y, U)])
                check(
                    "terminal-not-terminal",
                    {"object": X, "terminal": U, "probe": Y}, n == 1, n, 1,
                )

    for X in objs:
        for i in range(1, X + 1):
            F = inst.fibre(FinMap(*_identity(X)), i)
            check(
                "identity-fibre-not-terminal", {"object": X, "i": i},
                F == 1 and inst.chosen_terminal(F)[0] == F,
                F, "a chosen local terminal",
            )
    for X in objs:
        U, tau = inst.chosen_terminal(X)
        F = inst.fibre(tau, 1)
        check("terminal-fibre-object", {"object": X}, F == X, F, X)
    for (X, Y), fs in homs.items():
        _, tau = inst.chosen_terminal(Y)
        for f in fs:
            back = _key(inst.fibre_morphism(f, tau, 1))
            check(
                "terminal-fibre-morphism", {"f": _json(_key(f))},
                back == _key(f), _json(back), _json(_key(f)),
            )


def axioms_reference(inst, bound: int) -> dict:
    """Per tag, the check count and the violation list (each as the
    sweep reports it) of every site of verify_axioms below the bound: the
    terminal and identity-fibre sites (see _terminal_sites), then
    cardinality-not-functorial, cardinality-fibre-size,
    fibre-map-cardinality, fibre-of-fibre-map and iterated-fibre-map. As
    in the sweep, one check per pair and point covers both
    cardinality-fibre-size and fibre-map-cardinality (it counts under the
    first), and cardinality-not-functorial reports but counts nothing. An
    answer outside the instance's homs reads None."""
    objs = list(inst.objects(bound))
    handle = {
        _key(f): f for X in objs for Y in objs for f in inst.hom(X, Y)
    }
    maps = list(handle)

    def answer(f):
        k = _key(f)
        return k if k in handle else None

    def fibre_map(x, y, i):
        """The instance's fibre map of x over y at i; None unless x and y
        are morphisms that compose and i is a point of cod y."""
        if x is None or y is None or x[1] != y[0] or not 1 <= i <= y[1]:
            return None
        return answer(inst.fibre_morphism(handle[x], handle[y], i))

    def side(x, missing=None):
        return missing if x is None else _json(x)

    check = (findings := _Findings()).check
    _terminal_sites(inst, objs, check)
    for g in maps:
        for f in maps:
            if f[0] != g[1]:
                continue
            where = {"g": _json(g), "f": _json(f)}
            gf = answer(inst.compose(handle[g], handle[f]))
            expected = _compose(g, f)
            check(
                "cardinality-not-functorial", where, gf == expected,
                side(gf, "not a morphism"), _json(expected), count=0,
            )
            for i in range(1, f[1] + 1):
                eps = _inclusion(f, i)
                size = inst.fibre(handle[f], i)
                check(
                    "cardinality-fibre-size", {"f": _json(f), "i": i},
                    size == len(eps), size, len(eps),
                )
                fm, expected = fibre_map(g, f, i), _fibre_map(g, f, i)
                # with pairs (h, g) and (g, f): the fibre map of [h over
                # g;f at i] over [g over f at i] at j against the fibre
                # map of h over g at the j-th point of f over i
                for h in maps:
                    if h[1] != g[0]:
                        continue
                    over = fibre_map(h, gf, i)
                    for j, e in enumerate(eps, 1):
                        lhs, rhs = fibre_map(over, fm, j), fibre_map(h, g, e)
                        check(
                            "iterated-fibre-map",
                            {"h": _json(h), **where, "i": i, "j": j},
                            lhs == rhs, side(lhs), side(rhs),
                        )
                if fm != expected:
                    check(
                        "fibre-map-cardinality", {**where, "i": i}, False,
                        side(fm, "not a morphism"), _json(expected), count=0,
                    )
                    continue
                for j, e in enumerate(eps, 1):
                    lhs = inst.fibre(handle[fm], j)
                    rhs = inst.fibre(handle[g], e)
                    check(
                        "fibre-of-fibre-map", {**where, "i": i, "j": j},
                        lhs == rhs, lhs, rhs,
                    )
    return findings.result()


# ------------------------------------------------------- chain operators


def _finmap(x: tuple) -> FinMap:
    return FinMap(*x)


def face(i: int, chain: Chain) -> Chain:
    """Drop the top object (i=0) or compose at the i-th object from the
    top (1 <= i <= n-1)."""
    n = chain.length
    if not 0 <= i <= n - 1:
        raise IndexError(f"face {i} undefined on a chain of length {n}")
    if i == 0:
        return Chain.of(chain.inst, chain.maps[1:], chain.bottom)
    merged = chain.inst.compose(chain.maps[i - 1], chain.maps[i])
    maps = chain.maps[: i - 1] + (merged,) + chain.maps[i + 1 :]
    return Chain.of(chain.inst, maps, chain.bottom)


def top_face(chain: Chain) -> Chain:
    """Drop the bottom object and map, then reflect the remainder."""
    n = chain.length
    if n < 1:
        raise IndexError("top face needs a chain of length at least 1")
    trunc = Chain.of(chain.inst, chain.maps[:-1], chain.objects[-2])
    return reflect_chain(trunc).target


def degeneracy(i: int, chain: Chain) -> Chain:
    """Duplicate the i-th object from the top by inserting an identity."""
    n = chain.length
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy {i} undefined on a chain of length {n}")
    ident = _finmap(_identity(chain.objects[i]))
    return Chain.of(
        chain.inst, chain.maps[:i] + (ident,) + chain.maps[i:], chain.bottom
    )


def reflect_chain(chain: Chain) -> FopDiagram:
    """The lift of the chain through the identity on its bottom."""
    return lift(chain, _finmap(_identity(chain.bottom)))


def lift(chain: Chain, sigma0: FinMap) -> FopDiagram:
    """The lift loop: push each chain map, bottom first, onto sigma0 and
    split the pushed composite; its quasibijection part is the step's
    horizontal, and with the previous step's it unwinds the step's map
    to compose(compose(inverse(above), map), below)."""
    inst = chain.inst

    def pi(f):
        return _finmap(_split(_key(f))[0])

    horizontals = [sigma0]
    new_maps = []
    pushed = sigma0
    below = pi(sigma0)
    for hk in reversed(chain.maps):
        pushed = inst.compose(hk, pushed)
        above = pi(pushed)
        back = _finmap(_inverse(_key(above)))
        new_maps.append(inst.compose(inst.compose(back, hk), below))
        horizontals.append(above)
        below = above
    target = Chain.of(inst, tuple(reversed(new_maps)), sigma0.cod)
    return FopDiagram.of(chain, target, tuple(reversed(horizontals)))


def _pi(f: FinMap) -> FinMap:
    return _finmap(_split(_key(f))[0])


def _relative(inst, f: FinMap, g: FinMap) -> FinMap:
    """The relative op part of f over g, by its closed form."""
    back = _finmap(_inverse(_key(_pi(inst.compose(f, g)))))
    return inst.compose(inst.compose(back, f), _pi(g))


def _locally_op(chain: Chain) -> bool:
    """Every composite down to the bottom is op; all of them are asked
    of the instance before any is tested."""
    inst = chain.inst
    down = [_finmap(_identity(chain.bottom))]
    for f in reversed(chain.maps):
        down.append(inst.compose(f, down[-1]))
    return all(_is_op(_key(d)) for d in down[1:])


def opfibration_lift(chain: Chain, sigma0: FinMap) -> FopDiagram:
    """The lift, after its three preconditions."""
    if not _locally_op(chain):
        raise ShapeError("lifts start from locally order-preserving chains")
    if sigma0.dom != chain.bottom:
        raise ShapeError("bottom map does not start at the bottom object")
    if not _quasibijective(chain.inst, sigma0):
        raise ShapeError("bottom map must be a quasibijection")
    return lift(chain, sigma0)


# --------------------------------------------------- ladders and cells


def compose_ladders(first: FopDiagram, second: FopDiagram) -> FopDiagram:
    """The first ladder, then the second: composite horizontals."""
    if first.target != second.source:
        raise ShapeError("ladders do not meet end to end")
    inst = first.source.inst
    return FopDiagram.of(
        first.source,
        second.target,
        tuple(
            inst.compose(a, b)
            for a, b in zip(first.horizontals, second.horizontals)
        ),
    )


def identity_ladder(chain: Chain) -> FopDiagram:
    return FopDiagram.of(
        chain, chain, tuple(_finmap(_identity(X)) for X in chain.objects)
    )


def ladder_top_face(ladder: FopDiagram) -> FopDiagram:
    """The lift of the second-from-bottom horizontal out of the top face
    of the source."""
    if ladder.source.length < 1:
        raise IndexError("top face needs ladders of length at least 1")
    return opfibration_lift(top_face(ladder.source), ladder.horizontals[-2])


def beta(n: int, chain: Chain) -> FopDiagram:
    """Production beta: the lift of the quasibijection part of the
    second-from-bottom map out of the top face of the last inner face."""
    if chain.length != n + 2:
        raise ShapeError(f"beta {n} lives on chains of length {n + 2}")
    if not _locally_op(chain):
        raise ShapeError("beta lives on locally order-preserving chains")
    sigma0 = _pi(chain.maps[-2])
    return opfibration_lift(top_face(face(n + 1, chain)), sigma0)


def scalar_coherence_0(chain: Chain) -> tuple:
    """Both sides of the coherence-0 equation at a 3-chain (f3, f2, f1)
    in splits."""
    inst = chain.inst
    f3, f2 = chain.maps[0], chain.maps[1]
    lhs = inst.compose(
        _pi(inst.compose(f3, f2)), _pi(_relative(inst, f3, f2))
    )
    pushed = inst.compose(_finmap(_split(_key(f3))[1]), _pi(f2))
    rhs = inst.compose(_pi(f3), _pi(pushed))
    return lhs, rhs


# ------------------------------------------------ decomposition groupoid


def is_morphism(groupoid, sigma: FinMap, x, y) -> bool:
    """Is sigma a middle quasibijection of the instance satisfying both
    factorisation triangles whose square over compose(e, middle) commutes
    and is fibrewise order-preserving?"""
    inst, middle = groupoid.chain.inst, groupoid.middle
    (g1, e1), (g2, e2) = x, y
    mid = e1.dom
    if e2.dom != mid or sigma not in inst.hom(mid, mid):
        return False
    if not _quasibijective(inst, sigma):
        return False
    if compose(g1, sigma) != g2 or compose(sigma, e2) != e1:
        return False
    f, g = compose(e1, middle), compose(e2, middle)
    tau = _finmap(_identity(middle.cod))
    if (sigma.dom, sigma.cod, tau.dom, tau.cod) != (f.dom, g.dom, f.cod, g.cod):
        return False
    if inst.compose(sigma, g) != inst.compose(f, tau):
        return False
    return all(
        _is_op(_key(inst.fibre_morphism(sigma, g, i)))
        for i in range(1, g.cod + 1)
    )


def forward(groupoid, x) -> tuple:
    """The relative op parts of the legs over the middle."""
    inst, middle = groupoid.chain.inst, groupoid.middle
    g, e = x
    return _relative(inst, g, compose(e, middle)), _relative(inst, e, middle)


def backward(groupoid, y) -> tuple:
    """Precompose with the quasibijection part of compose(f, middle) and
    undo the one of middle."""
    h, h2 = y
    top = _pi(compose(groupoid.f, groupoid.middle))
    undo = _finmap(_inverse(_key(_pi(groupoid.middle))))
    return compose(top, h), compose(h2, undo)


def unit_at(groupoid, x) -> FinMap:
    return _pi(compose(x[1], groupoid.middle))
