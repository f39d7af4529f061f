"""An independent reference for the pair and triple sites of the
splitting sweep (verify_eta_identities) and of the axiom sweep
(verify_axioms), and for the nerve's chain operators.

For the splitting sweep it recomputes the six pair sites, the unit
squares and the relative-part cocycle on plain value tuples (dom, cod,
values). The split is its own stable sort, identities, inverses and
order-preservation are read off the tuples, and composites and fibre maps
are asked of the instance through its compose and fibre_morphism. For the
axiom sweep it compares the instance's compose, fibre and fibre_morphism
with composites, fibres and fibre maps computed here from the values.
Nothing comes from pita.finskel, from the Universe or from the sweeps' own
definitions, so an equation that both routes of a sweep share and get
wrong shows up as a difference from this module.

The chain operators face, degeneracy, top_face and the lift behind
reflect_chain are written here on the public Chain and FopDiagram values,
map by map, as the nerve wrote them before it ran on interned ids: every
chain and ladder goes through its checking constructor, composites are
the instance's, and splits, inverses and identities come from the tuples
as above.

Composition is diagrammatic: compose(x, y) applies x first.
"""

from pita.finskel import FinMap
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


def axioms_reference(inst, bound: int) -> dict:
    """Per tag, the check count and the violation list (each as the
    sweep reports it) of cardinality-not-functorial, cardinality-fibre-size,
    fibre-map-cardinality, fibre-of-fibre-map and iterated-fibre-map below
    the bound. As in the sweep, one check per pair and point covers both
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
        return Chain(chain.inst, chain.maps[1:], chain.bottom)
    merged = chain.inst.compose(chain.maps[i - 1], chain.maps[i])
    maps = chain.maps[: i - 1] + (merged,) + chain.maps[i + 1 :]
    return Chain(chain.inst, maps, chain.bottom)


def top_face(chain: Chain) -> Chain:
    """Drop the bottom object and map, then reflect the remainder."""
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
    ident = _finmap(_identity(chain.objects[i]))
    return Chain(
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
    target = Chain(inst, tuple(reversed(new_maps)), sigma0.cod)
    return FopDiagram(chain, target, tuple(reversed(horizontals)))
