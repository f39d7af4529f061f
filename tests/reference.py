"""An independent reference for the pair and triple identities of the
splitting sweep (verify_eta_identities).

It recomputes the six pair sites, the unit squares and the relative-part
cocycle on plain value tuples (dom, cod, values). The split is its own
stable sort, identities, inverses and order-preservation are read off the
tuples, and composites and fibre maps are asked of the instance through
its compose and fibre_morphism. Nothing comes from pita.finskel or from
the sweep's own definitions, so an equation that both routes of the sweep
share and get wrong shows up as a difference from this module.

Composition is diagrammatic: compose(x, y) applies x first.
"""


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

    counts: dict = {}
    found: dict = {}

    def check(tag, where, passed, lhs, rhs):
        counts[tag] = counts.get(tag, 0) + 1
        if not passed:
            found.setdefault(tag, []).append(
                {"axiom": tag, "witness": where, "lhs": lhs, "rhs": rhs}
            )

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
    return {tag: (n, found.get(tag, [])) for tag, n in counts.items()}
