from collections import Counter

import pytest
from hypothesis import given, settings

import reference
from helpers import CompositeOutsideHoms, CorruptFibre
from pita import nerve
from pita.errors import IntegrityError, PitaError, ShapeError
from pita.factorisation import eta_rel, pita_general
from pita.finskel import FinMap, compose, identity
from pita.instances import make_fin, make_fin_surj, make_op
from pita.nerve import (
    Chain,
    FopDiagram,
    beta,
    chain_from_json,
    chain_to_json,
    compose_ladders,
    degeneracy,
    enumerate_p,
    face,
    identity_ladder,
    ladder_top_face,
    opfibration_lift,
    reflect_chain,
    top_face,
    verify_beta_coherence,
    verify_opfibration,
    verify_strict_identities,
)
from strategies import composable_pairs, quasibijections
from test_differential import BASES, MUTANTS

FIN = make_fin()
SURJ = make_fin_surj()
OP = make_op()


def _chain(inst, *maps):
    return Chain.of(inst, maps, maps[-1].cod)


# ---------------------------------------------------------------- chains


def test_chain_shape_validation():
    with pytest.raises(ShapeError, match="map 0 does not end at object 1"):
        Chain.of(FIN, (FinMap(2, 2, (1, 2)),), 3)
    with pytest.raises(ShapeError, match="map 0 does not end at object 1"):
        Chain.of(FIN, (FinMap(2, 1, (1, 1)), identity(2)), 2)
    c = _chain(FIN, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    assert c.length == 2
    assert c.objects == (2, 2, 1)
    assert Chain(FIN, (), 2).objects == (2,)
    # the objects are derived from the maps and take no part in equality;
    # equality and hashing read the maps through their interned ids
    assert c == Chain.of(FIN, list(c.maps), 1)
    assert c.ids == tuple(map(nerve._ids(FIN).id, c.maps))
    assert hash(c) == hash((FIN, c.ids, 1))


def test_down_composites_and_locally_op():
    c = _chain(FIN, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    assert c.down_composite(0) == identity(1)
    assert c.down_composite(1) == FinMap(2, 1, (1, 1))
    assert c.down_composite(2) == FinMap(2, 1, (1, 1))
    with pytest.raises(IndexError):
        c.down_composite(3)
    # composites are op even though the top map itself is not
    assert c.locally_op
    assert not _chain(FIN, identity(2), FinMap(2, 2, (2, 1))).locally_op


def test_chain_json_roundtrip():
    c = _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    blob = chain_to_json(c)
    assert blob["objects"] == [2, 2, 1]
    assert chain_from_json(SURJ, blob) == c
    chains = [c for n in range(4) for c in enumerate_p(SURJ, n, 3)]
    chains += [
        c for n in range(3)
        for c in nerve._all_chains(FIN, n, 2, locally_op=False)
    ]
    for c in chains:
        back = chain_from_json(c.inst, chain_to_json(c))
        assert back == c and back.objects == c.objects


@pytest.mark.parametrize(
    "objects", [[2, 1, 1], [3, 2, 1], [2, 2], [], [2, 1, 1, 1]]
)
def test_chain_json_objects_must_match_the_maps(objects):
    c = _chain(FIN, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    blob = chain_to_json(c)
    blob["objects"] = objects
    with pytest.raises(ShapeError):
        chain_from_json(FIN, blob)


# --------------------------------------------------------------- ladders


def test_ladder_shape_validation():
    c = _chain(FIN, FinMap(2, 1, (1, 1)))
    with pytest.raises(ShapeError):
        FopDiagram.of(c, c, (identity(2),))
    with pytest.raises(ShapeError):
        FopDiagram.of(c, c, (identity(2), identity(2)))
    assert identity_ladder(c).is_valid()


def test_ladder_fop_condition_is_checked_against_the_bottom():
    # the swap over the fold commutes, but its fibre map over the merged
    # fibre reverses order, so the ladder is rejected
    swap = FinMap(2, 2, (2, 1))
    fold = _chain(FIN, FinMap(2, 1, (1, 1)))
    assert not FopDiagram.of(fold, fold, (swap, identity(1))).is_valid()
    # over an identity vertical every fibre is a singleton
    two = _chain(FIN, identity(2))
    assert FopDiagram.of(two, two, (swap, swap)).is_valid()


def test_ladder_validity_needs_commuting_squares():
    src = _chain(FIN, FinMap(2, 2, (1, 2)))
    dst = _chain(FIN, FinMap(2, 2, (2, 1)))
    assert not FopDiagram.of(src, dst, (identity(2), identity(2))).is_valid()


# ----------------------------------------------------------- enumeration


def test_enumerate_p_frozen_counts():
    zero = list(enumerate_p(SURJ, 0, 2))
    assert [c.objects for c in zero] == [(1,), (2,)]
    one = list(enumerate_p(SURJ, 1, 2))
    assert {c.maps[0] for c in one} == {
        identity(1),
        identity(2),
        FinMap(2, 1, (1, 1)),
    }
    two = list(enumerate_p(SURJ, 2, 2))
    assert len(two) == 5
    assert _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1))) in two
    assert all(c.locally_op for c in two)


def test_enumerate_p_rejects_bad_arguments():
    with pytest.raises(ShapeError):
        list(enumerate_p(SURJ, -1, 2))
    with pytest.raises(ShapeError):
        list(enumerate_p(SURJ, 0, 0))


# ------------------------------------------------------------- operators


def test_face_composes_at_inner_objects():
    f3 = FinMap(3, 3, (2, 1, 3))
    f2 = FinMap(3, 2, (1, 1, 2))
    f1 = FinMap(2, 1, (1, 1))
    c = _chain(FIN, f3, f2, f1)
    assert face(0, c) == _chain(FIN, f2, f1)
    assert face(1, c) == _chain(FIN, compose(f3, f2), f1)
    assert face(2, c) == _chain(FIN, f3, compose(f2, f1))
    with pytest.raises(IndexError):
        face(3, c)
    with pytest.raises(IndexError):
        face(-1, c)


def test_degeneracy_inserts_identities():
    f1 = FinMap(2, 1, (1, 1))
    c = _chain(FIN, f1)
    assert degeneracy(0, c) == _chain(FIN, identity(2), f1)
    assert degeneracy(1, c) == _chain(FIN, f1, identity(1))
    with pytest.raises(IndexError):
        degeneracy(2, c)
    # the two faces flanking an inserted identity both undo it; for the
    # bottom degeneracy the flanking pair is face(n) and the top face
    assert face(0, degeneracy(0, c)) == c
    assert face(1, degeneracy(0, c)) == c
    assert face(1, degeneracy(1, c)) == c
    assert top_face(degeneracy(1, c)) == c


def test_top_face_reflects():
    c = _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    t = top_face(c)
    assert t == _chain(SURJ, identity(2))
    assert t.locally_op
    assert top_face(t) == Chain(SURJ, (), 2)
    with pytest.raises(IndexError):
        top_face(Chain(SURJ, (), 2))


def test_unreflected_top_face_leaves_the_locally_op_world():
    # merely truncating satisfies the face commutation identities (both
    # sides just drop the bottom), so the sweep catches the mutant by the
    # locally order-preserving postcondition instead
    c = _chain(FIN, identity(2), FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    assert c.locally_op
    trunc = Chain.of(FIN, c.maps[:-1], c.objects[-2])
    assert not trunc.locally_op
    assert top_face(c) != trunc
    assert top_face(c).locally_op
    # the commutation family alone cannot tell the two apart
    assert face(0, trunc) == Chain.of(FIN, trunc.maps[1:], trunc.bottom)


def _outcome(op, *args):
    """What an operator gives: its chain or ladder as values, or the type
    and text of what it raises."""
    try:
        got = op(*args)
    except Exception as exc:
        return ("raises", type(exc).__name__, str(exc))
    if isinstance(got, FopDiagram):
        return (
            "ladder", _values(got.source), _values(got.target),
            got.horizontals,
        )
    if isinstance(got, Chain):
        return ("chain", _values(got))
    return ("value", got)


def _values(chain):
    return (chain.inst, chain.maps, chain.objects, chain.bottom, chain.ids)


def _agreement(kinds):
    """agree(ours, theirs, *args): both give equal values, or raise the
    same exception type with the same text; kinds counts the outcomes."""

    def agree(ours, theirs, *args):
        got = _outcome(ours, *args)
        assert got == _outcome(theirs, *args), (ours.__name__, args)
        kinds[got[0]] += 1
        return got

    return agree


# every base at bound 2, clean and under each mutant, and fin-surj at 3
REFERENCE_CASES = pytest.mark.parametrize(
    "base, mutant, bound",
    [(base, mutant, 2) for base in BASES for mutant in MUTANTS]
    + [("fin-surj", "clean", 3)],
    ids=lambda value: str(value),
)


def _case(base, mutant):
    inst = BASES[base]()
    return inst if MUTANTS[mutant] is None else MUTANTS[mutant](inst)


@REFERENCE_CASES
def test_chain_operators_match_the_reference(base, mutant, bound):
    # the operators on interned ids against their map-by-map form in
    # tests/reference.py: equal chains and ladders, or the same exception
    # type and text, on every locally op chain up to length 3 and, for the
    # reflection, every chain up to length 2; indices one past the last
    # valid one included
    inst = _case(base, mutant)
    kinds = Counter()
    agree = _agreement(kinds)
    for n in range(4):
        for c in enumerate_p(inst, n, bound):
            for i in range(n + 1):
                agree(face, reference.face, i, c)
            for i in range(n + 2):
                agree(degeneracy, reference.degeneracy, i, c)
            agree(top_face, reference.top_face, c)
            for s0 in quasibijections(inst, c.bottom, c.bottom):
                agree(opfibration_lift, reference.lift, c, s0)
    for n in range(3):
        for c in nerve._all_chains(inst, n, bound, locally_op=False):
            agree(reflect_chain, reference.reflect_chain, c)
    assert kinds["chain"] and kinds["ladder"] and kinds["raises"]


@REFERENCE_CASES
def test_ladder_operators_and_cells_match_the_reference(base, mutant, bound):
    # identity_ladder, compose_ladders, ladder_top_face, production beta
    # and the scalar coherence-0 on interned ids against their
    # map-by-map form in tests/reference.py, at every cell the beta sweep
    # makes at maxlen 4: equal values, or the same exception type and text
    inst = _case(base, mutant)
    kinds = Counter()
    agree = _agreement(kinds)

    def made(ours, theirs, *args):
        """ours(*args), checked against theirs; None where it raises or
        an argument is missing."""
        if None in args or agree(ours, theirs, *args)[0] == "raises":
            return None
        return ours(*args)

    def chain(op, *args):
        try:
            return op(*args)
        except PitaError:
            return None

    for n in range(4):
        for c in enumerate_p(inst, n, bound):
            agree(identity_ladder, reference.identity_ladder, c)
    for m in (0, 1):
        for c in enumerate_p(inst, m + 3, bound):
            if m == 0:
                agree(
                    nerve._scalar_coherence_0, reference.scalar_coherence_0, c
                )
            below = made(beta, reference.beta, m + 1, c)
            sides = (
                (
                    made(beta, reference.beta, m, chain(face, m + 1, c)),
                    made(beta, reference.beta, m, chain(top_face, c)),
                ),
                (
                    made(beta, reference.beta, m, chain(face, m + 2, c)),
                    made(ladder_top_face, reference.ladder_top_face, below),
                ),
            )
            for first, second in sides:
                if first is not None and second is not None:
                    agree(
                        compose_ladders, reference.compose_ladders,
                        first, second,
                    )
    assert kinds["ladder"] and kinds["value"]
    if mutant == "ShrinkComposite":
        assert kinds["raises"]


# ------------------------------------------------------------ reflection


def test_reflection_fixes_locally_op_chains():
    c = _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    assert reflect_chain(c) == identity_ladder(c)


def test_reflection_of_a_single_map():
    c = _chain(FIN, FinMap(2, 2, (2, 1)))
    unit = reflect_chain(c)
    assert unit.target == _chain(FIN, identity(2))
    assert unit.horizontals == (FinMap(2, 2, (2, 1)), identity(2))
    assert unit.is_valid()


def test_reflection_is_idempotent_and_unit_is_fop():
    c = _chain(FIN, identity(2), FinMap(2, 2, (2, 1)))
    unit = reflect_chain(c)
    rc = unit.target
    assert rc == _chain(FIN, identity(2), identity(2))
    assert rc.locally_op
    assert reflect_chain(rc).target == rc
    assert unit.source == c
    assert unit.is_valid()


@settings(max_examples=60, deadline=None)
@given(composable_pairs(max_card=5))
def test_reflection_properties_hold_on_random_chains(pair):
    g, f = pair
    unit = reflect_chain(Chain.of(FIN, (g, f), f.cod))
    rc = unit.target
    assert rc.locally_op
    assert reflect_chain(rc).target == rc
    assert unit.is_valid()
    # the bottom-degeneracy identity lives on locally op chains only
    assert top_face(degeneracy(2, rc)) == rc


# ------------------------------------------------------------ the sweeps


def test_strict_identities_fin_surj_bound_3():
    rep = verify_strict_identities(SURJ, 3, 4)
    assert rep.ok, rep.summary()
    assert rep.checks == 50_968
    assert rep.by_axiom == {
        "top-face-not-locally-op": 826,
        "face-face": 4_426,
        "face-top-face": 2_286,
        "face-degeneracy": 19_014,
        "top-face-bottom-degeneracy": 826,
        "degeneracy-top-face": 3_112,
        "degeneracy-degeneracy": 11_476,
        "reflection-not-locally-op": 122,
        "reflection-naturality": 8_880,
    }


def test_strict_sweep_lifts_each_naturality_target_once(monkeypatch):
    calls = {"_lift": [], "_opfibration_lift": [], "is_quasibijection": []}

    def counting(name):
        original = getattr(nerve, name)

        def counted(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(nerve, name, counted)

    for name in calls:
        counting(name)
    # a fresh instance, so that its interner has asked nothing yet
    inst = make_fin_surj()
    rep = verify_strict_identities(inst, 3, 4)
    assert rep.checks == 50_968
    # one lift per top face and per reflection asked for: the top faces of
    # the 826 chains and of their 3,938 degeneracies, then 418 on the
    # arbitrary chains. The top face of a face is the level below's, kept
    # for one level: 7,468 lifts when each was lifted again, and 25,054
    # when every naturality ladder also reflected its target and lifted
    # its bottom afresh
    assert len(calls["_lift"]) == 5_182
    # one opfibration lift per distinct (reflected chain, bottom): 37 on
    # 2-chains and 15 on 1-chains
    lifts = calls["_opfibration_lift"]
    assert len(lifts) == len(set(lifts)) == 52
    assert sum(len(ids) == 2 for _, ids, _, _ in lifts) == 37
    # the quasibijection test is asked once per map, and only of the unit
    # ladders' horizontals and of the lifts' bottoms: the 9 permutations
    # of 1, 2 and 3 points. The naturality ladders' horizontals, drawn
    # from quasibijections(), are never asked again
    units = [
        nerve.reflect_chain(c) for n in (1, 2)
        for c in nerve._all_chains(inst, n, 3, locally_op=False)
    ]
    assert len(units) == 122
    asked = {s for unit in units for s in unit.horizontals}
    asked |= {t.maps[s0] for t, _, _, s0 in lifts}
    assert len(asked) == 9
    questions = [f for f, _ in calls["is_quasibijection"]]
    assert len(questions) == len(set(questions)) == 9
    assert set(questions) == asked


def test_strict_identities_fin_bound_2():
    rep = verify_strict_identities(FIN, 2, 3)
    assert rep.ok, rep.summary()
    assert rep.checks == 7_173


# ------------------------------------------------------------- the lifts


def test_lift_of_the_identity_is_the_identity_ladder():
    c = _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    assert opfibration_lift(c, identity(1)) == identity_ladder(c)


def test_lift_frozen_example():
    # lifting (1,1,2): 3 -> 2 along the swap downstairs rotates upstairs
    c = _chain(SURJ, FinMap(3, 2, (1, 1, 2)))
    lift = opfibration_lift(c, FinMap(2, 2, (2, 1)))
    assert lift.horizontals == (FinMap(3, 3, (2, 3, 1)), FinMap(2, 2, (2, 1)))
    assert lift.target.maps == (FinMap(3, 2, (1, 2, 2)),)
    assert lift.is_valid()
    assert lift.target.locally_op


def test_lift_shape_errors():
    not_op = _chain(FIN, identity(2), FinMap(2, 2, (2, 1)))
    with pytest.raises(ShapeError):
        opfibration_lift(not_op, identity(2))
    good = _chain(FIN, FinMap(2, 1, (1, 1)))
    with pytest.raises(ShapeError):
        opfibration_lift(good, identity(2))
    with pytest.raises(ShapeError):
        opfibration_lift(good, FinMap(1, 2, (1,)))


def _reference_lift(inst, chain, sigma0):
    """The lift spelled out through eta_rel: each map is the relative op
    part of the chain map over the composite pushed so far, each
    horizontal the quasibijection part of the next composite."""
    maps, horizontals = [], [sigma0]
    pushed = sigma0
    for h in reversed(chain.maps):
        maps.append(eta_rel(inst, h, pushed))
        pushed = inst.compose(h, pushed)
        horizontals.append(pita_general(inst, pushed).pi)
    return tuple(reversed(maps)), tuple(reversed(horizontals))


@pytest.mark.parametrize(
    "inst,maxlen,bound", [(SURJ, 3, 3), (FIN, 2, 2)], ids=["fin-surj", "fin"]
)
def test_lift_matches_the_relative_op_parts(inst, maxlen, bound):
    for n in range(maxlen + 1):
        for c in nerve._all_chains(inst, n, bound, locally_op=False):
            T0 = c.bottom
            unit = reflect_chain(c)
            assert (unit.target.maps, unit.horizontals) == _reference_lift(
                inst, c, identity(T0)
            )
            if not c.locally_op:
                continue
            for s0 in quasibijections(inst, T0, T0):
                lift = opfibration_lift(c, s0)
                assert (lift.target.maps, lift.horizontals) == (
                    _reference_lift(inst, c, s0)
                )


def test_lifting_an_n_chain_asks_n_splits_and_n_relative_parts(monkeypatch):
    # the lift asks the interner for one split and one relative op part
    # per step; the interner computes each once per map or pair, so a
    # lift over maps it has met splits no FinMap
    t = nerve._ids(SURJ)
    chains = [c for n in range(4) for c in enumerate_p(SURJ, n, 3)]
    for c in chains:
        opfibration_lift(c, identity(c.bottom))
    asked = Counter()

    def counted(name):
        memo = getattr(t, name)

        class Counted:
            def __getitem__(self, key):
                asked[name] += 1
                return memo[key]

        monkeypatch.setattr(t, name, Counted())

    counted("pi")
    counted("eta_rel")
    monkeypatch.setattr(nerve, "pita_general", None)
    for c in chains:
        for lift in (
            lambda: opfibration_lift(c, identity(c.bottom)),
            lambda: reflect_chain(c),
        ):
            asked.clear()
            lift()
            assert (asked["pi"], asked["eta_rel"]) == (c.length, c.length)


def test_opfibration_uniqueness_sweeps():
    for n, checks in ((0, 9), (1, 15), (2, 37)):
        rep = verify_opfibration(SURJ, n, 3)
        assert rep.ok, rep.summary()
        assert rep.by_axiom == {"opfibration-lift-invalid": checks}
    rep = verify_opfibration(FIN, 1, 2)
    assert rep.ok, rep.summary()
    assert rep.checks == 16


def test_composites_of_lifts_are_valid_ladders():
    # horizontal composability of the ladders, exhaustively at bound 2
    for c in enumerate_p(SURJ, 2, 2):
        T0 = c.bottom
        for s0 in quasibijections(SURJ, T0, T0):
            first = opfibration_lift(c, s0)
            assert first.is_valid()
            for t0 in quasibijections(SURJ, T0, T0):
                second = opfibration_lift(first.target, t0)
                both = compose_ladders(first, second)
                assert both.is_valid()


# ------------------------------------------------------------------ beta


def test_beta_frozen_example():
    c = _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    cell = beta(0, c, mode="oracle")
    assert cell.horizontals == (FinMap(2, 2, (2, 1)),)
    assert cell.source == Chain(SURJ, (), 2)
    assert cell.target == Chain(SURJ, (), 2)


def test_beta_is_trivial_when_the_second_map_is_op():
    c = _chain(SURJ, identity(2), FinMap(2, 1, (1, 1)))
    assert beta(0, c, mode="oracle") == identity_ladder(Chain(SURJ, (), 2))


def test_beta_shape_errors():
    c = _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    with pytest.raises(ShapeError):
        beta(1, c)
    with pytest.raises(ShapeError):
        beta(0, c, mode="fast")
    not_op = _chain(FIN, identity(2), FinMap(2, 2, (2, 1)))
    with pytest.raises(ShapeError):
        beta(0, not_op)


def test_beta_oracle_checks_the_target_of_its_lift(monkeypatch):
    lift = nerve.opfibration_lift

    def misdirected(chain, sigma0):
        # lifts of 0-chains land one object too high
        if chain.length:
            return lift(chain, sigma0)
        X = chain.bottom
        up = FinMap(X, X + 1, tuple(range(1, X + 1)))
        return FopDiagram.of(chain, Chain(chain.inst, (), X + 1), (up,))

    monkeypatch.setattr(nerve, "opfibration_lift", misdirected)
    c = _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    # production trusts the lift
    assert beta(0, c).target != top_face(top_face(c))
    with pytest.raises(IntegrityError, match="double top face"):
        beta(0, c, mode="oracle")
    rep = verify_beta_coherence(SURJ, 2)
    missed = [v for v in rep.violations if v["axiom"] == "beta-0-construction"]
    assert missed
    assert all("double top face" in v["lhs"] for v in missed)


def test_beta_identity_fails_at_lower_degeneracies():
    # triviality only holds at the bottom degeneracy: s_0 of this
    # 2-chain produces a cell whose bottom is the swap
    c = _chain(SURJ, FinMap(2, 2, (2, 1)), FinMap(2, 1, (1, 1)))
    low = beta(1, degeneracy(0, c))
    assert low.bottom == FinMap(2, 2, (2, 1))
    assert low != identity_ladder(low.source)
    bottom = beta(1, degeneracy(2, c))
    assert bottom == identity_ladder(bottom.source)


@pytest.mark.parametrize(
    "mutant, checks, lhs",
    [
        (CorruptFibre, 26, "bottom map must be a quasibijection"),
        (CompositeOutsideHoms, 44, "map 0 does not end at object 1"),
    ],
)
def test_bottom_degeneracy_failures_are_reported(mutant, checks, lhs):
    # a broken instance makes beta raise at the bottom degeneracies; the
    # sweep reports each one as a witness and runs on
    rep = verify_beta_coherence(
        mutant(make_fin_surj()), 2, 3, max_violations=10**6
    )
    assert rep.checks == checks
    site = [
        v for v in rep.violations
        if v["axiom"] == "beta-at-bottom-degeneracy"
    ]
    assert len(site) == rep.by_axiom["beta-at-bottom-degeneracy"]
    assert {(v["lhs"], v["rhs"]) for v in site} == {
        (lhs, "the identity ladder")
    }


@pytest.mark.parametrize(
    "factory, strict_errors, lift_errors",
    [(make_fin, 327, 18), (make_fin_surj, 40, 6), (make_op, 225, 10)],
    ids=["fin", "fin-surj", "op"],
)
def test_strict_and_opfibration_failures_are_reported(
    factory, strict_errors, lift_errors
):
    # composites outside the homs make the chain operators raise; both
    # sweeps report each failing chain as a witness and run on
    inst = CompositeOutsideHoms(factory())
    strict = verify_strict_identities(inst, 2, 3, max_violations=10**6)
    lift = verify_opfibration(inst, 1, 2, max_violations=10**6)
    lhs = "map 0 does not end at object 1"
    for rep, tag, errors in (
        (strict, "strict-identities-error", strict_errors),
        (lift, "opfibration-lift-error", lift_errors),
    ):
        assert not rep.ok and rep.checks >= errors
        assert [(v["axiom"], v["lhs"]) for v in rep.violations] == (
            [(tag, lhs)] * errors
        )
    assert all("sigma0" in v["witness"] for v in lift.violations)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_opfibration_sweep_lifts_the_identity_of_a_corrupt_instance(n):
    # CorruptFibre counts no map as a quasibijection, the identity
    # included; the sweep still asks for the lift of the identity out of
    # every chain's bottom and reports each refusal
    rep = verify_opfibration(CorruptFibre(make_fin_surj()), n, 3)
    assert not rep.ok
    assert rep.checks == len(list(enumerate_p(SURJ, n, 3)))
    assert [(v["axiom"], v["lhs"]) for v in rep.violations] == [
        ("opfibration-lift-error", "bottom map must be a quasibijection")
    ] * rep.checks


def test_coherence_scalar_witness():
    # the lowest coherence equation at (swap, id, fold): both sides are
    # the swap
    f3, f2, f1 = FinMap(2, 2, (2, 1)), identity(2), FinMap(2, 1, (1, 1))
    c = _chain(SURJ, f3, f2, f1)
    assert c.locally_op
    lhs = compose_ladders(beta(0, face(1, c)), beta(0, top_face(c)))
    rhs = compose_ladders(beta(0, face(2, c)), ladder_top_face(beta(1, c)))
    assert lhs == rhs
    assert lhs.horizontals == (FinMap(2, 2, (2, 1)),)


def test_beta_coherence_sweeps():
    # levels 0 .. maxlen - 3, level 0 always; fin-surj at bound 3 and
    # maxlen 5 (5,824 checks) is acceptance criterion 9
    for inst, bound, maxlen, checks in (
        (SURJ, 3, 3, 274),
        (SURJ, 3, 4, 1_093),
        (FIN, 2, 4, 1_345),
        (FIN, 2, 5, 5_684),
    ):
        rep = verify_beta_coherence(inst, bound, maxlen)
        assert rep.ok, rep.summary()
        assert rep.checks == checks, (inst.name, bound, maxlen)
        if (inst, bound, maxlen) == (SURJ, 3, 4):
            assert rep.by_axiom == {
                "beta-0-construction": 25,
                "coherence-0-direct": 121,
                "coherence-0": 121,
                "beta-at-bottom-degeneracy": 32,
                "beta-1-construction": 121,
                "coherence-1": 673,
            }


def test_the_nerve_of_op_passes_every_sweep():
    # op's only quasibijections are identities, so its nerve is strict
    rep = verify_strict_identities(OP, 2, 4)
    assert rep.ok, rep.summary()
    assert rep.checks == 32_961
    assert rep.by_axiom == {
        "top-face-not-locally-op": 674,
        "face-face": 3_405,
        "face-top-face": 1_787,
        "face-degeneracy": 14_867,
        "top-face-bottom-degeneracy": 674,
        "degeneracy-top-face": 2_461,
        "degeneracy-degeneracy": 9_001,
        "reflection-not-locally-op": 46,
        "reflection-naturality": 46,
    }
    rep = verify_beta_coherence(OP, 2, 4)
    assert rep.ok, rep.summary()
    assert rep.checks == 976
    assert rep.by_axiom == {
        "beta-0-construction": 36,
        "coherence-0-direct": 133,
        "coherence-0": 133,
        "beta-at-bottom-degeneracy": 46,
        "beta-1-construction": 133,
        "coherence-1": 495,
    }
    for n, checks in ((0, 3), (1, 10), (2, 36)):
        rep = verify_opfibration(OP, n, 2)
        assert rep.ok, rep.summary()
        assert rep.by_axiom == {"opfibration-lift-invalid": checks}


def _cells_and_nontrivial(inst, m, bound):
    cells = [beta(m, c) for c in enumerate_p(inst, m + 2, bound)]
    return len(cells), sum(c != identity_ladder(c.source) for c in cells)


def test_beta_is_the_identity_on_op_but_not_on_fin_surj():
    # strict versus oplax: every mediating cell of op at levels 0 and 1
    # is an identity ladder, while about half of those of fin-surj are not
    assert [_cells_and_nontrivial(OP, m, 2) for m in (0, 1)] == [
        (36, 0), (133, 0),
    ]
    assert [_cells_and_nontrivial(SURJ, m, 3) for m in (0, 1)] == [
        (25, 12), (121, 66),
    ]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_each_coherence_level_catches_a_trivial_beta(monkeypatch, m):
    real = nerve.beta

    def trivial_at_m(n, chain, mode="production"):
        cell = real(n, chain, mode)
        return identity_ladder(cell.source) if n == m else cell

    monkeypatch.setattr(nerve, "beta", trivial_at_m)
    rep = verify_beta_coherence(SURJ, 2, 5)
    assert f"coherence-{m}" in {v["axiom"] for v in rep.violations}
