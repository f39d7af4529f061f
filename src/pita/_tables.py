"""Array views of a universe, and vectorised sweeps.

Private helper for the exhaustive checks whose triple loops get too large
for the interpreter (tens of millions of cases at bound 4). A MapTable
views the id lists of an interned Universe (see opcat) as integer arrays:
composition, fibre maps, the permutation/order-preserving splitting and
the relative order-preserving parts. The triple sweeps become chunked
numpy gathers, one chunk per middle morphism.

The universe asked the instance (not the raw finite-set functions), so a
deliberately corrupted instance poisons the tables and the sweeps still
report it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import finskel
from .finskel import finmap_to_json
from .errors import IntegrityError


def _array(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


class MapTable:
    def __init__(self, universe):
        if not universe.finmap_backed:
            raise IntegrityError(
                "table engine needs FinMap-backed morphism handles"
            )
        if universe.strays:
            raise IntegrityError(
                f"instance produced {universe.strays} composites or fibre "
                "maps outside its own homs"
            )
        self.universe = universe
        self.bound = bound = universe.bound
        self.maps = maps = universe.maps
        self.n = n = universe.n
        self.DOM = _array([f.dom for f in maps])
        self.COD = _array([f.cod for f in maps])
        self.OP = np.array(
            [finskel.is_order_preserving(f) for f in maps], dtype=bool
        )
        self.by_dom = {}
        self.by_cod = {}
        for k, f in enumerate(maps):
            self.by_dom.setdefault(f.dom, []).append(k)
            self.by_cod.setdefault(f.cod, []).append(k)
        for d in (self.by_dom, self.by_cod):
            for key in d:
                d[key] = _array(d[key])

        self.ID_BY_CARD = np.full(bound + 1, -1, dtype=np.int32)
        for X, k in universe.identities.items():
            self.ID_BY_CARD[X] = k

        # composition table and the composable-pair index
        self.pa = _array(universe.pair_first)
        self.pb = _array(universe.pair_second)
        self.pairs = len(self.pa)
        self.PIDX = _array(universe.pair_index).reshape(n, n)
        self.C = np.full((n, n), -1, dtype=np.int32)
        self.C[self.pa, self.pb] = universe.composites

        # fibre sizes, inclusions and fibre maps
        self.FS = np.zeros((n, bound), dtype=np.int16)
        self.EPS = np.zeros((n, bound, bound), dtype=np.int16)
        for k, inclusions in enumerate(universe.inclusions):
            for i, eps in enumerate(inclusions):
                self.FS[k, i] = len(eps)
                self.EPS[k, i, : len(eps)] = eps
        self.FM = _array(universe.fibre_maps).reshape(self.pairs, bound)

        self.PI = None
        self.ETA = None
        self.INV = None
        self.ER = None

    def ensure_pita(self):
        """Splitting, inversion and relative order-preserving-part tables."""
        if self.PI is not None:
            return
        self.PI, self.ETA, self.INV = map(_array, self.universe.splits())
        # eta_rel(a, b) = compose(compose(inverse(pi(ab)), a), pi(b))
        AB = self.C[self.pa, self.pb]
        X = self.INV[self.PI[AB]]
        self.ER = self.C[self.C[X, self.pa], self.PI[self.pb]]
        if (self.ER < 0).any():
            raise IntegrityError("relative splitting left the universe")

    def _per_chunk(self, fn, ids, threads):
        """Run fn over chunk indices, in order, optionally on a pool."""
        if threads <= 1:
            return [fn(k) for k in ids]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, ids))

    # ------------------------------------------------- axiom A-style sweep

    def sweep_iterated_fibre_maps(self, report, threads=1):
        """Fibre maps of fibre maps agree with fibre maps over the
        composite, across every composable triple: with pairs (h, g) and
        (g, f), the fibre map of [h over g;f at i] taken over [g over f
        at i] at j equals the fibre map of h over g at epsilon(j)."""
        maxc = self.bound

        def chunk(g):
            hits = []
            local_checks = 0
            h_ids = self.by_cod.get(self.DOM[g])
            f_ids = self.by_dom.get(self.COD[g])
            if h_ids is None or f_ids is None or not len(h_ids) or not len(f_ids):
                return 0, hits
            FG = self.C[g, f_ids]
            PH = self.PIDX[h_ids, g]
            PGF = self.PIDX[g, f_ids]
            PHFG = self.PIDX[h_ids[:, None], FG[None, :]]
            for i in range(1, maxc + 1):
                valid_i = i <= self.COD[f_ids]
                if not valid_i.any():
                    continue
                B = self.FM[PGF, i - 1]
                A2 = self.FM[PHFG, i - 1]
                PAB = self.PIDX[A2, B[None, :]]
                fs_i = self.FS[f_ids, i - 1]
                for j in range(1, maxc + 1):
                    mask = valid_i & (j <= fs_i)
                    if not mask.any():
                        continue
                    lhs = self.FM[PAB, j - 1]
                    epsj = self.EPS[f_ids, i - 1, j - 1].astype(np.int64)
                    rhs = self.FM[PH[:, None], epsj[None, :] - 1]
                    local_checks += int(mask.sum()) * len(h_ids)
                    bad = mask[None, :] & (lhs != rhs)
                    if bad.any():
                        for hk, fk in np.argwhere(bad)[:10]:
                            hits.append(
                                (
                                    int(h_ids[hk]), int(g), int(f_ids[fk]),
                                    i, j,
                                    int(lhs[hk, fk]), int(rhs[hk, fk]),
                                )
                            )
            return local_checks, hits

        for checks, hits in self._per_chunk(chunk, range(self.n), threads):
            report.count("iterated-fibre-map", checks)
            for h, g, f, i, j, lhs, rhs in hits:
                report.add(
                    "iterated-fibre-map",
                    {
                        "h": finmap_to_json(self.maps[h]),
                        "g": finmap_to_json(self.maps[g]),
                        "f": finmap_to_json(self.maps[f]),
                        "i": i,
                        "j": j,
                    },
                    finmap_to_json(self.maps[lhs]) if lhs >= 0 else None,
                    finmap_to_json(self.maps[rhs]) if rhs >= 0 else None,
                )

    # ------------------------------------------- splitting pairwise sweep

    def sweep_splitting_identities(self, report):
        """Unary and pairwise identities of the quasibijection/op
        splitting: idempotence of the two parts, triviality of the cross
        parts, op quasibijections being identities, the two defining
        equations of relative op parts with their degenerate cases, the
        op-part composition law through the twisted middle term, and
        fibrewise order-preservation of every unit square."""
        self.ensure_pita()
        maps = self.maps
        ids = np.arange(self.n)
        id_dom = self.ID_BY_CARD[self.DOM]

        def emit_unary(tag, bad, lhs, rhs):
            report.checks += self.n
            for k in np.flatnonzero(bad)[:10]:
                report.add(
                    tag,
                    {"f": finmap_to_json(maps[int(k)])},
                    finmap_to_json(maps[int(lhs[k])]),
                    finmap_to_json(maps[int(rhs[k])]),
                )

        emit_unary(
            "pi-of-pi", self.PI[self.PI] != self.PI, self.PI[self.PI], self.PI
        )
        emit_unary(
            "eta-of-eta",
            self.ETA[self.ETA] != self.ETA,
            self.ETA[self.ETA],
            self.ETA,
        )
        emit_unary(
            "pi-of-eta", self.PI[self.ETA] != id_dom, self.PI[self.ETA], id_dom
        )
        emit_unary(
            "eta-of-pi", self.ETA[self.PI] != id_dom, self.ETA[self.PI], id_dom
        )
        emit_unary(
            "op-quasibijection-not-identity",
            self.OP & (self.INV >= 0) & (ids != id_dom),
            ids,
            id_dom,
        )

        pa, pb, ER = self.pa, self.pb, self.ER
        AB = self.C[pa, pb]

        def emit_pair(tag, bad, lhs, rhs, count=None):
            report.checks += int(bad.size if count is None else count)
            for p in np.flatnonzero(bad)[:10]:
                report.add(
                    tag,
                    {
                        "f": finmap_to_json(maps[int(pa[p])]),
                        "g": finmap_to_json(maps[int(pb[p])]),
                    },
                    finmap_to_json(maps[int(lhs[p])]),
                    finmap_to_json(maps[int(rhs[p])]),
                )

        emit_pair(
            "relative-part-left-triangle",
            self.C[ER, self.ETA[pb]] != self.ETA[AB],
            self.C[ER, self.ETA[pb]],
            self.ETA[AB],
        )
        emit_pair(
            "relative-part-defining-square",
            self.C[self.PI[AB], ER] != self.C[pa, self.PI[pb]],
            self.C[self.PI[AB], ER],
            self.C[pa, self.PI[pb]],
        )
        mid = self.C[self.ETA[pa], self.PI[pb]]
        emit_pair(
            "op-part-composition",
            self.C[self.ETA[mid], self.ETA[pb]] != self.ETA[AB],
            self.C[self.ETA[mid], self.ETA[pb]],
            self.ETA[AB],
        )
        g_is_id = pb == self.ID_BY_CARD[self.DOM[pb]]
        emit_pair(
            "relative-part-over-identity",
            g_is_id & (ER != self.ETA[pa]),
            ER,
            self.ETA[pa],
            count=g_is_id.sum(),
        )
        f_is_id = pa == self.ID_BY_CARD[self.DOM[pa]]
        emit_pair(
            "relative-part-of-identity",
            f_is_id & (ER != pa),
            ER,
            pa,
            count=f_is_id.sum(),
        )
        op_pair = self.OP[pb] & self.OP[AB]
        emit_pair(
            "relative-part-op-pair",
            op_pair & (ER != pa),
            ER,
            pa,
            count=op_pair.sum(),
        )

        # every unit square is fop: the fibre maps of pi(a;b) over the
        # relative op part are all order-preserving
        Q = self.PIDX[self.PI[AB], ER]
        if (Q < 0).any():
            raise IntegrityError("unit square is not composable")
        F = self.FM[Q]
        valid = np.arange(self.bound)[None, :] < self.COD[ER][:, None]
        fop = np.where(valid, (F >= 0) & self.OP[np.maximum(F, 0)], True)
        report.checks += int(valid.sum())
        for p in np.flatnonzero(~fop.all(axis=1))[:10]:
            report.add(
                "unit-square-not-fop",
                {
                    "f": finmap_to_json(maps[int(pa[p])]),
                    "g": finmap_to_json(maps[int(pb[p])]),
                },
                "a non-order-preserving fibre map",
                "an order-preserving fibre map",
            )

    # ---------------------------------------------- relative-part triples

    def sweep_relative_part_cocycle(self, report, threads=1):
        """The relative order-preserving parts compose: for f then g then
        h, the relative part of f over g;h composed with the relative part
        of g over h equals the relative part of f;g over h."""
        self.ensure_pita()

        def chunk(g):
            hits = []
            f_ids = self.by_cod.get(self.DOM[g])
            h_ids = self.by_dom.get(self.COD[g])
            if f_ids is None or h_ids is None or not len(f_ids) or not len(h_ids):
                return 0, hits
            GH = self.C[g, h_ids]
            er_gh = self.ER[self.PIDX[g, h_ids]]
            er1 = self.ER[self.PIDX[f_ids[:, None], GH[None, :]]]
            lhs = self.C[er1, er_gh[None, :]]
            FG = self.C[f_ids, g]
            rhs = self.ER[self.PIDX[FG[:, None], h_ids[None, :]]]
            bad = lhs != rhs
            if bad.any():
                for fk, hk in np.argwhere(bad)[:10]:
                    hits.append(
                        (
                            int(f_ids[fk]), int(g), int(h_ids[hk]),
                            int(lhs[fk, hk]), int(rhs[fk, hk]),
                        )
                    )
            return lhs.size, hits

        for checks, hits in self._per_chunk(chunk, range(self.n), threads):
            report.checks += checks
            for f, g, h, lhs, rhs in hits:
                report.add(
                    "relative-part-cocycle",
                    {
                        "f": finmap_to_json(self.maps[f]),
                        "g": finmap_to_json(self.maps[g]),
                        "h": finmap_to_json(self.maps[h]),
                    },
                    finmap_to_json(self.maps[lhs]),
                    finmap_to_json(self.maps[rhs]),
                )
