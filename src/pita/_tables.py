"""Array views of a universe, and vectorised sweeps.

Private helper for the exhaustive checks whose triple loops get too large
for the interpreter (tens of millions of cases at bound 4). A MapTable
views the id lists of an interned Universe (see opcat) as integer arrays:
composition, fibre maps, the permutation/order-preserving splitting and
the relative order-preserving parts. The triple sweeps become chunked
numpy gathers, one chunk per middle morphism.

The splitting sweeps evaluate the identities defined in factorisation on
id arrays; only the iterated fibre-map equation is written out here.

The universe asked the instance (not the raw finite-set functions), so a
deliberately corrupted instance poisons the tables and the sweeps still
report it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import IntegrityError
from .factorisation import _COCYCLE, _cocycle_sides, _pair_sites, _unit_square
from .opcat import default_threads


def _array(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


class MapTable:
    def __init__(self, universe):
        universe.require_closed()
        self.universe = universe
        self.bound = bound = universe.bound
        maps = universe.maps
        self.n = n = universe.n
        self.DOM = _array([f.dom for f in maps])
        self.COD = _array([f.cod for f in maps])
        self.OP = np.array(universe.order_preserving, dtype=bool)
        self.ID = _array(universe.dom_identity)
        self.by_dom = {X: _array(ks) for X, ks in universe.out_of.items()}
        self.by_cod = {Y: _array(ks) for Y, ks in universe.into.items()}

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

        self.PI = self.ETA = self.ER = None

    def ensure_pita(self):
        """Splitting and relative order-preserving-part tables."""
        if self.PI is not None:
            return
        pis, etas, _ = self.universe.splits()
        self.PI, self.ETA = _array(pis), _array(etas)
        self.ER = _array(self.universe.relative_parts())

    def _merge(self, report, tag, chunk):
        """Run chunk(g) for every middle id g on PITA_THREADS workers,
        then, in chunk order, count its checks under tag and report its
        hits. A chunk returns its check count and its hits, each
        (ids, extra, lhs, rhs): the ids of the witness morphisms by
        name, the other witness entries, and the ids of both sides."""
        threads = default_threads()
        if threads <= 1:
            results = map(chunk, range(self.n))
        else:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                results = list(ex.map(chunk, range(self.n)))
        json_of = self.universe.json_of
        for checks, hits in results:
            report.count(tag, checks)
            for ids, extra, lhs, rhs in hits:
                witness = {name: json_of(k) for name, k in ids.items()}
                report.add(
                    tag, {**witness, **extra}, json_of(lhs), json_of(rhs)
                )

    # ------------------------------------------------- axiom A-style sweep

    def sweep_iterated_fibre_maps(self, report):
        """Fibre maps of fibre maps agree with fibre maps over the
        composite, across every composable triple: with pairs (h, g) and
        (g, f), the fibre map of [h over g;f at i] taken over [g over f
        at i] at j equals the fibre map of h over g at epsilon(j)."""
        maxc = self.bound
        # one hit past the cap per chunk is enough for Report.add to mark
        # the list truncated
        cap = report.max_violations + 1

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
                        for hk, fk in np.argwhere(bad)[: cap - len(hits)]:
                            hits.append((
                                {"h": h_ids[hk], "g": g, "f": f_ids[fk]},
                                {"i": i, "j": j},
                                lhs[hk, fk], rhs[hk, fk],
                            ))
            return local_checks, hits

        self._merge(report, "iterated-fibre-map", chunk)

    # ------------------------------------------- splitting pairwise sweep

    def _composite(self, x, y):
        return self.C[x, y]

    def _relative_part(self, x, y):
        return self.ER[self.PIDX[x, y]]

    def sweep_splitting_identities(self, report):
        """The pair sites of the splitting calculus and the fibrewise
        order-preservation of every unit square, evaluated on the arrays
        of all composable pairs at once, site by site."""
        self.ensure_pita()
        json_of = self.universe.json_of
        pa, pb, ER = self.pa, self.pb, self.ER
        AB = self.C[pa, pb]

        def where(p):
            return {"f": json_of(pa[p]), "g": json_of(pb[p])}

        for tag, applies, lhs, rhs in _pair_sites(
            self._composite, self.PI, self.ETA, self.ID, self.OP,
            pa, pb, AB, ER,
        ):
            applies = np.broadcast_to(applies, pa.shape)
            report.count(tag, int(applies.sum()))
            for p in np.flatnonzero(applies & (lhs != rhs)):
                report.add(tag, where(p), json_of(lhs[p]), json_of(rhs[p]))

        Q = self.PIDX[_unit_square(self.PI, AB, ER)]
        if (Q < 0).any():
            raise IntegrityError("unit square is not composable")
        F = self.FM[Q]
        valid = np.arange(self.bound)[None, :] < self.COD[ER][:, None]
        report.count("unit-square-not-fop", int(valid.sum()))
        for p, i in np.argwhere(valid & ~self.OP[F]):
            report.add(
                "unit-square-not-fop", {**where(p), "i": int(i) + 1},
                json_of(F[p, i]), "an order-preserving fibre map",
            )

    # ---------------------------------------------- relative-part triples

    def sweep_relative_part_cocycle(self, report):
        """The relative-part cocycle over every composable triple (f, g,
        h), one chunk per middle id g: f_ids down the rows, h_ids across
        the columns."""
        self.ensure_pita()
        cap = report.max_violations + 1

        def chunk(g):
            hits = []
            f_ids = self.by_cod.get(self.DOM[g])
            h_ids = self.by_dom.get(self.COD[g])
            if f_ids is None or h_ids is None or not len(f_ids) or not len(h_ids):
                return 0, hits
            lhs, rhs = _cocycle_sides(
                self._composite, self._relative_part,
                f_ids[:, None], g, h_ids[None, :],
            )
            for fk, hk in np.argwhere(lhs != rhs)[:cap]:
                hits.append((
                    {"f": f_ids[fk], "g": g, "h": h_ids[hk]}, {},
                    lhs[fk, hk], rhs[fk, hk],
                ))
            return lhs.size, hits

        self._merge(report, _COCYCLE, chunk)
