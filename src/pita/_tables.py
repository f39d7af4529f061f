"""Array views of a universe, and vectorised sweeps.

Private helper for the exhaustive checks whose triple loops get too large
for the interpreter (tens of millions of cases at bound 4). A MapTable
views the id lists of an interned Universe (see opcat) as integer arrays:
composition, fibre maps, the permutation/order-preserving splitting and
the relative order-preserving parts. The triple sweeps become chunked
numpy gathers, one chunk per middle morphism.

The splitting sweeps evaluate the identities defined in factorisation on
id arrays; only the iterated fibre-map equation is written out here.

Layout. The arrays are the universe's own lists, in the universe's padded
layout (see opcat.Universe), so -1 reads -1 here by plain indexing, as on
the loop route, and opcat._by_pair looks composites and relative parts up
on both routes. The one layout step of this module is FMT, the fibre maps
transposed into one row per point: FMT[i - 1][p] is the fibre map of
pair p over i.

Reference ids. The pair sweep of verify_axioms compares the instance's
composites and fibre maps with finskel's. Here those are computed as ids
for all pairs, _PAIR_CHUNK pairs at a time, from two tables over points
x = 1 .. bound (0 in column 0 and past dom k): VAL[k, x], the value of
map k at x, and the rank table RANK[k, x], the position of x in its fibre
of k. The composite of a pair (g, f) takes x to VAL[f, VAL[g, x]], and
its fibre map over i takes the points x with composite value i, in
order, to RANK[f, VAL[g, x]]. A map dom -> cod with values v_1 .. v_dom
has the code (dom * B + cod) * B^bound + sum of v_x * B^(bound - x), with
B = bound + 1, one integer per map, as no object or value exceeds bound;
searchsorted over the sorted codes of the universe's maps turns a code
into an id, -1 for a map outside the universe. Only the pairs whose
answers differ from these ids are rechecked with finskel.

Buffers. Each worker thread of the two triple sweeps writes the blocks
of its chunks into buffers it allocates once per sweep, through out=, and
every array it indexes with is intp (PIDX is stored intp), so numpy makes
no temporary of a block's size. The iterated-fibre-map kernel writes out
its blocks; the cocycle reads C and R through _BufferedLookups, which give
each lookup of a chunk its own result buffer. The sweeps' speed then does
not depend on how the allocator serves large blocks: with glibc's mmap
threshold pinned at 128 KB, fresh temporaries made them about 3x slower.

The universe asked the instance (not the raw finite-set functions), so a
deliberately corrupted instance poisons the tables and the sweeps still
report it.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import IntegrityError
from .factorisation import _COCYCLE, _cocycle_sides, _pair_sites, _unit_square
from .opcat import _by_pair, default_threads


# pairs per chunk of reference ids
_PAIR_CHUNK = 4096


def _array(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


class _BufferedLookups:
    """opcat._by_pair on the table's int32 arrays for one worker thread,
    through buffers of size elements that it keeps across chunks. The
    keys and pair ids of a lookup go to two scratch buffers, and the
    k-th lookup since start() writes its values into the k-th result
    buffer, so every value looked up in a chunk stays live to its end."""

    def __init__(self, table, size: int):
        self.index, self.stride = table.PIDX, table.n + 1
        self.size = size
        self.keys = np.empty(size, np.intp)
        self.pairs = np.empty(size, np.intp)
        self.results: list = []
        self.used = 0

    def start(self):
        self.used = 0

    def by_pair(self, values):
        def lookup(a, b):
            shape = np.broadcast_shapes(np.shape(a), np.shape(b))
            n = math.prod(shape)
            if self.used == len(self.results):
                self.results.append(np.empty(self.size, values.dtype))
            out = self.results[self.used][:n].reshape(shape)
            self.used += 1
            key = np.multiply(
                a, self.stride, out=self.keys[:n].reshape(shape),
                dtype=np.intp,
            )
            key += b
            pairs = self.index.take(
                key, out=self.pairs[:n].reshape(shape), mode="wrap"
            )
            return values.take(pairs, out=out, mode="wrap")

        return lookup


class MapTable:
    def __init__(self, universe):
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

        self.pa = _array(universe.pair_first)
        self.pb = _array(universe.pair_second)
        self.pairs = len(self.pa)
        # intp, so that the kernel's takes through it cast no index array
        self.PIDX = np.array(universe.pair_index, dtype=np.intp)
        self.CMP = _array(universe.composites)

        # fibre sizes and inclusions; the value and rank of every point
        self.FS = np.zeros((n, bound), dtype=np.int16)
        self.EPS = np.zeros((n, bound, bound), dtype=np.int16)
        self.VAL = np.zeros((n, bound + 1), dtype=np.intp)
        self.RANK = np.zeros((n, bound + 1), dtype=np.intp)
        for k, inclusions in enumerate(universe.inclusions):
            for i, eps in enumerate(inclusions):
                self.FS[k, i] = len(eps)
                self.EPS[k, i, : len(eps)] = eps
                self.VAL[k, list(eps)] = i + 1
                self.RANK[k, list(eps)] = range(1, len(eps) + 1)
        # per point, since the triple kernel makes contiguous 1-D takes
        self.FMT = np.ascontiguousarray(
            _array(universe.fibre_maps).reshape(self.pairs + 1, bound).T
        )

        # B^bound .. B^0, and the universe's maps sorted by code
        self.POW = (bound + 1) ** np.arange(bound, -1, -1, dtype=np.int64)
        codes = self._code(self.DOM, self.COD, self.VAL[:, 1:] @ self.POW[1:])
        self.BY_CODE = np.argsort(codes, kind="stable")
        self.CODES = codes[self.BY_CODE]

        self.PI = self.ETA = self.ER = None

    def ensure_pita(self):
        """Splitting and relative order-preserving-part tables."""
        if self.PI is not None:
            return
        self.universe.require_closed()
        pis, etas, _ = self.universe.splits
        self.PI, self.ETA = _array(pis), _array(etas)
        self.ER = _array(self.universe.relative_parts)

    # ------------------------------------------------ map codes and ids

    def _code(self, dom, cod, digits):
        """The codes of maps dom -> cod whose values weigh digits, the
        sum of v_x * B^(bound - x)."""
        return self.POW[0] * (dom * (self.bound + 1) + cod) + digits

    def _ids(self, codes):
        """The id of the map of each code, -1 for a map outside the
        universe; the last of equal maps, as in Universe.index."""
        at = np.searchsorted(self.CODES, codes, side="right") - 1
        return np.where(self.CODES[at] == codes, self.BY_CODE[at], -1)

    def reference_ids(self, lo: int, hi: int):
        """The ids of finskel's composite and fibre maps of the pairs lo
        .. hi - 1 (see the module docstring): an array of composite ids,
        and one of fibre-map ids with a row per point i of the second
        map's codomain, -1 past it, as in FMT."""
        w = self.bound
        g, f = self.pa[lo:hi], self.pb[lo:hi]
        # point x of dom g, 1 .. w, through g and then through f, and the
        # rank of g(x) in its fibre of f; 0 past dom g
        through = f[:, None] * (w + 1) + self.VAL[g]
        composite = self.VAL.take(through)[:, 1:]
        rank = self.RANK.take(through)[:, 1:]
        dom, cod = self.DOM[g], self.COD[f]
        composites = self._ids(self._code(dom, cod, composite @ self.POW[1:]))
        fibre_maps = np.full((w, hi - lo), -1, dtype=np.intp)
        for i in range(1, int(cod.max(initial=0)) + 1):
            over = composite == i
            # the points over i, numbered 1, 2, ... in order
            position = np.cumsum(over, axis=1)
            digits = (over * rank * self.POW[position]).sum(axis=1)
            codes = self._code(over.sum(axis=1), self.FS[f, i - 1], digits)
            fibre_maps[i - 1] = np.where(cod >= i, self._ids(codes), -1)
        return composites, fibre_maps

    def pairs_to_recheck(self):
        """The pairs of the pair sweep of verify_axioms that finskel must
        recompute, in pair order, and the cardinality-fibre-size and
        fibre-of-fibre-map checks that all other pairs make. A pair is
        rechecked when an answer id (its composite, a fibre map) differs
        from the reference id or is -1, or when the instance counts a
        fibre of g, f or one of the fibre maps wrongly. Any other pair
        passes every site: its fibre maps are finskel's, and a fibre of
        the fibre map over i at j has as many points as the fibre of g
        at epsilon(j)."""
        u = self.universe
        miscounted = np.array([
            F != tuple(map(len, eps))
            for F, eps in zip(u.fibres, u.inclusions)
        ] + [False])
        points = np.arange(1, self.bound + 1)[:, None]
        recheck = []
        sizes = fibres = 0
        for lo in range(0, self.pairs, _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, self.pairs)
            g, f = self.pa[lo:hi], self.pb[lo:hi]
            composites, fibre_maps = self.reference_ids(lo, hi)
            C, FM = self.CMP[lo:hi], self.FMT[:, lo:hi]
            bad = (C != composites) | (C < 0) | miscounted[g] | miscounted[f]
            bad |= (
                (points <= self.COD[f])
                & ((FM != fibre_maps) | (FM < 0) | miscounted[FM])
            ).any(axis=0)
            good = f[~bad]
            sizes += int(self.COD[good].sum())
            fibres += int(self.DOM[good].sum())
            recheck.extend((np.flatnonzero(bad) + lo).tolist())
        return recheck, sizes, fibres

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
        at i] at j equals the fibre map of h over g at epsilon(j). One
        chunk per middle id g, f_ids down the rows and h_ids across the
        columns; for each i and j only the rows of the f with i <= cod f
        and j <= |fibre of f over i| are looked up. Where the fibre maps
        do not compose, the lhs reads -1, as on the loop route.
        IntegrityError unless the universe is closed."""
        self.universe.require_closed()
        FS, EPS, FMT, pair_of = self.FS, self.EPS, self.FMT, self.PIDX
        stride = self.n + 1
        # one hit past the cap per chunk is enough for Report.add to mark
        # the list truncated
        cap = report.max_violations + 1
        # every block of a chunk fits in these (see Buffers); takes with
        # out= run in "wrap" mode, which reads an id in range as "raise"
        # does but writes into out without a buffered copy
        size = max(map(len, self.by_dom.values()), default=0) * max(
            map(len, self.by_cod.values()), default=0
        )
        local = threading.local()

        def chunk(g):
            hits = []
            checks = 0
            h_ids = self.by_cod[self.DOM[g]]
            f_ids = self.by_dom[self.COD[g]]
            if not len(h_ids) or not len(f_ids):
                return 0, hits
            if not hasattr(local, "buffers"):
                local.buffers = [
                    np.empty(size, dtype)
                    for dtype in (np.intp,) * 3 + (np.int32,) * 2 + (bool,)
                ]
            # I1 holds PHFG for the whole chunk; I2, I3 (ids to take at)
            # and V1, V2 (fibre-map ids) are each rewritten once read
            I1, I2, I3, V1, V2, bad = local.buffers

            def block(buffer, rows):
                return buffer[: rows * len(h_ids)].reshape(rows, len(h_ids))

            # R[e - 1, hk]: the fibre map of (h, g) over e
            R = FMT[:, pair_of.take(h_ids * stride + g)]
            PGF = pair_of.take(g * stride + f_ids)
            FG = self.CMP.take(PGF)
            PHFG = pair_of.take(
                np.add(FG[:, None], h_ids * stride, out=block(I2, len(f_ids))),
                out=block(I1, len(f_ids)), mode="wrap",
            )
            cod_f = self.COD[f_ids]
            for i in range(1, int(cod_f.max()) + 1):
                rows = np.flatnonzero(cod_f >= i)
                m = len(rows)
                fibre_map = FMT[i - 1]
                B = fibre_map.take(PGF[rows])
                A = np.take(PHFG, rows, axis=0, out=block(I2, m), mode="wrap")
                A = fibre_map.take(A, out=block(V1, m), mode="wrap")
                AB = np.multiply(A, stride, out=block(I3, m))
                AB += B[:, None]
                PAB = pair_of.take(AB, out=block(I2, m), mode="wrap")
                sizes = FS[f_ids[rows], i - 1]
                for j in range(1, int(sizes.max()) + 1):
                    keep = np.flatnonzero(sizes >= j)
                    fk = rows[keep]
                    PAB_j = np.take(
                        PAB, keep, axis=0, out=block(I3, len(keep)),
                        mode="wrap",
                    )
                    lhs = FMT[j - 1].take(
                        PAB_j, out=block(V1, len(keep)), mode="wrap"
                    )
                    rhs = np.take(
                        R, EPS[f_ids[fk], i - 1, j - 1] - 1, axis=0,
                        out=block(V2, len(keep)), mode="wrap",
                    )
                    checks += lhs.size
                    diff = np.not_equal(lhs, rhs, out=block(bad, len(keep)))
                    if diff.any():
                        for hk, k in np.argwhere(diff.T)[: cap - len(hits)]:
                            hits.append((
                                {"h": h_ids[hk], "g": g, "f": f_ids[fk[k]]},
                                {"i": i, "j": j},
                                lhs[k, hk], rhs[k, hk],
                            ))
            return checks, hits

        self._merge(report, "iterated-fibre-map", chunk)

    # ------------------------------------------- splitting pairwise sweep

    def sweep_splitting_identities(self, report):
        """The pair sites of the splitting calculus and the fibrewise
        order-preservation of every unit square, evaluated on the arrays
        of all composable pairs at once, site by site."""
        self.ensure_pita()
        json_of = self.universe.json_of
        pa, pb, stride = self.pa, self.pb, self.n + 1
        # the composite and relative part of each pair, without the padding
        AB, ER = self.CMP[:-1], self.ER[:-1]

        def where(p):
            return {"f": json_of(pa[p]), "g": json_of(pb[p])}

        for tag, applies, lhs, rhs in _pair_sites(
            _by_pair(self.PIDX, stride, self.CMP),
            self.PI, self.ETA, self.ID, self.OP, pa, pb, AB, ER,
        ):
            applies = np.broadcast_to(applies, pa.shape)
            report.count(tag, int(applies.sum()))
            for p in np.flatnonzero(applies & (lhs != rhs)):
                report.add(tag, where(p), json_of(lhs[p]), json_of(rhs[p]))

        top, side = _unit_square(self.PI, AB, ER)
        Q = self.PIDX[top * stride + side]
        if (Q < 0).any():
            raise IntegrityError("unit square is not composable")
        F = self.FMT[:, Q].T
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
        size = max(map(len, self.by_cod.values()), default=0) * max(
            map(len, self.by_dom.values()), default=0
        )
        local = threading.local()

        def chunk(g):
            hits = []
            f_ids = self.by_cod[self.DOM[g]]
            h_ids = self.by_dom[self.COD[g]]
            if not len(f_ids) or not len(h_ids):
                return 0, hits
            if not hasattr(local, "lookups"):
                lookups = local.lookups = _BufferedLookups(self, size)
                local.C = lookups.by_pair(self.CMP)
                local.R = lookups.by_pair(self.ER)
            local.lookups.start()
            lhs, rhs = _cocycle_sides(
                local.C, local.R, f_ids[:, None], g, h_ids[None, :]
            )
            for fk, hk in np.argwhere(lhs != rhs)[:cap]:
                hits.append((
                    {"f": f_ids[fk], "g": g, "h": h_ids[hk]}, {},
                    lhs[fk, hk], rhs[fk, hk],
                ))
            return lhs.size, hits

        self._merge(report, _COCYCLE, chunk)
