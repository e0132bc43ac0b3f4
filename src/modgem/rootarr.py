"""Reflection arrangements: root forms and flat censuses.

A root system is flattened to its projective arrangement: the positive root
forms up to sign, as primitive integer vectors. Each flat of its lattice
carries the full index set of forms containing it, so the t_q(j) census is
an exact set computation (`incidence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exactalg import ExactAlgError, _canonical_int_vector, _int_matmul, _max_abs

_BLOCK = 256  # flats per exact product in `incidence`


# -- root systems ---------------------------------------------------------------


@dataclass(frozen=True)
class RootSystemId:
    """One of A(n) n>=2, B(n)/C(n) n>=3, D(n) n>=3, F4, E6."""

    family: str
    rank: int

    def __post_init__(self):
        fam = self.family.upper()
        object.__setattr__(self, "family", fam)
        ok = (
            (fam == "A" and self.rank >= 2)
            or (fam in ("B", "C", "D") and self.rank >= 3)
            or (fam == "F" and self.rank == 4)
            or (fam == "E" and self.rank == 6)
        )
        if not ok:
            raise ExactAlgError(f"unsupported root system {fam}{self.rank}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def _unit(i: int, n: int, c: int = 1) -> list[int]:
    v = [0] * n
    v[i] = c
    return v


def _pair_forms(n: int, span: int, signs: Sequence[int] = (1, -1)) -> list[list[int]]:
    """The forms x_i + s*x_j for i < j < span and s in signs, in n coordinates."""
    out = []
    for i in range(span):
        for j in range(i + 1, span):
            for s in signs:
                v = _unit(i, n)
                v[j] = s
                out.append(v)
    return out


def roots(rsid: RootSystemId) -> list[tuple[int, ...]]:
    """Positive-root forms up to sign, as primitive integer vectors.

    A(n) uses the coordinates obtained by projecting along the last epsilon,
    so its forms are the x_i together with the differences x_i - x_j. The
    half-integer forms of F4 and E6 are doubled; projectively nothing changes.
    """
    fam, n = rsid.family, rsid.rank
    if fam == "E":
        # half-forms carry an even number of minus signs on x1..x5
        halves = [[-1 if bits >> k & 1 else 1 for k in range(5)] + [1]
                  for bits in range(32) if bin(bits).count("1") % 2 == 0]
        vecs = _pair_forms(6, 5) + halves
    else:
        units = [] if fam == "D" else [_unit(i, n, 2 if fam == "C" else 1) for i in range(n)]
        vecs = units + _pair_forms(n, n, (-1,) if fam == "A" else (1, -1))
        if fam == "F":
            vecs += [[1, s2, s3, s4] for s2 in (1, -1) for s3 in (1, -1) for s4 in (1, -1)]
    forms = [_canonical_int_vector(v) for v in vecs]
    if len(set(forms)) != len(forms):
        raise ExactAlgError("duplicate projective forms in root list")
    return forms


# -- arrangements and their flats -------------------------------------------------


@dataclass(frozen=True)
class Arrangement:
    """Hyperplane arrangement in P^ambient: pairwise distinct primitive forms."""

    ambient: int
    forms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        prims = tuple(_canonical_int_vector(f) for f in self.forms)
        if len(set(prims)) != len(prims):
            raise ExactAlgError("arrangement forms must be projectively distinct")
        object.__setattr__(self, "forms", prims)
        if any(len(f) != self.ambient + 1 for f in self.forms):
            raise ExactAlgError("form length must be ambient+1")


def arrangement(rsid: RootSystemId) -> Arrangement:
    forms = roots(rsid)
    return Arrangement(ambient=len(forms[0]) - 1, forms=tuple(forms))


@dataclass(eq=False)  # levels hold arrays, which compare entry by entry
class IncidenceTable:
    """Every flat of an arrangement with the set of forms containing it.

    `levels` holds one (bases, masks) pair per level, from the hyperplanes
    down to the points: the (L, r, n+1) point bases of the level's L flats
    of dimension r - 1, and their form masks as Python ints, bit i set when
    form i contains the flat. The t_q(j) census is the count of flats by
    (q, dim), read from the masks' bit counts; no per-flat object is built.
    """

    arrangement: Arrangement
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]


def _cut(bases: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Point bases (c, r-1, n+1) of the flats one form each cuts out of bases
    (c, r, n+1), from its values w (c, r) on the rows k_m: with j the first
    row not killed, the rows w_j k_m - w_m k_j (m != j), primitive and
    independent (only row m has k_m). No entry exceeds 2 max|w| max|k|, so
    the arithmetic is int64 below 2^62 and on Python ints above."""
    bound = 2 * _max_abs(values) * _max_abs(bases)
    k, w = (a.astype(np.int64 if bound < 2 ** 62 else object) for a in (bases, values))
    at, j = np.arange(len(w)), (w != 0).argmax(axis=1)
    rows = w[at, j][:, None, None] * k - w[:, :, None] * k[at, j][:, None, :]
    rows = rows[np.arange(w.shape[1]) != j[:, None]].reshape(len(w), w.shape[1] - 1, k.shape[2])
    return rows // np.gcd.reduce(rows, axis=2)[:, :, None]


def incidence(arr: Arrangement) -> IncidenceTable:
    """Full flat lattice by level-wise closure against the hyperplanes.

    Level c is one array of the bases K (n + 1 - c rows) of its flats, from
    the whole space (K the identity, not listed) down. A flat L is the meet
    of the hyperplanes containing it (Orlik and Terao, Arrangements of
    Hyperplanes, ch. 2), so its form set, a bitmask in a Python int, keys
    it. Per exact product of the forms F with `_BLOCK` flats, the zero rows
    of each V = F K^T must be exactly L's mask. L ∩ H_i lies on H_j iff V[j]
    is a multiple of V[i], so the block's (flat, primitive sign-fixed
    nonzero row) pairs, grouped by one stable `np.lexsort` of int64 keys
    (a row past int64 as its entries' signs and 62-bit limbs), are the
    children: L's mask OR the group's bits, merged by one
    `np.bitwise_or.reduceat`, by flat and then by the group's least form i.
    One `_cut` per level cuts each new child's basis out of K by V[i].
    """
    forms = np.array(arr.forms, dtype=object).reshape(-1, arr.ambient + 1)
    nforms, width = forms.shape
    bits = np.array([1 << i for i in range(nforms)], dtype=object)
    masks, bases, levels = np.zeros(1, dtype=object), np.eye(width, dtype=np.int64)[None], []
    while len(masks):
        rank, nxt, parents, cuts = bases.shape[1], {}, [], []
        for s in range(0, len(masks), _BLOCK):
            block, own = bases[s:s + _BLOCK], masks[s:s + _BLOCK]
            vals = _int_matmul(forms, block.reshape(-1, width)).reshape(nforms, len(block), rank)
            off = (vals != 0).any(axis=2).T
            zero = np.packbits(~off, axis=1, bitorder="little")
            if [int.from_bytes(z.tobytes(), "little") for z in zero] != own.tolist():
                raise ExactAlgError("forms vanishing on a flat are not its members")
            if rank == 1:
                continue
            flat, form = np.nonzero(off)
            w = vals[form, flat]
            lead = w[np.arange(len(w)), (w != 0).argmax(axis=1)]
            prim = w // (np.gcd.reduce(w, axis=1) * np.where(lead < 0, -1, 1))[:, None]
            if prim.dtype == object:  # past int64: each entry's sign and 62-bit limbs
                mag = np.abs(prim)
                shifts = range(0, max(1, int(mag.max(initial=0)).bit_length()), 62)
                prim = np.hstack([prim < 0, *((mag >> k) & (2 ** 62 - 1) for k in shifts)])
            # a stable sort puts each group's first pair where its key changes
            keys = np.vstack([flat, prim.T.astype(np.int64)])
            order = np.lexsort(keys)
            starts = np.flatnonzero(np.diff(keys[:, order], axis=1, prepend=-1).any(axis=0))
            groups = np.argsort(order[starts])  # in the order of their first pairs
            first = order[starts[groups]]
            child = own[flat[first]] | np.bitwise_or.reduceat(bits[form[order]], starts)[groups]
            picks = [p for p, m in zip(first.tolist(), child.tolist())
                     if m not in nxt and nxt.setdefault(m, True)]  # first pair of a new mask
            parents.append(s + flat[picks])
            cuts.append(w[picks])
        levels.append((bases, masks))
        masks = np.array(list(nxt), dtype=object)
        if len(masks):
            bases = _cut(bases[np.concatenate(parents)], np.concatenate(cuts))
    return IncidenceTable(arr, tuple(levels[1:]))


@lru_cache(maxsize=None)
def cached_incidence(family: str, rank: int) -> IncidenceTable:
    return incidence(arrangement(RootSystemId(family, rank)))
