"""The flats of an incidence table as records, for the tests' oracles.

`rootarr.IncidenceTable` keeps each level as one array of point bases and
one of form masks, and the census reads only the masks. The tests compare
the lattice flat by flat, so they unpack the levels here.
"""

from dataclasses import dataclass

from modgem.rootarr import IncidenceTable


@dataclass(frozen=True)
class Flat:
    """Projective flat: a point basis of its linear span, and the index set of
    the forms that contain it."""

    basis: tuple[tuple[int, ...], ...]
    forms: frozenset[int]

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    @property
    def q(self) -> int:
        return len(self.forms)


def table_flats(table: IncidenceTable) -> tuple[Flat, ...]:
    """Every flat of the table, level by level from the hyperplanes down."""
    forms = range(len(table.arrangement.forms))
    return tuple(Flat(tuple(map(tuple, k)), frozenset(i for i in forms if m >> i & 1))
                 for bases, masks in table.levels
                 for k, m in zip(bases.tolist(), masks.tolist()))
