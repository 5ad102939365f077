"""Dense views for the tests: the package ranks and keeps matrices of field
scalars by their nonzero entries only, and tests that build a dense grid,
or compare grids entry by entry, go through these."""

from ghrv.complexes import distinct_entries
from ghrv.matrix import all_minors, map_entries, rank_over_field, sparse_rows


def dense_rank(grid, field) -> int:
    """rank_over_field of a dense grid of scalars of `field`, each row given
    as the dict of its entries other than field.zero; the grid is read, not
    changed."""
    zero = field.zero
    return rank_over_field([{j: e for j, e in enumerate(row) if e != zero} for row in grid], field)


def dense_grids(entries, scalars, zero) -> list:
    """Both grids of a DistinctEntries in full, as lists of row lists:
    scalars[k] at every (column, k) pair and zero elsewhere.  scalars is
    indexed like entries.values, for example the values at one point."""
    out = []
    for rows in entries.rows:
        grid = []
        for pairs in rows:
            row = [zero] * len(rows)
            for j, k in pairs:
                row[j] = scalars[k]
            grid.append(row)
        out.append(grid)
    return out


def image_grid(ring, rows):
    """The image y -> 0 (ring.image_in_kx) of a grid over the ambient ring,
    entry by entry, as a grid over k[x]; each distinct entry object is
    mapped once (map_entries)."""
    (grid,) = map_entries(ring.image_in_kx, rows)
    return grid


def image_entries(ring, grids):
    """The DistinctEntries of the image grids y -> 0 of `grids` (image_grid,
    then distinct_entries): the reference a pair's kept pencil is compared
    with, zero images dropped and equal images sharing one index in the
    order first met, row by row."""
    return distinct_entries([image_grid(ring, grid) for grid in grids])


def image_rows(ring, rows):
    """The sparse rows over k[x] of the image y -> 0 of a grid over the
    ambient ring, as minor_ideal_image takes them."""
    return sparse_rows(image_grid(ring, rows))


def dense_minors(grid, r, ring):
    """all_minors of a dense grid, converted to sparse rows."""
    return all_minors(sparse_rows(grid), len(grid[0]) if grid else 0, r, ring)
