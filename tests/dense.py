"""Dense views for the tests: the package ranks and keeps matrices of field
scalars by their nonzero entries only, and tests that build a dense grid,
or compare grids entry by entry, go through these."""

from ghrv.matrix import rank_over_field


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
