"""Dense views for the tests: the package ranks and keeps matrices of field
scalars by their nonzero entries only, and tests that build a dense grid,
or compare grids entry by entry, go through these."""

from ghrv.complexes import distinct_entries
from ghrv.matrix import all_minors, mat_mul, rank_over_field, sparse_rows


def dense_rank(grid, field) -> int:
    """rank_over_field of a dense grid of scalars of `field`, each row given
    as the dict of its entries other than field.zero; the grid is read, not
    changed."""
    zero = field.zero
    return rank_over_field([{j: e for j, e in enumerate(row) if e != zero} for row in grid], field)


def identity(ring, n, scale=None):
    """The n x n grid with `scale` (default one) on the diagonal."""
    diag = ring.one() if scale is None else scale
    zero = ring.zero()
    return tuple(tuple(diag if i == j else zero for j in range(n)) for i in range(n))


def dense_product(a, b, ring):
    """a * b of two grids position by position, one Poly product per pair
    of nonzero entries: the schoolbook product mat_mul is tested against."""
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(len(b)) if a[i][t].terms and b[t][j].terms), ring.zero())
              for j in range(len(b[0])))
        for i in range(len(a))
    )


def grid_of(rows, ncols, zero):
    """The grid of sparse rows (column, entry), zero at every other place."""
    out = []
    for row in rows:
        full = [zero] * ncols
        for j, e in row:
            full[j] = e
        out.append(tuple(full))
    return tuple(out)


def index_product(a, b, ring):
    """mat_mul of two grids, their entries indexed by value together
    (distinct_entries, which reads rectangular grids too), as sparse rows."""
    entries = distinct_entries((a, b), ring)
    return mat_mul(entries.values, *entries.rows, ring)


def grid_product(a, b, ring):
    """mat_mul of two grids (index_product), written out as a grid: the
    product of matrices that the tests hold densely."""
    return grid_of(index_product(a, b, ring), len(b[0]), ring.zero())


def image_grid(ring, rows):
    """The image y -> 0 (ring.image_in_kx) of a grid over the ambient ring,
    entry by entry, as a grid over k[x]."""
    return tuple(tuple(ring.image_in_kx(e) for e in row) for row in rows)


def image_entries(ring, grids):
    """The DistinctEntries of the image grids y -> 0 of `grids` (image_grid,
    then distinct_entries): the reference a pair's kept pencil is compared
    with, zero images dropped and equal images sharing one index in the
    order first met, row by row."""
    return distinct_entries([image_grid(ring, grid) for grid in grids], ring.kx)


def image_rows(ring, rows):
    """The sparse rows over k[x] of the image y -> 0 of a grid over the
    ambient ring, as minor_ideal_image takes them."""
    return sparse_rows(image_grid(ring, rows))


def dense_minors(grid, r, ring):
    """all_minors of a dense grid, converted to sparse rows."""
    return all_minors(sparse_rows(grid), len(grid[0]) if grid else 0, r, ring)
