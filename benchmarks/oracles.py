"""Independent values the benchmark checks matgraph's answers against, and
arithmetic-free generators for seeded inputs.

Nothing here calls matgraph: the closed forms are plain integer arithmetic,
and the matrix generators only place unit entries and random digits, so a
defect in the library cannot make its own reference agree with it.
"""

from __future__ import annotations

import random
from math import comb


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """The q-binomial coefficient [n r]_q: the number of r-dimensional
    subspaces of F_q^n."""
    if not 0 <= r <= n:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def mrd_rank_spectrum(q: int, N: int, n: int, k: int) -> dict[int, int]:
    """Rank distribution of any [n, k] MRD code over F_{q^N}, n <= N.

    Gabidulin (1985): with d = n - k + 1, A_0 = 1 and for d <= r <= n

        A_r = [n r]_q sum_{j=0}^{r-d} (-1)^j q^C(j,2) [r j]_q (q^(N(r-d+1-j)) - 1).
    """
    d = n - k + 1
    spectrum = {0: 1}
    for r in range(d, n + 1):
        total = sum(
            (-1) ** j
            * q ** comb(j, 2)
            * gaussian_binomial(r, j, q)
            * (q ** (N * (r - d + 1 - j)) - 1)
            for j in range(r - d + 1)
        )
        count = gaussian_binomial(n, r, q) * total
        if count:
            spectrum[r] = count
    return spectrum


def full_column_rank(rng: random.Random, rows: int, cols: int, q: int) -> list[list[int]]:
    """A random rows x cols matrix of F_q encodings with rank cols.

    Rows picked at random hold a unit upper-triangular block (1 on the
    diagonal, 0 below it, random above), the other rows are random, so the
    rank is cols over any field whose 1 is encoded as 1.
    """
    if cols > rows:
        raise ValueError("need cols <= rows")
    mat = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    for j, i in enumerate(rng.sample(range(rows), cols)):
        for c in range(cols):
            mat[i][c] = 1 if c == j else (0 if c < j else rng.randrange(q))
    return mat


def rank_r_matrix(rng: random.Random, rows: int, cols: int, r: int, p: int) -> list[int]:
    """Row-major entries of a random rows x cols matrix over the prime field
    F_p with rank exactly r, as A B with A (rows x r) and B (r x cols) of
    full rank r."""
    a = full_column_rank(rng, rows, r, p)
    bt = full_column_rank(rng, cols, r, p)
    return [
        sum(a[i][t] * bt[j][t] for t in range(r)) % p
        for i in range(rows)
        for j in range(cols)
    ]


def independent_elements(rng: random.Random, q: int, N: int, n: int) -> list[int]:
    """n encodings of F_{q^N} elements that are linearly independent over
    F_q: the columns of a random N x n matrix of rank n, read as base-q
    digit vectors (digit i is the coordinate of basis element i)."""
    mat = full_column_rank(rng, N, n, q)
    return [sum(mat[i][j] * q ** i for i in range(N)) for j in range(n)]
