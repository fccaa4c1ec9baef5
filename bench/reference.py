"""Expected answers computed without tcc: plain-integer GF(p) arithmetic.

Everything here works on lists of Python ints, so the benchmark's checks
stay independent of the implementation they check.
"""

import random


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def hypotheses_met(p: int, n: int, x: int, y: int, a: int) -> bool:
    """The theorem's hypotheses: p | x n + y, x != 0, y != 0, a outside {0, 1}."""
    return (x * n + y) % p == 0 and x % p != 0 and y % p != 0 and a % p not in (0, 1)


def comb_dim(n: int, p: int, x: int, y: int, a: int) -> int | None:
    """dim C(x*J + y*I, a) from the eigenbasis D = diag(xn + y, y, ..., y).

    C(D, a) is spanned by the unit matrices E_ij with d_i = a d_j, and
    conjugation preserves the dimension.  Returns None in the merged case
    (x != 0, xn + y = y), where x*J + y*I has no eigenbasis.
    """
    lam, y, x = (x * n + y) % p, y % p, x % p
    if x and lam == y:
        return None
    diag = [lam] + [y] * (n - 1) if x else [y] * n
    return diagonal_dim(diag, a, p)


def diagonal_dim(diag: list[int], a: int, p: int) -> int:
    """#{(i, j) : d_i = a d_j}, the dimension of C(D, a) for diagonal D."""
    counts = {}
    for d in diag:
        counts[d % p] = counts.get(d % p, 0) + 1
    return sum(m * counts.get(d * a % p, 0) for d, m in counts.items())


def matmul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(u * v for u, v in zip(row, col)) % p for col in cols] for row in a]


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    m = [[v % p for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(u - f * v) % p for u, v in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def inverse(m: list[list[int]], p: int) -> list[list[int]] | None:
    """Inverse over GF(p), or None when m is singular."""
    n = len(m)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = _rref(aug, p)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def kernel(m: list[list[int]], p: int) -> list[list[int]]:
    """A basis of the right null space of m."""
    reduced, pivots = _rref(m, p)
    cols = len(m[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f] % p
        basis.append(v)
    return basis


def comb_code_params(n: int, p: int, x: int, y: int, a: int) -> tuple[int, int, int]:
    """[N, k, d] of C(x*J + y*I, a) by solving T vec(B) = 0 and enumerating p^k words.

    T = I (x) A - a A^T (x) I acts on column-stacked B; A is symmetric.
    Meant for tiny codes only (p^k words of length n^2).
    """
    big = n * n
    a_entry = [[(x + y * (i == j)) % p for j in range(n)] for i in range(n)]
    t = [[0] * big for _ in range(big)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # (I (x) A)[(j,i), (j,k)] = A[i,k]; (A^T (x) I)[(j,i), (k,i)] = A[k,j].
                t[j * n + i][j * n + k] += a_entry[i][k]
                t[j * n + i][k * n + i] -= a * a_entry[k][j]
    basis = kernel(t, p)
    k = len(basis)
    best = big
    for msg in range(1, p**k):
        word = [0] * big
        for row in basis:
            msg, coef = divmod(msg, p)
            if coef:
                word = [(w + coef * v) % p for w, v in zip(word, row)]
        best = min(best, sum(1 for w in word if w))
    return big, k, best


def similar_to_diagonal(n: int, p: int, rng: random.Random) -> tuple[list[list[int]], list[int]]:
    """A seeded dense A = P D P^-1 together with the diagonal of D."""
    while True:
        transform = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        transform_inv = inverse(transform, p)
        if transform_inv is not None:
            break
    diag = [rng.randrange(p) for _ in range(n)]
    scaled = [[v * diag[j] % p for j, v in enumerate(row)] for row in transform]
    return matmul(scaled, transform_inv, p), diag
