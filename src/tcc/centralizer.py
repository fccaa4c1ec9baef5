"""Twisted centralizers C(A, a) = {B : AB = aBA} as solvable linear systems.

The membership condition is linear in B, so column-stacking turns it into
an ordinary kernel problem: with T = (I (x) A) - a * (A^T (x) I) we have
T vec(B) = vec(AB - aBA), and C(A, a) is exactly unvec of ker(T).  That
costs about n^6, so centralizer_code first reads A itself: a comb matrix
x*J + y*I is solved by comb_codes from row and column sums instead, in
closed form, with every generator written directly as the RREF generator
of the linear code of length n^2 spanned by the vec images, and no comb
solve eliminates.  For s = (1 - a) y != 0 each row is the vec of a member
g u^T + u h^T, g tiled and each h_j repeated, and the paper's case returns
J or nothing.  comb_codes takes a whole (p, n) slice as int64 arrays of
residues x, y and a, as verify sweeps them.  _comb_case classifies them
all at once, and the triples with one generator share one code, checked
once per projective direction of their coefficient triples.  A single
solve takes the same classifier and the same per-group write and check,
with nothing to group.  Every other A is solved alone.
For a = 0, C(A, 0) is the B whose columns lie in ker A, so its generator
is n copies of ker A's RREF.  Otherwise A is first reduced to Hessenberg
form H = S A S^-1, with b blocks.  When 2b <= n, C(A, a) is solved from
H X = a X H column by column, as in Golub, Nash and Van Loan's Sylvester
solver (IEEE Trans. Autom. Control 24(6), 1979): the recurrence
eliminates an (n b)-square system, never T, and hands over its k
independent members unreduced; the LinearCode reduces them to RREF only
when its generator is read.  Otherwise A takes the Kronecker kernel; its
elimination runs with the columns reversed, so its kernel comes out in
RREF too and no second reduction runs.  Every route returns the
LinearCode itself, read-only and holding the array as it is, once every
row has been checked against AB = aBA: for a comb A from the row's row
and column sums, as AB - aBA = s B + x (u r^T - a c u^T), with no product,
and for s = 0 from that residual's first row and column alone; for any
other A by two matmul_mod products.
"""

from dataclasses import dataclass

import numpy as np

from .code import LinearCode
from .linalg import (
    MAX_ORDER,
    FieldMismatchError,
    GuardExceededError,
    Matrix,
    Prime,
    _hessenberg,
    kernel_basis,
    matmul_mod,
)

# Largest operator the Kronecker kernel builds: n = 32, a 1024 x 1024 T.
KRONECKER_MAX_CELLS = 1 << 10
# The recurrence is taken when _CROSSOVER * b <= n for b Hessenberg blocks.
_CROSSOVER = 2
# Most cells the recurrence's basis may have, reduced to RREF when its generator
# is read: at most n b rows of n^2, so n = 64 with b <= 8.  Orders up to 32 stay below 2^19.
# The a = 0 route's n nullity(A) rows of n^2 are held to it too.
_RECURRENCE_MAX_CELLS = 1 << 21
# Each membership product covers at most this many matrix entries, across specs and rows.
_CHECK_CELLS = 1 << 15


@dataclass(frozen=True)
class TwistSpec:
    """A fixed square matrix and the twist constant defining AB = aBA.

    The twist is stored as a residue in [0, p) of the matrix's field.
    """

    matrix: Matrix
    twist: int

    def __post_init__(self):
        rows, cols = self.matrix.array.shape
        if rows != cols:
            raise ValueError(f"the fixed matrix must be square, got {rows}x{cols}")
        if rows > MAX_ORDER:
            raise ValueError(f"order {rows} exceeds the cap {MAX_ORDER}")
        object.__setattr__(self, "twist", self.matrix.prime.residue(self.twist, "twist"))

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def prime(self) -> Prime:
        return self.matrix.prime


def twisted_operator(spec: TwistSpec) -> Matrix:
    """The n^2 x n^2 matrix T with T vec(B) = vec(AB - a BA)."""
    a, ident = spec.matrix.array, np.eye(spec.n, dtype=np.int64)
    # Both terms are below (p - 1)^2 < 2^62, so their difference fits int64 before it is reduced.
    return Matrix((np.kron(ident, a) - spec.twist * np.kron(a.T, ident)) % spec.prime.p, spec.prime)


def _basis(n: int, prime: Prime, gen: np.ndarray, residual, checks: int, reduced: bool = True) -> LinearCode:
    """The code of length n^2 with the RREF generator rows ``gen``, held without a copy; no rows is the zero code.

    With reduced=False the rows are independent but not in RREF, and the
    code reduces them when its generator is first read.

    Every row is checked to be a residue row, and by each of ``checks``
    membership tests to be the vec image of a member, before the code is
    returned: residual(lo, hi, members), the residual of tests lo .. hi - 1
    on a stack of B^T, must vanish.  One that does not is a fault of the
    solve, never of its input, so RuntimeError.  Each residual covers at
    most _CHECK_CELLS entries, across tests and across rows.
    """
    try:
        code = LinearCode(prime, n * n, gen, reduced=reduced)
    except ValueError as err:
        raise RuntimeError(f"{err}; the solve is broken") from err
    rows = max(1, min(len(gen), _CHECK_CELLS // (n * n)))
    width = max(1, _CHECK_CELLS // (n * n * rows))
    # A row is vec(B), column by column, so its row-major reshape is B^T.
    members = gen.reshape(-1, n, n)
    for lo in range(0, checks, width):
        for start in range(0, len(gen), rows):
            if residual(lo, lo + width, members[start : start + rows]).any():
                raise RuntimeError("basis matrix fails the twisted commutation condition; the solve is broken")
    return code


def centralizer_code(spec: TwistSpec) -> LinearCode:
    """Solve AB = aBA in RREF, in closed form when A = x*J + y*I with n >= 2.

    A is a comb matrix exactly when it equals x*J + (d - x)*I entrywise,
    for x = A[0, n - 1] and d = A[0, 0].  Then, with u the all-ones vector,
    c = B u and r = u^T B, we have AB - aBA = s*B + x*(u r - a c u^T) for
    s = (1 - a) y.  For s != 0 every member is B[i, j] = g_i + h_j with
    h_0 = 0, and AB = aBA reads alpha g_i + beta h_j + x (sum g - a sum h) = 0
    for alpha = s - a x n and beta = s + x n.  The dimension is then

    * alpha, beta != 0: 1 (span(J)) if p | x n + y, else 0, since
      alpha + x n = (1 - a)(x n + y): the paper's theorem and its converse;
    * alpha = 0, beta != 0: n - 1 (B = g u^T with sum g = 0);
    * alpha != 0, beta = 0: n for a = 0 (B = u h^T), else n - 1;
    * alpha = beta = 0, which forces a = -1: 2n - 2.

    For s = 0 the code is the full space n^2 when x = 0.  Otherwise
    AB - aBA = x (u r - a c u^T), so every column sum equals a times every
    row sum, and the dimension is n^2 - n for a = 0 (zero column sums),
    else (n - 1)^2 + [a = 1 or p | n].  Each is written in RREF directly:
    _comb_case names the case and _comb_code writes and checks its rows.

    Any other A with a = 0 gives the B with A B = 0, whose columns lie in
    ker A: the RREF generator is n copies of ker A's RREF, n nullity(A)
    rows of n^2, refused past _RECURRENCE_MAX_CELLS cells, which only
    orders beyond 32 reach.  For a != 0, A is reduced to H = S A S^-1,
    upper Hessenberg with b blocks.  The generator has k <= n b rows; the
    recurrence (_recurrence_generator) costs about (n b)^3 for its system
    and k n^3 for its conjugation, plus about k^2 n^2 for the RREF that
    reading its generator costs, and T's elimination about (n^2 - k) n^4.
    With a crossover fitted on both, 2b <= n takes the recurrence, under
    the same cell guard on its n b rows.  The rest, every 1 x 1 A with
    a != 0 among them, takes the kernel of T, of dimension n^2 - rank(T),
    from one elimination of T with its columns reversed, refused beyond
    order 32.  Every guard is
    decided after an O(n^3) reduction, before any larger elimination.
    """
    form = _comb_form(spec.matrix)
    if form is None:
        return _general_code(spec)
    (x, y), n, p, a = form, spec.n, spec.prime.p, spec.twist
    coefs = np.array([[(1 - a) * y % p, x, -a * x % p]], dtype=np.int64)
    return _comb_code(n, spec.prime, _comb_case(n, x, y, a, p), a, coefs)


def comb_codes(
    n: int, prime: Prime, x: np.ndarray, y: np.ndarray, a: np.ndarray
) -> tuple[list[LinearCode], np.ndarray]:
    """C(x*J + y*I, a) of order n >= 2 over ``prime`` for int64 arrays of residues x, y, a.

    Returns the distinct codes and, for each triple, the index of its code.
    Triples whose _comb_case and rows agree share one code: only "sums" rows
    read a, and for a outside {0, 1} they are the same for every a unless
    p | n.  Each code's rows are written once and checked once per projective
    direction of the group's coefficient triples (s, x, -a x): _comb_residual
    is linear in the triple mod p, so c and lambda c (lambda != 0) pass or fail
    together.  Nothing outlives the call.
    """
    p = prime.p
    case = _comb_case(n, x, y, a, p)
    # The a whose rows each triple reads, 0 but for "sums": 2 stands for every a outside {0, 1} unless p | n.
    rows_a = (case == _CASES.index("sums")) * (np.minimum(a, 2) if n % p else a)
    # Each triple (s, x, -a x) is scaled by 1/lead = lead^(p - 2) for its first nonzero entry, lead = s
    # or x; only the full space's triple is all zero.  The scaled s is 1 exactly when s != 0, which the
    # case fixes, so the scaled x and -a x decide the direction within a group.
    s, minus_ax = (1 - a) % p * y % p, (p - a) % p * x % p
    lead, inv, e = s + (s == 0) * x, 1, p - 2
    while e:
        if e & 1:
            inv = inv * lead % p
        lead, e = lead * lead % p, e >> 1
    # Sorted by group, then by direction; both keys stay below p^2 < 2^62.
    keys = (case * p + rows_a, x * inv % p * p + minus_ax * inv % p)
    order = np.lexsort(keys[::-1])
    group_key, dir_key = (key[order] for key in keys)
    new_group = np.diff(group_key, prepend=-1) != 0
    new_dir = new_group | (np.diff(dir_key, prepend=-1) != 0)
    group = np.empty_like(order)
    group[order] = np.cumsum(new_group) - 1
    coefs = np.stack([(s != 0)[order], dir_key // p, dir_key % p], axis=1)[new_dir]
    bounds = [*np.flatnonzero(new_group[new_dir]).tolist(), len(coefs)]
    first = order[new_group]
    codes = [
        _comb_code(n, prime, kind, twist, coefs[lo:hi])
        for kind, twist, lo, hi in zip(case[first].tolist(), rows_a[first].tolist(), bounds, bounds[1:])
    ]
    return codes, group


def _comb_code(n: int, prime: Prime, case: int, a: int, coefs: np.ndarray) -> LinearCode:
    """The code of one comb group: its case's rows for twist ``a``, checked against each coefficient row of ``coefs``."""
    p = prime.p
    gen = _comb_rows(n, p, _CASES[case], a)
    return _basis(n, prime, gen, lambda lo, hi, members: _comb_residual(coefs[lo:hi], members, p), len(coefs))


def _comb_form(matrix: Matrix) -> tuple[int, int] | None:
    """(x, y) when ``matrix`` is x*J + y*I of order n >= 2 over GF(p), else None."""
    n, p, flat = matrix.rows, matrix.prime.p, matrix.array.ravel().tolist()
    x, d = flat[n - 1], flat[0]
    # Row-major, the entries after A[0, 0] are n - 1 runs of n off-diagonal x's, each closed by a diagonal d.
    if n < 2 or flat[1:] != ([x] * n + [d]) * (n - 1):
        return None
    return x, (d - x) % p


# The closed-form cases of a comb solve; _comb_case gives an index into them.
_CASES = ("full", "sums", "J", "zero", "g u^T", "u h^T", "u h^T, sum h = 0", "g + h")


def _case_name(s: bool, alpha: bool, beta: bool, off: bool, x: bool, a: bool) -> str:
    """The case from which of s, alpha, beta, x n + y, x and a are nonzero; centralizer_code has the table."""
    if not s:
        return "sums" if x else "full"
    if alpha and beta:
        # h = 0 and g is constant, which (1 - a)(x n + y) must annihilate.
        return "zero" if off else "J"
    if beta:
        return "g u^T"
    if alpha:
        return "u h^T, sum h = 0" if a else "u h^T"
    return "g + h"


# _case_name's index in _CASES for each bit pattern of its six truth values, bit i for argument i.
_CASE_OF_BITS = np.array([_CASES.index(_case_name(*(bits >> i & 1 for i in range(6)))) for bits in range(64)])


def _comb_case(n: int, x, y, a, p: int):
    """The index in _CASES of C(x*J + y*I, a)'s closed-form case, for residues x, y, a: ints or int64 arrays alike.

    Triples with equal cases at one order and field have equal generators,
    except that "sums" rows also read a.  No product exceeds (p - 1)^2 or 64 p,
    so int64 arrays hold every step at p = 2^31 - 1.
    """
    s = (1 - a) % p * y % p
    alpha, beta = (s - a * x % p * n) % p, (s + x * n) % p
    # 1 * (v != 0) is 0 or 1 whether v is an int or an array.
    bits = sum(1 * (v != 0) << i for i, v in enumerate((s, alpha, beta, (x * n + y) % p, x, a)))
    return _CASE_OF_BITS[bits]


def _comb_rows(n: int, p: int, case: str, a: int = 0) -> np.ndarray:
    """The RREF generator rows of a comb case named in _CASES, in closed form.

    For s = (1 - a) y != 0 each row is vec(g u^T + u h^T), g tiled n times plus
    each h_j repeated n times; the paper's case is J or nothing.  e_i is the i-th unit row.
    """
    if case == "full":
        return np.eye(n * n, dtype=np.int64)
    if case == "sums":
        return _sum_kernel(n, a, p)
    if case in ("J", "zero"):
        return np.ones((int(case == "J"), n * n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    diff = eye[:-1] - eye[-1]
    if case == "g u^T":
        # B = g u^T with sum g = 0.
        return np.tile(diff, n) % p
    if case.startswith("u h^T"):
        # B = u h^T, with sum h = 0 unless a = 0.
        return np.repeat(eye if case == "u h^T" else diff, n, axis=1) % p
    # "g + h", a = -1: sum g + sum h = 0.  Rows i < n have g = e_i, then g = 0; row 0's h
    # is 0 at every other row's pivot, rows 1 .. n - 1 take h = -e_(n-1), the
    # rest h = e_j - e_(n-1) for 0 < j < n - 1.
    g = np.eye(2 * n - 2, n, dtype=np.int64)
    h = np.concatenate([np.tile(-eye[-1], (n, 1)), diff[1:]])
    h[0, 1:-1], h[0, -1] = -1, n - 3
    return (np.tile(g, n) + np.repeat(h, n, axis=1)) % p


def _general_code(spec: TwistSpec) -> LinearCode:
    """C(A, a) for an A that is no comb matrix: from ker A when a = 0, else by the recurrence or T."""
    n, prime, reduced = spec.n, spec.prime, True
    if spec.twist == 0:
        kernel = _rref_kernel(spec.matrix.array, prime)
        if n * len(kernel) * n * n > _RECURRENCE_MAX_CELLS:
            raise GuardExceededError(
                f"C(A, 0) for order {n} with nullity {len(kernel)} has a "
                f"{n * len(kernel)}x{n * n} generator, beyond the {_RECURRENCE_MAX_CELLS}-cell guard"
            )
        # Column j of B is any vector of ker A, so vec(B) is n such blocks: kron(I, K) is in RREF.
        gen = np.kron(np.eye(n, dtype=np.int64), kernel)
    else:
        h, s, s_inv = _hessenberg(spec.matrix.array, prime.p)
        blocks = n - np.count_nonzero(np.diagonal(h, -1))
        if _CROSSOVER * blocks <= n:
            if n * blocks * n * n > _RECURRENCE_MAX_CELLS:
                raise GuardExceededError(
                    f"the recurrence for order {n} with {blocks} blocks may reduce a "
                    f"{n * blocks}x{n * n} generator, beyond the {_RECURRENCE_MAX_CELLS}-cell guard"
                )
            gen, reduced = _recurrence_generator(spec, h, s, s_inv, blocks), False
        elif n * n > KRONECKER_MAX_CELLS:
            raise GuardExceededError(
                f"the Kronecker kernel for order {n} needs T of {n * n}x{n * n}, "
                f"beyond the {KRONECKER_MAX_CELLS}x{KRONECKER_MAX_CELLS} guard"
            )
        else:
            gen = _rref_kernel(twisted_operator(spec).array, prime)
    return _basis(n, prime, gen, lambda lo, hi, members: _product_residual(spec, members), 1, reduced)


def _recurrence_generator(
    spec: TwistSpec, h: np.ndarray, s: np.ndarray, s_inv: np.ndarray, blocks: int
) -> np.ndarray:
    """k independent vec(B) rows spanning C(A, a), from H X = a X H, H = S A S^-1 with ``blocks`` blocks.

    Column j of H X = a X H reads a h_(j+1, j) x_(j+1) = H x_j - a sum_(i <= j) h_ij x_i.
    Each x_j is held as an n x (n b) matrix of coefficients in the n b unknowns:
    x_0 is the first n of them.  Where a h_(j+1, j) != 0 the column fixes
    x_(j+1); elsewhere, and at the last column, its n equations join the
    system, and x_(j+1) is the next n unknowns.  Each kernel vector of the
    (n b)-square system gives a member B = S^-1 X S.  The k vec(B) rows are
    independent, since X fixes its unknowns, and are returned unreduced:
    LinearCode reduces them to RREF only when its generator is read.
    """
    n, prime, a = spec.n, spec.prime, spec.twist
    p, width = prime.p, n * blocks
    eye = np.eye(n, dtype=np.int64)
    xs = np.zeros((n, n, width), dtype=np.int64)
    eqs = np.zeros((width, width), dtype=np.int64)
    xs[0, :, :n] = eye
    block = 0
    for j in range(n):
        # Only the first (block + 1) n unknowns are in play up to column j.
        live = (block + 1) * n
        twisted = matmul_mod(h[: j + 1, j], xs[: j + 1, :, :live].reshape(j + 1, -1), p).reshape(n, live)
        rhs = (matmul_mod(h, xs[j, :, :live], p) - a * twisted) % p
        fixed = a * int(h[j + 1, j]) % p if j < n - 1 else 0
        if fixed:
            xs[j + 1, :, :live] = rhs * pow(fixed, -1, p) % p
            continue
        eqs[block * n : live, :live] = rhs
        block += 1
        if j < n - 1:
            xs[j + 1, :, live : live + n] = eye
    kernel = kernel_basis(Matrix(eqs, prime))
    if not len(kernel):
        return np.zeros((0, n * n), dtype=np.int64)
    # Each kernel row is 1 on its free unknown, its last nonzero entry, and 0 on
    # the other free unknowns, so X v needs a product over the pivot unknowns only.
    free = width - 1 - np.argmax(kernel[:, ::-1] != 0, axis=1)
    bound = np.ones(width, dtype=bool)
    bound[free] = False
    xs = xs.reshape(n * n, width)
    xv = (xs[:, free] + matmul_mod(xs[:, bound], kernel[:, bound].T, p)) % p
    # Column j of member X_v is x_j v, so (x_j v)^T stacked over j is X_v^T, and
    # B^T = S^T X^T S^-T is vec(B) when read row-major.  The batched product
    # is several times faster on a contiguous copy than on the strided xv.T.
    xt = np.ascontiguousarray(xv.T).reshape(-1, n, n)
    return matmul_mod(matmul_mod(s.T, xt, p), s_inv.T, p).reshape(-1, n * n)


def _sum_kernel(n: int, a: int, p: int) -> np.ndarray:
    """The RREF generator for s = 0 and x != 0: column sums r_j = a c_i for all row sums c_i.

    Row j (n - 1) + i, for i < n - 1, is E_ij - E_(n-1)j when a = 0 (zero
    column sums); for a != 0 and j < n - 1 it also has -E_i(n-1) + E_(n-1)(n-1)
    (zero row and column sums).  When a != 0 and a = 1 or p | n, one member
    E with column sums 1 and row sums 1/a joins them: its pivot B[n - 1, 0]
    sits at vec index n - 1, so it is row n - 1, the rows after it move down
    one, and it is added to the rows before it.
    """
    m = n - 1
    extra = a != 0 and (a == 1 or n % p == 0)
    j, i = np.divmod(np.arange(m * (n if a == 0 else m)), m)
    rows = np.arange(len(j)) + extra * (j > 0)
    gen = np.zeros((len(j) + extra, n * n), dtype=np.int64)
    gen[rows, j * n + i] = 1
    gen[rows, j * n + m] = p - 1
    if a:
        gen[rows, m * n + i] = p - 1
        gen[rows, m * n + m] = 1
    if extra:
        inv = pow(a, -1, p)
        # Entry j n + i is B[i, j]: 1 in row n - 1 left of the corner, 1/a above it.
        gen[m, m : m * n : n] = 1
        gen[m, m * n : m * n + m] = inv
        gen[m, m * n + m] = (inv - m) % p
        gen[:m] = (gen[:m] + gen[m]) % p
    return gen


def _rref_kernel(eqs: np.ndarray, prime: Prime) -> np.ndarray:
    """The kernel of ``eqs`` in RREF, from one elimination of its reversed columns.

    A kernel row of the reversed system ends in a 1 on its free column and
    is 0 on the other free columns, so reversed back it starts with that 1.
    """
    return kernel_basis(Matrix(eqs[:, ::-1], prime))[::-1, ::-1]


def _comb_residual(coefs: np.ndarray, members: np.ndarray, p: int) -> np.ndarray:
    """(A B - a B A)^T mod p of each coefficient row (s, x, -a x) of ``coefs`` and each B^T in ``members``.

    For A = x J + y I and u the all-ones vector the residual is
    s B + x (u r^T - a c u^T), for s = (1 - a) y, B's column sums r = u^T B
    and row sums c = B u: no product is taken, and the (S, rows, n, n)
    result is read from the coefficients alone.  When every s is 0 the
    residual R_ij = x r_j - a x c_i equals R_0j + R_i0 - R_00, so it vanishes
    exactly where its first row and first column do, and only those 2n - 1
    entries are returned, as (S, rows, 2n - 1).  The sums are reduced before
    they are scaled, so each entry stays below (p - 1)^2 + 2p < 2^63 before
    its reduction.  The residual is linear in the coefficient row mod p.
    """
    s, x, ax = coefs.T[:, :, None, None]
    # members[m, j, i] = B[i, j]: r runs along axis 2 of the residual, c along axis 3.
    xr = x * (members.sum(axis=2) % p) % p
    axc = ax * (members.sum(axis=1) % p) % p
    if not coefs[:, 0].any():
        return np.concatenate([xr + axc[..., :1], xr[..., :1] + axc[..., 1:]], axis=-1) % p
    out = s[..., None] * members
    out += xr[..., None]
    out += axc[:, :, None]
    out %= p
    return out


def _product_residual(spec: TwistSpec, members: np.ndarray) -> np.ndarray:
    """(A B - a B A)^T mod p for each B^T in ``members``: B^T A^T - a A^T B^T, from two matmul_mod products."""
    at, p = spec.matrix.array.T, spec.prime.p
    return (matmul_mod(members, at, p) - spec.twist * matmul_mod(at, members, p)) % p


def is_member(b: Matrix, spec: TwistSpec) -> bool:
    """Exact entrywise test of A @ B == a * (B @ A)."""
    if b.shape != spec.matrix.shape:
        raise ValueError(f"expected a {spec.n}x{spec.n} matrix, got {b.rows}x{b.cols}")
    if b.prime != spec.prime:
        raise FieldMismatchError(f"matrix over GF({b.prime.p}) against a GF({spec.prime.p}) centralizer")
    return not _product_residual(spec, b.array.T[None]).any()
