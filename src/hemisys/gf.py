"""Table-driven arithmetic in GF(p^d) for odd p.

Field elements are plain ints: the element with digit vector
(c0, c1, ..., c_{d-1}) in the power basis of the construction polynomial
is the index c0 + c1*p + ... + c_{d-1}*p^(d-1).  Zero and one are the
ints 0 and 1.  All operations take the FieldCtx along with the elements.

Two total orders on elements are used:

* the index itself (internal, used for table addressing), and
* digit-lexicographic order, comparing (c0, c1, ...) componentwise with
  the constant term first.  Canonical choices (construction polynomial,
  generator, square roots) are always minimal in digit-lex order.

Each operation has one formula, shared by the scalar methods of FieldCtx
and the array functions vec_*:

* a * b is exp[log a + log b] for the powers g^k of a fixed generator g.
* a + b is exp[log a + zech[log b - log a + 2(order-1)]], with
  zech[k + 2(order-1)] = log(1 + g^k) the Zech logarithm (Lidl and
  Niederreiter, Finite Fields); 1 + x steps only the constant digit.

The log of zero, 2(order-1), points past every sum of two true logs into
a zero tail of exp, and the ends of zech take a zero operand to the other
one, so zero needs no mask in either formula.

The tables are built with array operations, and make_field refuses a
field whose tables would take more than TABLE_BYTES_CAP bytes.

Every module imports this one, so the program's error policy lives here:
UsageError (a refused input or size), CandidateError (a candidate that is
not a hemisystem) and InvariantFailed (a bug, raised by check), one per
exit code of the command line.  Misuse of the API that no command reaches
raises the builtin ValueError or ZeroDivisionError.
"""

from __future__ import annotations

import math

import numpy as np

TABLE_BYTES_CAP = 2 ** 30    # refuse fields whose tables need more bytes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class UsageError(ValueError):
    """A refused input, field or size, named by its message: exit code 2."""


class CandidateError(ValueError):
    """A candidate file or line set that cannot be a hemisystem: exit code 1."""


class InvariantFailed(RuntimeError):
    """A broken internal identity: a bug, not input (exit code 3)."""


def check(ok: bool, what: str) -> None:
    """Raise InvariantFailed(what) unless ok; python -O keeps it, unlike assert."""
    if not ok:
        raise InvariantFailed(what)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24 with these bases)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Prime factorisation by trial division (n <= ~1e12 in practice)."""
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p), coefficient lists with constant first

def _poly_trim(f):
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce modulo monic f
    df = len(f) - 1
    for i in range(len(out) - 1, df - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(df):
                out[i - df + j] = (out[i - df + j] - c * f[j]) % p
    return _poly_trim(out[:df] + [0] * max(0, df - len(out)))


def _poly_powmod(a, n, f, p):
    r = [1]
    b = list(a)
    while n:
        if n & 1:
            r = _poly_mulmod(r, b, f, p)
        b = _poly_mulmod(b, b, f, p)
        n >>= 1
    return r


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while any(b):
        # reduce a mod b (b made monic on the fly)
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        r = list(a)
        while len(r) >= len(bm) and any(r):
            if r[-1] == 0:
                r.pop()
                continue
            c = r[-1]
            off = len(r) - len(bm)
            for j in range(len(bm)):
                r[off + j] = (r[off + j] - c * bm[j]) % p
            _poly_trim(r)
        a, b = b, _poly_trim(r)
    return _poly_trim(a)


def _is_irreducible(f, p: int) -> bool:
    """Rabin test: x^(p^d) = x mod f and gcd(x^(p^(d/l)) - x, f) = 1."""
    d = len(f) - 1
    x = [0, 1]
    xp = _poly_powmod(x, p ** d, f, p)
    if _poly_trim(list(xp)) != [0, 1]:
        return False
    for ell in factorize(d):
        g = _poly_powmod(x, p ** (d // ell), f, p)
        h = [(gi - xi) % p for gi, xi in zip(g + [0] * 2, x + [0] * len(g))]
        if len(_poly_gcd(_poly_trim(h), f, p)) > 1:
            return False
    return True


def smallest_irreducible(p: int, d: int) -> tuple:
    """Digit-lex smallest monic irreducible of degree d over GF(p)."""
    if d == 1:
        return (0, 1)
    # iterate coefficient tuples (c0, .., c_{d-1}) in lex order, c0 major
    coeffs = [0] * d
    while True:
        f = list(coeffs) + [1]
        if coeffs[0] != 0 and _is_irreducible(f, p):
            return tuple(f)
        i = d - 1
        while i >= 0 and coeffs[i] == p - 1:
            coeffs[i] = 0
            i -= 1
        if i < 0:
            raise InvariantFailed("no irreducible polynomial found")
        coeffs[i] += 1


def _smallest_generator(p: int, d: int, f) -> list:
    """Digit list of the digit-lex smallest element of order p^d - 1.

    Candidate r has the base-p digits of r, constant term most significant;
    primitive elements are dense, so the search stops after a few.
    """
    n1 = p ** d - 1
    fac = factorize(n1)
    for r in range(1, n1 + 1):
        g = [r // p ** (d - 1 - i) % p for i in range(d)]
        if all(_poly_powmod(g, n1 // ell, f, p) != [1] for ell in fac):
            return g
    raise InvariantFailed("no generator found")


def _mul_matrix(h, f, p):
    """d x d matrix over GF(p) of multiplication by h mod f on digit columns."""
    d = len(f) - 1
    out = np.zeros((d, d), dtype=np.int64)
    for j in range(d):
        col = _poly_mulmod(h, [0] * j + [1], f, p)
        out[:len(col), j] = col
    return out


def _table_bytes(p: int, d: int) -> int:
    """Bytes of the tables a FieldCtx of GF(p^d) holds at most.

    rank, unrank, log, neg, inv and up to d-1 cached Frobenius tables of
    one int64 entry per element; exp of 4(order-1)+1 int64 entries and
    zech of as many int32 ones.
    """
    order = p ** d
    return 8 * (4 + d) * order + 12 * (4 * (order - 1) + 1)


class FieldCtx:
    """GF(p^d) with exp/log/Zech tables of a fixed multiplicative generator.

    Attributes: p, d, order, poly (monic, constant first), gen, and numpy
    tables, int64 unless marked:

    * rank_np/unrank_np: index <-> digit-lex rank;
    * exp_np: exp_np[k] = gen^k for 0 <= k < 2(order-1), then a zero tail
      up to index 4(order-1);
    * log_np: log_np[x] = k with gen^k = x for x != 0; log_np[0] is the
      sentinel 2(order-1), so any sum with it lands in the zero tail;
    * zech_np (int32), 4(order-1)+1 entries: zech_np[k + 2(order-1)] =
      log(1 + gen^k) for |k| < order-1; entry i < order holds
      i - 2(order-1), which gives b when a = 0, and the top order-1
      entries hold 0, which gives a when b = 0;
    * neg_np, inv_np (inv_np[0] = 0), frob_np(k) on demand.

    a * b = exp[log a + log b] and a + b = exp[log a + zech[log b - log a
    + 2(order-1)]]; 0 + 0 and a + (-a) land in exp's zero tail.
    """

    def __init__(self, p: int, d: int, poly: tuple):
        self.p = p
        self.d = d
        self.order = p ** d
        self.poly = poly
        self._pp = [p ** i for i in range(d)]
        self._build_tables()

    # -- construction ------------------------------------------------------

    def from_digits(self, dg) -> int:
        return sum(int(c) % self.p * pp for c, pp in zip(dg, self._pp))

    def _build_tables(self):
        p, d, f = self.p, self.d, list(self.poly)
        n1 = self.order - 1
        idx = np.arange(self.order, dtype=np.int64)
        # digit-lex rank (digits read as a base-p number with the constant
        # term most significant) and the negative, one digit at a time
        rank = np.zeros(self.order, dtype=np.int64)
        neg = np.zeros(self.order, dtype=np.int64)
        rem = idx.copy()
        for i in range(d):
            c = rem % p
            rank += c * self._pp[d - 1 - i]
            neg += (-c % p) * self._pp[i]
            rem //= p
        self.rank_np = rank
        self.unrank_np = np.empty(self.order, dtype=np.int64)
        self.unrank_np[rank] = idx
        self.neg_np = neg

        g = _smallest_generator(p, d, f)
        self.gen = self.from_digits(g)

        # exp in blocks of B consecutive powers held as digit columns: the
        # first block by doubling, each next one is the last times g^B
        B = math.isqrt(n1) + 1
        block = np.zeros((d, 1), dtype=np.int64)
        block[0, 0] = 1
        while block.shape[1] < B:
            step = _mul_matrix(_poly_powmod(g, block.shape[1], f, p), f, p)
            block = np.concatenate([block, step @ block % p], axis=1)
        block = block[:, :B]
        step = _mul_matrix(_poly_powmod(g, B, f, p), f, p)
        weights = np.asarray(self._pp, dtype=np.int64)
        # only exp[:2 n1] gets written below; the rest is the zero tail
        exp = np.zeros(4 * n1 + 1, dtype=np.int64)
        for lo in range(0, n1 + 1, B):
            exp[lo:lo + B] = weights @ block
            block = step @ block % p
        check(exp[n1] == 1, f"gen^{n1} != 1 in GF({p}^{d})")
        exp[n1:2 * n1] = exp[:n1]
        log = np.full(self.order, 2 * n1, dtype=np.int64)
        log[exp[:n1]] = np.arange(n1, dtype=np.int64)
        check(np.array_equal(log[exp[:n1]], np.arange(n1)),
              f"powers of the generator of GF({p}^{d}) repeat")
        self.exp_np = exp
        self.log_np = log

        inv = np.zeros(self.order, dtype=np.int64)
        nz = exp[:n1]
        inv[nz] = exp[(n1 - log[nz]) % n1]
        self.inv_np = inv

        # 1 + g^k for 0 <= k < n1 steps the constant digit of exp[k], mod p;
        # Z(k) has period n1, so -n1 < k < 0 copies that period
        x = exp[:n1]
        zech = np.zeros(4 * n1 + 1, dtype=np.int32)
        zech[:n1 + 1] = np.arange(n1 + 1) - 2 * n1
        zech[2 * n1:3 * n1] = log[x + 1 - p * (x % p == p - 1)]
        zech[n1 + 1:2 * n1] = zech[2 * n1 + 1:3 * n1]
        self.zech_np = zech
        self._frob_cache = {}

    # -- the two formulas, on ints or int64 arrays ----------------------------

    def _sum(self, a, b):
        """a + b = a (1 + b/a); a zero operand takes an end entry of zech."""
        la = self.log_np[a]
        return self.exp_np[la + self.zech_np[self.log_np[b] - la + 2 * (self.order - 1)]]

    def _prod(self, a, b):
        """a * b; a zero factor's log sends the sum into the zero tail of exp."""
        return self.exp_np[self.log_np[a] + self.log_np[b]]

    # -- scalar operations --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._sum(a, b))

    def neg(self, a: int) -> int:
        return int(self.neg_np[a])

    def sub(self, a: int, b: int) -> int:
        return int(self._sum(a, self.neg_np[b]))

    def mul(self, a: int, b: int) -> int:
        return int(self._prod(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_np[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        e = (self.log_np[a] * n) % (self.order - 1)
        return int(self.exp_np[e])

    def frobenius(self, a: int, k: int = 1) -> int:
        """x -> x^(p^k)."""
        return self.pow(a, self.p ** k)

    def frob_np(self, k: int):
        """Permutation table of x -> x^(p^k), cached."""
        k = k % self.d
        if k not in self._frob_cache:
            tab = np.zeros(self.order, dtype=np.int64)
            n1 = self.order - 1
            nz = self.exp_np[:n1]
            tab[nz] = self.exp_np[(self.log_np[nz] * (self.p ** k)) % n1]
            self._frob_cache[k] = tab
        return self._frob_cache[k]

    def is_square(self, a: int) -> bool:
        if a == 0:
            return True
        return bool(self.log_np[a] % 2 == 0)

    def sqrt(self, a: int):
        """Digit-lex smaller square root, or None for non-squares."""
        if a == 0:
            return 0
        la = int(self.log_np[a])
        if la % 2:
            return None
        r = int(self.exp_np[la // 2])
        r2 = int(self.neg_np[r])
        return r if self.rank_np[r] <= self.rank_np[r2] else r2

    def power_residue_solutions(self, c: int, m: int) -> list:
        """All x with x^m = c, via discrete logs; empty if c is no m-th power."""
        if c == 0:
            raise ValueError("c must be nonzero")
        n1 = self.order - 1
        if m <= 0 or n1 % m:
            raise ValueError(f"exponent {m} does not divide order-1")
        lc = int(self.log_np[c])
        if lc % m:
            return []
        step = n1 // m
        return sorted(int(self.exp_np[(lc // m + i * step) % n1]) for i in range(m))

    def elements_by_rank(self):
        """All elements in digit-lex order, as an iterator: the searches over it stop
        early, so no command makes a Python int of every element."""
        return map(int, self.unrank_np)

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.d}), poly={list(self.poly)})"


def make_field(p: int, d: int) -> FieldCtx:
    """GF(p^d) with the canonical (digit-lex smallest) construction data."""
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    if p == 2:
        raise UsageError("characteristic 2 is not supported")
    if d < 1:
        raise ValueError(f"field degree {d} is not positive")
    need = _table_bytes(p, d)
    if need > TABLE_BYTES_CAP:
        raise UsageError(
            f"GF({p}^{d}) needs {need} bytes of tables, over the cap {TABLE_BYTES_CAP}")
    poly = smallest_irreducible(p, d)
    return FieldCtx(p, d, poly)


# ---------------------------------------------------------------------------
# vectorised arithmetic on int64 arrays of element indices

def vec_add(ctx: FieldCtx, A, B):
    return ctx._sum(np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64))


def vec_mul(ctx: FieldCtx, A, B):
    return ctx._prod(np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64))


def vec_neg(ctx: FieldCtx, A):
    return ctx.neg_np[np.asarray(A, dtype=np.int64)]
