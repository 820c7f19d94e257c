"""Exact primality and prime-power tests on Python integers.

``is_prime`` is the one primality test of the library: ``gftower``'s
``PrimeField`` and ``bounds.chi_prime`` both call it.  It is deterministic
Miller-Rabin with the first 13 primes as bases, which no composite below
``MILLER_RABIN_BOUND`` = 3.317...e24 passes (Sorenson and Webster, *Strong
pseudoprimes to twelve prime bases*, 2015).  A number at or above the bound
that passes every base raises ``BudgetExceededError`` instead of being
trial-divided, which could not finish: the test refuses, it never guesses.
``iroot`` is the one exact integer k-th root, used by ``is_prime_power`` and
by the CLI to find p from q and m.  The module imports only ``_budget``, so
``bounds`` can use it without loading ``gftower``.
"""

from __future__ import annotations

from math import isqrt

from ._budget import DEFAULT_BUDGET, BudgetExceededError

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Whether odd n, with n - 1 = d * 2**s and d odd, passes base a."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether the integer n is prime, exactly.  At or above
    ``MILLER_RABIN_BOUND`` only a composite can be told apart: a number
    there that passes every base raises ``BudgetExceededError``, as proving
    it prime would take about isqrt(n) // 2 trial divisions."""
    if n < 2:
        return False
    for a in BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2**s exactly divides n - 1
    d = (n - 1) >> s
    if not all(_strong_probable_prime(n, a, d, s) for a in BASES):
        return False
    if n < MILLER_RABIN_BOUND:
        return True
    raise BudgetExceededError(isqrt(n) // 2, DEFAULT_BUDGET)


def iroot(n: int, k: int) -> int:
    """The largest r >= 0 with r**k <= n, by Newton's method from above."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # at least the k-th root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_prime_power(q: int) -> bool:
    """Whether q = p**k for a prime p and some k >= 1: some exact integer
    k-th root of q, k at most q's bit length, is prime."""
    for k in range(1, q.bit_length() + 1):
        r = iroot(q, k)
        if r < 2:
            break
        if r**k == q and is_prime(r):
            return True
    return False
