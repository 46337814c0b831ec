"""Independent checks of the outputs of build_PD and search, with a self-test.

Nothing here calls the library: class numbers come from counting reduced
forms, the mod-l shapes from sympy over GF(l), primality from sympy, and the
supersingularity of a level-3 prime from counting points of a curve with the
reduced j-invariant.  ``self_test_builds`` and ``self_test_searches`` corrupt
real outputs and require every checker to reject them, so a check that cannot
fail is caught.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import sympy

X = sympy.Symbol("X")

# (X - r) times a square mod l at the genus-0 levels whose product P_l is used.
LINEAR_ROOT = {5: -22, 13: -6}
ANCHOR_BUILD = {(11, -220): (121, -77, 1)}  # P_-220 = X^2 - 77X + 121
ANCHOR_SEARCH = {(11, Fraction(21, 2)): [(2309,), (7, 151)]}
COUNT_BOUND_FQ = 10**4  # largest q whose #E(F_q) is counted
COUNT_BOUND_FQ2 = 150  # largest q whose #E(F_q^2) is counted


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def reduced_form_count(D: int) -> int:
    """h(D): reduced primitive forms (a, b, c), |b| <= a <= c, b >= 0 on the boundary."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0) or math.gcd(math.gcd(a, b), c) != 1:
                continue
            count += 1
        a += 1
    return count


def _is_square_mod(poly) -> bool:
    _, factors = poly.sqf_list()
    return all(e % 2 == 0 for _, e in factors)


def check_build(p: int, ell: int, D: int, coefficients) -> None:
    """Degree h(D)/2, the mod-l shape and the printed anchor of one P_D."""
    _require(coefficients[-1] == 1, f"P_{D} is not monic")
    h = reduced_form_count(D)
    _require(len(coefficients) - 1 == h // 2, f"deg P_{D} != h({D})/2 = {h // 2}")
    f = sympy.Poly(list(reversed(coefficients)), X, modulus=ell)
    if p % 4 == 3:
        _require(_is_square_mod(f), f"P_{D} mod {ell} is not a square")
    else:
        quotient, rem = sympy.div(f, sympy.Poly(X - LINEAR_ROOT[p], X, modulus=ell))
        _require(rem.is_zero and _is_square_mod(quotient),
                 f"P_{D} mod {ell} is not (X - {LINEAR_ROOT[p]}) R^2")
    anchor = ANCHOR_BUILD.get((p, D))
    _require(anchor is None or tuple(coefficients) == anchor, f"P_{D} != printed anchor")


# --- certificates -------------------------------------------------------------


def check_search(p: int, h: Fraction, count: int, certs) -> None:
    """Certificates of one search: values, factorizations, selected primes."""
    avoided = {2} | set(sympy.primefactors(h.denominator))
    found = []
    for cert in certs:
        _require(cert.p == p and cert.h == h, "certificate is for another point")
        pl = p * cert.ell
        expected_D = -4 * pl if p % 4 == 3 else (-pl, -4 * pl)
        _require(cert.D == expected_D, f"D = {cert.D} does not match l = {cert.ell}")
        value = cert.value
        _require(value < 0, f"P(h) = {value} is not negative")
        _require(math.isqrt(value.denominator) ** 2 == value.denominator,
                 "denominator of P(h) is not a square")
        fac = cert.factorization
        product = fac.sign * fac.cofactor
        for q, e in fac.factors:
            _require(sympy.isprime(q), f"listed factor {q} is not prime")
            product *= q**e
        _require(product == value.numerator, "factors do not multiply to the numerator")
        _require(len(cert.selected) > 0, "certificate selects no prime")
        for q in cert.selected:
            _require(value.numerator % q == 0, f"{q} does not divide the numerator")
            _require(sympy.jacobi_symbol(q % pl, pl) != 1, f"({q} | {pl}) = 1")
            _require(q != p and q not in avoided and q not in found, f"{q} is avoided")
        if p == 3:
            for q in cert.selected:
                status = cert.verification[q]
                _require(status != "ordinary", f"{q} verified ordinary")
                if 5 <= q <= COUNT_BOUND_FQ:
                    check_supersingular_by_count(h, q)
        found.extend(cert.selected)
    _require(len(found) >= count, f"{len(found)} primes found, {count} requested")
    anchor = ANCHOR_SEARCH.get((p, h))
    _require(anchor is None or [c.selected for c in certs][:len(anchor)] == anchor,
             f"search({p}, {h}) does not reproduce {anchor}")


# --- point counting for the level-3 lift ----------------------------------------


def _fq2_mul(x, y, d, q):
    return ((x[0] * y[0] + d * x[1] * y[1]) % q, (x[0] * y[1] + x[1] * y[0]) % q)


def _fq2_inv(x, d, q):
    norm_inv = pow((x[0] * x[0] - d * x[1] * x[1]) % q, -1, q)
    return (x[0] * norm_inv % q, -x[1] * norm_inv % q)


def _legendre_table(q):
    chi = [-1] * q
    chi[0] = 0
    for x in range(1, q):
        chi[x * x % q] = 1
    return chi


def check_supersingular_by_count(h: Fraction, q: int) -> None:
    """The curve behind the level-3 point h has trace 0 mod q.

    The eta quotient t solves t^2 - h t + 729 = 0 and
    j = 1728 + (t^2 - 486 t - 19683)^2 / t^3.  With d = h^2 - 2916 the root
    t lies in F_q(sqrt d); y^2 = x^3 + 3k x + 2k, k = j / (1728 - j), has
    invariant j, and it is supersingular iff #E = 1 mod q over the field of
    j.  A non-zero z in F_q^2 is a square iff its norm is a square in F_q.
    """
    hq = h.numerator * pow(h.denominator, -1, q) % q
    d = (hq * hq - 2916) % q
    chi = _legendre_table(q)
    half = pow(2, -1, q)
    if chi[d] >= 0:  # t in F_q; pairs (x, 0) keep the arithmetic in F_q
        s = next(x for x in range(q) if x * x % q == d)
        t = ((hq + s) * half % q, 0)
    else:  # t = (h + sqrt d) / 2 in F_q(sqrt d)
        t = (hq * half % q, half)
    t2 = _fq2_mul(t, t, d, q)
    g = ((t2[0] - 486 * t[0] - 19683) % q, (t2[1] - 486 * t[1]) % q)
    j = _fq2_mul(_fq2_mul(g, g, d, q), _fq2_inv(_fq2_mul(t2, t, d, q), d, q), d, q)
    j = ((j[0] + 1728) % q, j[1])
    if j == (0, 0):
        a, b = (0, 0), (1, 0)
    elif j == (1728 % q, 0):
        a, b = (1, 0), (0, 0)
    else:
        k = _fq2_mul(j, _fq2_inv(((1728 - j[0]) % q, -j[1] % q), d, q), d, q)
        a, b = (3 * k[0] % q, 3 * k[1] % q), (2 * k[0] % q, 2 * k[1] % q)
    if j[1] == 0:
        total = q + 1 + sum(chi[(x * x * x + a[0] * x + b[0]) % q] for x in range(q))
    elif q > COUNT_BOUND_FQ2:
        return
    else:
        total = q * q + 1
        for x0 in range(q):
            for x1 in range(q):
                x = (x0, x1)
                f = _fq2_mul(_fq2_mul(x, x, d, q), x, d, q)
                ax = _fq2_mul(a, x, d, q)
                f0, f1 = (f[0] + ax[0] + b[0]) % q, (f[1] + ax[1] + b[1]) % q
                total += chi[(f0 * f0 - d * f1 * f1) % q]
    _require(total % q == 1, f"j(h = {h}) is ordinary mod {q}: #E = {total}")


# --- self-test ------------------------------------------------------------------


def _rejected(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def _bump_constant(coefficients):
    return (coefficients[0] + 1,) + tuple(coefficients[1:])


def self_test_builds(builds) -> int:
    """Corrupt built polynomials; every corruption must be rejected.

    ``builds`` maps (p, l, D) to coefficient tuples that passed check_build.
    A constant term off by one breaks the mod-l shape for any degree >= 2
    (and the linear factor for p = 5, 13); multiplying by X - 1 breaks the
    degree.
    """
    rejected = 0
    for (p, ell, D), coeffs in _largest_per_shape(builds).items():
        corruptions = [_bump_constant(coeffs), (-coeffs[0],) + tuple(
            coeffs[i - 1] - coeffs[i] for i in range(1, len(coeffs))) + (1,)]
        for bad in corruptions:
            if not _rejected(check_build, p, ell, D, bad):
                raise CheckFailed(f"corrupted P_{D} {bad} accepted")
            rejected += 1
    return rejected


def _largest_per_shape(builds):
    """The largest-degree build at p = 5, 13, the largest at p = 3 mod 4, and
    every anchor that was built."""
    chosen = {}
    for key, coeffs in builds.items():
        p, _, D = key
        group = "anchor" if (p, D) in ANCHOR_BUILD else p if p in LINEAR_ROOT else "square"
        if group not in chosen or len(coeffs) > len(builds[chosen[group]]):
            chosen[group] = key
    return {key: builds[key] for key in chosen.values()}


def self_test_searches(searches) -> int:
    """Corrupt certificates; every corruption must be rejected.

    ``searches`` maps (p, h, count) to certificate lists that passed
    check_search.
    """
    rejected = 0
    for (p, h, count), certs in searches.items():
        cert = certs[0]
        pl = p * cert.ell
        residue = next(r for r in sympy.primerange(3, 10**6)
                       if sympy.jacobi_symbol(r, pl) == 1 and r not in cert.selected)
        fac = cert.factorization
        corruptions = [
            dataclasses.replace(cert, value=-cert.value),
            dataclasses.replace(cert, selected=(residue,) + cert.selected[1:]),
            dataclasses.replace(cert, factorization=dataclasses.replace(
                fac, factors=fac.factors + ((4, 0),))),
            dataclasses.replace(cert, factorization=dataclasses.replace(
                fac, factors=((fac.factors[0][0], fac.factors[0][1] + 1),) + fac.factors[1:])),
        ]
        if p == 3:
            q = cert.selected[0]
            corruptions.append(dataclasses.replace(
                cert, verification={**cert.verification, q: "ordinary"}))
        if (p, h) in ANCHOR_SEARCH:
            corruptions.append([cert] + [dataclasses.replace(c, selected=c.selected[::-1])
                                         for c in certs[1:]])
        for bad in corruptions:
            bad_certs = bad if isinstance(bad, list) else [bad] + list(certs[1:])
            if not _rejected(check_search, p, h, count, bad_certs):
                raise CheckFailed(f"corrupted certificate of search({p}, {h}) accepted")
            rejected += 1
        if p == 3:
            # some small prime must be ordinary for the curve, and be caught
            if not any(_rejected(check_supersingular_by_count, h, q)
                       for q in sympy.primerange(5, COUNT_BOUND_FQ2) if h.denominator % q):
                raise CheckFailed(f"point count calls every prime supersingular at h = {h}")
            rejected += 1
    return rejected
