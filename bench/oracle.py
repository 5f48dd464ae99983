"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``ratdist``: every expected value is computed from
first principles (integer square roots, distance matrices, closed forms) or
by polynomial arithmetic over a large prime field F_p in which -1, -2 and -3
are squares, so that Q(sqrt(-k)) for k in {1, 2, 3} maps into F_p.  A
polynomial that is squarefree of full degree mod p is squarefree of that
degree over Q(sqrt(-k)), and a value that is nonzero mod p is nonzero, so
the mod-p checks below certify genericity rigorously (they never accept a
degenerate input; they may, with negligible probability, reject a generic
one).

Points are (x, yc) pairs of Fractions standing for (x, yc*sqrt(k)).
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction
from math import gcd, isqrt

# ---------------------------------------------------------------------------
# rational geometry


def rat_sqrt(q: Fraction) -> Fraction | None:
    """Nonnegative rational square root of q >= 0, or None."""
    q = Fraction(q)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqdist(p, q, k: int) -> Fraction:
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + k * dy * dy


def is_rds(points, k: int) -> bool:
    return all(
        rat_sqrt(sqdist(p, q, k)) is not None for p, q in itertools.combinations(points, 2)
    )


def collinear(p, q, r) -> bool:
    return (q[0] - p[0]) * (r[1] - p[1]) == (r[0] - p[0]) * (q[1] - p[1])


def concyclic_or_collinear(p, q, r, s, k: int) -> bool:
    rows = [(a[0] * a[0] + k * a[1] * a[1], a[0], a[1], Fraction(1)) for a in (p, q, r, s)]
    return _det4(rows) == 0


def _det4(m) -> Fraction:
    total = Fraction(0)
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def strong_general_position(points, k: int) -> bool:
    """No three collinear and no four on a common circle."""
    if any(collinear(*t) for t in itertools.combinations(points, 3)):
        return False
    return not any(
        concyclic_or_collinear(*q, k) for q in itertools.combinations(points, 4)
    )


def invert_points(points, k: int, center: int):
    """Unit-circle inversion at points[center]; the center stays fixed."""
    c = points[center]
    out = []
    for idx, p in enumerate(points):
        if idx == center:
            out.append(p)
            continue
        rho = sqdist(p, c, k)
        out.append((c[0] + (p[0] - c[0]) / rho, c[1] + (p[1] - c[1]) / rho))
    return out


def reflect(p, line, k: int):
    """Reflection of p across alpha*x + beta*yc + gamma = 0 in the metric dx^2 + k dyc^2."""
    alpha, beta, gamma = line
    u = alpha * p[0] + beta * p[1] + gamma
    n = k * alpha * alpha + beta * beta
    return (p[0] - 2 * u * k * alpha / n, p[1] - 2 * u * beta / n)


def unit_circle_points(count: int):
    """(1, 0) plus (cos 2t, sin 2t) for primitive Pythagorean angles t.

    Every chord 2|sin(t_i - t_j)| is rational, so the points form an RDS.
    """
    out = [(Fraction(1), Fraction(0))]
    m = 2
    while len(out) < count:
        for n in range(1, m):
            if (m - n) % 2 == 1 and gcd(m, n) == 1 and len(out) < count:
                a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
                out.append((Fraction(a * a - b * b, c * c), Fraction(2 * a * b, c * c)))
        m += 1
    return out


# ---------------------------------------------------------------------------
# bounded-height search


def search_grid(numerator_bound: int, denominator_bound: int):
    values = sorted(
        {
            Fraction(p, q)
            for q in range(1, denominator_bound + 1)
            for p in range(-numerator_bound, numerator_bound + 1)
        }
    )
    return [(x, y) for x in values for y in values]


def similarity_key(points, k: int) -> tuple:
    """Distance matrix up to scale and relabelling.

    Two planar point sets are similar (reflections included) exactly when
    their squared-distance matrices agree after some permutation and one
    common scale factor.
    """
    n = len(points)
    d = [[sqdist(p, q, k) for q in points] for p in points]
    top = max(max(row) for row in d)
    d = [[e / top for e in row] for row in d]
    return min(
        tuple(d[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n))
        for perm in itertools.permutations(range(n))
    )


def search_counts(k: int, numerator_bound: int, denominator_bound: int, target: int, strong: bool):
    """(raw hits, similarity classes) of the bounded-height search.

    A raw hit is a target-size set of grid points with all pairwise
    distances rational (and in strong general position when required);
    the search canonicalizes each raw hit once.
    """
    grid = search_grid(numerator_bound, denominator_bound)
    n = len(grid)
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rat_sqrt(sqdist(grid[i], grid[j], k)) is not None:
            adj[i] |= 1 << j
    raw = 0
    classes = set()

    def extend(chosen: list, cand: int) -> None:
        nonlocal raw
        if len(chosen) == target:
            pts = [grid[c] for c in chosen]
            if strong and not strong_general_position(pts, k):
                return
            raw += 1
            classes.add(similarity_key(pts, k))
            return
        while cand:
            low = cand & -cand
            j = low.bit_length() - 1
            cand ^= low
            chosen.append(j)
            extend(chosen, cand & adj[j])
            chosen.pop()

    for i in range(n):
        extend([i], adj[i])
    return raw, len(classes)


def found_digest(found) -> str:
    """SHA-256 over the semantic content of a search's ``found`` list.

    ``found`` holds (k, [(x, yc), ...]) entries in the order returned; the
    digest ignores provenance strings and JSON layout.
    """
    h = hashlib.sha256()
    for k, pts in found:
        h.update(f"{k}|{';'.join(f'{x},{y}' for x, y in pts)}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# polynomials over F_p

P = 2305843009213694017  # prime, 1 mod 24: -1, -2 and -3 are squares mod P


def _sqrt_mod(a: int) -> int:
    """Tonelli-Shanks square root mod P of a quadratic residue a."""
    a %= P
    q, s = P - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (P - 1) // 2, P) != P - 1:
        z += 1
    m, c, t, r = s, pow(z, q, P), pow(a, q, P), pow(a, (q + 1) // 2, P)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % P
            i += 1
        b = pow(c, 1 << (m - i - 1), P)
        m, c, t, r = i, b * b % P, t * b * b % P, r * b % P
    if r * r % P != a:
        raise ValueError(f"{a} is not a square mod P")
    return r


OMEGA = {k: _sqrt_mod(-k) for k in (1, 2, 3)}


def fp(q: Fraction) -> int:
    q = Fraction(q)
    return q.numerator % P * pow(q.denominator, -1, P) % P


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % P
    return _trim(out)


def padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % P for i in range(n)])


def pderiv(a: list) -> list:
    return _trim([i * c % P for i, c in enumerate(a)][1:])


def prem(a: list, b: list) -> list:
    """Remainder of a modulo a nonzero b."""
    rem = list(a)
    inv = pow(b[-1], -1, P)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv % P
        for j, d in enumerate(b):
            rem[i + j] = (rem[i + j] - c * d) % P
    return _trim(rem[: len(b) - 1])


def pgcd(a: list, b: list) -> list:
    """Monic gcd."""
    while b:
        a, b = b, prem(a, b)
    inv = pow(a[-1], -1, P)
    return [c * inv % P for c in a]


def squarefree(a: list) -> bool:
    return len(pgcd(a, pderiv(a))) == 1


def curve_eval(coeffs: dict, x: int, y: int, z: int) -> int:
    return sum(fp(c) * pow(x, i, P) * pow(y, j, P) * pow(z, l, P) for (i, j, l), c in coeffs.items()) % P


def line_restriction(coeffs: dict, base, k: int, sign: int) -> list:
    """f(a - sign*w*t, b + t, 1) mod P, w^2 = -k, lowest degree first."""
    w = OMEGA[k]
    x_lin = _trim([fp(base[0]), (-sign * w) % P])
    y_lin = _trim([fp(base[1]), 1])
    d = max(i + j + l for (i, j, l) in coeffs)
    x_pow, y_pow = [[1]], [[1]]
    for _ in range(d):
        x_pow.append(pmul(x_pow[-1], x_lin))
        y_pow.append(pmul(y_pow[-1], y_lin))
    acc: list = []
    for (i, j, _l), c in coeffs.items():
        acc = padd(acc, [fp(c) * v % P for v in pmul(x_pow[i], y_pow[j])])
    return acc


def isotropic_crossing(p, q, k: int) -> tuple[int, int]:
    """Affine meeting point mod P of (x - a) + w(y - b) = 0 through p and
    (x - a') - w(y - b') = 0 through q."""
    w = OMEGA[k]
    a, b, a2, b2 = (fp(v) for v in (p[0], p[1], q[0], q[1]))
    half = pow(2, -1, P)
    x = (a + a2 + w * (b - b2)) * half % P
    y = (a - a2 + w * (b + b2)) * half * pow(w, -1, P) % P
    return x, y


def crossings_off_curve(coeffs: dict, triple, k: int) -> bool:
    """No mixed-family crossing of the triple's six isotropic lines is on the curve."""
    return all(curve_eval(coeffs, *isotropic_crossing(p, q, k), 1) != 0 for p in triple for q in triple)
