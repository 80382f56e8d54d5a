"""The exact moment by a triangular solve on the k-variable lattice.

An independent reference for the package's one exact derivation, which
reduces every moment to first-coordinate parts and sums their eigen
expansions: this one keeps all k variables and solves the heat equation
monomial by monomial on the set the sphere rule reaches from the shifted
parts of f, with or without the mixed term.
"""

from fractions import Fraction
from types import MappingProxyType

from sphereheat.eigenmethod import evaluate_exp_sum
from sphereheat.operators import _sphere_image
from sphereheat.polyalg import Polynomial, shift_first_variable_powers


def lattice(N, k, terms, include_mixed_term=True):
    """Shifted parts (f(x1 - m, ...) = sum_i m^i parts[i]) of sum c x^beta over
    (beta, c) in terms, and the rule image of every monomial L reaches from
    them, lowest degree first: each image refers only to monomials before it."""
    parts = tuple(shift_first_variable_powers(Polynomial(k, dict(terms))))
    images = {}
    todo = [beta for g in parts for beta in g.terms]
    while todo:
        c = todo.pop()
        if c not in images:
            images[c] = _sphere_image(N, c, include_mixed_term)
            todo.extend(images[c])
    return parts, dict(sorted(images.items(), key=lambda item: (sum(item[0]), item[0])))


def lattice_terms(N, k, terms, include_mixed_term=True):
    """Exact moment on the :func:`lattice`, as (j, c) -> weight terms, one term
    being w m^j exp(-c t/N).

    h_c, the value of exp((t/2) L) y^c at the base point, solves
    dh_c/dt = (lambda_c h_c + sum_c' L_cc' h_c') / 2, where the sphere rule
    maps y^c to its rate lambda_c times y^c plus lowered y^c' of strictly
    larger rates.  So each e^(r t/2) of a lowered h_c' enters h_c divided by
    r - lambda_c, and e^(lambda_c t/2) takes what remains of h_c(0).  The
    solve keys a term w e^(-s t/2) e^(q t/(2N)) N^(p/2) by (s, q, p), and the
    drift power m^i shifts a key by (i, i, i); :func:`to_drift_powers` then
    writes each term in m.
    """
    parts, images = lattice(N, k, terms, include_mixed_term)
    at_pole = {}
    for c, image in images.items():  # lowered monomials come first
        rate = image[c]
        out = {}
        for lower, coeff in image.items():
            if lower == c:
                continue
            for (s2, q2, p), w in at_pole[lower].items():
                gap = Fraction(q2, N) - s2 - rate
                out[s2, q2, p] = out.get((s2, q2, p), 0) + coeff * w / gap
        start = {} if any(c[1:]) else {c[0]: Fraction(1)}
        for (_, _, p), w in out.items():
            start[p] = start.get(p, 0) - w
        q = int((rate + sum(c)) * N)
        out.update(((sum(c), q, p), w) for p, w in start.items())
        at_pole[c] = {key: w for key, w in out.items() if w}

    total = {}
    for i, g in enumerate(parts):
        for beta, coeff in g.terms.items():
            for (s, q, p), w in at_pole[beta].items():
                total[s + i, q + i, p + i] = total.get((s + i, q + i, p + i), 0) + coeff * w
    return MappingProxyType(to_drift_powers(total, N))


def to_drift_powers(terms, N):
    """(s, q, p) -> w terms as (j, c) -> weight: since
    m^s = N^(s/2) e^(-s t/2) e^(s t/(2N)), a term is w N^((p-s)/2) m^s
    e^(-(s-q) t/(2N)), the key (s, (s - q)/2).  Every key must have p = s
    (mod 2) and s - q even and >= 0, so that the weight stays rational and
    the rate is one of the form."""
    out = {}
    for (s, q, p), w in terms.items():
        assert (p - s) % 2 == 0 and (s - q) % 2 == 0 and s >= q, (s, q, p)
        key = (s, (s - q) // 2)
        out[key] = out.get(key, 0) + w * Fraction(N) ** ((p - s) // 2)
    return {key: w for key, w in out.items() if w}


def lattice_moment(cfg, alpha, include_mixed_term=True):
    """(value, bound) of the moment of x^alpha from :func:`lattice_terms`."""
    terms = lattice_terms(cfg.N, cfg.k, ((tuple(alpha), Fraction(1)),), include_mixed_term)
    return evaluate_exp_sum(terms, cfg.N, cfg.t)


def canonical(terms, N):
    """The exp-sum in a form that does not depend on how it was derived: a
    (j, c) -> w term, w m^j exp(-c t/N), keyed by its rate (j - 2c)/N - j in
    units of t/2 and by j mod 2, weighted w N^(j//2), zero weights dropped:
    (j, c) and (j + 2, c - N + 1), say, are one function up to the factor N."""
    out = {}
    for (j, c), w in terms.items():
        key = (Fraction(j - 2 * c, N) - j, j % 2)
        out[key] = out.get(key, 0) + w * Fraction(N) ** (j // 2)
    return {key: w for key, w in out.items() if w}
