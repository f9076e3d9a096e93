"""The three counts of enumerative as they read before each cached the
partial products that problems share: plain loops rebuilt per problem, the
references of the cache differential tests.  Also the helper that empties
enumerative's caches, so that a patched helper is reached and no value
built through it outlives the patch."""

from operator import itemgetter

from pierikit import enumerative
from pierikit.seqcomb import dual, pieri_set


def count_pairs_d(p):
    duals = {dual(dlt) for dlt in pieri_set(p.beta, p.b)}
    return sum(len(duals.intersection(pieri_set(g, p.c))) for g in pieri_set(p.alpha, p.a))


def cohomology_oracle(p):
    n, m = p.n, p.m
    if m * (n - m) > enumerative._EXPANSION_CAP:
        raise ValueError("instance too large for polynomial expansion")
    k, guards, target, top = enumerative._frame(n, m)
    factors = sorted((enumerative._flag_factor(p.alpha), enumerative._flag_factor(p.beta),
                      enumerative._row_factor(p.a, n, m), enumerative._row_factor(p.b, n, m),
                      enumerative._row_factor(p.c, n, m)), key=itemgetter(0))
    poly = enumerative._alternant(factors[-1][1], k, n)
    for _, shape in factors[:-2]:
        weights = enumerative._schur_weights(shape, k, n)
        step = {}
        for e, c in poly.items():
            for w, x in weights.items():
                s = e + w
                if (top - s) & guards == guards:
                    step[s] = step.get(s, 0) + c * x
        poly = step
    last = enumerative._schur_weights(factors[-2][1], k, n)
    return sum(c * last.get(target - e, 0) for e, c in poly.items())


def pieri_pairing_oracle(p):
    counts = {p.alpha: 1}
    for deg in (p.a, p.b, p.c):
        step = {}
        for g, mult in counts.items():
            for h in pieri_set(g, deg):
                step[h] = step.get(h, 0) + mult
        counts = step
    return counts.get(dual(p.beta), 0)


COUNTS = (("count_pairs_d", count_pairs_d), ("cohomology_oracle", cohomology_oracle),
          ("pieri_pairing_oracle", pieri_pairing_oracle))


def clear_caches():
    """Empty every lru_cache that enumerative holds by name."""
    for fn in vars(enumerative).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
