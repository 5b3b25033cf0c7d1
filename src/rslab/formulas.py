"""Closed-form evaluators for every bound the package reproduces.

Each formula is identified by a kebab-case name describing what it bounds.
Rows evaluate to exact rationals; bounds stated only up to an additive
constant carry `asymptotic=True` and are excluded from exactness checks.
Parameters outside a formula's stated range still produce a row, flagged
`out_of_range=True`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import InvalidParameterError, RegularGraphError
from .graphs import Graph
from .patterns import PatternSpec, realize_pattern


@dataclass(frozen=True)
class BoundRow:
    name: str
    quantity: str  # 'sat' | 'ssat' | 'prsat'
    n: int
    params: tuple[tuple[str, object], ...] = ()
    lower: Fraction | None = None
    upper: Fraction | None = None
    exact: Fraction | None = None
    asymptotic: bool = False
    out_of_range: bool = False

    def to_json_dict(self) -> dict:
        def enc(x):
            return None if x is None else str(x)

        return {
            "name": self.name,
            "quantity": self.quantity,
            "n": self.n,
            "params": {k: str(v) for k, v in self.params},
            "lower": enc(self.lower),
            "upper": enc(self.upper),
            "exact": enc(self.exact),
            "asymptotic": self.asymptotic,
            "out_of_range": self.out_of_range,
        }


# -- tree statistics ---------------------------------------------------------


def tree_second_degree(spec: PatternSpec) -> int:
    """Second smallest degree value of the realization (delta_2)."""
    g = realize_pattern(spec)
    degs = sorted(set(g.degrees()))
    if len(degs) < 2:
        raise RegularGraphError("second smallest degree undefined for regular graphs")
    return degs[1]


def bare_path_parameter(spec: PatternSpec) -> int:
    """max(t, 2), where t is the longest path whose internal vertices all
    have degree 2 in the tree."""
    g = realize_pattern(spec)
    if not g.is_tree():
        raise InvalidParameterError("bare path parameter needs a tree")
    best = 1 if g.edges else 0
    for u in range(g.n):
        # BFS from u recording parents, then check each path's interior
        parent = {u: None}
        queue = [u]
        while queue:
            x = queue.pop(0)
            for w in g.neighbours(x):
                if w not in parent:
                    parent[w] = x
                    queue.append(w)
        for v in range(g.n):
            if v == u:
                continue
            path = [v]
            while path[-1] != u:
                path.append(parent[path[-1]])
            if all(g.degree(x) == 2 for x in path[1:-1]):
                best = max(best, len(path) - 1)
    return max(best, 2)


def _has_degree2_leaf_neighbour(g: Graph) -> bool:
    for v in range(g.n):
        if g.degree(v) == 2 and any(g.degree(w) == 1 for w in g.neighbours(v)):
            return True
    return False


# -- individual formulas -------------------------------------------------------


def _row_long_path_lower(n: int, pattern: PatternSpec | None = None) -> BoundRow:
    """prsat >= n-1 for any connected pattern containing a six-vertex path."""
    out_of_range = False
    params: tuple = ()
    if pattern is not None:
        from .engine import contains_copy

        g = realize_pattern(pattern)
        out_of_range = not (
            g.is_connected() and contains_copy(g, PatternSpec.path(6)) is not None
        )
        params = (("pattern", pattern.token()),)
    return BoundRow(
        "long-path-lower", "prsat", n, params,
        lower=Fraction(n - 1), out_of_range=out_of_range,
    )


def _row_broom4(n: int, m: int) -> BoundRow:
    block = 3 * (m + 2)
    r = n - block * (n // block)
    upper = block * (n // block) + math.comb(r, 2)
    return BoundRow(
        "broom4-bounds", "prsat", n, (("m", m),),
        lower=Fraction(n - 1), upper=Fraction(upper),
        out_of_range=not (m >= 1 and n >= block),
    )


def _row_caterpillar_upper(n: int, k: int, ell: int) -> BoundRow:
    out = not (ell >= 4 and k >= ell + 2 and n >= (k + 1) * (1 << (ell - 2)))
    return BoundRow(
        "caterpillar-upper", "prsat", n, (("k", k), ("ell", ell)),
        upper=Fraction(n + (ell - 3) * (1 << (ell - 3))),
        out_of_range=out,
    )


def _row_bare_path_lower(n: int, pattern: PatternSpec) -> BoundRow:
    g = realize_pattern(pattern)
    out = not (
        g.is_tree()
        and g.diameter() >= 4
        and not _has_degree2_leaf_neighbour(g)
    )
    r = bare_path_parameter(pattern) if g.is_tree() else 2
    coeff = 1 + Fraction(1, 12 * r + 52)
    return BoundRow(
        "bare-path-lower", "prsat", n,
        (("pattern", pattern.token()), ("r", r)),
        lower=coeff * n, asymptotic=True, out_of_range=out,
    )


def _row_subdivided_star_prsat(n: int, k: int) -> BoundRow:
    value = n - (n + k - 1) // (k + 1)
    return BoundRow(
        "subdivided-star-prsat", "prsat", n, (("k", k),),
        lower=Fraction(value), upper=Fraction(value), exact=Fraction(value),
        out_of_range=not (k >= 4 and n >= k + 3),
    )


def _row_subdivided_star_sat(n: int, k: int) -> BoundRow:
    value = n - (n + k - 2) // k
    return BoundRow(
        "subdivided-star-sat", "sat", n, (("k", k),),
        lower=Fraction(value), upper=Fraction(value), exact=Fraction(value),
        out_of_range=not (k >= 5 and n >= k + 2),
    )


def _row_double_star_sat(n: int, t: int, s: int) -> BoundRow:
    if t == s:
        upper = Fraction(s, 2) * n + Fraction(t * (t + 2), 2)
    else:
        upper = Fraction(s + 1, 2) * n - Fraction(s * s + 8, 8)
    return BoundRow(
        "double-star-sat", "sat", n, (("t", t), ("s", s)),
        lower=Fraction(s, 2) * n, upper=upper,
        out_of_range=not (t >= s >= 1 and n >= (s + 1) ** 3),
    )


def _row_double_star_sat_upper(n: int, t: int, s: int) -> BoundRow:
    m = math.ceil((t + 1) / s) + 1
    coeff = Fraction(m * s, m * s + 1) * Fraction(s + 1, 2)
    return BoundRow(
        "double-star-sat-upper", "sat", n, (("t", t), ("s", s), ("m", m)),
        upper=coeff * n, asymptotic=True,
        out_of_range=not (t >= s >= 1),
    )


def _row_double_star_prsat(n: int, t: int, s: int) -> BoundRow:
    m = math.ceil((t + s + 1) / s) + 1
    coeff = Fraction(m * s, m * s + 1) * Fraction(s + 1, 2)
    return BoundRow(
        "double-star-prsat", "prsat", n, (("t", t), ("s", s), ("m", m)),
        lower=Fraction(s, 2) * n, upper=coeff * n, asymptotic=True,
        out_of_range=not (t >= s >= 1),
    )


def _row_second_degree_lower(n: int, pattern: PatternSpec) -> BoundRow:
    g = realize_pattern(pattern)
    is_star = g.is_tree() and g.n >= 2 and max(g.degrees()) == g.n - 1
    try:
        d2 = tree_second_degree(pattern)
    except RegularGraphError:
        d2 = None
    out = not (
        g.is_tree() and not is_star and g.n >= 5
        and d2 is not None and n >= (d2 - 1) ** 3
    )
    lower = None if d2 is None else Fraction(d2 - 1, 2) * n
    params = (("pattern", pattern.token()), ("delta2", d2))
    return BoundRow(
        "second-degree-lower", "prsat", n, params,
        lower=lower, out_of_range=out,
    )


def _row_star_exact(name: str, quantity: str, n: int, k: int) -> BoundRow:
    """The closed form that prsat(n, K1,k) and sat(n, K1,k) share."""
    if n >= k + k // 2:
        value = Fraction(k - 1, 2) * n - Fraction(k * k // 4, 2)
    else:
        value = Fraction(math.comb(k, 2) + math.comb(n - k, 2))
    return BoundRow(
        name, quantity, n, (("k", k),),
        lower=value, upper=value, exact=value,
        out_of_range=not (k >= 1 and n >= k + 1),
    )


_FORMULAS = {
    "long-path-lower": _row_long_path_lower,
    "broom4-bounds": _row_broom4,
    "caterpillar-upper": _row_caterpillar_upper,
    "bare-path-lower": _row_bare_path_lower,
    "subdivided-star-prsat": _row_subdivided_star_prsat,
    "subdivided-star-sat": _row_subdivided_star_sat,
    "double-star-sat": _row_double_star_sat,
    "double-star-sat-upper": _row_double_star_sat_upper,
    "double-star-prsat": _row_double_star_prsat,
    "second-degree-lower": _row_second_degree_lower,
    "star-exact": partial(_row_star_exact, "star-exact", "prsat"),
    "star-exact-sat": partial(_row_star_exact, "star-exact-sat", "sat"),
}


def evaluate_bound(name: str, n: int, **params) -> BoundRow:
    try:
        fn = _FORMULAS[name]
    except KeyError:
        raise InvalidParameterError(f"unknown formula {name!r}") from None
    return fn(n, **params)

