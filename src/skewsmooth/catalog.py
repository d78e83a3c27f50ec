"""Representative presentations for the fifteen three-generator classes and
the nine three-generator diffusion families, with the expected verdicts.

Class representatives are built from the rows of
``smoothness.THREE_DIM_CLASSES``, which also states the display convention
that ``from_display`` takes; the result is the ascending presentation on
generators x, y, z = 1, 2, 3.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Presentation
from .diffusion import DIFFUSION_LABELS, DiffusionPresentation, DiffusionType
from .scalars import QQ
from .smoothness import THREE_DIM_CLASSES, Verdict

__all__ = [
    "from_display",
    "three_dim_class",
    "CatalogEntry",
    "three_dim_grid",
    "diffusion_class_instances",
    "DIFFUSION_LABELS",
]


def from_display(field, alpha, beta, gamma, lam=None, mu=None, nu=None,
                 names=("x", "y", "z")) -> Presentation:
    """Presentation from the display of ``smoothness.THREE_DIM_CLASSES``;
    lam/mu/nu map {0: const, 1..3: linear}."""
    alpha = field.coerce(alpha)
    beta = field.coerce(beta)
    gamma = field.coerce(gamma)
    lam = {k: field.coerce(v) for k, v in (lam or {}).items()}
    mu = {k: field.coerce(v) for k, v in (mu or {}).items()}
    nu = {k: field.coerce(v) for k, v in (nu or {}).items()}

    def split(vec):
        tail = {g: c for g, c in vec.items() if g != 0 and c}
        return tail, vec.get(0, field.zero)

    lam_t, lam_e = split(lam)
    mu_t, mu_e = split(mu)
    nu_t, nu_e = split(nu)
    binv = field.one / beta
    # z x - beta x z = mu  become  x z - (1/beta) z x = -(1/beta) mu
    relations = {
        (2, 3): (alpha, lam_t, lam_e),
        (1, 2): (gamma, nu_t, nu_e),
        (1, 3): (binv, {g: -(binv * c) for g, c in mu_t.items()}, -(binv * mu_e)),
    }
    return Presentation.skew(field, 3, relations, names=names)


def three_dim_class(label: str, field=QQ, alpha=2, beta=3, gamma=5,
                    a=0, b=0, a_vec=(0, 0, 0), b_vec=(0, 0, 0)) -> Presentation:
    """Build a representative of one of the fifteen classes.

    ``alpha``/``beta``/``gamma`` feed the quasi-commutation coefficients where
    the class leaves them free; ``a``, ``b`` are the free scalars of the
    lettered classes; class 4 takes ``a_vec``/``b_vec``.
    """
    shape = next((shape for row, shape, _ in THREE_DIM_CLASSES if row == label), None)
    if shape is None:
        raise ValueError(f"unknown class label {label!r}")
    values = {"alpha": alpha, "beta": beta, "gamma": gamma, "a": a, "b": b,
              **dict(zip(("a1", "a2", "a3"), a_vec, strict=True)),
              **dict(zip(("b1", "b2", "b3"), b_vec, strict=True))}

    def fill(slot):
        return values[slot] if isinstance(slot, str) else slot

    alpha, beta, gamma = map(fill, shape[:3])
    lam, mu, nu = ({k: fill(slot) for k, slot in vec.items()} for vec in shape[3:])
    return from_display(field, alpha, beta, gamma, lam, mu, nu)


class CatalogEntry(NamedTuple):
    label: str
    params: dict
    presentation: Presentation
    expected: Verdict


def three_dim_grid(field=QQ):
    """Representative instances of all fifteen classes with their expected
    verdicts: sufficient-smooth for 1, 2b, 2d, 2e, 2f, 3b, 5c and 5e at a = 0,
    not-smooth for 2a, 2c, 3a, 4 with some a_i nonzero, 5a, 5b, 5d, and
    inconclusive for 5e at a != 0."""
    entries = []

    def add(label, expected, **params):
        entries.append(CatalogEntry(
            label, params, three_dim_class(label, field, **params), expected))

    S, N, I = Verdict.SMOOTH_SUFFICIENT, Verdict.NOT_SMOOTH, Verdict.INCONCLUSIVE
    for trip in [(2, 3, 5), (3, 5, 2), (5, 2, 3)]:
        add("1", S, alpha=trip[0], beta=trip[1], gamma=trip[2])
    for beta in (2, 3, 5):
        add("2a", N, beta=beta)
        add("2c", N, beta=beta)
    for beta, b in [(2, 1), (3, 7), (5, 1)]:
        add("2b", S, beta=beta, b=b)
        add("2d", S, beta=beta, b=b)
    add("2b", S, beta=2, b=0)
    add("2d", S, beta=3, b=0)
    for beta, a in [(2, 0), (3, 1), (5, 7)]:
        add("2e", S, beta=beta, a=a)
    for beta in (2, 5):
        add("2f", S, beta=beta)
    for alpha, beta, b in [(2, 3, 1), (5, 5, 7), (3, 2, 0)]:
        add("3a", N, alpha=alpha, beta=beta, b=b)
        add("3b", S, alpha=alpha, beta=beta, b=b)
    for alpha, a_vec, b_vec in [(2, (1, 0, 0), (0, 1, 0)),
                                (3, (0, 7, 0), (1, 0, 0)),
                                (5, (1, 1, 7), (0, 0, 0))]:
        add("4", N, alpha=alpha, a_vec=a_vec, b_vec=b_vec)
    add("5a", N)
    add("5b", N)
    for b in (1, 7):
        add("5c", S, b=b)
    add("5c", S, b=0)
    add("5d", N)
    add("5e", S, a=0)
    for a in (1, 7):
        add("5e", I, a=a)
    return entries


def diffusion_class_instances(label: str, field=QQ):
    """Three representative type-1 diffusion presentations per class.

    Parameters are chosen inside each class's defining family; unspecified
    coefficients are filled consistently with the family's PBW model (reverse
    coefficients zero for the one-sided classes).
    """
    F = field.coerce

    def dp(lambdas, xs):
        lam = {k: F(v) for k, v in lambdas.items()}
        return DiffusionPresentation(3, DiffusionType.TYPE1, lam, tuple(F(x) for x in xs),
                                     field)

    out = []
    if label == "A_I":
        for q, xs in [(1, (1, 1, 1)), (2, (3, 5, 7)), ("3/2", (1, 2, "1/3"))]:
            out.append(dp({(1, 2): q, (2, 1): q, (1, 3): q, (3, 1): q,
                           (2, 3): q, (3, 2): q}, xs))
    elif label == "A_II":
        for l12, l23, xs in [(1, 1, (1, 1, 1)), (2, 3, (1, 5, 7)), ("1/2", "5/2", (2, 3, 4))]:
            out.append(dp({(1, 2): l12, (2, 3): l23, (1, 3): F(l12) + F(l23)}, xs))
    elif label == "B_I":
        # lambda_12 = lambda_23 = u, lambda_21 = lambda_32 = v, common difference u - v
        for u, v, l13, xs in [(2, 1, 3, (1, 0, 1)), (3, 1, 5, (2, 0, 7)),
                              ("5/2", "1/2", 4, (1, 0, "1/3"))]:
            out.append(dp({(1, 2): u, (2, 1): v, (2, 3): u, (3, 2): v,
                           (1, 3): l13, (3, 1): F(l13) - (F(u) - F(v))}, xs))
    elif label == "B_II":
        for l12, l13, l23, xs in [(1, 2, 3, (1, 0, 1)), (2, 2, 2, (5, 0, 7)),
                                  ("1/2", 3, "2/3", (1, 0, 2))]:
            out.append(dp({(1, 2): l12, (1, 3): l13, (2, 3): l23}, xs))
    elif label == "B_III":
        # lambda_31 = lambda_32 = 0, lambda_12 - lambda_21 = lambda_13 - lambda_23
        for l12, l21, l13, xs in [(2, 1, 3, (1, 1, 0)), (3, 2, 5, (2, 7, 0)),
                                  ("5/2", 1, 2, (1, "1/2", 0))]:
            l23 = F(l13) - (F(l12) - F(l21))
            out.append(dp({(1, 2): l12, (2, 1): l21, (1, 3): l13, (2, 3): l23}, xs))
    elif label == "B_IV":
        # lambda_21 = lambda_31 = 0, lambda_13 - lambda_12 = lambda_23 - lambda_32
        for l12, l13, l32, xs in [(2, 3, 1, (0, 1, 1)), (1, 5, 2, (0, 3, 7)),
                                  (2, "7/2", "1/2", (0, 1, "1/5"))]:
            l23 = (F(l13) - F(l12)) + F(l32)
            out.append(dp({(1, 2): l12, (1, 3): l13, (3, 2): l32, (2, 3): l23}, xs))
    elif label == "C_I":
        # lambda_12 - lambda_21 = lambda_13 - lambda_31
        for l12, l21, l13, l23, l32, x1 in [(2, 2, 3, 5, 7, 3), (3, 1, 4, 2, 1, 0),
                                            ("1/2", "1/2", 2, 3, "1/3", 1)]:
            l31 = F(l13) - (F(l12) - F(l21))
            out.append(dp({(1, 2): l12, (2, 1): l21, (1, 3): l13, (3, 1): l31,
                           (2, 3): l23, (3, 2): l32}, (x1, 0, 0)))
    elif label == "C_II":
        for l12, l23, l13, l21, x1 in [(1, 2, 3, 0, 1), (2, 3, 5, 1, 7), ("3/2", 1, 2, 0, 0)]:
            out.append(dp({(1, 2): l12, (2, 3): l23, (1, 3): l13, (2, 1): l21}, (x1, 0, 0)))
    elif label == "D":
        for lams in [{(1, 2): 2, (2, 1): 1, (1, 3): 3, (3, 1): 5, (2, 3): 4, (3, 2): 1},
                     {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1, (2, 3): 1, (3, 2): 1},
                     {(1, 2): "1/2", (2, 1): 3, (1, 3): "2/3", (3, 1): 1,
                      (2, 3): 5, (3, 2): "1/5"}]:
            out.append(dp(lams, (0, 0, 0)))
    else:
        raise ValueError(f"unknown diffusion class {label!r}")
    return out
