"""The projective line P^1(GF(q)) and T = PSL(2,q) acting on its q+1 points.

Point indexing: i < q is the point [i : 1] (i the field-element encoding),
index q is the point at infinity [1 : 0].

Elements of T are permutations of the q+1 point indices.  The group is
enumerated by breadth-first closure from a fixed generator list, so element
indices are deterministic: index 0 is the identity, and the BFS visits
generators in a fixed order with a FIFO queue.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .field import Field
from .engine import GroupTable, Perm, Subgroup

MAX_TABLE_BYTES = 1 << 30  # element array and lookup; admits every q <= 211


class GroupTooLargeError(ValueError):
    pass


def psl_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def table_bytes(q: int) -> int:
    """Bytes of psl_group's element array and base-image lookup, from the
    order alone."""
    order = psl_order(q)
    return (order * (q + 1) * np.min_scalar_type(q).itemsize
            + (q + 1) ** 3 * np.min_scalar_type(-order).itemsize)


def check_table_size(q: int) -> None:
    """Refuse a q whose table would pass MAX_TABLE_BYTES, before any build."""
    size = table_bytes(q)
    if size > MAX_TABLE_BYTES:
        raise GroupTooLargeError(f"|PSL(2,{q})| = {psl_order(q)} needs a {size}-byte "
                                 f"table, past the {MAX_TABLE_BYTES}-byte cap")


def translation_perm(field: Field, a: int) -> Perm:
    """x -> x + a on affine points, infinity fixed."""
    q = field.q
    return tuple(field.add(x, a) for x in range(q)) + (q,)


def inversion_perm(field: Field) -> Perm:
    """x -> -1/x, swapping 0 and infinity."""
    q = field.q
    img = [0] * (q + 1)
    img[0] = q
    img[q] = 0
    for x in range(1, q):
        img[x] = field.neg(field.inv(x))
    return tuple(img)


def frobenius_perm(field: Field) -> Perm:
    """Point permutation induced by x -> x^p (identity on prime fields)."""
    q, p = field.q, field.p
    img = [0] * (q + 1)
    img[q] = q
    for x in range(q):
        y = x
        for _ in range(p - 1):
            y = field.mul(y, x)
        img[x] = y
    return tuple(img)


def psl_generators(field: Field) -> tuple[Perm, ...]:
    """Standard generators of PSL(2,q) as point permutations.

    For prime q these are the maps x -> x+1 and x -> -1/x.  For q = p^f with
    f > 1 those two maps only generate a subfield copy (all matrix entries
    stay in the prime field), so the translations by each polynomial-basis
    element 1, x, ..., x^(f-1) are included; together with the inversion they
    generate the full group since the two opposite root subgroups do.
    """
    if field.q < 4:
        raise ValueError("q >= 4 required")
    basis = [field.p**i for i in range(field.f)]
    gens = [translation_perm(field, a) for a in basis]
    gens.append(inversion_perm(field))
    return tuple(gens)


def psl_group(field: Field) -> GroupTable:
    """Fully enumerated PSL(2,q) with stable BFS element indexing.  The
    points 0, 1, 2 form a base: PGL(2,q) is sharply 3-transitive."""
    check_table_size(field.q)
    table = GroupTable.from_generators(field.q + 1, psl_generators(field), (0, 1, 2),
                                       psl_order(field.q))
    table.field = field
    return table


def point_stabilizer(T: GroupTable, pt: int) -> Subgroup:
    """Subgroup of all elements fixing the given point index."""
    if not 0 <= pt < T.degree:
        raise ValueError(f"point {pt} out of range")
    return Subgroup(T, np.flatnonzero(T.elements[:, pt] == pt))
