"""Finite groups as explicit multiplication tables.

Index 0 is always the identity; all algorithms downstream rely on that to
test normalization by a plain index comparison.  Labels are opaque strings
used only for serialization.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import NoIdentity, NoInverse, NotAssociative, SelfCheckFailed, UnknownFamily


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    elements: tuple  # labels, identity first
    table: tuple  # tuple of row tuples
    inverse: tuple = field(default=None)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def inverses(self):
        """i^-1 for every element i, in index order."""
        return self.inverse

    def mul_row(self, g: int):
        """g * j for every element j, in index order."""
        return self.table[g]

    @property
    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[i][j] == t[j][i] for i in range(n) for j in range(i + 1, n))

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.table[x][i]
            k += 1
        return k

    def noncommuting_pair(self):
        t = self.table
        for i in range(self.order):
            for j in range(i + 1, self.order):
                if t[i][j] != t[j][i]:
                    return (i, j)
        return None

    def product(self, indices) -> int:
        out = 0
        for i in indices:
            out = self.table[out][i]
        return out


def generated(group, gens, span=None, rows=None) -> set:
    """The subgroup gens generate, as a set of element indices: the closure
    of {e} under left multiplication by each generator, read from
    group.mul_row (in a finite group every element of the subgroup is a
    positive word in the generators).  With span, the subgroup gens[:-1]
    generate, the closure grows from it (a copy): the other generators map
    span into itself, so only the products gens[-1] . h with h in span
    start the walk.  rows, when given, are the group.mul_row(s) of gens,
    in order, so that a caller growing gens builds each row once."""
    if rows is None:
        rows = [group.mul_row(s) for s in gens]
    if span is None:
        span, frontier = {0}, [0]
    else:
        frontier = {rows[-1][h] for h in span} - span
        span = span | frontier
    while frontier:
        fresh = []
        for x in frontier:
            for row in rows:
                y = row[x]
                if y not in span:
                    span.add(y)
                    fresh.append(y)
        frontier = fresh
    return span


def greedy_generators(group) -> list:
    """S, the generating set that every generator-row check restricts its
    first slot to, for any group-protocol object: in index order, every
    element outside the subgroup the earlier ones generate, until they
    generate the whole group.  No element is redundant when it is taken,
    so |S| <= log2 |G|.

    The first failing row is a generator.  Let a check pass on the rows of
    a subgroup H (the g where a normalized cocycle F has F(g, ...) = 0 on
    every tuple, as dF(s, y, ...) = 0 gives F(sy, ...) = s . F(y, ...) for
    s in H; or the g with rho(g) rho(h) = rho(gh) for every h), and let r
    be its first failing row in index order.  Every element before r lies
    in H, so the generators taken before r span a subgroup of H, which
    misses r; so the greedy takes r.  The check therefore passes on the
    rows of S exactly when it passes everywhere, and its first failing row
    in S holds its lexicographically first witness (Brown, Cohomology of
    Groups, III.1).

    On an extension the lifts (0, g) come first in index order.  They
    reach every g, and (0, g)(0, h) = (c(g, h), gh) puts every value of c
    in the subgroup they generate, conjugation by them acting on A as G
    does.  So they generate Gamma whenever the values of c generate A as a
    G-module, as they do for the universal kernel (3 generators for the
    2048-element Gamma of (Z/2)^2); otherwise the greedy goes on into the
    kernel cosets.

    Each generator extends the span of the earlier ones (see `generated`),
    and each generator's row is built once and passed along.
    The span is at hand, so a set that does not span the group (a fault in
    `generated`) raises SelfCheckFailed, also under python -O."""
    gens, rows, span = [], [], {0}
    for x in range(1, group.order):
        if len(span) == group.order:
            break
        if x not in span:
            gens.append(x)
            rows.append(group.mul_row(x))
            span = generated(group, gens, span, rows)
    if len(span) != group.order:
        raise SelfCheckFailed(f"greedy_generators: {gens} span {len(span)} of "
                              f"{group.order} elements")
    return gens


def group_from_table(table, labels=None) -> FiniteGroup:
    """Validate a multiplication table and normalize the identity to index 0.

    Raises NoIdentity, NoInverse (witness element) or NotAssociative
    (witness triple).
    """
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError("table is not square")
    for row in table:
        for x in row:
            if not 0 <= x < n:
                raise ValueError(f"table entry {x} out of range")
    if labels is None:
        labels = [f"x{i}" for i in range(n)]
    labels = [str(l) for l in labels]

    ident = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            ident = e
            break
    if ident is None:
        raise NoIdentity("no two-sided identity in table")

    if ident != 0:
        perm = [ident] + [i for i in range(n) if i != ident]
        inv_perm = [0] * n
        for new, old in enumerate(perm):
            inv_perm[old] = new
        table = [[inv_perm[table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
        labels = [labels[old] for old in perm]
        ident = 0

    inverses = [None] * n
    for i in range(n):
        invs = [j for j in range(n) if table[i][j] == 0]
        if len(invs) != 1 or table[invs[0]][i] != 0:
            raise NoInverse("element lacks a unique two-sided inverse", witness=labels[i])
        inverses[i] = invs[0]

    for i in range(n):
        ti = table[i]
        for j in range(n):
            tij = table[ti[j]]
            tj = table[j]
            for k in range(n):
                if tij[k] != ti[tj[k]]:
                    raise NotAssociative(
                        "associativity fails", witness=(labels[i], labels[j], labels[k])
                    )

    return FiniteGroup(
        order=n,
        elements=tuple(labels),
        table=tuple(tuple(row) for row in table),
        inverse=tuple(inverses),
    )


def cyclic_group(m: int) -> FiniteGroup:
    labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, m)]
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return group_from_table(table, labels)


def dihedral_group(m: int) -> FiniteGroup:
    """Dihedral group of order 2m (symmetries of the m-gon)."""
    if m < 1:
        raise UnknownFamily(f"dihedral parameter must be >= 1, got {m}")
    n = 2 * m

    def idx(rot, ref):
        return ref * m + rot

    table = []
    for a in range(n):
        i, b1 = a % m, a // m
        row = []
        for c in range(n):
            j, b2 = c % m, c // m
            # (r^i s^b1)(r^j s^b2) = r^{i + (-1)^b1 j} s^{b1+b2}
            rot = (i - j) % m if b1 else (i + j) % m
            row.append(idx(rot, (b1 + b2) % 2))
        table.append(row)
    labels = [f"r{i}" if i else "e" for i in range(m)] + [f"sr{i}" if i else "s" for i in range(m)]
    return group_from_table(table, labels)


def symmetric_group(n: int) -> FiniteGroup:
    if n > 4:
        raise UnknownFamily("symmetric groups supported up to S4")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(str(x) for x in p) for p in perms]
    return group_from_table(table, labels)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    table = []
    for i in range(n):
        for j in range(m):
            row = []
            for k in range(n):
                for l in range(m):
                    row.append(g.table[i][k] * m + h.table[j][l])
            table.append(row)
    labels = [f"({g.elements[i]},{h.elements[j]})" for i in range(n) for j in range(m)]
    return group_from_table(table, labels)


_FAMILIES = {
    "cyclic": lambda p: cyclic_group(int(p)),
    "dihedral": lambda p: dihedral_group(int(p)),
    "symmetric": lambda p: symmetric_group(int(p)),
}


def builtin_group(name: str) -> FiniteGroup:
    """Build a group from a family spec like "cyclic:4" or
    "cyclic:2*cyclic:2" (direct products join with '*')."""
    parts = name.split("*")
    groups = []
    for part in parts:
        fam, _, param = part.strip().partition(":")
        if fam not in _FAMILIES:
            raise UnknownFamily(f"unknown group family {fam!r}")
        try:
            groups.append(_FAMILIES[fam](param))
        except ValueError:
            raise UnknownFamily(f"bad parameter {param!r} for family {fam!r}")
    out = groups[0]
    for g in groups[1:]:
        out = direct_product(out, g)
    return out


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "order": group.order,
        "elements": list(group.elements),
        "table": [list(row) for row in group.table],
    }


def json_object(data, what: str, keys=()) -> dict:
    """data, or a ValueError naming what was read unless it is a JSON
    object that holds every key in keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} {data!r} is not a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} has no field {key!r}")
    return data


def group_from_json(data: dict) -> FiniteGroup:
    """The group of a `group_to_json` dict; data that is not an object with
    a `table`, a table that is not a square list of lists of ints (bools
    excluded), elements that are not one distinct string label per row, or
    an `order` (optional) that is not the int number of rows, raise
    ValueError."""
    json_object(data, "group", ("table",))
    table, labels = data["table"], data.get("elements")
    if not isinstance(table, list) or not all(
            isinstance(row, list) and len(row) == len(table)
            and all(type(x) is int for x in row) for row in table):
        raise ValueError(f"group table {table!r} is not a square list of lists of integers")
    if labels is not None and not (isinstance(labels, list) and len(labels) == len(table)
                                   and all(isinstance(lbl, str) for lbl in labels)
                                   and len(set(labels)) == len(labels)):
        raise ValueError(f"group elements {labels!r} are not {len(table)} distinct labels")
    order = data.get("order", len(table))
    if type(order) is not int or order != len(table):
        raise ValueError(f"group field 'order' is {order!r}, expected {len(table)}")
    return group_from_table(table, labels=labels)


def load_group(path: str) -> FiniteGroup:
    with open(path) as fh:
        return group_from_json(json.load(fh))
