"""Finite base categories, their nerves, and simplex surgery.

A base category is given by a total composition table.  Simplices of the
nerve are chains of composable arrows (degenerate ones, containing
identities, are kept; normalization happens at the cochain level).
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import Memo


@dataclass(frozen=True)
class Simplex:
    """A p-simplex of the nerve: a source object plus p composable arrows.

    For p = 0 the simplex is a bare object and ``arrows`` is empty.
    """

    source: str
    arrows: tuple

    @property
    def p(self):
        return len(self.arrows)

    def __iter__(self):
        return iter(self.arrows)


class BaseCategory:
    """Objects, arrows with src/tgt, identities and a total compose table.

    ``compose[(f, g)]`` is the composite "f then g" (g after f), defined for
    every pair with tgt(f) = src(g).
    """

    def __init__(self, objects, arrows, identities, compose):
        self.objects = list(objects)
        self.arrows = dict(arrows)  # id -> (src, tgt)
        self.identities = dict(identities)  # object -> arrow id
        self.compose = dict(compose)  # (first, then) -> arrow id
        self.arrow_ids = sorted(self.arrows)
        self._nerve_cache = Memo(self._new_nerve)
        self._composites = Memo(self._new_composite)  # arrow chain -> composite

    def src(self, a):
        return self.arrows[a][0]

    def tgt(self, a):
        return self.arrows[a][1]

    def is_identity(self, a):
        return self.identities.get(self.src(a)) == a and self.src(a) == self.tgt(a)

    def then(self, f, g):
        """Composite g after f; requires tgt(f) = src(g)."""
        if self.tgt(f) != self.src(g):
            raise ValueError("arrows %s, %s not composable" % (f, g))
        return self.compose[(f, g)]

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Return None if all category axioms hold, else a violation string."""
        for a, (s, t) in self.arrows.items():
            if s not in self.objects or t not in self.objects:
                return "arrow %s has unknown endpoint" % a
        for obj in self.objects:
            if obj not in self.identities:
                return "object %s has no identity" % obj
            e = self.identities[obj]
            if self.arrows[e] != (obj, obj):
                return "identity of %s has wrong endpoints" % obj
        for f in self.arrow_ids:
            for g in self.arrow_ids:
                if self.tgt(f) == self.src(g):
                    if (f, g) not in self.compose:
                        return "missing composite (%s, %s)" % (f, g)
                    h = self.compose[(f, g)]
                    if self.arrows[h] != (self.src(f), self.tgt(g)):
                        return "composite (%s, %s) has wrong endpoints" % (f, g)
        for f in self.arrow_ids:
            e_s = self.identities[self.src(f)]
            e_t = self.identities[self.tgt(f)]
            if self.then(e_s, f) != f:
                return "left unit fails at %s" % f
            if self.then(f, e_t) != f:
                return "right unit fails at %s" % f
        for f in self.arrow_ids:
            for g in self.arrow_ids:
                if self.tgt(f) != self.src(g):
                    continue
                for h in self.arrow_ids:
                    if self.tgt(g) != self.src(h):
                        continue
                    if self.then(self.then(f, g), h) != self.then(f, self.then(g, h)):
                        return "associativity fails at (%s, %s, %s)" % (f, g, h)
        return None

    # -- nerve and simplex surgery -------------------------------------------

    def nerve(self, p):
        """All p-simplices, in lexicographic order by arrow id."""
        return self._nerve_cache[p]

    def _new_nerve(self, p):
        if p < 0:
            raise ValueError("nerve degree must be >= 0")
        if p == 0:
            return [Simplex(obj, ()) for obj in sorted(self.objects)]
        out = []
        by_src = {}
        for a in self.arrow_ids:
            by_src.setdefault(self.src(a), []).append(a)
        def extend(chain, cursor):
            if len(chain) == p:
                out.append(Simplex(self.src(chain[0]), tuple(chain)))
                return
            for a in by_src.get(cursor, ()):
                extend(chain + [a], self.tgt(a))
        for a in self.arrow_ids:
            extend([a], self.tgt(a))
        return out

    def simplex(self, arrows, source=None):
        arrows = tuple(arrows)
        if arrows:
            for x, y in zip(arrows, arrows[1:]):
                if self.tgt(x) != self.src(y):
                    raise ValueError("non-composable chain %r" % (arrows,))
            return Simplex(self.src(arrows[0]), arrows)
        if source is None:
            raise ValueError("0-simplex needs a source object")
        return Simplex(source, ())

    def target(self, s):
        """The last object U_p of a simplex."""
        return self.tgt(s.arrows[-1]) if s.arrows else s.source

    def objects_along(self, s):
        """The object chain U_0, ..., U_p of a simplex."""
        objs = [s.source]
        for a in s.arrows:
            objs.append(self.tgt(a))
        return objs

    def face(self, s, i):
        """The i-th face: drop an end arrow at the extremes, compose inside."""
        p = s.p
        if not (0 <= i <= p):
            raise IndexError("face index %d out of range for p=%d" % (i, p))
        if p == 0:
            raise IndexError("0-simplices have no faces")
        arrows = s.arrows
        if i == 0:
            rest = arrows[1:]
            return Simplex(self.tgt(arrows[0]), rest)
        if i == p:
            rest = arrows[:-1]
            return Simplex(s.source, rest)
        merged = self.then(arrows[i - 1], arrows[i])
        return Simplex(s.source, arrows[: i - 1] + (merged,) + arrows[i + 1 :])

    def left_part(self, s, k):
        """L_k: the first k arrows (L_0 is the bare source object)."""
        if not (0 <= k <= s.p):
            raise IndexError("k out of range")
        return Simplex(s.source, s.arrows[:k])

    def composite(self, s):
        """The composite arrow u_p ... u_1 (identity of the object for p=0)."""
        return self._composites[s.arrows] if s.arrows else self.identities[s.source]

    def chain_composite(self, arrows):
        """The composite of a nonempty chain of composable arrows (a tuple,
        source-first), kept per chain."""
        return self._composites[arrows]

    def _new_composite(self, arrows):
        if len(arrows) == 1:
            return arrows[0]
        return self.then(self._composites[arrows[:-1]], arrows[-1])

    def is_degenerate(self, s):
        return s.p > 0 and any(self.is_identity(a) for a in s.arrows)


def chain_poset(n):
    """The poset 0 < 1 < ... < n as a base category with arrows u_{i,j}."""
    objects = [str(i) for i in range(n + 1)]
    arrows = {}
    identities = {}
    for i in range(n + 1):
        eid = "i%d" % i
        arrows[eid] = (str(i), str(i))
        identities[str(i)] = eid
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            arrows["u%d%d" % (i, j)] = (str(i), str(j))
    def name(i, j):
        return identities[str(i)] if i == j else "u%d%d" % (i, j)
    compose = {}
    for f, (fs, ft) in arrows.items():
        for g, (gs, gt) in arrows.items():
            if ft == gs:
                compose[(f, g)] = name(int(fs), int(gt))
    return BaseCategory(objects, arrows, identities, compose)


def cyclic_group_base(n=2):
    """The group Z/n as a one-object base category."""
    obj = "*"
    arrows = {"g%d" % k: (obj, obj) for k in range(n)}
    identities = {obj: "g0"}
    compose = {}
    for a in range(n):
        for b in range(n):
            compose[("g%d" % a, "g%d" % b)] = "g%d" % ((a + b) % n)
    return BaseCategory([obj], arrows, identities, compose)


def point_base():
    """A single object with only its identity arrow."""
    return BaseCategory(["*"], {"i": ("*", "*")}, {"*": "i"}, {("i", "i"): "i"})
