"""Finite k-linear categories with free hom modules, and their functors and
natural transformations.

Morphisms are coordinate vectors over chosen hom bases; every axiom check is
an exhaustive exact comparison on basis elements, so validators are proofs at
fixture scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import SparseMatrix, accumulate


@dataclass(frozen=True)
class Mor:
    """A morphism in a fiber category: endpoints plus coordinates."""

    cat: "LinearCategory"
    src: str
    tgt: str
    coords: tuple

    def __post_init__(self):
        rank = len(self.cat.hom_basis(self.src, self.tgt))
        if len(self.coords) != rank:
            raise ValueError(
                "coordinate length %d != hom rank %d" % (len(self.coords), rank)
            )

    def is_zero(self):
        F = self.cat.field
        return all(F.is_zero(c) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Mor):
            return NotImplemented
        if (self.cat, self.src, self.tgt) != (other.cat, other.src, other.tgt):
            return False
        F = self.cat.field
        return all(F.eq(a, b) for a, b in zip(self.coords, other.coords))

    def __hash__(self):
        return hash((id(self.cat), self.src, self.tgt, self.coords))


class LinearCategory:
    """A k-linear category with a finite chosen basis for every hom module.

    Composition is stored as structure constants: for basis elements
    f in hom(A, B) and g in hom(B, C), ``comp[(A, B, C)][(gi, fi)]`` maps a
    result basis index to its coefficient.
    """

    def __init__(self, name, field, objects, hom_bases, comp, identities):
        self.name = name
        self.field = field
        self.objects = list(objects)
        self._hom = {k: list(v) for k, v in hom_bases.items()}  # (A,B) -> names
        self.comp = comp  # (A,B,C) -> {(gi,fi): {k: coeff}}
        self.identity_coords = identities  # A -> coord tuple over hom(A,A)

    def hom_basis(self, a, b):
        return self._hom.get((a, b), [])

    def rank(self, a, b):
        return len(self.hom_basis(a, b))

    def basis_mor(self, a, b, i):
        coords = [self.field.zero] * self.rank(a, b)
        coords[i] = self.field.one
        return Mor(self, a, b, tuple(coords))

    def identity(self, a):
        return Mor(self, a, a, tuple(self.identity_coords[a]))

    def scale(self, c, f):
        F = self.field
        return Mor(self, f.src, f.tgt, tuple(F.mul(c, x) for x in f.coords))

    def compose_basis(self, a, b, c, gi, fi):
        """Coefficients of (basis g_i) o (basis f_i) over hom(a, c)."""
        table = self.comp.get((a, b, c), {})
        return table.get((gi, fi), {})

    def compose(self, g, f):
        """The composite g o f (f first); bilinear in both arguments."""
        if g.cat is not self or f.cat is not self:
            raise ValueError("morphisms from another category")
        if f.tgt != g.src:
            raise ValueError("endpoints do not match: %s -> %s vs %s -> %s"
                             % (f.src, f.tgt, g.src, g.tgt))
        F = self.field
        out = [F.zero] * self.rank(f.src, g.tgt)
        for gi, gc in enumerate(g.coords):
            if F.is_zero(gc):
                continue
            for fi, fc in enumerate(f.coords):
                if F.is_zero(fc):
                    continue
                w = F.mul(gc, fc)
                for k, coeff in self.compose_basis(f.src, f.tgt, g.tgt, gi, fi).items():
                    out[k] = F.add(out[k], F.mul(w, coeff))
        return Mor(self, f.src, g.tgt, tuple(out))

    def left_block(self, b, f):
        """The block of m -> f o m, hom(B, A) -> hom(B, A2), for f: A -> A2."""
        F = self.field
        table = self.comp.get((b, f.src, f.tgt), {})
        out = {}
        for fi, fc in enumerate(f.coords):
            if F.is_zero(fc):
                continue
            for mi in range(self.rank(b, f.src)):
                for k, coeff in table.get((fi, mi), {}).items():
                    accumulate(F, out, (k, mi), F.mul(fc, coeff))
        return out

    def right_block(self, a, g):
        """The block of m -> m o g, hom(B, A) -> hom(B2, A), for g: B2 -> B."""
        F = self.field
        table = self.comp.get((g.src, g.tgt, a), {})
        out = {}
        for gi, gc in enumerate(g.coords):
            if F.is_zero(gc):
                continue
            for mi in range(self.rank(g.tgt, a)):
                for k, coeff in table.get((mi, gi), {}).items():
                    accumulate(F, out, (k, mi), F.mul(gc, coeff))
        return out

    def invert(self, f):
        """Two-sided inverse of f, or None.  Solves small exact linear systems."""
        if f.src == f.tgt and f == self.identity(f.src):
            return f
        F = self.field
        n = self.rank(f.tgt, f.src)
        if n == 0:
            return None
        # unknowns: coords of g in hom(tgt, src); demand g o f = id_src, f o g = id_tgt
        rows = self.rank(f.src, f.src) + self.rank(f.tgt, f.tgt)
        row_data = [{} for _ in range(rows)]
        rhs = [F.zero] * rows
        for k, c in enumerate(self.identity_coords[f.src]):
            rhs[k] = c
        off = self.rank(f.src, f.src)
        for k, c in enumerate(self.identity_coords[f.tgt]):
            rhs[off + k] = c
        for gi in range(n):
            g = self.basis_mor(f.tgt, f.src, gi)
            gf = self.compose(g, f)
            for k, c in enumerate(gf.coords):
                if not F.is_zero(c):
                    row_data[k][gi] = c
            fg = self.compose(f, g)
            for k, c in enumerate(fg.coords):
                if not F.is_zero(c):
                    row_data[off + k][gi] = c
        sol = SparseMatrix(rows, n, F, row_data).solve(rhs)
        if sol is None:
            return None
        return Mor(self, f.tgt, f.src, tuple(sol))

    def validate(self):
        """None if linear-category axioms hold, else the first violation."""
        F = self.field
        for a in self.objects:
            if a not in self.identity_coords:
                return "object %s has no identity coordinates" % a
        for a, b in product(self.objects, repeat=2):
            for c in self.objects:
                for gi in range(self.rank(b, c)):
                    g = self.basis_mor(b, c, gi)
                    for fi in range(self.rank(a, b)):
                        f = self.basis_mor(a, b, fi)
                        self.compose(g, f)  # raises on malformed tables
        for a, b in product(self.objects, repeat=2):
            for fi in range(self.rank(a, b)):
                f = self.basis_mor(a, b, fi)
                if self.compose(f, self.identity(a)) != f:
                    return "right unit fails at %s->%s basis %d" % (a, b, fi)
                if self.compose(self.identity(b), f) != f:
                    return "left unit fails at %s->%s basis %d" % (a, b, fi)
        for a, b, c, d in product(self.objects, repeat=4):
            for fi in range(self.rank(a, b)):
                f = self.basis_mor(a, b, fi)
                for gi in range(self.rank(b, c)):
                    g = self.basis_mor(b, c, gi)
                    for hi in range(self.rank(c, d)):
                        h = self.basis_mor(c, d, hi)
                        if self.compose(self.compose(h, g), f) != self.compose(h, self.compose(g, f)):
                            return ("associativity fails at %s,%s,%s,%s (%d,%d,%d)"
                                    % (a, b, c, d, fi, gi, hi))
        return None

    def identity_basis_index(self, a):
        """Index i with 1_A = basis_i of hom(A,A), or None if not a basis vector."""
        F = self.field
        coords = self.identity_coords[a]
        hits = [i for i, c in enumerate(coords) if not F.is_zero(c)]
        if len(hits) == 1 and F.eq(coords[hits[0]], F.one):
            return hits[0]
        return None


class LinFunctor:
    """A k-linear functor between fiber categories, stored as an object map
    plus one matrix per hom pair (columns indexed by source basis).

    ``is_identity`` is set only by ``identity_functor``; ``apply`` then returns
    its argument without multiplying out the identity matrices.
    """

    def __init__(self, src_cat, tgt_cat, obj_map, mats, name=""):
        self.src_cat = src_cat
        self.tgt_cat = tgt_cat
        self.obj_map = dict(obj_map)
        self.mats = mats  # (A,B) -> tuple of coord tuples, one per source basis elt
        self.name = name
        self.is_identity = False

    def on_obj(self, a):
        return self.obj_map[a]

    def apply(self, f):
        if f.cat is not self.src_cat:
            raise ValueError("functor applied to foreign morphism")
        if self.is_identity:
            return f
        F = self.tgt_cat.field
        fa, fb = self.on_obj(f.src), self.on_obj(f.tgt)
        out = [F.zero] * self.tgt_cat.rank(fa, fb)
        # a missing matrix reads as zero here; validate() reports it
        for c, col in zip(f.coords, self.mats.get((f.src, f.tgt), ())):
            if F.is_zero(c):
                continue
            for k, v in enumerate(col):
                out[k] = F.add(out[k], F.mul(c, v))
        return Mor(self.tgt_cat, fa, fb, tuple(out))

    def basis_image(self, a, b, i):
        """The image of basis element i of hom(A, B): column i of the matrix."""
        return Mor(self.tgt_cat, self.on_obj(a), self.on_obj(b), self.mats[(a, b)][i])

    def block(self, b, a):
        """The block of the functor on hom(B, A): its matrix, column by column."""
        F = self.tgt_cat.field
        return {(k, mi): v for mi, col in enumerate(self.mats.get((b, a), ()))
                for k, v in enumerate(col) if not F.is_zero(v)}

    def validate(self):
        C, D = self.src_cat, self.tgt_cat
        for a, b in product(C.objects, repeat=2):
            if len(self.mats.get((a, b), ())) != C.rank(a, b):
                return "functor has no matrix on hom(%s, %s)" % (a, b)
        for a in C.objects:
            if self.apply(C.identity(a)) != D.identity(self.on_obj(a)):
                return "functor does not preserve identity at %s" % a
        for a, b, c in product(C.objects, repeat=3):
            for fi in range(C.rank(a, b)):
                f = C.basis_mor(a, b, fi)
                for gi in range(C.rank(b, c)):
                    g = C.basis_mor(b, c, gi)
                    if self.apply(C.compose(g, f)) != D.compose(self.apply(g), self.apply(f)):
                        return ("functor does not preserve composition at "
                                "%s,%s,%s (%d,%d)" % (a, b, c, fi, gi))
        return None


def identity_functor(cat):
    mats = {}
    for (a, b), basis in cat._hom.items():
        n = len(basis)
        cols = []
        for i in range(n):
            col = [cat.field.zero] * n
            col[i] = cat.field.one
            cols.append(tuple(col))
        mats[(a, b)] = tuple(cols)
    functor = LinFunctor(cat, cat, {a: a for a in cat.objects}, mats, name="id")
    functor.is_identity = True
    return functor


def compose_functors(g, f):
    """The composite functor g o f (f applied first)."""
    if f.tgt_cat is not g.src_cat:
        raise ValueError("functors not composable")
    obj_map = {a: g.on_obj(f.on_obj(a)) for a in f.src_cat.objects}
    mats = {}
    for (a, b) in f.mats:
        cols = []
        for i in range(f.src_cat.rank(a, b)):
            m = g.apply(f.apply(f.src_cat.basis_mor(a, b, i)))
            cols.append(m.coords)
        mats[(a, b)] = tuple(cols)
    name = "%s.%s" % (g.name, f.name) if g.name and f.name else ""
    return LinFunctor(f.src_cat, g.tgt_cat, obj_map, mats, name=name)


class NatTransform:
    """A natural transformation: per-object components between two functors."""

    def __init__(self, src_functor, tgt_functor, components):
        self.src_functor = src_functor
        self.tgt_functor = tgt_functor
        self.components = dict(components)  # object of source category -> Mor

    def at(self, a):
        return self.components[a]

    def validate(self):
        F, G = self.src_functor, self.tgt_functor
        C = F.src_cat
        for a in C.objects:
            comp = self.components.get(a)
            if comp is None:
                return "no component at %s" % a
            if comp.src != F.on_obj(a) or comp.tgt != G.on_obj(a):
                return "component at %s has wrong endpoints" % a
        D = F.tgt_cat
        for a, b in product(C.objects, repeat=2):
            for fi in range(C.rank(a, b)):
                f = C.basis_mor(a, b, fi)
                lhs = D.compose(G.apply(f), self.at(a))
                rhs = D.compose(self.at(b), F.apply(f))
                if lhs != rhs:
                    return "naturality fails at %s->%s basis %d" % (a, b, fi)
        return None

    def is_invertible(self):
        return all(self.components[a].cat.invert(self.components[a]) is not None
                   for a in self.components)

    def inverse(self):
        comps = {}
        for a, m in self.components.items():
            inv = m.cat.invert(m)
            if inv is None:
                raise ValueError("component at %s is not invertible" % a)
            comps[a] = inv
        return NatTransform(self.tgt_functor, self.src_functor, comps)

    def eq_components(self, other):
        keys = set(self.components)
        if keys != set(other.components):
            return False
        return all(self.components[a] == other.components[a] for a in keys)


def identity_transform(functor):
    comps = {a: functor.tgt_cat.identity(functor.on_obj(a))
             for a in functor.src_cat.objects}
    return NatTransform(functor, functor, comps)


def compose_transforms(second, first):
    """Vertical composite: first then second (componentwise composition)."""
    comps = {}
    for a, m in first.components.items():
        comps[a] = m.cat.compose(second.at(a), m)
    return NatTransform(first.src_functor, second.tgt_functor, comps)


# -- blocks ----------------------------------------------------------------------
# A block is the matrix of a linear map between two free modules, stored as a
# dict {(row, column): value} without zero values.


def unit_block(F, rank, c, sign=1):
    """sign * c times the identity of a rank-``rank`` module (sign is 1 or -1)."""
    c = c if sign == 1 else F.neg(c)
    return {} if F.is_zero(c) else {(i, i): c for i in range(rank)}


def compose_blocks(F, a, b):
    """The block of a o b (b applied first)."""
    rows_of_b = {}
    for (m, c), w in b.items():
        rows_of_b.setdefault(m, []).append((c, w))
    out = {}
    for (r, m), v in a.items():
        for c, w in rows_of_b.get(m, ()):
            accumulate(F, out, (r, c), F.mul(v, w))
    return out


def scale_block(F, c, a, sign=1):
    """sign * c times the block a (sign is 1 or -1)."""
    c = c if sign == 1 else F.neg(c)
    out = {}
    for k, v in a.items():
        v = F.mul(c, v)
        if not F.is_zero(v):
            out[k] = v
    return out


def sum_blocks(F, terms):
    """The block sum of c * block over ``terms``, a list of (c, block) pairs."""
    out = {}
    for c, block in terms:
        for k, v in block.items():
            accumulate(F, out, k, F.mul(c, v))
    return out
