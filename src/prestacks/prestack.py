"""Prestacks: fiber categories, restriction functors and coherent twists.

A prestack assigns to every base object a linear category, to every base
arrow u: V -> U a restriction functor u* from the fiber over U to the fiber
over V, and to every composable pair a twist isomorphism measuring the
failure of strict functoriality.  Twists are keyed by (first, then): for
f: X -> Y followed by g: Y -> Z, twist(f, g) is the natural isomorphism
f* g*  ->  (g o f)*.
"""

from __future__ import annotations

from functools import reduce

from .combinatorics import Memo
from .lincat import (
    NatTransform,
    compose_functors,
    identity_functor,
    identity_transform,
)


class Prestack:
    def __init__(self, name, field, base, fibers, restrictions, twists):
        self.name = name
        self.field = field
        self.base = base
        self.fibers = fibers              # base object -> LinearCategory
        self.restrictions = restrictions  # arrow id -> LinFunctor
        self.twists = dict(twists)        # (first, then) -> NatTransform
        self._fill_identity_twists()
        self._stars_cache = Memo(self._new_stars)
        self._eps_cache = Memo(self._new_epsilon)
        self._twist_inv_cache = Memo(lambda pair: self.twist(*pair).inverse())
        self._path_cache = Memo(self._new_path_value)

    def fiber(self, u_obj):
        return self.fibers[u_obj]

    def restriction(self, arrow):
        return self.restrictions[arrow]

    def _fill_identity_twists(self):
        base = self.base
        for f in base.arrow_ids:
            for g in base.arrow_ids:
                if base.tgt(f) != base.src(g):
                    continue
                if (f, g) in self.twists:
                    continue
                if base.is_identity(f) or base.is_identity(g):
                    gf = base.then(f, g)
                    ff, fg = self.restriction(f), self.restriction(g)
                    src = compose_functors(ff, fg)
                    comps = {a: self.fiber(base.src(f)).identity(src.on_obj(a))
                             for a in self.fiber(base.tgt(g)).objects}
                    self.twists[(f, g)] = NatTransform(src, self.restriction(gf), comps)

    def twist(self, f, g):
        """The twist f* g* -> (g o f)* for the composable pair (f, g)."""
        return self.twists[(f, g)]

    def twist_inverse(self, f, g):
        return self._twist_inv_cache[(f, g)]

    # -- derived functors ------------------------------------------------------

    def stars(self, arrows, end_obj=None):
        """u_1* o u_2* o ... o u_p* for a chain of base arrows (u_p applied first),
        kept per chain, as is every tail it is composed from.

        The empty chain needs ``end_obj`` to pick the fiber.
        """
        return self._stars_cache[tuple(arrows) or ((), end_obj)]

    def _new_stars(self, key):
        """The star composite of the arrow chain ``key``: u_1* for one arrow,
        else u_1* o stars(u_2 ... u_p), one composition on the kept composite
        of the chain's tail; for ((), obj), the identity functor of the fiber
        over obj."""
        if key[0] == ():
            return identity_functor(self.fiber(key[1]))
        head = self.restriction(key[0])
        return head if len(key) == 1 else compose_functors(head, self._stars_cache[key[1:]])

    def sigma_lower(self, s):
        """sigma* = (u_p ... u_1)*: the restriction of the composite arrow."""
        return self.restriction(self.base.composite(s))

    def sigma_upper(self, s):
        """sigma^star = u_1* u_2* ... u_p*."""
        return self.stars(s.arrows, end_obj=self.base.target(s))

    def c_sigma_k(self, s, k):
        """The twist (L_k sigma)* (R_k sigma)* -> sigma*; identity for k in {0, p}."""
        p = s.p
        if not (0 <= k <= p):
            raise IndexError("k out of range")
        base, arrows = self.base, s.arrows
        left = base.chain_composite(arrows[:k]) if k else base.identities[s.source]
        right = base.chain_composite(arrows[k:]) if k < p else base.identities[base.target(s)]
        return self.twist(left, right)

    def epsilon_for(self, arrows, i):
        """The whiskered twist merging positions i, i+1 of an arrow chain.

        ``arrows`` lists base arrows source-first; the result maps the chain's
        star composite to the one with arrows[i-1], arrows[i] composed
        (1-indexed i, 1 <= i <= len-1).
        """
        return self._eps_cache[(tuple(arrows), i)]

    def _new_epsilon(self, key):
        arrows, i = key
        n = len(arrows)
        if not (1 <= i <= n - 1):
            raise IndexError("merge index %d out of range for length %d" % (i, n))
        f, g = arrows[i - 1], arrows[i]
        base_tw = self.twist(f, g)
        suffix = arrows[i + 1:]
        prefix = arrows[:i - 1]
        suffix_f = self.stars(suffix, end_obj=self.base.tgt(arrows[-1]))
        prefix_chain = [self.restriction(a) for a in prefix]
        comps = {}
        top_fiber = self.fiber(self.base.tgt(arrows[-1]))
        for a in top_fiber.objects:
            m = base_tw.at(suffix_f.on_obj(a))
            for fun in reversed(prefix_chain):
                m = fun.apply(m)
            comps[a] = m
        merged = arrows[:i - 1] + (self.base.then(f, g),) + suffix
        src = self.stars(arrows, end_obj=self.base.tgt(arrows[-1]))
        tgt = self.stars(merged, end_obj=self.base.tgt(arrows[-1]))
        return NatTransform(src, tgt, comps)

    def path_value(self, chain, obj):
        """The component at ``obj`` of the value of every path of twists on an
        arrow chain (source-first): chain[0]* ... chain[-1]* obj -> (composite)*
        obj, one morphism by coherence, the identity for one arrow.  It is the
        twist of the first arrow and the rest's composite after the first
        arrow's functor applied to the rest's value, kept per (chain, obj).
        """
        return self._path_cache[(chain, obj)]

    def _new_path_value(self, key):
        chain, obj = key
        first = self.restriction(chain[0])
        fib = self.fiber(self.base.src(chain[0]))
        if len(chain) == 1:
            return fib.identity(first.on_obj(obj))
        rest = chain[1:]
        return fib.compose(self.twist(chain[0], reduce(self.base.then, rest)).at(obj),
                           first.apply(self._path_cache[(rest, obj)]))

    def epsilon_sigma_i(self, s, i):
        """u_1* ... c^{u_i, u_{i+1}} ... u_p*: merges positions i, i+1 of sigma."""
        return self.epsilon_for(s.arrows, i)

    # -- validation -------------------------------------------------------------

    def validate(self):
        """None if the prestack axioms hold, else the first violation found."""
        base = self.base
        bad = base.validate()
        if bad is not None:
            return "base category: " + bad
        for u_obj, cat in self.fibers.items():
            bad = cat.validate()
            if bad is not None:
                return "fiber %s: %s" % (u_obj, bad)
        for a in base.arrow_ids:
            fun = self.restriction(a)
            if fun.src_cat is not self.fiber(base.tgt(a)) or fun.tgt_cat is not self.fiber(base.src(a)):
                return "restriction %s has wrong fibers" % a
            bad = fun.validate()
            if bad is not None:
                return "restriction %s: %s" % (a, bad)
        for obj in base.objects:
            e = base.identities[obj]
            fun = self.restriction(e)
            ident = identity_functor(self.fiber(obj))
            for a in self.fiber(obj).objects:
                if fun.on_obj(a) != a:
                    return "restriction of identity %s moves object %s" % (e, a)
            for (pair, cols) in ident.mats.items():
                if fun.mats.get(pair, cols) != cols:
                    return "restriction of identity %s is not the identity functor" % e
        for (f, g), tw in self.twists.items():
            bad = tw.validate()
            if bad is not None:
                return "twist (%s,%s): %s" % (f, g, bad)
            if not tw.is_invertible():
                return "twist (%s,%s) is not invertible" % (f, g)
            if base.is_identity(f) or base.is_identity(g):
                if not tw.eq_components(identity_transform(tw.src_functor)):
                    return "twist (%s,%s) with identity leg is not the identity" % (f, g)
        for f in base.arrow_ids:
            for g in base.arrow_ids:
                if base.tgt(f) != base.src(g):
                    continue
                if (f, g) not in self.twists:
                    return "missing twist (%s,%s)" % (f, g)
        # coherence on every composable triple f, g, h (f innermost)
        for f in base.arrow_ids:
            for g in base.arrow_ids:
                if base.tgt(f) != base.src(g):
                    continue
                for h in base.arrow_ids:
                    if base.tgt(g) != base.src(h):
                        continue
                    gf = base.then(f, g)
                    hg = base.then(g, h)
                    fib = self.fiber(base.src(f))
                    fh = self.restriction(h)
                    ff = self.restriction(f)
                    for a in self.fiber(base.tgt(h)).objects:
                        lhs = fib.compose(self.twist(gf, h).at(a),
                                          self.twist(f, g).at(fh.on_obj(a)))
                        rhs = fib.compose(self.twist(f, hg).at(a),
                                          ff.apply(self.twist(g, h).at(a)))
                        if lhs != rhs:
                            return ("coherence fails at triple (%s,%s,%s) object %s"
                                    % (f, g, h, a))
        return None
