"""File formats: prestack JSON documents, cochain text, triplet matrices.

Parsing and validation are separate: a file that parses may still fail the
coherence validator.
"""

from __future__ import annotations

import json

from .basecat import BaseCategory, Simplex
from .complexbase import SparseCochain, text_order
from .lincat import (LinearCategory, LinFunctor, Mor, NatTransform, compose_functors,
                     identity_functor)
from .linalg import make_field, ring_tag
from .prestack import Prestack


class ParseError(Exception):
    pass


def _hom_key(s):
    a, b = s.split("|")
    return a, b


def _read_coords(field, names, values):
    """The coordinate vector of {basis name: value} over the basis ``names``."""
    vec = [field.zero] * len(names)
    for nm, val in values.items():
        vec[names.index(nm)] = field.parse(val)
    return tuple(vec)


def _write_coords(field, names, coords):
    """{basis name: value} of the nonzero coordinates over the basis ``names``."""
    return {names[i]: field.show(v) for i, v in enumerate(coords) if not field.is_zero(v)}


def load_prestack(path, ring=None):
    """Parse the prestack document at ``path``; ``ring``, if given, replaces
    its ring tag, which must then be Q: an entry over another ring need not
    parse in it."""
    try:
        with open(path) as fh:
            text = fh.read()
        doc = json.loads(text)
    except (OSError, ValueError) as exc:
        raise ParseError(str(exc))
    try:
        if ring is not None:
            if doc["ring"] != "Q":
                raise ParseError("document over %s, not Q: it cannot be read over %s"
                                 % (make_field(doc["ring"]).name, make_field(ring).name))
            doc["ring"] = ring
        return prestack_from_doc(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError("malformed prestack document: %s" % exc)


def prestack_from_doc(doc):
    field = make_field(doc["ring"])
    b = doc["base"]
    arrows = {a["id"]: (a["src"], a["tgt"]) for a in b["arrows"]}
    compose = {}
    for rec in b["compose"]:
        compose[(rec["first"], rec["then"])] = rec["result"]
    base = BaseCategory(b["objects"], arrows, b["identities"], compose)

    fibers = {}
    for u_obj, fd in doc["fibers"].items():
        if u_obj not in base.objects:
            raise ValueError("fiber over unknown base object %s" % u_obj)
        homs = {}
        for key, names in fd["homs"].items():
            homs[_hom_key(key)] = list(names)
        name_index = {pair: {nm: i for i, nm in enumerate(names)}
                      for pair, names in homs.items()}
        comp = {}
        for rec in fd.get("compose", []):
            a, bb, c = rec["pair"]
            table = comp.setdefault((a, bb, c), {})
            gi = name_index[(bb, c)][rec["g"]]
            fi = name_index[(a, bb)][rec["f"]]
            result = _read_coords(field, homs.get((a, c), []), rec["result"])
            table[(gi, fi)] = {k: v for k, v in enumerate(result) if not field.is_zero(v)}
        idc = {a: _read_coords(field, homs.get((a, a), []), coords)
               for a, coords in fd["identities"].items()}
        fibers[u_obj] = LinearCategory(u_obj, field, fd["objects"], homs, comp, idc)

    restrictions = {}
    for arrow, rd in doc.get("restrictions", {}).items():
        src_cat = fibers[base.tgt(arrow)]
        tgt_cat = fibers[base.src(arrow)]
        obj_map = dict(rd["objects"])
        mats = {}
        for key, table in rd.get("matrices", {}).items():
            a, bb = _hom_key(key)
            tgt_names = tgt_cat.hom_basis(obj_map[a], obj_map[bb])
            mats[(a, bb)] = tuple(_read_coords(field, tgt_names, table.get(nm, {}))
                                  for nm in src_cat.hom_basis(a, bb))
        restrictions[arrow] = LinFunctor(src_cat, tgt_cat, obj_map, mats)
    # identity arrows default to identity functors
    for obj in base.objects:
        e = base.identities[obj]
        if e not in restrictions:
            restrictions[e] = identity_functor(fibers[obj])
    for arrow in base.arrow_ids:
        if arrow not in restrictions:
            raise ValueError("missing restriction for arrow %s" % arrow)

    twists = {}
    for rec in doc.get("twists", []):
        f, g = rec["first"], rec["then"]
        gf = base.then(f, g)
        src_fun = compose_functors(restrictions[f], restrictions[g])
        tgt_fun = restrictions[gf]
        fib = fibers[base.src(f)]
        comps = {}
        for a_obj, coords in rec["components"].items():
            src_o = src_fun.on_obj(a_obj)
            tgt_o = tgt_fun.on_obj(a_obj)
            comps[a_obj] = Mor(fib, src_o, tgt_o,
                               _read_coords(field, fib.hom_basis(src_o, tgt_o), coords))
        twists[(f, g)] = NatTransform(src_fun, tgt_fun, comps)

    return Prestack(doc.get("name", "prestack"), field, base, fibers,
                    restrictions, twists)


def prestack_to_doc(P):
    field = P.field
    base = P.base
    doc = {
        "name": P.name,
        "ring": ring_tag(field),
        "base": {
            "objects": list(base.objects),
            "arrows": [{"id": a, "src": base.src(a), "tgt": base.tgt(a)}
                       for a in base.arrow_ids],
            "identities": dict(base.identities),
            "compose": [{"first": f, "then": g, "result": h}
                        for (f, g), h in sorted(base.compose.items())],
        },
        "fibers": {},
        "restrictions": {},
        "twists": [],
    }
    for u_obj in base.objects:
        cat = P.fiber(u_obj)
        homs = {"%s|%s" % pair: list(names) for pair, names in sorted(cat._hom.items())}
        comp = []
        for (a, b, c), table in sorted(cat.comp.items()):
            for (gi, fi), cell in sorted(table.items()):
                if not cell:
                    continue
                comp.append({
                    "pair": [a, b, c],
                    "g": cat.hom_basis(b, c)[gi],
                    "f": cat.hom_basis(a, b)[fi],
                    "result": _write_coords(field, cat.hom_basis(a, c), [
                        cell.get(k, field.zero) for k in range(cat.rank(a, c))]),
                })
        idc = {a: _write_coords(field, cat.hom_basis(a, a), cat.identity_coords[a])
               for a in cat.objects}
        doc["fibers"][u_obj] = {
            "objects": list(cat.objects),
            "homs": homs,
            "identities": idc,
            "compose": comp,
        }
    for arrow in base.arrow_ids:
        if base.is_identity(arrow):
            continue
        fun = P.restriction(arrow)
        mats = {}
        for (a, b), cols in sorted(fun.mats.items()):
            src_names = fun.src_cat.hom_basis(a, b)
            tgt_names = fun.tgt_cat.hom_basis(fun.on_obj(a), fun.on_obj(b))
            table = {}
            for i, col in enumerate(cols):
                entry = _write_coords(field, tgt_names, col)
                if entry:
                    table[src_names[i]] = entry
            mats["%s|%s" % (a, b)] = table
        doc["restrictions"][arrow] = {"objects": dict(fun.obj_map), "matrices": mats}
    for (f, g), tw in sorted(P.twists.items()):
        if P.base.is_identity(f) or P.base.is_identity(g):
            continue
        comps = {}
        fib = P.fiber(base.src(f))
        for a_obj, m in sorted(tw.components.items()):
            comps[a_obj] = _write_coords(field, fib.hom_basis(m.src, m.tgt), m.coords)
        doc["twists"].append({"first": f, "then": g, "components": comps})
    return doc


def save_prestack(P, path):
    with open(path, "w") as fh:
        json.dump(prestack_to_doc(P), fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- cochain text format -----------------------------------------------------------
#
# One line per stored coordinate:
#   p | sigma as arrow-id list | object ids | basis indices | value
# For p = 0 the sigma field holds the base object id.  The graded format is
# identical except that every line's simplex lists the grading arrows.


def cochain_to_text(complex_, phi):
    field = complex_.field
    lines = ["# degree %d" % phi.degree]
    for key in sorted(phi.data, key=text_order):
        simplex, objects, btuple = key
        vec = phi.data[key]
        sig = " ".join(simplex.arrows) if simplex.p else simplex.source
        lines.append("%d | %s | %s | %s | %s" % (
            simplex.p, sig, " ".join(objects),
            " ".join(str(b) for b in btuple),
            " ".join(field.show(v) for v in vec)))
    return "\n".join(lines) + "\n"


def cochain_from_text(complex_, degree, text):
    phi = SparseCochain(complex_, degree)
    field = complex_.field
    cells = complex_.index(degree)[0]
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            key, vals = _cochain_line(complex_, ln)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise ParseError("bad cochain line %r: %s" % (ln, exc))
        if key not in cells:
            raise ParseError("cochain line %r is not a degree-%d cell" % (ln, degree))
        vec = phi.data.get(key)
        if vec is None:
            vec = [field.zero] * len(vals)
            phi.data[key] = vec
        for i, val in enumerate(vals):
            vec[i] = field.add(vec[i], val)
    return phi


def _cochain_line(complex_, ln):
    """The cell key and value vector of one cochain line."""
    parts = [t.strip() for t in ln.split("|")]
    if len(parts) != 5:
        raise ParseError("cochain line needs 5 fields: %r" % ln)
    p = int(parts[0])
    P = complex_.P
    if p == 0:
        if parts[1] not in P.base.objects:
            raise ValueError("unknown object %r" % parts[1])
        simplex = Simplex(parts[1], ())
    else:
        arrows = tuple(parts[1].split())
        for a in arrows:
            if a not in P.base.arrows:
                raise ValueError("unknown arrow %r" % a)
        simplex = P.base.simplex(arrows)
        if simplex.p != p:
            raise ValueError("p = %d is not the number of arrows listed (%d)" % (p, simplex.p))
    objects = tuple(parts[2].split())
    for obj, u in zip(objects, complex_.object_bases(simplex, len(objects))):
        if obj not in P.fiber(u).objects:
            raise ValueError("unknown object %r over %s" % (obj, u))
    btuple = tuple(int(t) for t in parts[3].split()) if parts[3] else ()
    key = (simplex, objects, btuple)
    rank = complex_.value_rank(key)
    vals = [complex_.field.parse(t) for t in parts[4].split()]
    if len(vals) != rank:
        raise ParseError("value vector length %d != module rank %d on %r"
                         % (len(vals), rank, ln))
    return key, vals
