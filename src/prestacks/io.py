"""File formats: prestack JSON documents, cochain text, triplet matrices.

Parsing and validation are separate: a file that parses may still fail the
coherence validator.
"""

from __future__ import annotations

import json

from .basecat import BaseCategory, Simplex
from .complexbase import SparseCochain
from .lincat import LinearCategory, LinFunctor, NatTransform
from .linalg import make_field, ring_tag
from .prestack import Prestack


class ParseError(Exception):
    pass


def _hom_key(s):
    a, b = s.split("|")
    return a, b


def load_prestack(path=None, text=None, ring=None):
    """Parse a prestack document; ``ring``, if given, replaces its ring tag,
    which must then be Q: an entry over another ring need not parse in it."""
    try:
        if text is None:
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
            cell = {}
            for nm, val in rec["result"].items():
                cell[name_index[(a, c)][nm]] = field.parse(val)
            table[(gi, fi)] = cell
        idc = {}
        for a, coords in fd["identities"].items():
            vec = [field.zero] * len(homs.get((a, a), []))
            for nm, val in coords.items():
                vec[name_index[(a, a)][nm]] = field.parse(val)
            idc[a] = tuple(vec)
        fibers[u_obj] = LinearCategory(u_obj, field, fd["objects"], homs, comp, idc)

    restrictions = {}
    for arrow, rd in doc.get("restrictions", {}).items():
        src_cat = fibers[base.tgt(arrow)]
        tgt_cat = fibers[base.src(arrow)]
        obj_map = dict(rd["objects"])
        mats = {}
        for key, table in rd.get("matrices", {}).items():
            a, bb = _hom_key(key)
            basis = src_cat.hom_basis(a, bb)
            fa, fb = obj_map[a], obj_map[bb]
            tgt_basis = tgt_cat.hom_basis(fa, fb)
            t_index = {nm: i for i, nm in enumerate(tgt_basis)}
            cols = []
            for nm in basis:
                col = [field.zero] * len(tgt_basis)
                for tnm, val in table.get(nm, {}).items():
                    col[t_index[tnm]] = field.parse(val)
                cols.append(tuple(col))
            mats[(a, bb)] = tuple(cols)
        restrictions[arrow] = LinFunctor(src_cat, tgt_cat, obj_map, mats)
    # identity arrows default to identity functors
    from .lincat import identity_functor, compose_functors
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
            basis = fib.hom_basis(src_o, tgt_o)
            b_index = {nm: i for i, nm in enumerate(basis)}
            vec = [field.zero] * len(basis)
            for nm, val in coords.items():
                vec[b_index[nm]] = field.parse(val)
            from .lincat import Mor
            comps[a_obj] = Mor(fib, src_o, tgt_o, tuple(vec))
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
                    "result": {cat.hom_basis(a, c)[k]: field.show(v)
                               for k, v in sorted(cell.items())},
                })
        idc = {}
        for a in cat.objects:
            coords = cat.identity_coords[a]
            idc[a] = {cat.hom_basis(a, a)[i]: field.show(v)
                      for i, v in enumerate(coords) if not field.is_zero(v)}
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
                entry = {tgt_names[k]: field.show(v)
                         for k, v in enumerate(col) if not field.is_zero(v)}
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
            names = fib.hom_basis(m.src, m.tgt)
            comps[a_obj] = {names[i]: field.show(v)
                            for i, v in enumerate(m.coords) if not field.is_zero(v)}
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
    for key in sorted(phi.data, key=lambda k: (k[0].p, k[0].arrows, k[0].source, k[1], k[2])):
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
    if p == 0:
        simplex = Simplex(parts[1], ())
    else:
        arrows = tuple(parts[1].split())
        simplex = complex_.P.base.simplex(arrows)
    objects = tuple(parts[2].split())
    btuple = tuple(int(t) for t in parts[3].split()) if parts[3] else ()
    key = (simplex, objects, btuple)
    rank = complex_.value_rank(key)
    vals = [complex_.field.parse(t) for t in parts[4].split()]
    if len(vals) != rank:
        raise ParseError("value vector length %d != module rank %d on %r"
                         % (len(vals), rank, ln))
    return key, vals
