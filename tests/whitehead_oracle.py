"""Whitehead graphs built through the tree, as the library once did.

One period of turns is taken from an axis window (three consecutive axis
vertices each), and every turn is pulled back to the standard vertex of
its orbit by the group element kappa with kappa · std = the turn's
vertex, using two tree translations.  Saturation uses the stabilizer of
the standard vertex, built here from its own path products.  The library
reads the same turns off the cyclically reduced core instead, so this is
an independent check of that reading, graph for graph.
"""

from __future__ import annotations

import vfree.bstree as bt
import vfree.gogwords as gw


def axis_turns(gog, g_nf):
    """One period of axis turns as (vertex, previous, next) triples."""
    seg = bt.axis_window(gog, g_nf, 1)
    verts = seg.vertices
    wrap_prev = bt.translate(gog, gw.path_invert(gog, g_nf), verts[-2])
    turns = []
    for i in range(seg.period):
        prv = verts[i - 1] if i else wrap_prev
        turns.append((verts[i], prv, verts[i + 1]))
    return turns


def stabilizer_lifts(gog, orbit):
    """rho · x · rho^-1 for every x in the vertex group, rho the standard
    vertex's coset representative."""
    rho = bt.standard_vertex(gog, orbit).coset_rep
    rho_inv = gw.path_invert(gog, rho)
    return [gw.path_multiply(gog, gw.path_multiply(
                gog, rho, gw.NormalForm(orbit, (), x)), rho_inv)
            for x in gog.vertices[orbit].elements()]


def whitehead_by_pullback(gog, g_nf, orbit):
    """(nodes, edges) of the Whitehead graph of g_nf at one orbit."""
    std = bt.standard_vertex(gog, orbit)
    nodes = frozenset(bt.neighbors(gog, std))
    sat = stabilizer_lifts(gog, orbit)
    rho = std.coset_rep
    edges = set()
    for w, prv, nxt in axis_turns(gog, g_nf):
        if w.orbit != orbit:
            continue
        # w = kappa * std for the group element kappa below; pulling the
        # turn back by kappa^-1 lands it at the standard representative.
        kappa_inv = gw.path_multiply(gog, rho, gw.path_invert(gog, w.coset_rep))
        p0 = bt.translate(gog, kappa_inv, prv)
        n0 = bt.translate(gog, kappa_inv, nxt)
        for s in sat:
            edges.add(frozenset((bt.translate(gog, s, p0),
                                 bt.translate(gog, s, n0))))
    return nodes, frozenset(edges)
