"""Breadth-first oracles over the tree.

These deliberately avoid the algebraic distance and classification
routines: distances are found by searching outward through neighbor
lists, so they cross-check the normal-form projection independently.
The axis-window oracle rebuilds every window vertex from a prefix product
reduced from scratch, as the library did before its one-pass window, and
direction reads the direction of a neighbor off the product of two coset
representatives, as marked trees did before they read both ends of an
edge off one product.
"""

from __future__ import annotations

import oracles as oc
import vfree.bstree as bt
import vfree.gogwords as gw


def direction(gog, v, w):
    """The direction at v of a neighbor w: the pair (t, r), with r in
    gog.transversal(t), for which w = bt.neighbor(gog, v, r, t); None
    when w is v.  Raises GogError when w is farther."""
    p = gw.path_multiply(gog, gw.path_invert(gog, v.coset_rep), w.coset_rep)
    if len(p.steps) > 1:
        raise gw.GogError("vertices are not adjacent")
    return (p.steps[0][1], p.steps[0][0]) if p.steps else None


def bfs_distance(gog, src, dst, max_radius):
    """Distance found by breadth-first search, or None if above max_radius."""
    if src == dst:
        return 0
    seen = {src}
    frontier = [src]
    for d in range(1, max_radius + 1):
        nxt = []
        for v in frontier:
            for w in bt.neighbors(gog, v):
                if w == dst:
                    return d
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return None


def min_displacement(gog, g, radius=6, cap=24):
    """min over the radius-r ball around the base of d(v, g.v), by BFS.

    Zero for elliptic elements whose fixed vertex meets the ball, and the
    translation length for hyperbolic elements whose axis does.
    """
    best = None
    for v in bt.ball(gog, bt.base_vertex(gog), radius):
        limit = cap if best is None else best - 1
        d = bfs_distance(gog, v, bt.translate(gog, g, v), limit)
        if d is not None and (best is None or d < best):
            best = d
        if best == 0:
            break
    return best


def _vertex(gog, p):
    p = gw.path_normal_form(gog, p.start, p.steps, p.tail)
    end = gw.end_vertex(gog, p)
    return bt.TreeVertex(end, gw.NormalForm(p.start, p.steps,
                                            gog.vertices[end].identity))


def axis_window_by_prefixes(gog, g, periods, anchor=None):
    """The vertices of bt.axis_window(gog, g, periods, anchor): vertex i of
    a period is the period's base times the stretch prefix of length i."""
    g_nf = gw.normal_form(gog, g)
    if anchor is None:
        anchor = _vertex(gog, gw.cyclic_reduction(gog, g_nf)[0])
    stretch = oc.whole_path_multiply(
        gog, gw.path_invert(gog, anchor.coset_rep),
        oc.whole_path_multiply(gog, g_nf, anchor.coset_rep))
    verts = [anchor]
    segment_base = anchor.coset_rep
    for _ in range(periods):
        for i in range(1, len(stretch.steps) + 1):
            far = gog.far(stretch.steps[i - 1][1])
            prefix = gw.NormalForm(stretch.start, stretch.steps[:i],
                                   gog.vertices[far].identity)
            verts.append(_vertex(
                gog, oc.whole_path_multiply(gog, segment_base, prefix)))
        segment_base = oc.whole_path_multiply(gog, segment_base, stretch)
    return tuple(verts)
