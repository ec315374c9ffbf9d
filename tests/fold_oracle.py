"""Reference fold listing and fold run: every legal fold is listed, every
step, and every tree is checked in full.

`far_image` computes a far image as `folds` did before a marked tree
kept them: the edge's twist, or its inverse, applied to the far vertex's
image; it never reads the images a tree keeps.  `available_folds` is the
listing `folds` used before it listed lazily: it computes each far image
afresh wherever it is needed, tests pairs with the tree distance, and
lists every collapse, pair and stabilizer fold before the caller looks
at any.  `is_terminal` is the terminal test before the image edge of an
edge had one helper, walking each vertex orbit's names.
`fold_sequence` takes the first directive of that listing at every step
and rebuilds each result through the checking constructor
`MarkedTree(...)`.  The tests require `folds.fold_sequence` to pick the
same directives and to return the same trees, and each of its trees to
pass the checking constructor and keep the far images it compiles.
"""

import vfree.bstree as bt
import vfree.folds as fo
import vfree.gogwords as gw


def far_image(marked, edge, end):
    """The ambient image of the edge's far endpoint, seen from one end."""
    gog, me = marked.ambient, marked.edges[edge]
    if end == 0:
        return bt.translate(gog, me.twist, marked.vertices[me.ends[1]].image)
    return bt.translate(gog, gw.path_invert(gog, me.twist),
                        marked.vertices[me.ends[0]].image)


def available_folds(marked):
    """All applicable directives, grouped by priority class."""
    gog = marked.ambient
    collapses, pairs, stabs = [], [], []
    for eid in sorted(marked.edges):
        home = marked.vertices[marked.edges[eid].ends[0]].image
        if far_image(marked, eid, 0) == home:
            collapses.append(fo.collapse_fold(eid))
    ends_at = {}
    for eid in sorted(marked.edges):
        for end in (0, 1):
            ends_at.setdefault(marked.edges[eid].ends[end], []).append(
                (eid, end))
    for v in sorted(ends_at):
        home = marked.vertices[v].image
        items = ends_at[v]
        for i in range(len(items)):
            e1, k1 = items[i]
            p1 = far_image(marked, e1, k1)
            if bt.distance(gog, home, p1) != 1:
                continue
            for j in range(i + 1, len(items)):
                e2, k2 = items[j]
                if e1 == e2:
                    continue
                if far_image(marked, e2, k2) == p1:
                    pairs.append(fo.pair_fold(e1, k1, e2, k2))
    for eid in sorted(marked.edges):
        for end in (0, 1):
            v = marked.edges[eid].ends[end]
            pfar = far_image(marked, eid, end)
            if pfar == marked.vertices[v].image:
                continue
            cur = fo._stab_from(gog, marked.edges[eid], end)
            for h in sorted(marked.vertices[v].stab,
                            key=gw.NormalForm.sort_key):
                if h in cur:
                    continue
                if bt.translate(gog, h, pfar) == pfar:
                    stabs.append(fo.stabilizer_fold(eid, end, (h,)))
                    break
    return {"collapses": collapses, "pairs": pairs, "stabilizers": stabs}


def _crossing(gog, u, x):
    """The quotient traversal realizing the tree edge from u to x."""
    return next((t for t in gog.incident(u.orbit) for r in gog.transversal(t)
                 if bt.neighbor(gog, u, r, t) == x), None)


def is_terminal(marked):
    """Whether the marking presents the ambient quotient itself."""
    gog = marked.ambient
    if (len(marked.vertices) != len(gog.vertices)
            or len(marked.edges) != len(gog.edges)):
        return False
    orbits = {}
    for name, mv in marked.vertices.items():
        orbits.setdefault(mv.image.orbit, []).append(name)
    if sorted(orbits) != sorted(gog.vertices):
        return False
    for orb, names in orbits.items():
        if len(names) != 1:
            return False
        if len(marked.vertices[names[0]].stab) != gog.vertices[orb].order:
            return False
    seen = set()
    for eid, me in marked.edges.items():
        u = marked.vertices[me.ends[0]].image
        x = far_image(marked, eid, 0)
        if u == x:
            return False
        t = _crossing(gog, u, x)
        if t is None or t.edge in seen:
            return False
        seen.add(t.edge)
        if len(me.stab) != gog.edges[t.edge].group.order:
            return False
    return True


def fold_sequence(source, max_steps):
    """The first listed fold at every step, until the tree is terminal:
    (steps, outcome) with steps a list of (directive, tree) and outcome
    "terminal", "stuck" (no legal fold) or "limit" (max_steps folds)."""
    steps = []
    cur = source
    while not is_terminal(cur):
        if len(steps) == max_steps:
            return steps, "limit"
        av = available_folds(cur)
        picks = av["collapses"] or av["pairs"] or av["stabilizers"]
        if not picks:
            return steps, "stuck"
        folded = fo.fold(cur, picks[0])
        cur = fo.MarkedTree(cur.ambient, folded.vertices, folded.edges)
        steps.append((picks[0], cur))
    return steps, "terminal"
