"""Whitehead graphs, filling certificates, and random-walk genericity.

A hyperbolic element crosses a periodic sequence of turns at the vertices
of its axis.  One period of turns is read straight off the syllables of
its cyclically reduced core: each is a pair of directions, (element,
traversal) pairs at a vertex of one orbit.  Placing each turn at the
standard vertex of its orbit and saturating under the stabilizer there
yields the exact Whitehead graph at each quotient vertex; complete graphs
at every vertex certify that the element is one-ended relative to
splittings over finite subgroups.  Saturation skips turns already in the
graph and stops as soon as the graph is complete.  Seeded random walks
estimate how common that certificate is among words of a given length.
A walk multiplies its normal form on the right by one pick per step.
Each pick is compiled once per graph of groups and kept as the fingroup
module docstring says: from its first syllable that does not cancel,
the rest of the pick is pushed as one tuple, kept per entering element,
so a step costs one test per syllable it cancels and one push.  One
kernel, _push_picks, multiplies compiled picks onto a normal form in
place; walks call it once per segment, and the counterexample's phi
(cli.counterexample_phi) calls it on compiled syllable images.  The
picks are drawn from the words random.Random.randrange reads, without
its Python frames: when the weights' common denominator is at most 255,
as the top bytes of the words of batched getrandbits calls, so the
walks are those of randrange.

What a walk needs of its measure but the seed is kept on the graph, once
per measure (_WalkPlan).  That includes grams: runs of a few draws,
each compiled like a pick once the measure's walks on the graph have
drawn more grams than there are, so that on a graph that has walked the
measure for long, a segment of a walk pushes one record per gram rather
than one per draw, and a graph that walks a few short walks compiles
none.

Every value type is a named tuple that hashes as the plain tuple of its
fields and compares equal to it; a FillingReport is true when it fills.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .bstree import (
    TreeVertex,
    axis_window,
    ball,
    base_vertex,
    standard_frame,
    translate,
)
from .gogwords import (
    GogError,
    GraphOfGroups,
    NormalForm,
    _reduce_into,
    cyclic_reduction,
    generator_letters,
    identity_nf,
    parse_word,
    path_invert,
    path_multiply,
)

GENERATION_DEPTH_CAP = 8
GENERATION_SIZE_CAP = 20000
MASK64 = (1 << 64) - 1


def _vertex_key(v: TreeVertex):
    return (v.orbit, v.coset_rep.sort_key())


# -- Whitehead graphs ---------------------------------------------------------


class WhiteheadGraph(NamedTuple):
    """Turn graph of a hyperbolic element at one orbit vertex.

    Nodes are the tree vertices adjacent to the standard representative
    (the directions there); an unordered pair is an edge when the axis of
    some conjugate of the element runs straight through the vertex along
    those two directions.
    """

    at_vertex: TreeVertex
    nodes: frozenset
    edges: frozenset

    def missing_pairs(self) -> tuple:
        ordered = sorted(self.nodes, key=_vertex_key)
        out = []
        for i, u in enumerate(ordered):
            for w in ordered[i + 1:]:
                if frozenset((u, w)) not in self.edges:
                    out.append((u, w))
        return tuple(out)

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == math.comb(len(self.nodes), 2)


def _hyperbolic_core(gog: GraphOfGroups, g_nf: NormalForm) -> NormalForm:
    """The cyclically reduced core of a hyperbolic element."""
    core = cyclic_reduction(gog, g_nf)[1]
    if not core.steps:
        raise GogError("element is elliptic (finite order); an axis is needed")
    return core


def _core_turns(gog: GraphOfGroups, core: NormalForm, orbit: str):
    """The axis turns at one orbit in one period, read lazily off a
    cyclically reduced core, as (entering, leaving) pairs of directions:
    (element, traversal) pairs at a vertex of that orbit.

    Syllable i = (r_i, t_i) turns at near(t_i): the axis enters along
    (identity, t_{i-1} reversed) and leaves along (r_i, t_i).  The core's
    tail sits between its last syllable and its first, so the entering
    element of turn 0 is tail⁻¹.  Every turn of the axis of every
    conjugate is a translate of one of these."""
    for i, (r, t) in enumerate(core.steps):
        if gog.near(t) == orbit:
            grp = gog.vertices[orbit]
            back = grp.inv(core.tail) if i == 0 else grp.identity
            yield (back, core.steps[i - 1][1].reverse()), (r, t)


def _graph_at(gog: GraphOfGroups, core: NormalForm,
              orbit: str) -> WhiteheadGraph:
    """The Whitehead graph at one orbit: each turn there is placed at the
    standard vertex, by looking its two directions up in the frame there
    (the entering element moved to its coset representative by t's
    decomp; the leaving one, a normal-form syllable, is one already), and
    saturated by its stabilizer.

    The edge set is always a union of stabilizer orbits of pairs, so a
    turn whose pair is already an edge adds nothing and is skipped.  The
    graph is returned as soon as it holds every pair, checked after each
    stabilizer image, and the remaining turns are never read."""
    std, nodes, sat, near = standard_frame(gog, orbit)
    complete_count = math.comb(len(nodes), 2)
    crossing = gog._crossing
    edges: set = set()
    for (x, back), out in _core_turns(gog, core, orbit):
        p0 = near[back, crossing[back].decomp[x][0]]
        n0 = near[out[1], out[0]]
        if frozenset((p0, n0)) in edges:
            continue
        for s in sat:
            edges.add(frozenset((translate(gog, s, p0), translate(gog, s, n0))))
            if len(edges) == complete_count:
                return WhiteheadGraph(std, nodes, frozenset(edges))
    return WhiteheadGraph(std, nodes, frozenset(edges))


def _graphs(gog: GraphOfGroups, core: NormalForm):
    """The Whitehead graphs of a hyperbolic core, one per orbit in sorted
    order, each computed when it is consumed."""
    return (_graph_at(gog, core, orbit) for orbit in sorted(gog.vertices))


def whitehead_graph(gog: GraphOfGroups, g: NormalForm,
                    orbit_vertex: str) -> WhiteheadGraph:
    """Exact Whitehead graph of a hyperbolic element at one quotient vertex,
    computed from one axis period and saturated by the vertex group.  g
    must be a normal form from this library."""
    if orbit_vertex not in gog.vertices:
        raise GogError(f"unknown vertex {orbit_vertex!r}")
    return _graph_at(gog, _hyperbolic_core(gog, g), orbit_vertex)


# -- filling and one-endedness ------------------------------------------------


class FillingReport(NamedTuple):
    """Per-vertex completeness of the Whitehead graphs of one element."""

    element: NormalForm
    fills: bool
    graphs: tuple

    def missing(self) -> dict:
        return {g.at_vertex.orbit: g.missing_pairs() for g in self.graphs}

    def __bool__(self) -> bool:
        return self.fills


class OneEndedCertificate(NamedTuple):
    status: str  # "certified_one_ended" or "inconclusive"
    report: FillingReport

    @property
    def certified(self) -> bool:
        return self.status == "certified_one_ended"


def fills(gog: GraphOfGroups, g: NormalForm) -> FillingReport:
    """Whether every orbit vertex sees a complete Whitehead graph, with the
    full per-vertex graphs for inspection of the missing turns.  g must be
    a normal form from this library."""
    graphs = tuple(_graphs(gog, _hyperbolic_core(gog, g)))
    return FillingReport(g, all(w.is_complete for w in graphs), graphs)


def one_ended_certificate(gog: GraphOfGroups, g: NormalForm
                          ) -> OneEndedCertificate:
    """Certify one-endedness relative to finite splittings via filling.

    The criterion is one-sided: a complete set of Whitehead graphs
    certifies, anything less is inconclusive.  Elliptic elements are
    rejected; finite order elements always admit a splitting fixing them,
    so no certificate is possible for them.  g must be a normal form from
    this library."""
    report = fills(gog, g)
    status = "certified_one_ended" if report.fills else "inconclusive"
    return OneEndedCertificate(status, report)


# -- p-matches between axes ---------------------------------------------------


class MatchResult(NamedTuple):
    """Outcome of a bounded search for overlapping axis translates.

    status is "match" or "none-within-radius": the search only inspects
    translating elements of normal-form length at most search_radius, so a
    miss is a statement about the searched ball, not about the group."""

    status: str
    p: int
    search_radius: int
    g_translator: Optional[NormalForm]
    h_translator: Optional[NormalForm]
    overlap: tuple
    overlap_length: int

    @property
    def matched(self) -> bool:
        return self.status == "match"


def group_ball(gog: GraphOfGroups, radius: int) -> list[NormalForm]:
    """All group elements whose normal form has at most `radius` syllables,
    shortest first in a fixed deterministic order."""
    if radius < 0:
        raise GogError("radius must be nonnegative")
    base = base_vertex(gog)
    grp = gog.vertices[gog.base_vertex]
    verts = [v for v in ball(gog, base, radius) if v.orbit == gog.base_vertex]
    out = []
    for v in sorted(verts, key=_vertex_key):
        for t in grp.elements():
            out.append(NormalForm(v.coset_rep.start, v.coset_rep.steps, t))
    return out


def _two_sided_window(gog: GraphOfGroups, g_nf: NormalForm,
                      periods: int) -> list[TreeVertex]:
    fwd = axis_window(gog, g_nf, periods)
    back = axis_window(gog, path_invert(gog, g_nf), periods,
                       anchor=fwd.vertices[0])
    return list(reversed(back.vertices[1:])) + list(fwd.vertices)


def p_match(gog: GraphOfGroups, g: NormalForm, h: NormalForm, p: int,
            search_radius: int) -> MatchResult:
    """Search for translates of the two axes sharing a segment longer
    than p, over translating elements from the radius ball.

    Any overlap longer than p between the first axis and a ball translate
    of the second contains a witness segment within the inspected windows
    (the intersection of two lines in a tree contains the projection of
    either anchor onto the other line), so per candidate the answer is
    exact; only the candidate set is bounded.  g and h must be normal forms
    from this library."""
    if p < 1:
        raise GogError("p must be at least 1")
    _hyperbolic_core(gog, g)
    _hyperbolic_core(gog, h)
    seg_g = axis_window(gog, g, 1)
    seg_h = axis_window(gog, h, 1)
    d_g = len(seg_g.vertices[0].coset_rep.steps)
    d_h = len(seg_h.vertices[0].coset_rep.steps)
    reach = 2 * search_radius + 2 * d_h + d_g + p + 1
    per_g = math.ceil((reach + d_g) / seg_g.period) + 1
    per_h = math.ceil((reach + search_radius + d_h) / seg_h.period) + 1
    g_line = _two_sided_window(gog, g, per_g)
    h_line = _two_sided_window(gog, h, per_h)
    g_edges = [frozenset(e) for e in zip(g_line, g_line[1:])]
    for u in group_ball(gog, search_radius):
        moved = [translate(gog, u, v) for v in h_line]
        h_edge_set = {frozenset(e) for e in zip(moved, moved[1:])}
        hits = [i for i, e in enumerate(g_edges) if e in h_edge_set]
        if len(hits) > p:
            lo, hi = hits[0], hits[-1]
            # two geodesics intersect in a single segment
            assert hi - lo + 1 == len(hits)
            return MatchResult("match", p, search_radius, identity_nf(gog),
                               u, tuple(g_line[lo:hi + 2]), len(hits))
    return MatchResult("none-within-radius", p, search_radius, None, None,
                       (), 0)


# -- random walks -------------------------------------------------------------


class RandomWalkSpec(NamedTuple):
    """A finitely supported measure with exact rational weights, plus the
    trial count and master seed of an experiment."""

    support: tuple
    weights: tuple
    trials: int
    seed: int


class ExperimentRow(NamedTuple):
    n: int
    trials: int
    hyperbolic_count: int
    filling_count: int

    @property
    def hyperbolic_rate(self) -> float:
        return self.hyperbolic_count / self.trials

    @property
    def filling_rate(self) -> float:
        return self.filling_count / self.trials


def splitmix64(seed: int, index: int) -> int:
    """The index-th output of a splitmix64 stream started at seed.

    Trial t of a walk draws its picks from the getrandbits stream of
    random.Random(splitmix64(master, t)) (see _walk), so trials are
    reproducible independently of execution order and of the total trial
    count."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def uniform_spec(gog: GraphOfGroups, words: Sequence[Union[str, NormalForm]],
                 trials: int, seed: int) -> RandomWalkSpec:
    """Uniform measure on the given words: strings are parsed, anything
    else must be a normal form from this library."""
    support = tuple(parse_word(gog, w) if isinstance(w, str) else w
                    for w in words)
    if not support:
        raise GogError("measure support must be nonempty")
    weights = tuple(Fraction(1, len(support)) for _ in support)
    return RandomWalkSpec(support, weights, trials, seed)


def _check_generation(gog: GraphOfGroups, support: Sequence[NormalForm]) -> None:
    """Bounded product closure must reach every generator letter."""
    targets = {nf for _, nf in generator_letters(gog)}
    seen = set(support)
    frontier = list(seen)
    for _ in range(GENERATION_DEPTH_CAP):
        if targets <= seen or not frontier or len(seen) > GENERATION_SIZE_CAP:
            break
        new = []
        for x in frontier:
            for s in support:
                y = path_multiply(gog, x, s)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    if not targets <= seen:
        raise GogError("measure support does not reach every generator "
                       "letter within the bounded product closure")


def validate_walk_spec(gog: GraphOfGroups, spec: RandomWalkSpec) -> _WalkPlan:
    """Check the whole spec: the checks of _walk_plan, then the trial count
    and generation.  Returns the plan, kept on the graph with the outcome
    of the generation check, so a measure is compiled and checked once
    whatever the seeds and trial counts it is walked with."""
    plan = _walk_plan(gog, spec)
    if spec.trials < 1:
        raise GogError("at least one trial is required")
    if not plan.generates:
        _check_generation(gog, spec.support)
        plan.generates = True
    return plan


def _step_table(spec: RandomWalkSpec) -> tuple[int, list[int]]:
    """(denom, cums): a step draws r in range(denom) and takes the support
    element at bisect_right(cums, r), so each has its exact weight."""
    fracs = [Fraction(w) for w in spec.weights]
    if any(f.numerator <= 0 for f in fracs):
        raise GogError("weights must be positive")
    denom = math.lcm(*(f.denominator for f in fracs))
    cums = list(itertools.accumulate(f.numerator * (denom // f.denominator)
                                     for f in fracs))
    if cums[-1] != denom:
        raise GogError("weights must sum to 1")
    return denom, cums


def _byte_tables(denom: int, cums: list[int]) -> tuple[bytes, bytes]:
    """(pick_of_byte, rejected) for denom <= 255, as bytes.translate
    tables over the top bytes of Mersenne Twister words.

    getrandbits(k) with k = denom.bit_length() <= 8 is the top byte of one
    word shifted right by 8 - k, so the bytes of one run of r values, from
    one cumulative weight to the next, pick the same support element,
    and the bytes with r >= denom are the draws randrange rejects."""
    shift = 8 - denom.bit_length()
    runs = b"".join(bytes((i,)) * ((hi - lo) << shift)
                    for i, (lo, hi) in enumerate(zip((0, *cums), cums)))
    return runs.ljust(256, b"\0"), bytes(range(denom << shift, 256))


def _draws(bits, denom: int, cums: list[int], tables, count: int):
    """The support indices of the next count draws of randrange(denom)
    from the getrandbits function bits, reading exactly its words, as
    bytes when the support has at most 256 elements, so that a run of
    draws is a gram key (see _WalkPlan), and as a list otherwise.

    With tables = _byte_tables(denom, cums), the m draws still missing
    are read from the top bytes of one getrandbits(32 * m) call, whose
    words are m words of the stream in order; the call is repeated for
    the draws its rejected words left missing, so no call reads past the
    word of the last draw.  Otherwise each draw is the getrandbits loop
    of randrange(denom): r = bits(k), k = denom.bit_length(), again while
    r >= denom."""
    if tables:
        out = b""
        while len(out) < count:
            m = count - len(out)
            out += bits(32 * m).to_bytes(4 * m, "little")[3::4].translate(
                *tables)
        return out
    k = denom.bit_length()
    bisect_right = bisect.bisect_right
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= denom:
            r = bits(k)
        out.append(bisect_right(cums, r))
    return bytes(out) if len(cums) <= 256 else out


def _pick_records(gog: GraphOfGroups, support: Sequence[NormalForm]) -> list:
    """One compiled pick per support element, a loop at the base vertex:
    (positions, last), kept in the graph's _facts under the element's
    reduced (steps, tail).  Walks compile their measure's support here,
    and phi its syllable images (cli.counterexample_phi).

    Each element is reduced here, which checks every element index and
    traversal it names; one that is not a loop at the base vertex is
    refused.  Position j of a reduced pick with steps (r_j, t_j) and tail
    last is (r_j, near table, reverse of t_j, pinch table, far table,
    pushed, rest): pushed maps the element the walk enters position j
    with to the (steps, tail) that positions j onward reduce to when
    position j does not cancel, filled on first use from rest = (near
    vertex, steps, j, last) (see _rest_of_pick).  A reduced pick cannot cancel inside itself, so once
    one position stays, the rest of the pick stays too."""
    base = gog.base_vertex
    identity = gog.vertices[base].identity
    records = []
    for pick in support:
        steps: list = []
        if pick.start != base:
            raise GogError("support elements must be loops at the base vertex")
        end, last = _reduce_into(gog, steps, base, identity, pick.steps,
                                 pick.tail)
        if end != base:
            raise GogError("support elements must be loops at the base vertex")
        records.append(_compiled(gog, tuple(steps), last))
    return records


def _compiled(gog: GraphOfGroups, steps: tuple, last: int) -> tuple:
    """The compiled pick of the reduced loop (steps, last) at the base
    vertex (see _pick_records), kept in the graph's _facts under
    (steps, last)."""
    key = (steps, last)
    compiled = gog._facts.get(key)
    if compiled is None:
        positions = []
        for j, (r, t) in enumerate(steps):
            c = gog._crossing[t]
            positions.append((r, gog.vertices[c.near].table, c.rev,
                              c.pinch, c.far_table, {},
                              (c.near, steps, j, last)))
        compiled = gog._facts[key] = (tuple(positions), last)
    return compiled


def _rest_of_pick(gog: GraphOfGroups, entering: int, near: str,
                  steps: tuple, j: int, last: int) -> tuple[tuple, int]:
    """(steps, tail) of the path word entering · steps[j:] · last from
    near, in normal form: what a pick pushes from a position j that
    stays."""
    out: list = []
    tail = _reduce_into(gog, out, near, entering, steps[j:], last)[1]
    return tuple(out), tail


def _push_picks(gog: GraphOfGroups, steps: list, tail: int,
                records: Iterable) -> int:
    """Right-multiply compiled picks (see _pick_records), in order, onto
    the normal form of a loop at the base vertex, given as its steps and
    tail, and return the new tail; the steps are changed in place.

    Through each pick's positions, a position that cancels into the last
    step pops it, and the first that does not pushes the rest of the
    pick, kept per entering element; a pick all of whose positions cancel
    leaves its last element on the tail.  So a pick costs one test per
    syllable it cancels and one push, whatever the length of the steps.
    This is the one kernel of walks and of the counterexample's phi."""
    base_table = gog.vertices[gog.base_vertex].table
    pop = steps.pop
    for positions, last in records:
        for r, table, rev, pinch, far_table, pushed, rest in positions:
            acc = table[tail][r]
            if steps and steps[-1][1] == rev and acc in pinch:
                tail = far_table[pop()[0]][pinch[acc]]
                continue
            try:
                more, tail = pushed[tail]
            except KeyError:
                hit = pushed[tail] = _rest_of_pick(gog, tail, *rest)
                more, tail = hit
            steps += more
            break
        else:
            tail = base_table[tail][last]
    return tail


def _walk_lengths(lengths: Sequence[int]) -> list[int]:
    """The distinct requested walk lengths in increasing order."""
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 0
           for n in lengths):
        raise GogError("walk lengths must be nonnegative integers")
    return sorted(set(lengths))


_GRAM_CODES = {2: "H", 4: "I", 8: "Q"}
"""The memoryview format that reads the bytes of a gram of each length
as one unsigned integer, its key in the gram table."""

_WALK_PLAN = object()
"""The tag of the key (_WALK_PLAN, support, weights) in a graph's _facts,
which no other key there can equal, of the kept plan of that measure."""


class _WalkPlan:
    """What walks need of a measure whatever the seed, kept on the graph
    (see _walk_plan): the step table (denom, cums), the byte tables
    (_byte_tables(denom, cums), or None when denom > 255), the compiled
    picks, the gram length and table, and whether the generation check
    passed.

    A gram is a run of `gram` consecutive draws, keyed by their bytes
    read as one unsigned integer (see _GRAM_CODES): gram = max(1, 8 //
    max(1, (s - 1).bit_length())) for a support of s elements, so there
    are s ** gram ≤ 256 grams and a support of more than 16 elements
    walks by single picks (gram 1).  drawn counts the grams the plan's
    walks have drawn, up to the first segment that takes it past s **
    gram; until then every draw takes its single pick.  From that
    segment on, the gram table maps each gram drawn to its compiled
    pick: its single picks pushed onto an empty normal form, compiled
    under the reduced loop's (steps, tail) like any pick (see
    _compiled).  So a plan compiles at most as many grams as it has
    drawn as single picks."""

    __slots__ = ("denom", "cums", "tables", "picks", "gram", "grams",
                 "drawn", "generates")

    def __init__(self, denom: int, cums: list[int], tables, picks: list):
        self.denom, self.cums = denom, cums
        self.tables, self.picks = tables, picks
        self.gram = max(1, 8 // max(1, (len(picks) - 1).bit_length()))
        self.grams: dict = {}
        self.drawn = 0
        self.generates = False


def _walk_plan(gog: GraphOfGroups, spec: RandomWalkSpec) -> _WalkPlan:
    """The plan of the spec's measure, built the first time the graph is
    asked for it and kept in its _facts.  Checks, in order, all a walk
    depends on: a nonempty support, one weight per support element, every
    pick a loop at the base vertex, and positive weights that sum to 1; a
    spec that fails a check keeps no plan."""
    key = (_WALK_PLAN, tuple(spec.support), tuple(spec.weights))
    plan = gog._facts.get(key)
    if plan is not None:
        return plan
    if not spec.support:
        raise GogError("measure support must be nonempty")
    if len(spec.weights) != len(spec.support):
        raise GogError("one weight per support element is required")
    picks = _pick_records(gog, spec.support)
    denom, cums = _step_table(spec)
    tables = _byte_tables(denom, cums) if denom <= 255 else None
    plan = gog._facts[key] = _WalkPlan(denom, cums, tables, picks)
    return plan


def _records(gog: GraphOfGroups, plan: _WalkPlan, drawn, lo: int,
             hi: int) -> list:
    """The compiled picks that multiply draws lo to hi of a walk onto it:
    one per gram of the segment, from its start, and one per draw left
    over past the last whole gram.  Until the plan has drawn more grams
    than there are, each draw takes its single pick with no Python loop
    (see _WalkPlan); after that a gram not yet in the gram table is
    compiled, and a segment whose grams are all compiled is read with
    one dict lookup per gram and no Python loop."""
    pick = plan.picks.__getitem__
    k = plan.gram
    if k == 1:
        return list(map(pick, drawn[lo:hi]))
    total = len(plan.picks) ** k
    if plan.drawn <= total:
        plan.drawn += (hi - lo) // k
        if plan.drawn <= total:
            return list(map(pick, drawn[lo:hi]))
    cut = hi - (hi - lo) % k
    keys = memoryview(drawn)[lo:cut].cast(_GRAM_CODES[k])
    grams = plan.grams
    records = list(map(grams.get, keys))
    if None in records:
        identity = gog.vertices[gog.base_vertex].identity
        records = []
        for key, i in zip(keys, range(lo, cut, k)):
            compiled = grams.get(key)
            if compiled is None:
                steps: list = []
                tail = _push_picks(gog, steps, identity,
                                   map(pick, drawn[i:i + k]))
                compiled = grams[key] = _compiled(gog, tuple(steps), tail)
            records.append(compiled)
    records += map(pick, drawn[cut:hi])
    return records


def _walk(gog: GraphOfGroups, plan: _WalkPlan, seed: int, trial: int,
          lengths: Sequence[int]):
    """The elements trial number `trial` of a walk seeded by seed reaches
    at each of the lengths, which must be distinct and increasing,
    yielded as (n, steps, tail) with steps and tail its normal form;
    plan = _walk_plan(gog, spec).

    Each step takes the support element that r = randrange(denom) selects
    (see _step_table).  The walk reads all of its draws before its first
    step, with _draws, so the stream and every walk are those of
    randrange.  The picks of each segment, from one length to the next,
    are multiplied onto the walk's steps by one _push_picks call, the
    kernel that phi shares (see cli.counterexample_phi), a compiled gram
    standing for each run of draws it was compiled from (see _records):
    a position that cancels into the last step pops it, and the first
    that does not pushes the rest of the pick.  The steps are one list
    that every pick extends or cancels in place, so a caller copies what
    it keeps first."""
    bits = random.Random(splitmix64(seed, trial)).getrandbits
    drawn = _draws(bits, plan.denom, plan.cums, plan.tables,
                   lengths[-1] if lengths else 0)
    steps: list = []
    tail = gog.vertices[gog.base_vertex].identity
    done = 0
    for n in lengths:
        tail = _push_picks(gog, steps, tail,
                           _records(gog, plan, drawn, done, n))
        done = n
        yield n, steps, tail


def sample_walk(gog: GraphOfGroups, spec: RandomWalkSpec, length: int,
                trial: int) -> NormalForm:
    """The element reached by trial number `trial` after `length` steps.

    Steps multiply on the right; the walk of a shorter length is a prefix
    of the walk of a longer one at the same trial index, so an experiment
    walks each trial once, to its longest length.  The spec is checked as
    far as the walk needs, by the checks validate_walk_spec starts with
    (see _walk_plan)."""
    (_, steps, tail), = _walk(gog, _walk_plan(gog, spec), spec.seed, trial,
                              _walk_lengths((length,)))
    return NormalForm(gog.base_vertex, tuple(steps), tail)


def run_genericity_experiment(gog: GraphOfGroups, spec: RandomWalkSpec,
                              lengths: Sequence[int]) -> tuple:
    """Hyperbolicity and filling counts over seeded independent walks, one
    row per requested length, in the requested order (a length may repeat).
    Each trial is walked once, to the longest length, with one reduction
    per distinct length, and its element is classified at each."""
    plan = validate_walk_spec(gog, spec)
    wanted = _walk_lengths(lengths)
    counts = {n: [0, 0] for n in wanted}
    for t in range(spec.trials):
        for n, steps, tail in _walk(gog, plan, spec.seed, t, wanted):
            g = NormalForm(gog.base_vertex, tuple(steps), tail)
            core = cyclic_reduction(gog, g)[1]
            if core.steps:
                counts[n][0] += 1
                counts[n][1] += all(w.is_complete for w in _graphs(gog, core))
    return tuple(ExperimentRow(n, spec.trials, *counts[n]) for n in lengths)


def experiment_csv(rows: Sequence[ExperimentRow]) -> str:
    """Byte-stable CSV rendering of experiment rows."""
    lines = ["n,trials,hyperbolic_count,filling_count,filling_rate"]
    for r in rows:
        lines.append(f"{r.n},{r.trials},{r.hyperbolic_count},"
                     f"{r.filling_count},{r.filling_rate:.6f}")
    return "\n".join(lines) + "\n"
