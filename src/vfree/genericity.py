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
estimate how common that certificate is among words of a given length;
a walk draws one pick per step and reduces the picks between two
requested lengths onto its normal form in one pass.  A pick is drawn
with the getrandbits loop that random.Random.randrange runs, without
randrange's Python frames, so the walks are those of randrange.

Every value type is a named tuple that hashes as the plain tuple of its
fields and compares equal to it; a FillingReport is true when it fills.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .bstree import (
    TreeVertex,
    axis_window,
    ball,
    base_vertex,
    neighbor,
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
    standard vertex and saturated by its stabilizer.

    The edge set is always a union of stabilizer orbits of pairs, so a
    turn whose pair is already an edge adds nothing and is skipped.  The
    graph is returned as soon as it holds every pair, checked after each
    stabilizer image, and the remaining turns are never read."""
    std, nodes, sat = standard_frame(gog, orbit)
    complete_count = math.comb(len(nodes), 2)
    edges: set = set()
    for back, out in _core_turns(gog, core, orbit):
        p0 = neighbor(gog, std, *back)
        n0 = neighbor(gog, std, *out)
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


def validate_walk_spec(gog: GraphOfGroups, spec: RandomWalkSpec) -> None:
    if not spec.support:
        raise GogError("measure support must be nonempty")
    if len(spec.weights) != len(spec.support):
        raise GogError("one weight per support element is required")
    _pick_records(gog, spec.support)  # raises unless every pick is a loop
    if any(Fraction(w) <= 0 for w in spec.weights):
        raise GogError("weights must be positive")
    _step_table(spec)  # raises unless the weights sum to 1
    if spec.trials < 1:
        raise GogError("at least one trial is required")
    _check_generation(gog, spec.support)


def _step_table(spec: RandomWalkSpec) -> tuple[int, list[int]]:
    """(denom, cums): a step draws r in range(denom) and takes the support
    element at bisect_right(cums, r), so each has its exact weight."""
    fracs = [Fraction(w) for w in spec.weights]
    denom = math.lcm(*(f.denominator for f in fracs))
    cums = list(itertools.accumulate(int(f * denom) for f in fracs))
    if cums[-1] != denom:
        raise GogError("weights must sum to 1")
    return denom, cums


def _pick_records(gog: GraphOfGroups, support: Sequence[NormalForm]) -> list:
    """One record per support element, read off its normal form: (first,
    rest, tail) with first its first step, or None when it has no steps.

    Each element is reduced once here, which checks every element index
    and traversal it names; one that is not a loop at the base vertex is
    refused."""
    base = gog.base_vertex
    identity = gog.vertices[base].identity
    records = []
    for pick in support:
        steps: list = []
        if pick.start != base:
            raise GogError("support elements must be loops at the base vertex")
        end, tail = _reduce_into(gog, steps, base, identity, pick.steps,
                                 pick.tail)
        if end != base:
            raise GogError("support elements must be loops at the base vertex")
        records.append((steps[0] if steps else None, steps[1:], tail))
    return records


def _walk_lengths(lengths: Sequence[int]) -> list[int]:
    """The distinct requested walk lengths in increasing order."""
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 0
           for n in lengths):
        raise GogError("walk lengths must be nonnegative integers")
    return sorted(set(lengths))


def _walk_plan(gog: GraphOfGroups, spec: RandomWalkSpec) -> tuple:
    """(seed, denom, cums, records): what _walk needs of a spec, checked
    and built once for all of its trials."""
    return (spec.seed, *_step_table(spec), _pick_records(gog, spec.support))


def _walk(gog: GraphOfGroups, plan: tuple, trial: int,
          lengths: Sequence[int]):
    """The elements trial number `trial` reaches at each of the lengths,
    which must be distinct and increasing, yielded as (n, steps, tail) with
    steps and tail its normal form; plan = _walk_plan(gog, spec).

    Each step draws r = getrandbits(k), k = denom.bit_length(), again
    while r >= denom, and takes the support element r selects (see
    _step_table).  That is the loop random.Random.randrange(denom) runs,
    so the stream and every walk are those of randrange.  The picks
    between two requested lengths are joined into one raw path word,
    each pick's tail folded into the first element of the next through
    the base vertex group's table, and that word is reduced onto the
    walk's steps with one _reduce_into call.
    The steps are one list that every later segment extends or cancels in
    place, so a caller copies what it keeps first."""
    seed, denom, cums, records = plan
    bits = random.Random(splitmix64(seed, trial)).getrandbits
    k = denom.bit_length()
    bisect_right = bisect.bisect_right
    base = gog.base_vertex
    identity = gog.vertices[base].identity
    table = gog.vertices[base].table
    steps: list = []
    tail = identity
    done = 0
    for n in lengths:
        raw: list = []
        carry = identity
        for _ in range(n - done):
            r = bits(k)
            while r >= denom:
                r = bits(k)
            first, rest, last = records[bisect_right(cums, r)]
            if first is None:
                carry = table[carry][last]
            else:
                raw.append((table[carry][first[0]], first[1]))
                raw += rest
                carry = last
        tail = _reduce_into(gog, steps, base, tail, raw, carry)[1]
        done = n
        yield n, steps, tail


def sample_walk(gog: GraphOfGroups, spec: RandomWalkSpec, length: int,
                trial: int) -> NormalForm:
    """The element reached by trial number `trial` after `length` steps.

    Steps multiply on the right; the walk of a shorter length is a prefix
    of the walk of a longer one at the same trial index, so an experiment
    walks each trial once, to its longest length.  The spec is checked
    only as far as the walk needs: every support element must be a loop
    at the base vertex, and the weights must sum to 1."""
    (_, steps, tail), = _walk(gog, _walk_plan(gog, spec), trial,
                              _walk_lengths((length,)))
    return NormalForm(gog.base_vertex, tuple(steps), tail)


def run_genericity_experiment(gog: GraphOfGroups, spec: RandomWalkSpec,
                              lengths: Sequence[int]) -> tuple:
    """Hyperbolicity and filling counts over seeded independent walks, one
    row per requested length, in the requested order (a length may repeat).
    Each trial is walked once, to the longest length, with one reduction
    per distinct length, and its element is classified at each."""
    validate_walk_spec(gog, spec)
    wanted = _walk_lengths(lengths)
    counts = {n: [0, 0] for n in wanted}
    plan = _walk_plan(gog, spec)
    for t in range(spec.trials):
        for n, steps, tail in _walk(gog, plan, t, wanted):
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
