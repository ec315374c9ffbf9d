"""The isomorphism search and the per-edge candidates of `defspace`
against the reference in `defspace_oracle`.

`are_gog_isomorphic` chooses each vertex-group isomorphism when the
first edge at that vertex needs it, and `enumerate_reduced` builds one
candidate per edge orbit.  Both must give the verdicts and the graphs the
oracle gives, which lists every isomorphism and builds every pair of
monomorphisms.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

import defspace_oracle as oracle
import vfree
import vfree.defspace as ds
import vfree.fingroup as fg
from fixtures import assert_compiles_like_checked
from test_defspace_dedup import as_json, isomorphic_copy


@pytest.mark.parametrize("query", [(2, 1, 5), (1, 0, 12)], ids=str)
def test_isomorphism_verdicts_match_oracle_on_candidate_pairs(query):
    graphs = [gog for _, _, _, gog in oracle.candidates(*query)]
    verdicts = set()
    for a, b in itertools.product(graphs, repeat=2):
        want = oracle.are_gog_isomorphic(a, b)
        assert ds.are_gog_isomorphic(a, b) == want
        verdicts.add(want)
    assert verdicts == {False, True}


@pytest.mark.parametrize("query", [(1, 2, 3), (1, 0, 12)], ids=str)
def test_isomorphism_verdicts_match_oracle_on_isomorphic_copies(query):
    # With new_groups the copy's vertex groups are new objects, so the
    # search draws isomorphisms lazily instead of reading Aut(G).
    rng = random.Random(sum(query))
    graphs = [gog for _, _, _, gog in oracle.candidates(*query)]
    for new_groups in (False, True):
        copies = [isomorphic_copy(gog, rng, new_groups) for gog in graphs]
        for gog, copy in itertools.product(graphs, copies):
            want = oracle.are_gog_isomorphic(gog, copy)
            assert ds.are_gog_isomorphic(gog, copy) == want
            assert ds.are_gog_isomorphic(copy, gog) == want
        for gog, copy in zip(graphs, copies):
            assert ds.are_gog_isomorphic(gog, copy)


@pytest.mark.parametrize("vertex_group", [lambda: fg.build_cyclic(4),
                                          lambda: ds._dihedral(4)],
                         ids=["Z4", "D4"])
def test_distinct_vertex_group_objects_match_oracle(vertex_group):
    pins = {"vertex_groups": [vertex_group(), vertex_group()],
            "edge_groups": [fg.build_cyclic(2)]}
    assert pins["vertex_groups"][0] is not pins["vertex_groups"][1]
    assert as_json(ds.enumerate_reduced(2, 1, 12, **pins)) == \
        as_json(oracle.enumerate_reduced(2, 1, 12, **pins))


# (query, classes, sha256 prefix of the sorted-key JSON of the output,
# budget in seconds).  The first three digests were computed by the
# enumeration that built every pair of monomorphisms per edge; on a
# 2-vCPU x86-64 VM it took 3.9, 2.8 and 9.3 s, and one candidate per edge
# orbit takes 0.3, 0.7 and 2.1 s.  The one-edge digests were computed by
# pairwise are_gog_isomorphic dedup, in 42 and 47 s on the same VM; with
# canonical forms they take about 0.07 and 0.17 s.  The last two digests
# were computed by the pairwise dedup that multi-edge shapes kept until
# canonical forms covered every shape, in 12-21 s and 1.3 s on the same
# VM; now they take about 0.9 and 0.2 s, and (1,2,4), (2,2,4) and (3,2,6)
# about 0.05, 0.08 and 0.4 s.  The three-edge digests were computed by
# the enumeration that read a form for every candidate of every group
# choice, in 5.3 and 2.1 s in a fresh process on the same VM; visiting
# each choice once up to relabeling takes about 1.1 and 1.0 s.
FRONTIER = [((1, 2, 4), 47, "1ad4172b2557360d", 2.0),
            ((2, 2, 4), 105, "e7cc488f51e2f3e8", 2.0),
            ((3, 2, 6), 408, "05cc84fcb58db3aa", 5.0),
            ((2, 1, 8), 179, "c533103325badac9", 2.0),
            ((2, 1, 12), 573, "1d75efcbdc3e6cfc", 2.0),
            ((1, 3, 4), 137, "11b4a3f0c78975d0", 5.0),
            ((2, 2, 6), 378, "787c0e82c7c28af4", 2.0),
            ((3, 3, 4), 1030, "f30db15567182b99", 4.0),
            ((2, 3, 4), 699, "e3c7a0a366509df0", 4.0)]


@pytest.mark.parametrize("query,classes,digest,budget", FRONTIER,
                         ids=[str(row[0]) for row in FRONTIER])
def test_enumeration_frontier_is_pinned_and_in_budget(query, classes,
                                                      digest, budget):
    start = time.perf_counter()
    found = ds.enumerate_reduced(*query)
    elapsed = time.perf_counter() - start
    text = json.dumps(as_json(found), sort_keys=True)
    assert len(found) == classes
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert elapsed < budget
    for gog in found:
        assert_compiles_like_checked(gog)


def test_cold_one_vertex_loop_query_in_budget():
    # A fresh interpreter, so that no earlier test has warmed the facts
    # kept on the catalog groups; only the call is timed.  On a 2-vCPU
    # x86-64 VM (1, 1, 12) took 1.8-2.4 s cold while each mapping's lead
    # was the least of |Iso(R_C, C)| x |Aut(R_X)| tuples, and about 0.45 s
    # with that least kept per image subgroup.
    code = ("import time\n"
            "import vfree.defspace as ds\n"
            "start = time.perf_counter()\n"
            "found = ds.enumerate_reduced(1, 1, 12)\n"
            "print(len(found), time.perf_counter() - start)\n")
    src = os.path.dirname(os.path.dirname(vfree.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    classes, elapsed = proc.stdout.split()
    assert int(classes) == 192
    assert float(elapsed) < 1.0


def test_cold_largest_multi_edge_query_in_budget():
    # (3, 3, 7) is the largest query ENUM_MULTI_EDGE_ORDER_CAP accepts.  A
    # fresh interpreter, as above; only the call is timed.  It reads the
    # facts kept on the catalog groups (_class, _mono_facts and each
    # end's reads) about half a million times.  On a 2-vCPU x86-64 VM it
    # took about 7 s, at a 204 MB peak that includes the JSON dump.
    code = ("import hashlib, json, time\n"
            "import vfree.defspace as ds\n"
            "import vfree.gogwords as gw\n"
            "start = time.perf_counter()\n"
            "found = ds.enumerate_reduced(3, 3, 7)\n"
            "elapsed = time.perf_counter() - start\n"
            "text = json.dumps([gw.gog_to_json(g) for g in found],\n"
            "                  sort_keys=True)\n"
            "print(len(found), hashlib.sha256(text.encode()).hexdigest(),\n"
            "      elapsed)\n")
    src = os.path.dirname(os.path.dirname(vfree.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    classes, digest, elapsed = proc.stdout.split()
    assert int(classes) == 8787
    assert digest[:16] == "df8bac6e43cdeb76"
    assert float(elapsed) < 20.0
