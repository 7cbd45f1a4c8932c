"""Acceptance gate: one test per headline claim, each printing PASS/FAIL.

Every check is integer-exact (tolerance 0).  Run with ``pytest
tests/test_acceptance.py -s`` to see the one-line verdicts; wall-clock
budgets are asserted where a claim carries one.
"""

import time
from itertools import combinations
from math import comb

from conftest import k_sets_oracle
from lp_oracle import weak_separation

from kfacets.facelab import (
    embedding_face_certificate,
    face_certificate,
    is_weakly_k_neighborly,
    neighborliness_degree,
    radon_partition,
    veronese_certifier,
)
from kfacets.facets import enumerate_k_sets, k_facet_profile
from kfacets.formulas import (
    circle_count,
    conic_count,
    convex_3d_count,
    generally_neighborly_dim,
    homogeneous_count,
    neighborly_e_k,
)
from kfacets.genpos import (
    convex_position_set,
    distinct_first_coordinate_set,
    map_generic_set,
    random_point_set,
)
from kfacets.geometry import point_set
from kfacets.liftmaps import (
    circle_map,
    homogeneous_veronese,
    neighborly_embedding,
    veronese,
)
from kfacets.projection import census, stereographic_project


def _finish(name: str, ok: bool, detail: str, started: float,
            budget: float | None = None) -> None:
    elapsed = time.monotonic() - started
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail} [tolerance 0, {elapsed:.1f}s]"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s budget: {elapsed:.1f}s"


def test_criterion_1_circle_exact_counts():
    started = time.monotonic()
    checked, halvings = 0, []
    ok = True
    for n in (5, 7, 9, 11, 13):
        for seed in range(5):
            src = map_generic_set(n, circle_map(), seed=seed)
            prof = k_facet_profile(circle_map().apply(src))
            expected = tuple(circle_count(n, k) for k in range(n - 2))
            ok = ok and prof.e == expected
            m = (n - 1) // 2
            half = prof.e[prof.halving_level()] // 2
            ok = ok and half == m * m
            halvings.append(half)
            checked += 1
    _finish("criterion 1 (circle counts)", ok and checked == 25,
            f"25 lifted profiles == 2(k+1)(n-k-2); halving counts {sorted(set(halvings))} == m^2",
            started, budget=30.0)


def test_criterion_2_conic_exact_counts():
    started = time.monotonic()
    vm = veronese(2, 2)
    checked, halving9 = 0, None
    ok = True
    for n in range(7, 12):
        for seed in range(5):
            src = map_generic_set(n, vm, seed=seed)
            prof = k_facet_profile(vm.apply(src))
            expected = tuple(conic_count(n, k) for k in range(n - 4))
            ok = ok and prof.e == expected
            if n == 9 and halving9 is None:
                halving9 = prof.e[prof.halving_level()]
            checked += 1
    ok = ok and halving9 == 72
    _finish("criterion 2 (conic counts)", ok and checked == 25,
            f"25 lifted profiles == 2C(k+2,2)C(n-k-3,2); n=9 halving == {halving9}",
            started, budget=120.0)


def test_criterion_3_homogeneous_exact_counts():
    started = time.monotonic()
    cases = [(2, n, seed) for n in (5, 7, 9, 11) for seed in (0, 1)]
    cases += [(4, n, seed) for n in (7, 10) for seed in (0, 1)]
    checked = 0
    ok = True
    for m, n, seed in cases:
        hv = homogeneous_veronese(2, m)
        src = map_generic_set(n, hv, seed=seed)
        prof = k_facet_profile(hv.apply(src))
        expected = tuple(homogeneous_count(n, m, k) for k in range(n - m))
        ok = ok and prof.e == expected
        checked += 1
    _finish("criterion 3 (homogeneous counts)", ok and checked == len(cases),
            f"{checked} profiles (m in {{2,4}}) == 2C(k+m/2,m/2)C(n-k-m/2-1,m/2)",
            started, budget=120.0)


def test_criterion_4_neighborliness_certificates():
    started = time.monotonic()
    vm = veronese(2, 2)
    ok = True
    pairs_checked = 0
    for n, seed in [(7, 0), (8, 1), (9, 2)]:
        src = map_generic_set(n, vm, seed=seed)
        lifted = vm.apply(src)
        ok = ok and neighborliness_degree(lifted, 2) >= 2
        certify = veronese_certifier(src, 2)
        for pair in combinations(range(n), 2):
            constructive = certify(pair)
            lp_cert = face_certificate(lifted, pair, strict=False)
            ok = ok and constructive.validate(lifted, pair)
            ok = ok and lp_cert is not None and lp_cert.validate(lifted, pair)
            pairs_checked += 1
    # degree-4 lift of 8 points: every subset of size <= 5 is a strict face
    v4 = veronese(2, 4)
    src = map_generic_set(8, v4, seed=0)
    lifted4, certify = v4.apply(src), veronese_certifier(src, 4)
    quartic_faces = 0
    for size in range(1, 6):
        for subset in combinations(range(8), size):
            cert = face_certificate(lifted4, subset, strict=True)
            ok = ok and cert is not None and cert.validate(lifted4, subset)
            constructive = certify(subset)
            ok = ok and constructive is not None and constructive.validate(lifted4, subset)
            quartic_faces += 1
    _finish("criterion 4 (lift neighborliness)", ok,
            f"degree >= 2 with dual certificates on {pairs_checked} pairs; "
            f"all {quartic_faces} subsets of size <= 5 are strict faces of the quartic lift, "
            f"by LP and by squared conics",
            started)


def test_criterion_5_embedding_theorem():
    started = time.monotonic()
    ok = True
    certs = 0
    for k, d, n in [(1, 2, 8), (2, 2, 8), (2, 3, 7)]:
        for seed in (0, 1):
            src = distinct_first_coordinate_set(n, d, seed=seed)
            em = neighborly_embedding(k, d)
            lifted = em.apply(src)
            assert lifted.dim == generally_neighborly_dim(k, d)
            ok = ok and neighborliness_degree(lifted, k) >= k
            for subset in combinations(range(n), k):
                cert = embedding_face_certificate(src, subset, k)
                ok = ok and cert.validate(lifted, subset)
                certs += 1
    _finish("criterion 5 (neighborly embedding)", ok,
            f"degree >= k for (k,d) in {{(1,2),(2,2),(2,3)}}; "
            f"{certs} product-of-squares certificates verified",
            started, budget=180.0)


def test_criterion_6_projection_bijection():
    started = time.monotonic()
    ok = True
    instances = 0
    for d, n, seed in [(3, 6, 0), (3, 9, 1), (4, 8, 0), (4, 10, 1)]:
        ps = convex_position_set(n, d, seed=seed)
        prof, (_, table, planes) = k_facet_profile(ps), census(ps)
        for k in range(n - d + 1):
            total = 0
            for v in range(n):
                through = table[v][k]
                image = stereographic_project(ps, v, planes[v])
                ok = ok and through == k_facet_profile(image).e[k]
                total += through
            ok = ok and total == d * prof.e[k]
        instances += 1
    _finish("criterion 6 (projection bijection)", ok,
            f"per-vertex counts match projected profiles and sum to p*e_k on "
            f"{instances} convex sets in dims 3 and 4",
            started)


def test_criterion_7_radon_and_weak_neighborliness():
    started = time.monotonic()
    ok = True
    witnesses = 0
    for p in (2, 3, 4):
        for seed in range(50):
            ps = random_point_set(p + 2, p, seed=seed)
            w = radon_partition(ps)
            ok = ok and w.validate(ps)
            q = point_set([ps.points[i] for i in w.part_q])
            r = point_set([ps.points[i] for i in w.part_r])
            ok = ok and weak_separation(q, r) is None
            witnesses += 1
    failures = 0
    for k in (1, 2, 3):
        for seed in range(10):
            ps = random_point_set(2 * k + 1, 2 * k - 1, seed=seed)
            holds, witness = is_weakly_k_neighborly(ps, k)
            ok = ok and not holds and witness is not None
            failures += 1
    _finish("criterion 7 (radon / weak neighborliness)", ok,
            f"{witnesses} radon witnesses validate with inseparable parts; "
            f"{failures} sets of 2k+1 points in dim 2k-1 fail weak k-neighborliness",
            started)


def test_criterion_8_oracle_equivalence():
    started = time.monotonic()
    cases = [(2, n, seed) for n in (6, 7, 8, 9) for seed in (0, 1, 2)]
    cases += [(3, n, seed) for n in (6, 7, 8, 9) for seed in (0, 1)]
    assert len(cases) == 20
    ok = True
    for p, n, seed in cases:
        ps = random_point_set(n, p, seed=seed)
        for k in range(1, n):
            ok = ok and enumerate_k_sets(ps, k).sets == k_sets_oracle(ps, k)
        e = k_facet_profile(ps).e
        ok = ok and sum(e) == 2 * comb(n, p) and e == e[::-1]
    _finish("criterion 8 (oracle equivalence)", ok,
            "enumerate_k_sets == exhaustive LP oracle for all k on 20 sets; "
            "profiles sum to 2C(n,p) and are symmetric",
            started)


def test_criterion_9_formula_bank_identities():
    started = time.monotonic()
    ok = True
    for n in range(6, 17):
        for k in range(n - 4):
            ok = ok and neighborly_e_k(n, 5, k) == conic_count(n, k)
    for m in (2, 4):
        for n in range(m + 2, 17):
            for k in range(n - m):
                ok = ok and neighborly_e_k(n, m + 1, k) == homogeneous_count(n, m, k)
    for n in range(5, 17, 2):
        for k in range(n - 2):
            ok = ok and neighborly_e_k(n, 3, k) == circle_count(n, k)
    for n in range(4, 17):
        for k in range(n - 2):
            ok = ok and neighborly_e_k(n, 3, k) == convex_3d_count(n, k)
    for d in range(1, 7):
        for n in range(d + 1, 17):
            total = sum(neighborly_e_k(n, d, k) for k in range(n - d + 1))
            ok = ok and total == 2 * comb(n, d)
    ok = ok and generally_neighborly_dim(2, 2) == 5
    ok = ok and generally_neighborly_dim(1, 3) == 4
    _finish("criterion 9 (formula identities)", ok,
            "neighborly_e_k matches the circle/conic/homogeneous/convex-3d "
            "formulas for n <= 16; profile sums equal 2C(n,d) for d <= 6; "
            "the embedding dimension hits its anchor values",
            started)
