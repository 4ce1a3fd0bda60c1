"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with -s or on failure); every
expected value is either pinned by an independent brute-force oracle in this
file, verified upstream, or an integer contract.
"""

import time

import numpy as np
import pytest

import c0cover as cc
from c0cover.canonical import default_mesh_targets
from c0cover.errors import NonCylindricalPack
from c0cover.verify import (
    check_ext_properties,
    check_identities,
    check_transfer_lemmas,
    random_pack,
)
from conftest import run_pipeline


def report_line(crit, detail):
    print(f"ACCEPTANCE {crit}: PASS — {detail}")


def test_criterion_1_minimal_multiplicity():
    """Pipeline covers achieve multiplicity dim X + 2 exactly, under 10 s each."""
    t0 = time.monotonic()
    fin = run_pipeline(cc.generate_pack("finite_cylinder", n_base=3, n_levels=12))
    t_fin = time.monotonic() - t0
    assert fin["report"].multiplicity == 2
    assert t_fin < 10.0

    t0 = time.monotonic()
    itv = run_pipeline(cc.generate_pack("interval_cylinder", n_base=65, n_levels=12))
    t_itv = time.monotonic() - t0
    assert itv["report"].multiplicity == 3
    assert t_itv < 10.0
    report_line(1, f"finite mult=2 ({t_fin:.1f}s), interval 65x12 mult=3 ({t_itv:.1f}s)")


def test_criterion_2_improvement_over_prior_bound(interval_pipeline):
    rep = interval_pipeline["report"]
    assert rep.multiplicity == 3
    assert rep.naive_bound_2dim_plus_2 == 4
    assert rep.multiplicity < rep.naive_bound_2dim_plus_2
    report_line(2, "interval achieved 3 < naive bound 4")


def test_criterion_3_lower_bound_sweep(finite_pipeline, interval_pipeline):
    """Constructed covers plus 200 random accepted candidates per pack hold
    multiplicity >= dim + 2; any refutation fails the build."""
    t0 = time.monotonic()
    checked = 0
    for pipe in (finite_pipeline, interval_pipeline):
        pack, ladder = pipe["pack"], pipe["ladder"]
        rng = np.random.default_rng(42)
        constructed = [pipe["alpha"], pipe["gamma"]]
        for cov in constructed:
            res = cc.lower_bound_check(pack, cov, ladder)
            assert res.holds, f"refutation on constructed cover of {pack.kind}: {res.refutation}"
            checked += 1
        for cand in cc.random_uniform_candidates(pack, rng, 200):
            res = cc.lower_bound_check(pack, cand, ladder)
            assert res.holds, f"refutation on random candidate of {pack.kind}: {res.refutation}"
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report_line(3, f"{checked} covers across dims 0 and 1, zero refutations ({elapsed:.1f}s)")


def test_criterion_4_countable_counterexample(countable_pack):
    singles = cc.singleton_cover(countable_pack)
    assert singles.covers_flag
    ladder = cc.default_ladder(countable_pack)
    verdict = cc.uniformity_verdict(countable_pack, ladder, singles)
    assert verdict.accept
    assert cc.multiplicity(singles) == 1
    assert not countable_pack.cylindrical
    with pytest.raises(NonCylindricalPack):
        cc.lower_bound_check(countable_pack, singles, ladder)
    report_line(4, "singleton cover canonical with multiplicity 1; lower bound refused")


def test_criterion_5_identity_suite():
    results = check_identities(seed=0, n_random=10_000)
    for r in results:
        assert r.failures == 0, r
    total = sum(r.runs for r in results)
    report_line(5, f"six identities, {total} checks, zero failures")


def test_criterion_6_ext_suite(line3):
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    big = random_pack(rng, 12, 11)  # all 2^11 boundary subsets
    small_cyl = cc.generate_pack("finite_cylinder", n_base=2, n_levels=4)
    results = check_ext_properties([line3, small_cyl, big], seed=9, n_random=500)
    for r in results:
        assert r.failures == 0, r
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    total = sum(r.runs for r in results)
    report_line(6, f"ext properties a)-f), {total} checks incl. 2^11 exhaustive, zero failures ({elapsed:.1f}s)")


def test_criterion_7_transfer_lemmas():
    results = check_transfer_lemmas(seed=1, n_each=500)
    for r in results:
        assert r.failures == 0, r
        assert r.runs >= 500
    report_line(7, "chain/preimage/shrink multiplicity bounds, 500+ instances each, zero violations")


def test_criterion_9_fg_moduli(finite_pack, interval_pack):
    for pack in (finite_pack, interval_pack):
        ladder = cc.default_ladder(pack)
        h = cc.h_profile(pack, ladder)
        levels = sorted({float(t) for t in pack.boundary_dist if t > 0})
        ts = levels + [0.6 * t for t in levels]
        for z in sorted(pack.boundary):
            for t in ts:
                if 0 < t <= pack.k_sup:
                    d = cc.cylinder.fg_displacement(pack, z, t)
                    assert d <= 3 * h.value_at(t) + 1e-12
        e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))
        assert cc.fxf_modulus(pack, e).accept
    report_line(9, "f o g within 3 h(t) at every sampled (z, t); f x f images accept")


def test_criterion_10_verdicts(finite_pipeline, interval_pipeline, circle_pack):
    accepts = []
    for pipe in (finite_pipeline, interval_pipeline):
        pack, ladder = pipe["pack"], pipe["ladder"]
        assert cc.uniformity_verdict(pack, ladder, pipe["alpha"]).accept
        accepts.append(pack.kind)
    circle = run_pipeline(circle_pack)
    assert circle["report"].uniformity["accept"]
    accepts.append(circle_pack.kind)

    for kind, params in [
        ("finite_cylinder", {"n_base": 3, "n_levels": 12}),
        ("interval_cylinder", {"n_base": 65, "n_levels": 12}),
        ("circle_in_disk", {}),
        ("cube_face", {"n_side": 4, "n_levels": 8}),
        ("countable_example", {"n_y": 6}),
    ]:
        pack = cc.generate_pack(kind, **params)
        ladder = cc.default_ladder(pack)
        e = cc.controlled_E(pack, ladder, cc.LambdaSpec.identity(ladder))
        assert cc.c0_modulus(pack, ladder, e).accept, f"controlled relation rejected on {kind}"
        assert not cc.c0_modulus(pack, ladder, cc.full_relation(pack)).accept
        assert not cc.uniformity_verdict(pack, ladder, cc.whole_space_cover(pack)).accept
    report_line(10, f"pipeline outputs accept on {accepts}; controlled relations accept and "
                    "all-pairs/whole-space reject on all five generators")


def test_criterion_11_common_multiplicity_bound(finite_pipeline, interval_pipeline, interval_pack):
    for pipe in (finite_pipeline, interval_pipeline):
        rep = pipe["report"]
        assert rep.multiplicity <= rep.max_common_mult
    targets = default_mesh_targets(interval_pack)
    make = cc.interval_dim1_provider().build(interval_pack, targets)
    covers = [make(i) for i in range(len(targets))]
    for i, cov in enumerate(covers):
        assert cc.multiplicity(cov) <= 2 or i == 0
        if i + 1 < len(covers):
            assert cc.common_multiplicity(cov, covers[i + 1]) <= 3
    report_line(11, "pipeline multiplicities within the pairwise common-multiplicity bound; "
                    "interval sequences have mult <= 2 and consecutive common mult <= 3")
