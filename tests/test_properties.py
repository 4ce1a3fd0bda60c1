"""Hypothesis property tests for the metric and relation primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import c0cover as cc


@st.composite
def planar_packs(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, (n, 2))
    pts += np.arange(n)[:, None] * 1e-6  # break exact duplicates
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    n_b = draw(st.integers(min_value=1, max_value=n - 1))
    return cc.validate_pack(n, d, list(range(n_b)))


@settings(max_examples=60, deadline=None)
@given(planar_packs())
def test_metric_axioms_survive_validation(pack):
    d = pack.dist
    n = pack.n_points
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)
    for k in range(n):
        assert np.all(d <= d[:, k, None] + d[None, k, :] + 1e-9)
    assert pack.k_sup > 0 and pack.delta_res > 0


@settings(max_examples=60, deadline=None)
@given(planar_packs(), st.integers(0, 2**31 - 1))
def test_compose_associative_and_inverse_antihomomorphism(pack, seed):
    rng = np.random.default_rng(seed)
    n = pack.n_points
    rels = []
    for _ in range(3):
        mask = rng.uniform(size=(n, n)) < 0.3
        rels.append(cc.Relation(pack, ((int(i), int(j)) for i, j in zip(*np.nonzero(mask)))))
    e, f, g = rels
    assert cc.compose(cc.compose(e, f), g) == cc.compose(e, cc.compose(f, g))
    assert cc.compose(e, f).inverse() == cc.compose(f.inverse(), e.inverse())
    assert e.inverse().inverse() == e


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(0.0, 5.0)), min_size=1, max_size=12))
def test_modulus_curve_step_rule(samples):
    ts = sorted({round(t, 6) for t, _ in samples}, reverse=True)
    curve = cc.ModulusCurve(tuple((t, v) for t, (_, v) in zip(ts, samples)))
    for t, v in curve.samples:
        assert curve.value_at(t) == v  # exact at samples
    assert curve.value_at(ts[0] * 2) == curve.samples[0][1]  # clamps above
    assert curve.value_at(ts[-1] / 2) == curve.samples[-1][1]  # clamps below
    probes = [ts[0] * 2, *ts, *(t * 0.999 for t in ts), ts[-1] / 2]
    many = curve.value_at(np.array(probes))  # one call over an array of scales
    assert many.shape == (len(probes),)
    assert many.tolist() == [curve.value_at(t) for t in probes]


@settings(max_examples=40, deadline=None)
@given(planar_packs(), st.integers(0, 2**31 - 1))
def test_star_and_multiplicity_consistency(pack, seed):
    rng = np.random.default_rng(seed)
    pts = sorted(pack.points)
    members = []
    for _ in range(rng.integers(1, 5)):
        take = rng.uniform(size=len(pts)) < 0.5
        m = frozenset(p for p, t in zip(pts, take) if t)
        if m:
            members.append(m)
    if not members:
        members = [frozenset([pts[0]])]
    assert cc.multiplicity(members) == max(cc.mult_at(members, p) for p in pts)
    s = frozenset(pts[: len(pts) // 2])
    assert cc.mult_on(members, s) >= (1 if cc.star(members, s) else 0)
