"""Characteristic coefficients, crossing candidates, transversality."""

import cmath
import math
from dataclasses import fields

import numpy as np
import pytest

from infodelay import (
    CharCoeffs,
    ModelParams,
    Transversality,
    char_coeffs,
    char_value,
    coexistence,
    g_cubic,
    h1_holds,
    hopf_candidates,
    s0,
    transversality_sign,
)
from infodelay import stability
from infodelay.model import ParamGrid, State, coexistence_points, params_valid
from infodelay.stability import (GCubic, _coeffs_at, crossing_candidates, first_switches,
                                 near_double_root)
from conftest import (OMEGA_STAR, REFERENCE, S_STAR, draw_params, draw_with_candidates,
                      make_params)


def _pq(lam, cc):
    p = ((lam + cc.p2) * lam + cc.p1) * lam + cc.p0
    q = (cc.q2 * lam + cc.q1) * lam + cc.q0
    return p, q


@pytest.fixture(scope="module")
def reference_cc():
    p = make_params(2.0)
    return char_coeffs(p, coexistence(p))


def test_reference_coefficients(reference_cc):
    cc = reference_cc
    assert abs(cc.p0 - (-1.41075)) < 1e-12
    assert abs(cc.p1 - 0.18975) < 1e-12
    assert abs(cc.p2 - 6.095) < 1e-12
    assert abs(cc.q0 - 1.55325) < 1e-12
    assert abs(cc.q1 - 3.108875) < 1e-12
    assert abs(cc.q2 - 0.475) < 1e-12


def test_reference_g_cubic(reference_cc):
    g = g_cubic(reference_cc)
    assert abs(g.m - 36.5439) < 1e-9
    assert abs(g.n - 9.043531296875) < 1e-9
    assert abs(g.h - (-0.42237)) < 1e-9


def test_reference_h1(reference_cc):
    assert h1_holds(reference_cc)


def test_char_coeffs_requires_coexistence():
    p = make_params(1.0, b1=1.2)  # b1 > a2: no interior equilibrium
    with pytest.raises(ValueError):
        char_coeffs(p, coexistence(p))
    with pytest.raises(ValueError):
        s0(p)


def test_reference_candidate(reference_cc):
    cands = hopf_candidates(reference_cc)
    assert len(cands) == 1
    cand = cands[0]
    assert cand.transversality_sign is Transversality.POSITIVE
    assert abs(cand.omega - OMEGA_STAR) < 1e-12
    assert abs(cand.delays[0] - S_STAR) < 1e-12
    assert cand.z == cand.omega ** 2
    assert len(cand.delays) == 4
    step = 2.0 * math.pi / cand.omega
    for j in range(1, 4):
        assert abs(cand.delays[j] - cand.delays[0] - j * step) < 1e-12 * (1 + cand.delays[j])


def test_reference_ladder_residuals(reference_cc):
    (cand,) = hopf_candidates(reference_cc)
    for s in cand.delays:
        assert abs(char_value(1j * cand.omega, s, reference_cc)) < 1e-10


def test_s0_returns_smallest_ladder_delay():
    p = make_params(2.0)
    got = s0(p)
    assert got is not None
    s_base, cand = got
    assert s_base == cand.delays[0]
    assert abs(s_base - S_STAR) < 1e-12


def test_no_candidates_without_delayed_coupling():
    # b1 = 0 removes the delayed part entirely; the zero-delay cubic is
    # Hurwitz so no amount of delay can destabilise
    p = make_params(1.0, b1=0.0, b2=0.0)
    assert s0(p) is None


def test_transversality_signs_on_crafted_cubics():
    # G has roots {1, 2, 4}; the middle one is a leftward crossing
    cc = CharCoeffs(p0=1.0, p1=4.0, p2=1.0, q0=3.0, q1=0.0, q2=0.0)
    assert transversality_sign(1.0, cc) is Transversality.POSITIVE
    assert transversality_sign(2.0, cc) is Transversality.NEGATIVE
    assert transversality_sign(4.0, cc) is Transversality.POSITIVE
    with pytest.raises(ValueError, match="not a root"):
        transversality_sign(3.0, cc)


def test_transversality_degenerate_on_double_root():
    # G = (z - 1)^2 (z - 4): tangential contact at z = 1
    cc = CharCoeffs(p0=0.0, p1=3.0, p2=0.0, q0=2.0, q1=0.0, q2=0.0)
    assert transversality_sign(1.0, cc) is Transversality.DEGENERATE
    assert transversality_sign(4.0, cc) is Transversality.POSITIVE


def test_near_common_root_yields_no_candidate():
    # P = (lam^2+1)(lam+1) and Q = lam^2 + 1e-8 lam + 1 nearly share the
    # root i, so G barely grazes zero near z = 1. Whether the grazing
    # pair is rejected as complex or as a singular recovery system, no
    # spurious candidate may come out of it.
    cc = CharCoeffs(p0=1.0, p1=1.0, p2=1.0, q0=1.0, q1=1e-8, q2=1.0)
    assert hopf_candidates(cc) == []


def test_dropped_candidates_log_one_warning_each(caplog):
    # G = (z - 1)^2 (z - 4) comes back exactly as [1, 1, 4]; at z = 1 the
    # delayed part vanishes, so both copies of that root are dropped
    cc = CharCoeffs(p0=0.0, p1=1.0, p2=0.0, q0=2.0, q1=0.0, q2=2.0)
    with caplog.at_level("WARNING", logger="infodelay.stability"):
        (cand,) = hopf_candidates(cc)
    dropped = [r for r in caplog.records if "dropping crossing candidate" in r.getMessage()]
    assert len(dropped) == 2
    assert cand.omega == 2.0 and cand.z == 4.0
    assert abs(cand.delays[0] - math.pi / 4) < 1e-15

    # the array core: one warning per dropped candidate, same message,
    # with the reference equation beside it dropping nothing
    ref = char_coeffs(make_params(2.0), coexistence(make_params(2.0)))
    both = CharCoeffs(*(np.array([getattr(cc, k), getattr(ref, k)])
                        for k in ("p0", "p1", "p2", "q0", "q1", "q2")))
    caplog.clear()
    with caplog.at_level("WARNING", logger="infodelay.stability"):
        x = crossing_candidates(both)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [r.getMessage() for r in dropped]
    assert x.kept.sum(axis=1).tolist() == [1, 1]
    assert x.omega[0, x.kept[0]].tolist() == [2.0]
    assert x.s_base[0, x.kept[0]].tolist() == [cand.delays[0]]
    assert abs(x.omega[1, x.kept[1]][0] - OMEGA_STAR) < 1e-12


def test_h1_matches_eigenvalues_of_zero_delay_cubic():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        p = draw_params(rng)
        est = coexistence(p)
        if not est.exists:
            continue
        cc = char_coeffs(p, est)
        roots = np.roots([1.0, cc.p2 + cc.q2, cc.p1 + cc.q1, cc.p0 + cc.q0])
        margin = float(np.max(roots.real))
        if abs(margin) < 1e-6:
            continue  # too close to the stability boundary to trust either side
        assert h1_holds(cc) == (margin < 0)
        checked += 1


def test_g_matches_modulus_difference():
    # G(omega^2) must equal |P(i omega)|^2 - |Q(i omega)|^2 identically
    rng = np.random.default_rng(11)
    for _ in range(30):
        p, est, cc, _ = draw_with_candidates(rng)
        g = g_cubic(cc)
        for omega in rng.uniform(0.05, 3.0, size=5):
            z = omega * omega
            gv = ((z + g.m) * z + g.n) * z + g.h
            pv, qv = _pq(1j * omega, cc)
            want = abs(pv) ** 2 - abs(qv) ** 2
            scale = 1.0 + abs(pv) ** 2 + abs(qv) ** 2
            assert abs(gv - want) < 1e-9 * scale


def test_candidate_residuals_on_random_draws():
    # every ladder element of every candidate must solve both the full
    # characteristic equation and its split real/imaginary system
    rng = np.random.default_rng(23)
    for _ in range(25):
        p, est, cc, cands = draw_with_candidates(rng)
        for cand in cands:
            z, om = cand.z, cand.omega
            a = cc.q0 - cc.q2 * z
            b = cc.q1 * om
            rr = cc.p2 * z - cc.p0
            ii = om * z - cc.p1 * om
            scale = 1.0 + max(abs(a), abs(b), abs(rr), abs(ii))
            for s in cand.delays:
                assert abs(char_value(1j * om, s, cc)) < 1e-8
                th = om * s
                assert abs(a * math.cos(th) + b * math.sin(th) - rr) < 1e-8 * scale
                assert abs(b * math.cos(th) - a * math.sin(th) - ii) < 1e-8 * scale


def test_candidates_sorted_by_base_delay():
    rng = np.random.default_rng(31)
    for _ in range(20):
        _, _, _, cands = draw_with_candidates(rng)
        bases = [c.delays[0] for c in cands]
        assert bases == sorted(bases)
        assert all(b >= 0 for b in bases)


def _cubic_with_roots(a, b, c):
    return GCubic(m=-(a + b + c), n=a * b + a * c + b * c, h=-a * b * c)


def test_near_double_root_flags_unresolved_pairs():
    # a positive pair closer than 1e-7 relative may come back real or
    # complex; either way it must be flagged, near the pair
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 2000:
        r = rng.uniform(0.1, 5.0)
        r3 = rng.uniform(-5.0, 5.0)
        if abs(r3 - r) < 0.1 * r:
            continue
        gap = r * 10.0 ** rng.uniform(-10.0, -7.0)
        got = near_double_root(_cubic_with_roots(r, r + gap, r3))
        assert got is not None and abs(got - r) <= 1e-6 * r, (r, gap, r3, got)
        checked += 1
    assert near_double_root(_cubic_with_roots(1.0, 1.0, 4.0)) == 1.0


def test_near_double_root_ignores_separated_roots():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        r = rng.uniform(0.1, 5.0)
        gap = r * 10.0 ** rng.uniform(-4.0, 0.0)
        r3 = rng.choice([-1.0, 1.0]) * (r + gap + r * 10.0 ** rng.uniform(-4.0, 0.0))
        assert near_double_root(_cubic_with_roots(r, r + gap, r3)) is None, (r, gap, r3)
    # a close pair with negative real part is no crossing
    assert near_double_root(_cubic_with_roots(-2.0, -2.0 * (1 + 1e-9), 1.0)) is None
    # the reference cubic has one positive root, far from the others
    cc = char_coeffs(make_params(2.0), coexistence(make_params(2.0)))
    assert near_double_root(g_cubic(cc)) is None



# model points with two and three crossings
_TWO = dict(r1=3.4, r2=2.2, a1=6.2, a2=1.2, b1=-2.7, b2=-5.0, mu=0.093, r=1.6, s=1.0)
_THREE = dict(r1=3.3, r2=0.096, a1=1.1, a2=2.0, b1=1.7, b2=0.95, mu=0.039, r=0.042, s=1.0)


def _model_cc(point):
    p = ModelParams(**point)
    return char_coeffs(p, coexistence(p))


def test_model_point_with_three_crossings():
    # found by a 2M-draw search: the model itself can have two or three
    # crossings, so the three-column candidate path and near_double_root
    # serve model points, not only synthetic cubics
    pos, neg = Transversality.POSITIVE, Transversality.NEGATIVE
    three, two = _model_cc(_THREE), _model_cc(_TWO)
    for cc, signs in ((three, [pos, neg, pos]), (two, [pos, neg])):
        assert h1_holds(cc)
        cands = hopf_candidates(cc)
        assert [c.transversality_sign for c in cands] == signs
        for cand in cands:
            for s in cand.delays:
                assert abs(char_value(1j * cand.omega, s, cc)) < 1e-13
    cands = hopf_candidates(three)
    assert np.allclose([c.z for c in cands], [0.022992, 0.056718, 0.212651], atol=1e-6)
    assert np.allclose([c.delays[0] for c in cands], [0.092670, 0.256729, 0.305118],
                       atol=1e-6)
    # two crossings with h = p0^2 - q0^2 > 0: "a crossing exists iff
    # |p0| < |q0|" does not hold
    assert g_cubic(two).h > 0


def test_candidates_come_in_base_delay_order():
    # the first-switch rule lives in crossing_candidates' column order:
    # first_switches reads column 0 and hopf_candidates keeps the order.
    # 50,000 wide draws keep 9419 points with a coexistence point; 133
    # of them have two or three crossings, and in 100 of those the roots
    # of G, ascending, are out of base-delay order. The "two" and
    # "three" points close the grid
    rng = np.random.default_rng(41)
    n = 50_000

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(lo, hi, n))

    draws = dict(r1=log_uniform(-3, 3), r2=log_uniform(-3, 3), a1=log_uniform(-4, 2),
                 a2=log_uniform(-4, 2), b1=rng.uniform(-5, 5, n), b2=rng.uniform(-5, 5, n),
                 mu=log_uniform(-4, 2), r=log_uniform(-4, 2), s=np.ones(n))
    grid = ParamGrid.of({k: np.append(v, [_TWO[k], _THREE[k]]) for k, v in draws.items()})
    exists, point = coexistence_points(grid)
    at = np.flatnonzero(params_valid(grid) & exists)
    cc = _coeffs_at(grid.take(at), State(*(a[at] for a in point)))
    x = crossing_candidates(cc)

    count = x.kept.sum(axis=1)
    assert (x.kept == (np.arange(3) < count[:, None])).all()
    base = np.where(x.kept, x.s_base, np.inf)
    assert (base[:, 1:] >= base[:, :-1]).all()
    multi = np.flatnonzero(count > 1)
    assert len(multi) >= 100 and count[-2:].tolist() == [2, 3]

    sw = first_switches(grid)
    has = x.kept[:, 0] & ~x.off_g.any(axis=1)
    assert sw.idx.tolist() == at[has].tolist()
    assert sw.s0.tolist() == x.s_base[has, 0].tolist()
    assert sw.omega.tolist() == x.omega[has, 0].tolist()

    for i in [*range(1000), *multi.tolist()]:
        cands = hopf_candidates(CharCoeffs(*(float(getattr(cc, f.name)[i])
                                             for f in fields(cc))))
        assert [c.delays[0] for c in cands] == x.s_base[i, x.kept[i]].tolist()
        assert [c.omega for c in cands] == x.omega[i, x.kept[i]].tolist()


def test_float_coeffs_are_one_equation(reference_cc):
    # a CharCoeffs of floats gives, bit for bit, the Crossings of its
    # one-point arrays: the path hopf_candidates takes
    for cc in (reference_cc, _model_cc(_TWO), _model_cc(_THREE)):
        floats = CharCoeffs(*(float(getattr(cc, f.name)) for f in fields(cc)))
        arrays = CharCoeffs(*(np.array([getattr(cc, f.name)]) for f in fields(cc)))
        for got, want in zip(crossing_candidates(floats), crossing_candidates(arrays)):
            assert got.shape == want.shape == (1, 3) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# G's coefficients reach 3.6e11 here, and z = 0.138 is a root of G to
# 1.3e-16 of the size of its terms (exact rational evaluation)
_LARGE = dict(r1=339.0, r2=1.31, a1=13.5, a2=0.0622, b1=-8.52, b2=-16.1, mu=4.94, r=34.7)


def test_large_coefficients_keep_their_candidate():
    # G's root residual must be judged against the size of its terms,
    # which here dwarf z^3
    p = ModelParams(**_LARGE, s=1.0)
    (cand,) = hopf_candidates(char_coeffs(p, coexistence(p)))
    assert cand.z == pytest.approx(0.13849, abs=1e-5)
    assert cand.transversality_sign is Transversality.POSITIVE


def test_a_candidate_off_g_raises_and_fails_only_its_own_point(monkeypatch):
    # a polishing step that lands 2% off the root, at this one candidate
    p = ModelParams(**_LARGE, s=1.0)
    cc = char_coeffs(p, coexistence(p))
    omega = hopf_candidates(cc)[0].omega
    polish = stability._polish_pair

    def off_root(w, s, coeffs):
        w, s = polish(w, s, coeffs)
        return np.where(w == omega, 1.01 * w, w), s

    monkeypatch.setattr(stability, "_polish_pair", off_root)
    with pytest.raises(ValueError, match="is not a root of G") as raised:
        hopf_candidates(cc)
    grid = {k: np.array([REFERENCE[k], _LARGE[k], REFERENCE[k]]) for k in REFERENCE}
    sw = first_switches(ParamGrid.of({**grid, "s": np.ones(3)}))
    assert sw.idx.tolist() == [0, 2]
    assert list(sw.errors) == [1] and str(sw.errors[1]) == str(raised.value)
    assert np.allclose(sw.s0, S_STAR, rtol=1e-12)
