"""Eigenvectors, amplitude-equation coefficients, direction, amplitudes."""

import cmath
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from infodelay import (
    Direction,
    Linearization,
    ModelParams,
    ResonanceError,
    Transversality,
    char_coeffs,
    classify,
    coexistence,
    compute_normal_form,
    cycle_prediction,
    eigen_residuals,
    hopf_candidates,
    predicted_amplitude,
    predicted_component_amplitudes,
    predicted_period,
    self_checks,
)
from infodelay.model import ParamGrid, State, coexistence_points, reduced_rhs
from infodelay.normal_form import (_cross_matrix, _linearize, _quadratic, _second_order,
                                  normal_forms)
from infodelay.stability import crossing_drift
from conftest import (REFERENCE, OMEGA_STAR, S_STAR, _stack, draw_with_candidates, left_eigvec,
                      linearize, make_params, right_eigvec, second_order,
                      transversality_sign)

# frozen values for the reference set, computed once from the assembled
# linear systems and cross-checked against the closed-form component
# ratios and a long time-domain run
GAMMA1 = 0.4343152605885917 + 0.09266801004031293j
GAMMA2 = 24.344568301116507 + 384.4435178995666j
DLAMBDA_DS = 0.21551952171073 - 0.05347785913684j
C_VEC = np.array([22.92463067 + 9.71746677j, 1.0 + 0.0j,
                  4.03703704 + 1.48471608j])
D_VEC = np.array([-0.02016132 - 0.08804168j, 0.06433316 + 0.04162012j,
                  0.00147713 + 0.00088711j])
E_VEC = np.array([144.62892403 + 102.84132719j, 6.18374057 - 0.41636626j,
                  30.07073144 + 16.68131218j])
F_VEC = np.array([-1160.82158573, -50.01316229, -194.16424778])

_FQ = ("u2", "uv_delayed", "v2")


def _dlambda_ds(cc, omega, s):
    """Implicit-derivative of the crossing root with respect to the delay."""
    lam = 1j * omega
    ex = cmath.exp(-lam * s)
    pv_d = (3.0 * lam + 2.0 * cc.p2) * lam + cc.p1
    qv = (cc.q2 * lam + cc.q1) * lam + cc.q0
    qv_d = 2.0 * cc.q2 * lam + cc.q1
    return lam * qv * ex / (pv_d + (qv_d - s * qv) * ex)


@pytest.fixture(scope="module")
def reference_lin():
    p = make_params(2.0)
    return p, linearize(p, coexistence(p))


def test_linearization_matrices(reference_lin):
    _, lin = reference_lin
    ju, jv, mr = 0.45, -0.545, 6.0
    want_a = np.array([[ju, 0.0, 0.0], [0.0, jv, 0.135], [1.0, 1.0, -mr]])
    want_as = np.array([[-0.475, -0.475, 0.0], [0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0]])
    assert np.allclose(lin.A, want_a, atol=1e-12)
    assert np.allclose(lin.As, want_as, atol=1e-12)
    assert set(lin.F_quadratic) == set(_FQ)
    assert abs(lin.F_quadratic["u2"] - (-0.025)) < 1e-12
    assert abs(lin.F_quadratic["uv_delayed"] - (-0.475)) < 1e-12
    assert abs(lin.F_quadratic["v2"] - (-0.5225)) < 1e-12


def test_reference_normal_form():
    nf = compute_normal_form(make_params(2.0))
    assert abs(nf.omega_star - OMEGA_STAR) < 1e-12
    assert abs(nf.s_star - S_STAR) < 1e-12
    assert abs(nf.Gamma1 - GAMMA1) < 1e-10
    assert abs(nf.Gamma2 - GAMMA2) < 1e-6
    assert nf.chi1 == nf.Gamma1.real
    assert nf.chi2 == nf.Gamma2.real
    assert nf.direction is Direction.SUPERCRITICAL
    assert np.allclose(nf.c_vec, C_VEC, atol=1e-6)
    assert np.allclose(nf.d_vec, D_VEC, atol=1e-6)
    assert np.allclose(nf.e_vec, E_VEC, atol=1e-6)
    assert np.allclose(nf.f_vec, F_VEC, atol=1e-6)
    assert np.max(np.abs(F_VEC.imag)) == 0.0  # frozen real part only
    assert float(np.max(np.abs(np.imag(nf.f_vec)))) < 1e-9


def test_quadratic_is_the_polarization_of_the_model():
    # the model's right-hand side f is a quadratic polynomial without a
    # constant term, so f(x + y) - f(x) - f(y) = B(x, y) + B(y, x) = Q(x, y).
    # Each wave's delayed slots carry its delay factor, so the pair's
    # delayed product carries dx*dy. The oracle is model.reduced_rhs: a
    # wrong sign or coefficient in F_quadratic fails here
    rng = np.random.default_rng(29)
    n = 1000

    def log_uniform():
        return np.exp(rng.uniform(-2.0, 2.0, n))

    p = ParamGrid.of(dict(r1=log_uniform(), r2=log_uniform(), a1=log_uniform(),
                          a2=log_uniform(), b1=rng.uniform(-5, 5, n), b2=rng.uniform(-5, 5, n),
                          mu=log_uniform(), r=log_uniform(), s=np.ones(n)))

    def wave():
        x = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        return x, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))

    def f(*waves):
        now = sum(x for x, _ in waves)
        past = sum(x * delay[:, None] for x, delay in waves)
        return np.stack(reduced_rhs(State(*now.T), State(*past.T), p), axis=1)

    (x, dx), (y, dy) = wave(), wave()
    want = f((x, dx), (y, dy)) - f((x, dx)) - f((y, dy))
    fq = _linearize(p, State(1.0, 1.0, 1.0)).F_quadratic
    got = _quadratic(fq, x, y, dx * dy)
    assert (np.abs(got - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1)).all()


@pytest.mark.parametrize("k", [1e-13, 1e-12, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 1.0, 100.0, 1e8,
                               1e10])
def test_verdicts_do_not_depend_on_the_time_unit(k):
    # a time unit k times longer is an exact rescaling of the model: r1,
    # r2, mu, r and b2 times k, the delay over k, w over k. The crossing, its direction
    # and the normal form must follow it, so no floor on the way may be
    # absolute in the time unit
    kw = dict(REFERENCE, s=2.02 / k)
    kw.update({name: REFERENCE[name] * k for name in ("r1", "r2", "mu", "r", "b2")})
    p = ModelParams(**kw)
    (cand,) = hopf_candidates(char_coeffs(p, coexistence(p)))
    assert cand.delays[0] * k == pytest.approx(S_STAR, rel=1e-12)
    assert cand.omega / k == pytest.approx(OMEGA_STAR, rel=1e-12)
    assert cand.transversality_sign is Transversality.POSITIVE
    nfs = normal_forms(ParamGrid.of(p))
    assert not nfs.errors
    assert nfs.s0[0] * k == pytest.approx(S_STAR, rel=1e-12)
    nf = compute_normal_form(p)
    assert nf.s_star * k == pytest.approx(S_STAR, rel=1e-12)
    assert nf.omega_star / k == pytest.approx(OMEGA_STAR, rel=1e-12)
    assert nf.direction is Direction.SUPERCRITICAL
    # delta*Gamma1 and Gamma2 are free of the time unit
    assert nf.Gamma1 / k == pytest.approx(GAMMA1, rel=1e-8)
    assert nf.Gamma2 == pytest.approx(GAMMA2, rel=1e-8)


@pytest.mark.parametrize("k", [1e-12, 1e-6, 1.0, 1e8, 1e10])
def test_eigenvector_residuals_do_not_depend_on_the_time_unit(k):
    # each residual is relative to the size of the terms it sums; divided
    # by |c| or |d| alone they read 4e-28 at k = 1e-12 and 7e-6 at 1e10
    kw = dict(REFERENCE, s=2.02 / k)
    kw.update({name: REFERENCE[name] * k for name in ("r1", "r2", "mu", "r", "b2")})
    p = ModelParams(**kw)
    checks = self_checks(compute_normal_form(p), p, coexistence(p).point)
    assert 0.0 < checks["right_eigenvector_residual"] < 1e-14
    assert 0.0 < checks["left_eigenvector_residual"] < 1e-14


def test_null_vectors_keep_their_normalization_on_wide_draws():
    # _null_vectors takes its SVD of the crossing matrix scaled to unit
    # rows and columns and maps c and d back: at every point with a
    # normal form, c has middle component 1, d*(I + s*As*E)*c = 1, and
    # both are null vectors of the unscaled matrix to the rounding of
    # its terms
    rng = np.random.default_rng(30)
    n = 20_000

    def log_uniform():
        return np.exp(rng.uniform(-2.0, 2.0, n))

    p = ParamGrid.of(dict(r1=log_uniform(), r2=log_uniform(), a1=log_uniform(),
                          a2=log_uniform(), b1=rng.uniform(-5, 5, n), b2=rng.uniform(-5, 5, n),
                          mu=log_uniform(), r=log_uniform(), s=np.ones(n)))
    nfs = normal_forms(p)
    ok = np.flatnonzero(nfs.ok)
    assert len(ok) > 2000
    _, point = coexistence_points(p.take(ok))
    lin = _linearize(p.take(ok), point)
    s = nfs.s0[ok]
    cross, e = _cross_matrix(lin, nfs.omega_star[ok], s)
    c, d = nfs.c_vec[ok], nfs.d_vec[ok]
    m = np.eye(3) + s[:, None, None] * lin.As * e[:, None, None]
    assert np.abs(c[:, 1] - 1.0).max() < 1e-15
    assert np.abs(np.einsum("ni,nij,nj->n", d, m, c) - 1.0).max() < 1e-14
    rc = np.abs(np.einsum("nij,nj->ni", cross, c)).max(axis=1) / np.einsum(
        "nij,nj->ni", np.abs(cross), np.abs(c)).max(axis=1)
    rd = np.abs(np.einsum("ni,nij->nj", d, cross)).max(axis=1) / np.einsum(
        "ni,nij->nj", np.abs(d), np.abs(cross)).max(axis=1)
    assert rc.max() < 1e-11 and rd.max() < 1e-11


def test_eigenvector_identities(reference_lin):
    # component ratios follow from eliminating rows of the crossing matrix
    p, lin = reference_lin
    om, s = OMEGA_STAR, S_STAR
    c = right_eigvec(lin, om, s)
    d = left_eigvec(lin, om, s)
    ju, jv, mr, b2r2 = 0.45, -0.545, 6.0, 0.135
    ex = cmath.exp(-1j * om * s)
    est = coexistence(p).point
    assert abs(c[1] - 1.0) < 1e-15
    assert abs(c[2] - (1j * om - jv) / b2r2) < 1e-9
    want_c1 = 0.475 * est.u * ex / (ju - 1j * om - 0.475 * ex)
    assert abs(c[0] - want_c1) < 1e-8
    assert abs(d[0] / d[2] - (-est.v) / (ju - 0.475 * ex - 1j * om)) < 1e-8
    assert abs(d[1] / d[2] - (mr + 1j * om) / b2r2) < 1e-8
    # bilinear normalization
    den = d @ (np.eye(3) + s * lin.As * ex) @ c
    assert abs(den - 1.0) < 1e-12
    rc, rd = eigen_residuals(lin, om, s, c, d)
    assert rc < 1e-12 and rd < 1e-12


def test_gamma1_equals_delay_drift_of_crossing_root(reference_lin):
    p, _ = reference_lin
    cc = char_coeffs(p, coexistence(p))
    dl = _dlambda_ds(cc, OMEGA_STAR, S_STAR)
    assert abs(dl - DLAMBDA_DS) < 1e-10
    assert abs(GAMMA1 - (1j * OMEGA_STAR + S_STAR * dl)) < 1e-10
    assert abs(crossing_drift(OMEGA_STAR, S_STAR, cc) - dl) < 1e-15


def test_conjugate_frequency_gives_conjugate_vectors(reference_lin):
    _, lin = reference_lin
    c = right_eigvec(lin, OMEGA_STAR, S_STAR)
    c_neg = right_eigvec(lin, -OMEGA_STAR, S_STAR)
    assert np.allclose(c_neg, np.conj(c), atol=1e-9)
    d = left_eigvec(lin, OMEGA_STAR, S_STAR)
    d_neg = left_eigvec(lin, -OMEGA_STAR, S_STAR)
    assert np.allclose(d_neg, np.conj(d), atol=1e-9)


def test_right_eigvec_rejects_non_crossing(reference_lin):
    _, lin = reference_lin
    with pytest.raises(ValueError, match="not a crossing"):
        right_eigvec(lin, 0.3, 1.0)


def test_right_eigvec_rejects_vanishing_middle_component():
    # eigenpair (i/2, (1, 0, i)) of a crafted matrix: the middle
    # component is exactly zero, so the phase pin is impossible
    a = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [-0.5, 0.0, 0.0]])
    lin = Linearization(A=a, As=np.zeros((3, 3)),
                        F_quadratic=dict.fromkeys(_FQ, 1.0))
    with pytest.raises(ValueError, match="middle component"):
        right_eigvec(lin, 0.5, 1.0)


def test_second_order_rejects_zero_eigenvalue():
    lin = Linearization(A=np.diag([1.0, 1.0, 0.0]), As=np.zeros((3, 3)),
                        F_quadratic=dict.fromkeys(_FQ, 1.0))
    c = np.array([1.0 + 0j, 1.0 + 0j, 0.0 + 0j])
    with pytest.raises(ResonanceError, match="zero eigenvalue"):
        second_order(lin, 1.0, 1.0, c)


def test_second_order_rejects_two_to_one_resonance():
    # the delayed part contributes a rotation whose double frequency
    # collides with the second harmonic when omega*s = pi/2
    om = 0.5
    a_s = np.array([[0.0, 2 * om, 0.0], [-2 * om, 0.0, 0.0], [0.0, 0.0, 0.0]])
    lin = Linearization(A=np.zeros((3, 3)), As=a_s,
                        F_quadratic=dict.fromkeys(_FQ, 1.0))
    c = np.array([1.0 + 0j, 1.0 + 0j, 0.0 + 0j])
    with pytest.raises(ResonanceError, match="2:1"):
        second_order(lin, om, np.pi / (2 * om), c)


def test_classify_truth_table():
    assert classify(1.0, 2.0) is Direction.SUPERCRITICAL
    assert classify(-1.0, -2.0) is Direction.SUPERCRITICAL
    assert classify(1.0, -2.0) is Direction.SUBCRITICAL
    assert classify(-1.0, 2.0) is Direction.SUBCRITICAL
    assert classify(1e-7, 1e-7) is Direction.DEGENERATE
    assert classify(0.0, 5.0) is Direction.DEGENERATE


def test_predicted_amplitudes():
    nf = compute_normal_form(make_params(2.0))
    delta = 0.005
    rho = predicted_amplitude(nf, delta)
    assert abs(rho - np.sqrt(delta * nf.chi1 / nf.chi2)) < 1e-15
    comps = predicted_component_amplitudes(nf, delta)
    assert abs(comps[0] - 0.47032827549570916) < 1e-12
    assert np.allclose(comps, 2.0 * rho * np.abs(nf.c_vec), atol=1e-15)
    # supercritical: no cycle below the switch
    assert predicted_amplitude(nf, -delta) == 0.0


def test_predicted_period_is_criterion_5_formula():
    nf = compute_normal_form(make_params(2.0))
    for delta in (0.001, 0.0047985, 0.01):
        drift = delta * (nf.Gamma1.imag - nf.Gamma2.imag * nf.chi1 / nf.chi2)
        want = 2.0 * math.pi * (nf.s_star + delta) / (nf.omega_star * nf.s_star + drift)
        assert abs(predicted_period(nf, delta) - want) < 1e-12 * want
    assert predicted_period(nf, 0.0) == 2.0 * math.pi / nf.omega_star
    broken = replace(nf, direction=Direction.DEGENERATE)
    with pytest.raises(ValueError, match="degenerate"):
        predicted_period(broken, 0.01)


def test_stacked_second_order_fails_per_point(reference_lin):
    # a 2:1-resonant crossing in the middle of a stack leaves its
    # neighbours' solves exactly as they are alone
    _, ref = reference_lin
    om = 0.5
    res_as = np.array([[0.0, 2 * om, 0.0], [-2 * om, 0.0, 0.0], [0.0, 0.0, 0.0]])
    lins = [ref, Linearization(A=np.zeros((3, 3)), As=res_as,
                               F_quadratic=dict.fromkeys(_FQ, 1.0)), ref]
    stack = Linearization(
        A=np.stack([lin.A for lin in lins]), As=np.stack([lin.As for lin in lins]),
        F_quadratic={k: np.array([lin.F_quadratic[k] for lin in lins]) for k in _FQ})
    c_ref = right_eigvec(ref, OMEGA_STAR, S_STAR)
    c = np.stack([c_ref, [1.0 + 0j, 1.0 + 0j, 0.0 + 0j], c_ref])
    omega = np.array([OMEGA_STAR, om, OMEGA_STAR])
    s = np.array([S_STAR, np.pi / (2 * om), S_STAR])
    e_vec, f_vec, errors = _second_order(stack, omega, s, c)
    assert list(errors) == [1]
    assert isinstance(errors[1], ResonanceError) and "2:1" in str(errors[1])
    e_one, f_one = second_order(ref, OMEGA_STAR, S_STAR, c_ref)
    for i in (0, 2):
        assert e_vec[i].tolist() == e_one.tolist()
        assert f_vec[i].tolist() == f_one.tolist()
    assert _stack(ref).A.shape == (1, 3, 3)


def test_normal_forms_keep_failures_per_point():
    # a grid over b1 with points past b1 = a2 (no coexistence) and at
    # b1 = 0 (no delayed coupling, no crossing) between regular ones,
    # then one that breaks a ModelParams rule (a2 = -1)
    b1 = np.array([0.95, 1.2, 0.0, 0.5, 0.95])
    a2 = np.array([1.045] * 4 + [-1.0])
    nfs = normal_forms(ParamGrid.of({**REFERENCE, "s": 2.0, "b1": b1, "a2": a2}))
    assert nfs.ok.tolist() == [True, False, False, True, False]
    assert "coexistence" in str(nfs.errors[1]) and "crossing" in str(nfs.errors[2])
    assert sorted(nfs.errors) == [1, 2]
    assert np.isnan(nfs.s0[1:3]).all() and np.isnan(nfs.Gamma1[1:3]).all()
    # a point without the coexistence point or valid parameters has no
    # coefficients and no crossing
    assert np.isnan(nfs.s0[4])
    for i in (1, 4):
        assert all(np.isnan(getattr(nfs.coeffs, f.name)[i]) for f in fields(nfs.coeffs))
        assert not nfs.crossings.kept[i].any()
    for i in (0, 3):
        nf = compute_normal_form(make_params(2.0, b1=float(b1[i])))
        assert nfs.s0[i] == nf.s_star
        assert nfs.Gamma1[i] == nf.Gamma1 and nfs.Gamma2[i] == nf.Gamma2


def test_normal_forms_record_step_failures(monkeypatch):
    # with the resonance floor raised past every gap, each crossing point
    # fails in the second-order step, exactly as the one-point call raises
    import infodelay.normal_form as nf_module
    monkeypatch.setattr(nf_module, "_RESONANCE_TOL", 1e3)
    b1 = np.array([0.95, 1.2, 0.5])
    nfs = normal_forms(ParamGrid.of({**REFERENCE, "s": 2.0, "b1": b1}))
    assert not nfs.ok.any()
    assert not np.isnan(nfs.s0[[0, 2]]).any()
    for i in (0, 2):
        with pytest.raises(ResonanceError) as raised:
            compute_normal_form(make_params(2.0, b1=float(b1[i])))
        assert isinstance(nfs.errors[i], ResonanceError)
        assert str(nfs.errors[i]) == str(raised.value)


def test_predicted_amplitude_requires_clean_direction():
    nf = compute_normal_form(make_params(2.0))
    broken = replace(nf, direction=Direction.DEGENERATE)
    with pytest.raises(ValueError):
        predicted_amplitude(broken, 0.01)


def test_degenerate_direction_predicts_no_cycle():
    p = make_params(2.02)
    nf = replace(compute_normal_form(p), direction=Direction.DEGENERATE)
    assert cycle_prediction(nf, 2.02 - nf.s_star, coexistence(p).point) == (None, None)


def test_self_checks_at_the_reference():
    p = make_params(2.0)
    est = coexistence(p)
    nf = compute_normal_form(p)
    checks = self_checks(nf, p, est.point)
    rc, rd = eigen_residuals(linearize(p, est), nf.omega_star, nf.s_star, nf.c_vec, nf.d_vec)
    assert (checks["right_eigenvector_residual"], checks["left_eigenvector_residual"]) == (rc, rd)
    drift = 1j * OMEGA_STAR + S_STAR * DLAMBDA_DS
    assert abs(checks["gamma1_drift_residual"] - abs(GAMMA1 - drift) / abs(GAMMA1)) < 1e-10


def test_compute_normal_form_requires_crossing():
    with pytest.raises(ValueError, match="coexistence"):
        compute_normal_form(make_params(1.0, b1=1.2))
    with pytest.raises(ValueError, match="crossing"):
        compute_normal_form(make_params(1.0, b1=0.0, b2=0.0))


def test_random_draws_are_internally_consistent():
    # residuals, normalization, and the chi1 / root-drift sign agreement
    # across a spread of admissible parameter sets
    rng = np.random.default_rng(17)
    for _ in range(20):
        p, est, cc, cands = draw_with_candidates(rng)
        try:
            nf = compute_normal_form(p)
        except (ValueError, ResonanceError):
            continue
        lin = linearize(p, est)
        rc, rd = eigen_residuals(lin, nf.omega_star, nf.s_star,
                                 nf.c_vec, nf.d_vec)
        assert rc < 1e-9 and rd < 1e-9
        ex = cmath.exp(-1j * nf.omega_star * nf.s_star)
        den = nf.d_vec @ (np.eye(3) + nf.s_star * lin.As * ex) @ nf.c_vec
        assert abs(den - 1.0) < 1e-10
        dl = _dlambda_ds(cc, nf.omega_star, nf.s_star)
        assert abs(nf.Gamma1 - (1j * nf.omega_star + nf.s_star * dl)) < 1e-8
        if abs(dl.real) > 1e-9:
            assert np.sign(nf.chi1) == np.sign(dl.real)
            best = min(cands, key=lambda c: c.delays[0])
            trans = transversality_sign(best.z, cc)
            if trans.value != "Degenerate":
                want = "Positive" if dl.real > 0 else "Negative"
                assert trans.value == want
        assert classify(nf.chi1, nf.chi2) is nf.direction


def test_amplitude_square_root_scaling(delta_amplitude_table):
    # measured cycle amplitude grows like sqrt(delta) past the switch;
    # the five points span a factor five in delta
    deltas = sorted(delta_amplitude_table)
    amps = [delta_amplitude_table[d][1] for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(amps), 1)[0]
    assert 0.4 < slope < 0.6, f"log-log slope {slope:.4f} outside [0.4, 0.6]"
    # at delta = 0.005 the third-order prediction lands within 10 percent
    _, amp, pred = delta_amplitude_table[0.005]
    assert abs(amp / pred - 1.0) < 0.10, (amp, pred)
