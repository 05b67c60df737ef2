"""Acceptance gate: nine pinned behaviors, one PASS/FAIL line each.

Every test computes its quantities, records the verdict for the
terminal summary (see conftest), then asserts. The tolerances here are
contractual: a red line means the package genuinely does not reproduce
the pinned behavior, and the assertion message carries the measured
evidence. Do not loosen a tolerance to turn a line green.

Criteria 3, 5 and 6 hold the normal form to what it promises near the
switch. The amplitude-equation coefficients are checked against oracles
that do not use the normal-form code: the crossing root tracked on the
characteristic function, and the cycle measured in the time domain.
The period is checked against the amplitude equation's T(delta), since
2*pi/omega is only its onset limit. The square-root law is measured at
five offsets where the bounded cycle exists; the larger offsets 0.02
and 0.05 lie past its end and must blow up.
"""

import math
import time

import numpy as np

from infodelay import (
    Classification,
    Direction,
    HistorySpec,
    ModelParams,
    SimulationDiverged,
    Stability,
    char_coeffs,
    char_value,
    coexistence,
    compute_normal_form,
    eigen_residuals,
    equilibria,
    estar_exists,
    fft_period,
    left_eigvec,
    linearize,
    right_eigvec,
    s0,
    simulate,
)
from conftest import (
    ESTAR,
    OMEGA_STAR,
    S_STAR,
    draw_with_candidates,
    make_params,
    record_criterion,
)


def test_criterion_1_reference_coexistence_point():
    est = equilibria(make_params(2.0))[3]
    err = float(np.max(np.abs(np.asarray(est.point) - ESTAR)))
    ok = est.exists and err < 1e-12
    record_criterion("1 coexistence point equals (1, 1, 1/6)", ok,
                     f"max abs err {err:.2e}, tol 1e-12")
    assert ok, f"point {tuple(est.point)}, exists={est.exists}, err {err:.3e}"


def test_criterion_2_first_crossing():
    got = s0(make_params(2.0))
    assert got is not None
    s_base, cand = got
    err_om = abs(cand.omega - 0.2004)
    err_s = abs(s_base - 2.015)
    ok = err_om < 1e-3 and err_s < 1e-2
    record_criterion("2 first crossing near omega=0.2004, s0=2.015", ok,
                     f"omega={cand.omega:.6f}, s0={s_base:.6f}")
    assert ok, (f"omega {cand.omega} (err {err_om:.2e}, tol 1e-3), "
                f"s0 {s_base} (err {err_s:.2e}, tol 1e-2)")


def _track_root(coeffs, lam, s):
    """Newton on char_value for the characteristic root near lam at delay s."""
    for _ in range(50):
        slope = (char_value(lam + 1e-6, s, coeffs)
                 - char_value(lam - 1e-6, s, coeffs)) / 2e-6
        step = char_value(lam, s, coeffs) / slope
        lam -= step
        if abs(step) < 1e-15:
            break
    return lam


def test_criterion_3_amplitude_equation_coefficients(cycle_run):
    # This criterion once pinned Gamma1 = 2.9590 - 3.3311i and
    # Gamma2 = (1.3813 - 5.0586i)e-3. No document states their
    # convention, and none reachable from the documented one fits:
    # Gamma1 is the invariant i*omega + s*dlambda/ds, and those digits
    # are it times 10.03*exp(-60.4 deg i), which no scaling of the
    # eigenvectors produces; as an amplitude-equation pair they predict
    # a period of 28.9 at s = 2.02, where 34.36 is measured.
    params = make_params(2.0)
    nf = compute_normal_form(params)
    estar = coexistence(params)

    # Gamma1: delay drift of the crossing root, by central difference
    ds = 1e-4
    cc = char_coeffs(params, estar)
    dlam = (_track_root(cc, 1j * OMEGA_STAR, S_STAR + ds)
            - _track_root(cc, 1j * OMEGA_STAR, S_STAR - ds)) / (2.0 * ds)
    oracle1 = 1j * OMEGA_STAR + S_STAR * dlam

    # Gamma2 from the measured cycle: the radius rho = sqrt(delta*chi1/chi2)
    # gives the u half-amplitude 2*rho*|c1|, the phase drift
    # delta*(Im Gamma1 - Im Gamma2*chi1/chi2) in t/s shifts the period
    _, metrics = cycle_run
    s = 2.02
    delta = s - S_STAR
    c1 = right_eigvec(linearize(params, estar), OMEGA_STAR, S_STAR)[0]
    oracle_chi2 = delta * oracle1.real * (2.0 * abs(c1) / metrics.amplitude[0]) ** 2
    drift = 2.0 * math.pi * s / metrics.period - OMEGA_STAR * S_STAR
    oracle_ratio = (oracle1.imag - drift / delta) / oracle1.real

    def rel(got, want):
        return abs(got - want) / abs(want)

    ratio = nf.Gamma2.imag / nf.Gamma2.real
    errs = {"Re Gamma1": rel(nf.Gamma1.real, oracle1.real),
            "Im Gamma1": rel(nf.Gamma1.imag, oracle1.imag),
            "Re Gamma2": rel(nf.chi2, oracle_chi2),
            "Im/Re Gamma2": rel(ratio, oracle_ratio)}
    coeffs_ok = max(errs.values()) <= 0.20
    direction_ok = nf.direction is Direction.SUPERCRITICAL
    ok = coeffs_ok and direction_ok
    record_criterion(
        "3 amplitude-equation coefficients match independent oracles", ok,
        f"Gamma1={nf.Gamma1:.4f} vs root drift {oracle1:.4f}, "
        f"Re Gamma2={nf.chi2:.2f} vs amplitude {oracle_chi2:.2f}, "
        f"Im/Re Gamma2={ratio:.2f} vs period {oracle_ratio:.2f}, "
        f"direction={nf.direction.value}")
    errs_text = ", ".join(f"{k} {v:.3f}" for k, v in errs.items())
    assert ok, (
        f"Gamma1 = {nf.Gamma1} vs i*omega + s*dlambda/ds = {oracle1} from "
        f"root tracking; Re Gamma2 = {nf.chi2} vs {oracle_chi2} implied by "
        f"the measured u-amplitude {metrics.amplitude[0]:.4f} at s = 2.02; "
        f"Im/Re Gamma2 = {ratio} vs {oracle_ratio} implied by the measured "
        f"period {metrics.period:.4f}. Relative errors: {errs_text} "
        f"(tol 0.20 each); direction = {nf.direction.value} "
        f"(Supercritical required).")


def test_criterion_4_dichotomy_across_crossing(settle_run, cycle_run):
    _, m_settle = settle_run
    _, m_cycle = cycle_run
    ok = (m_settle.classification is Classification.CONVERGES
          and m_cycle.classification is Classification.SUSTAINED)
    record_criterion(
        "4 settles at s=2.00, oscillates at s=2.02", ok,
        f"s=2.00 -> {m_settle.classification.value}, "
        f"s=2.02 -> {m_cycle.classification.value}")
    assert ok, (f"s=2.00 classified {m_settle.classification.value}, "
                f"s=2.02 classified {m_cycle.classification.value}")


def test_criterion_5_cycle_period(cycle_run, reference_nf):
    traj, metrics = cycle_run
    nf = reference_nf
    # T(delta) of the amplitude equation (see the normal_form docstring):
    # onset rate omega*s* plus the phase drift, both in tau = t/s
    delta = 2.02 - nf.s_star
    drift = delta * (nf.Gamma1.imag - nf.Gamma2.imag * nf.chi1 / nf.chi2)
    predicted = 2.0 * math.pi * (nf.s_star + delta) / (
        nf.omega_star * nf.s_star + drift)
    linear_period = 2.0 * math.pi / OMEGA_STAR
    n = len(traj.states)
    fft_est = fft_period(traj.states[n // 2:, 0], traj.step)
    rel_pred = abs(metrics.period - predicted) / predicted
    rel_fft = abs(metrics.period - fft_est) / metrics.period
    ok = rel_pred <= 0.05 and rel_fft <= 0.02
    record_criterion(
        "5 cycle period within 5% of the amplitude equation's T(delta)", ok,
        f"measured {metrics.period:.4f}, T(delta) {predicted:.4f} "
        f"({rel_pred:.1%}), onset 2*pi/omega {linear_period:.4f}, "
        f"fft gap {rel_fft:.2%}")
    assert ok, (
        f"peak-spacing period {metrics.period:.4f} vs the amplitude "
        f"equation's T(delta = {delta:.4f}) = {predicted:.4f}: rel err "
        f"{rel_pred:.2%} (tol 5%); FFT estimate {fft_est:.4f} vs peak "
        f"spacing: {rel_fft:.2%} (tol 2%). The onset limit 2*pi/omega = "
        f"{linear_period:.4f} holds only as delta -> 0.")


def test_criterion_6_amplitude_scaling(reference_nf, delta_amplitude_table):
    t0 = time.perf_counter()
    deltas = [0.002, 0.0032, 0.005, 0.008, 0.01]
    measured = {d: delta_amplitude_table[d][1] for d in deltas}
    sustained = all(delta_amplitude_table[d][0] is Classification.SUSTAINED
                    for d in deltas)
    # past delta of about 0.015 the bounded cycle is gone: the orbit
    # leaves the positive orthant and blows up in finite time
    hist = HistorySpec.constant(1.01, 0.99)
    blowups = dict.fromkeys((0.02, 0.05))
    for d in blowups:
        try:
            simulate(make_params(reference_nf.s_star + d), hist, 5000.0, 200)
        except SimulationDiverged as exc:
            blowups[d] = exc.time
    elapsed = time.perf_counter() - t0

    slope = float(np.polyfit(np.log(deltas),
                             np.log(list(measured.values())), 1)[0])
    _, amp5, pred5 = delta_amplitude_table[0.005]
    match5 = abs(amp5 / pred5 - 1.0)
    diverged = all(t is not None for t in blowups.values())

    ok = (sustained and 0.4 <= slope <= 0.6
          and match5 <= 0.25 and diverged and elapsed < 60.0)
    record_criterion(
        "6 amplitude grows like sqrt(delta) across five offsets", ok,
        f"deltas {deltas}, slope {slope:.3f}, match at 0.005 {match5:.1%}, "
        f"delta 0.02/0.05 diverge at "
        + "/".join("-" if t is None else f"{t:.1f}" for t in blowups.values())
        + f", {elapsed:.0f}s")
    table = "; ".join(
        f"delta={d}: {delta_amplitude_table[d][0].value} amp={measured[d]:.4f}"
        for d in deltas)
    assert ok, (
        f"amplitude table [{table}]; log-log slope {slope:.4f} (required "
        f"0.5 +- 0.1 over five sustained offsets); prediction match at "
        f"delta=0.005 {match5:.2%} (tol 25%); divergence times past the "
        f"end of the cycle {blowups} (both required); elapsed "
        f"{elapsed:.0f}s (limit 60s).")


def test_criterion_7_distributed_memory_equivalence(reduction_pair):
    lumped, distributed = reduction_pair
    gap = float(np.abs(lumped.states[:, :2] - distributed.states[:, :2]).max())
    ok = gap <= 1e-4
    record_criterion("7 distributed memory reproduces lumped run to 1e-4", ok,
                     f"max (u, v) gap {gap:.2e} over [0, 500]")
    assert ok, f"max (u, v) gap {gap:.3e} (tol 1e-4)"


def test_criterion_8_crossing_residuals_on_random_draws():
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst_char = worst_split = worst_eig = 0.0
    n_points = 0
    for _ in range(100):
        p, est, cc, cands = draw_with_candidates(rng)
        lin = linearize(p, est)
        for cand in cands:
            z, om = cand.z, cand.omega
            a = cc.q0 - cc.q2 * z
            b = cc.q1 * om
            rr = cc.p2 * z - cc.p0
            ii = om * z - cc.p1 * om
            for s in cand.delays:
                n_points += 1
                worst_char = max(worst_char, abs(char_value(1j * om, s, cc)))
                th = om * s
                worst_split = max(
                    worst_split,
                    abs(a * math.cos(th) + b * math.sin(th) - rr),
                    abs(b * math.cos(th) - a * math.sin(th) - ii))
                c = right_eigvec(lin, om, s)
                d = left_eigvec(lin, om, s)
                worst_eig = max(worst_eig, *eigen_residuals(lin, om, s, c, d))
    elapsed = time.perf_counter() - t0
    ok = (worst_char < 1e-8 and worst_split < 1e-8 and worst_eig < 1e-9
          and elapsed < 10.0)
    record_criterion(
        "8 crossing residuals below 1e-8/1e-9 on 100 draws", ok,
        f"{n_points} ladder points, char {worst_char:.1e}, "
        f"split {worst_split:.1e}, eig {worst_eig:.1e}, {elapsed:.1f}s")
    assert ok, (f"worst residuals over {n_points} ladder points: "
                f"characteristic {worst_char:.3e} (tol 1e-8), split "
                f"{worst_split:.3e} (tol 1e-8), eigenvector {worst_eig:.3e} "
                f"(tol 1e-9), elapsed {elapsed:.1f}s (limit 10s)")


def test_criterion_9_existence_and_zero_delay_verdicts():
    # the boundary-equilibrium verdict must flip exactly at b1 = a2
    a2 = 1.045
    flip_ok = (
        equilibria(make_params(1.0, b1=math.nextafter(a2, 0.0)))[2]
        .local_stability is Stability.UNSTABLE
        and equilibria(make_params(1.0, b1=a2))[2]
        .local_stability is Stability.UNDETERMINED
        and equilibria(make_params(1.0, b1=math.nextafter(a2, 2.0)))[2]
        .local_stability is Stability.STABLE)

    rng = np.random.default_rng(99)
    disagreements = 0
    for _ in range(1000):
        p = ModelParams(
            r1=rng.uniform(0.1, 1.0), r2=rng.uniform(0.1, 1.0),
            a1=rng.uniform(0.01, 0.3), a2=rng.uniform(0.5, 1.5),
            b1=rng.uniform(0.0, 2.0), b2=rng.uniform(-1.0, 1.0),
            mu=rng.uniform(0.1, 3.0), r=rng.uniform(0.1, 5.0), s=1.0)
        mr = p.mu + p.r
        want = (p.b1 < p.a2) and (p.a1 * p.a2 * mr
                                  > max(-p.b1 * p.b2, -p.a2 * p.b2))
        if equilibria(p)[3].exists != want or estar_exists(p) != want:
            disagreements += 1
    ok = flip_ok and disagreements == 0
    record_criterion(
        "9 existence predicate and boundary verdict flip", ok,
        f"flip at b1=a2 {'ok' if flip_ok else 'WRONG'}, "
        f"{disagreements}/1000 predicate disagreements")
    assert ok, (f"verdict flip at b1=a2 ok={flip_ok}; "
                f"{disagreements}/1000 draws disagree with the literal "
                f"existence predicate")
