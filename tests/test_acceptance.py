"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.

Criterion 9's value check follows the criterion's own oracle, "D equals
the homogeneity degree": D = N = 3 on the cubic flat profile
beta*x1^2*x2+ (whose V+ and Vtilde vanish) and D = 5/2 on the
5/2-homogeneous pointed bubble.  5/2 is the origin scaling power and the
lower bound for N, which the criterion's remainder asserts.  See
docs/decisions.md for the analysis.  All ten criteria are asserted.
"""

import math

import numpy as np

from cornerflow.classify import candidate_densities, classify, frequency_blowup
from cornerflow.eos import (
    EosModel,
    GammaLawMedium,
    IncompressibleMedium,
    invert_density,
    lambda_of,
    lambda_prime,
)
from cornerflow.fields import GridField
from cornerflow.functionals import (
    domain_variation_residual,
    energy_identity_residual,
    first_variation_terms,
    frequency_quantities,
    monotonicity_derivative_check,
    monotonicity_record,
    pohozaev_residual,
)
from cornerflow.legendre import find_theta_star, legendre_P_prime
from cornerflow.profiles import (
    axis_parabola,
    eval_profile,
    eval_profile_gradient,
    flat_origin,
    garabedian_beta0,
    garabedian_bubble,
    profile_field,
    profile_pde_residual,
    stokes_corner,
    theta_star_constants,
)
from cornerflow.solver import MinimizeConfig, minimize_EF

from conftest import bump_phi, gaussian_field, perturbed_flat_field
from oracles import cone_density_constants, lambda_alt

SQRT3_3 = math.sqrt(3.0) / 3.0
INC = IncompressibleMedium(1.0)
G2 = EosModel(gamma=2.0, A=1.0, rho_bar0=1.0, g=1.0)
G14 = EosModel(gamma=1.4, A=2.0, rho_bar0=1.0, g=1.0)


def report(num, checks):
    ok = all(c[1] for c in checks)
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}")
    for name, good, detail in checks:
        print(f"  [{'ok' if good else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} failed: " + "; ".join(n for n, g, _ in checks if not g)


def test_criterion_01_theta_star():
    c = find_theta_star()
    resid = abs(float(legendre_P_prime(1.5, c.s_star)))
    checks = [
        ("theta* = 114.799 deg +- 0.01", abs(c.theta_star_deg - 114.799) <= 0.01,
         f"{c.theta_star_deg:.6f} deg"),
        ("P'_{3/2}(s*) = 0 to 1e-12", resid <= 1e-12, f"{resid:.2e}"),
    ]
    report(1, checks)


# each nonzero density that classify reads, by its kind and label: its report line and its cone
_CONES = {
    ("stagnation", "StokesCorner"): ("stokes cone", "stokes_cone_x2"),
    ("stagnation", "HorizontalFlat"): ("full disk (stagnation)", "full_disk_x2"),
    ("axis", "AxisParabola"): ("half disk (axis)", "half_disk_x1"),
    ("origin", "HorizontalFlat"): ("quarter disk (origin flat)", "quarter_disk_x1x2"),
    ("origin", "GarabedianBubble"): ("bubble cone m0 = s*^2/8", "garabedian_cone_x1x2"),
}


def test_criterion_02_density_constants():
    quad = cone_density_constants()
    table = {(kind, label): value for kind in ("stagnation", "axis", "origin")
             for label, value in candidate_densities(kind) if value != 0.0}
    assert table.keys() == _CONES.keys(), f"classify's nonzero densities: {sorted(table)}"
    checks = []
    rel = 0.0
    for key, (name, cone) in _CONES.items():
        got, want = table[key], quad[cone]
        checks.append((name, abs(got - want) <= 1e-6,
                       f"{key[1]} {got:.12f} vs quadrature {want:.12f}, gap {abs(got - want):.1e}"))
        rel = max(rel, abs(got - want) / want)
    # the five gaps measure 1.7e-15 relative or less: 1e-13 is no tighter, so a last-bit
    # change in numpy or libm cannot fail it
    checks.append(("all five within 1e-13 relative of the quadrature", rel <= 1e-13,
                   f"max relative gap {rel:.1e}"))
    report(2, checks)


def test_criterion_03_beta_normalization():
    beta = math.sqrt(7.5)
    x, w = np.polynomial.legendre.leggauss(96)
    th = 0.25 * math.pi * (x + 1.0)  # the x2 > 0 quarter, angle from +x2 axis
    arc = 0.25 * math.pi * float(np.dot(w, np.sin(th) ** 3 * np.cos(th) ** 2))
    norm_sq = beta**2 * arc
    checks = [
        ("beta^2 = 15/2 confirmed by arc quadrature", abs(beta**2 * arc - 1.0) <= 1e-8
         and abs(arc - 2.0 / 15.0) <= 1e-10, f"arc = {arc:.12f}"),
        ("||beta x1^2 x2+||_w(arc) = 1 to 1e-8", abs(norm_sq - 1.0) <= 1e-8,
         f"norm^2 = {norm_sq:.12f}"),
    ]
    report(3, checks)


def test_criterion_04_eos_identities():
    err_diag = max(
        abs(invert_density(G2, float(t), float(t)).rho - 1.0)
        for t in np.linspace(0.0, 0.9, 100)
    )
    sign_ok = True
    fd_err = 0.0
    eps = 1e-6
    for t, s in [(0.01, 0.05), (0.1, 0.3), (0.0, 0.5), (0.2, 0.6)]:
        st = invert_density(G2, t, s)
        sign_ok &= st.d1H < 0 and st.d_rho_d_height < 0
        d1_fd = (
            invert_density(G2, t + eps, s).rho - invert_density(G2, max(t - eps, 0), s).rho
        ) / (eps + min(t, eps))
        d2_fd_phys = (
            invert_density(G2, t, s - eps).rho - invert_density(G2, t, s + eps).rho
        ) / (2 * eps)
        fd_err = max(fd_err, abs(st.d1H - d1_fd) / abs(d1_fd))
        fd_err = max(fd_err, abs(st.d_rho_d_height - d2_fd_phys) / abs(d2_fd_phys))
    lam_gap = max(
        abs(lambda_of(G2, float(x)) - lambda_alt(G2, float(x)))
        for x in np.linspace(0.0, 0.9, 100)
    )
    lamp_err = 0.0
    for x2 in (0.1, 0.3, 0.6):
        fd = (lambda_of(G2, x2 + 1e-5) - lambda_of(G2, x2 - 1e-5)) / 2e-5
        lamp_err = max(lamp_err, abs(lambda_prime(G2, x2) - fd) / abs(fd))
    checks = [
        ("H(t;t) = rho_bar0 to 1e-10 on 100 samples", err_diag <= 1e-10, f"{err_diag:.2e}"),
        ("d1H < 0 and physical d2 < 0 at all samples", sign_ok, "signs per the subsonic branch"),
        ("H-derivatives match finite differences to 1e-6", fd_err <= 1e-6, f"{fd_err:.2e}"),
        ("two lambda expressions agree to 1e-9 on 100 points", lam_gap <= 1e-9, f"{lam_gap:.2e}"),
        ("lambda' matches finite differences to 1e-6", lamp_err <= 1e-6, f"{lamp_err:.2e}"),
    ]
    report(4, checks)


def test_criterion_05_profile_correctness():
    rng = np.random.default_rng(17)
    hom_err = 0.0
    for spec in (stokes_corner(), axis_parabola(1.0), garabedian_bubble(), flat_origin()):
        for _ in range(100):
            x1 = rng.uniform(-0.5, 1.0)
            x2 = rng.uniform(-1.0, 1.0)
            lam = 10.0 ** rng.uniform(-1.0, 1.0)
            u0 = float(eval_profile(spec, x1, x2))
            u1 = float(eval_profile(spec, lam * x1, lam * x2))
            if abs(u1) > 0:
                hom_err = max(hom_err, abs(u1 - lam**spec.degree * u0) / abs(u1))
    pde_ok = True
    pde_detail = []
    for spec, pt in [
        (stokes_corner(), (0.3, 0.7)),
        (axis_parabola(1.0), (0.5, 0.2)),
        (garabedian_bubble(), (0.35, -0.55)),
        (flat_origin(), (0.5, 0.6)),
    ]:
        scale = max(abs(float(eval_profile(spec, *pt))), 1.0)
        r = abs(profile_pde_residual(spec, pt))
        pde_ok &= r <= 1e-6 * scale
        pde_detail.append(f"{spec.kind}={r:.1e}")
    gb = garabedian_bubble()
    ratio = abs(profile_pde_residual(gb, (0.35, -0.55), h_fd=0.04)) / max(
        abs(profile_pde_residual(gb, (0.35, -0.55), h_fd=0.02)), 1e-300
    )
    fb_err = 0.0
    for rho in (0.25, 1.0, 4.0):
        for sgn in (1.0, -1.0):
            x1 = rho * math.sin(sgn * math.pi / 3)
            x2 = rho * math.cos(sgn * math.pi / 3)
            g1, g2 = eval_profile_gradient(stokes_corner(), x1, x2)
            fb_err = max(fb_err, abs(float(g1 * g1 + g2 * g2) - x2))
    checks = [
        ("homogeneity to 1e-12 (100 random points each)", hom_err <= 1e-12, f"{hom_err:.2e}"),
        ("PDE residuals < 1e-6 * scale (4th-order FD)", pde_ok, ", ".join(pde_detail)),
        ("4th-order convergence observed (ratio > 8)", ratio > 8.0, f"ratio {ratio:.1f}"),
        ("Stokes |grad u|^2 = x2 on the +-60 deg rays to 1e-12", fb_err <= 1e-12, f"{fb_err:.2e}"),
    ]
    report(5, checks)


def test_criterion_06_monotonicity_suite():
    checks = []
    # stagnation: physical-frame Stokes corner at (1, 0)
    stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
    radii = np.geomspace(0.008, 0.08, 24)
    out = monotonicity_derivative_check(stokes, INC, (1.0, 0.0), radii)
    M = out["sweep"].columns["M"]
    k_max = max(
        float(np.max(np.abs(out["sweep"].columns[k]))) for k in ("k1", "k2", "k3", "k4", "k5", "k6")
    )
    checks.append(
        ("stagnation M r-constant within 5e-3 across a decade",
         float(np.max(M) - np.min(M)) <= 5e-3, f"spread {np.max(M) - np.min(M):.2e}")
    )
    checks.append(
        ("stagnation M = sqrt(3) x1/(3 rho0) within 5e-3",
         float(np.max(np.abs(M - SQRT3_3))) <= 5e-3, f"max dev {np.max(np.abs(M - SQRT3_3)):.2e}")
    )
    checks.append(("all K1..K6 below 1e-6", k_max <= 1e-6, f"max {k_max:.2e}"))
    checks.append(
        ("stagnation FD M' matches square + K terms (tol 5e-5)",
         out["max_residual"] <= 5e-5, f"max resid {out['max_residual']:.2e}")
    )
    # axis: alpha x1^2 at (0, 0.5)
    par = profile_field(axis_parabola(0.7))
    radii_a = np.geomspace(0.02, 0.2, 12)
    out_a = monotonicity_derivative_check(par, INC, (0.0, 0.5), radii_a)
    M_a = out_a["sweep"].columns["M"]
    checks.append(
        ("axis M = 2 x2/(3 rho0) (exact field, tol 1e-9)",
         float(np.max(np.abs(M_a - 1.0 / 3.0))) <= 1e-9,
         f"max dev {np.max(np.abs(M_a - 1.0 / 3.0)):.2e}")
    )
    checks.append(
        ("axis FD M' matches RHS (tol 1e-9)", out_a["max_residual"] <= 1e-9,
         f"{out_a['max_residual']:.2e}")
    )
    # origin: pointed bubble
    gara = profile_field(garabedian_bubble())
    out_o = monotonicity_derivative_check(gara, INC, (0.0, 0.0), radii_a)
    M_o = out_o["sweep"].columns["M"]
    c = theta_star_constants()
    target_o = -(1.0 - c.s_star**2) / 8.0
    checks.append(
        ("origin M r-constant at the signed cone value (tol 1e-9)",
         float(np.max(np.abs(M_o - target_o))) <= 1e-9,
         f"M = {M_o[0]:.12f}, signed target {target_o:.12f}")
    )
    checks.append(
        ("origin FD M' matches RHS (tol 1e-9)", out_o["max_residual"] <= 1e-9,
         f"{out_o['max_residual']:.2e}")
    )
    report(6, checks)


def test_criterion_07_pohozaev_and_energy_identities():
    checks = []
    cases = [
        ("stokes", profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0)),
         (1.0, 0.0), "stagnation", 0.015),
        ("axis parabola", profile_field(axis_parabola(0.7)), (0.0, 0.5), "axis", 0.2),
        ("garabedian", profile_field(garabedian_bubble()), (0.0, 0.0), "origin", 0.2),
    ]
    for name, fld, center, kind, r in cases:
        rec = monotonicity_record(fld, INC, center, r)
        p = pohozaev_residual(rec, kind)
        e = energy_identity_residual(rec)
        rel_p = abs(p["residual"]) / p["scale"]
        rel_e = abs(e["residual"]) / e["scale"]
        checks.append(
            (f"{name}: residuals < 1e-5 * scale", rel_p <= 1e-5 and rel_e <= 1e-5,
             f"pohozaev {rel_p:.1e}, energy {rel_e:.1e}")
        )
    # O(h) convergence on solver outputs at two resolutions (radii < delta)
    stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
    res = {}
    for h in (1 / 128, 1 / 256):
        cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, h, stokes.value, medium=INC,
                             max_iter=1500, tol=1e-12, eps_chi=2 * h * h)
        fld, _ = minimize_EF(cfg)
        recs = [monotonicity_record(fld, INC, (1.0, 0.0), r) for r in (0.05, 0.08, 0.11)]
        poh = np.mean([abs(pohozaev_residual(rec, "stagnation")["residual"]) for rec in recs])
        eni = np.mean([abs(energy_identity_residual(rec)["residual"]) for rec in recs])
        res[h] = (poh, eni)
    rp = res[1 / 128][0] / res[1 / 256][0]
    re = res[1 / 128][1] / res[1 / 256][1]
    checks.append(
        ("solver outputs: O(h) convergence ratio > 1.7 at h = 1/128 vs 1/256",
         rp > 1.7 and re > 1.7, f"pohozaev ratio {rp:.2f}, energy ratio {re:.2f}")
    )
    report(7, checks)


def test_criterion_08_first_variation_validator():
    checks = []
    rng = np.random.default_rng(7)
    box = (0.8, 1.8, 0.2, 1.2)
    worst = 0.0
    for i in range(5):
        fld = gaussian_field(rng, box)
        phi, dphi = bump_phi(1.3 + 0.02 * i, 0.7, 0.3, a1=0.1 + 0.01 * i, a2=0.5)
        med = GammaLawMedium(G14) if i in (1, 3) else INC
        out = domain_variation_residual(fld, med, phi, dphi, (*box, 1 / 256), eps=1e-4)
        worst = max(worst, abs(out["mismatch"]))
    checks.append(
        ("analytic total vs flow FD < 1e-4 on 5 random pairs (eps 1e-4, h 1/256)",
         worst <= 1e-4, f"worst mismatch {worst:.2e}")
    )
    # the five mismatches are 6e-8 to 1e-7: 1e-6 keeps a 10x margin and still
    # sees a 1% error in one term (T3's 2t/H as 2.02t/H gives 6.7e-6)
    checks.append(("worst mismatch <= 1e-6", worst <= 1e-6, f"worst mismatch {worst:.2e}"))
    stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
    phi, dphi = bump_phi(1.0, 0.05, 0.25)
    res = {
        h: abs(first_variation_terms(stokes, INC, phi, dphi, (0.5, 1.5, -0.5, 0.5, h))["total"])
        for h in (1 / 128, 1 / 256)
    }
    C = res[1 / 256] / (1 / 256)
    checks.append(
        ("exact-profile residual < C h, decreasing with h",
         res[1 / 256] < res[1 / 128] and res[1 / 256] <= 1e-4,
         f"residuals {res[1/128]:.2e} -> {res[1/256]:.2e}, reported C = {C:.4f}")
    )
    report(8, checks)


def test_criterion_09_frequency_values_as_stated():
    """D(r) and N(r) equal the frequency of a homogeneous blow-up: its degree.

    For u homogeneous of degree alpha and weighted-harmonic in {u > 0},
    integrating by parts gives D(r) = alpha (docs/decisions.md).  On
    beta x1^2 x2+ (degree 3) the positivity set is the whole upper
    half-plane, so V+ = 0, and the medium is incompressible, so
    Vtilde = 0: D = N = 3.  On the pointed bubble (degree 5/2) only D is
    the degree, since V+ > 0 there.  Criterion 5 checks each profile's
    declared degree against its scaling.
    """
    radii = np.geomspace(0.05, 0.5, 12)
    flat_spec = flat_origin()
    sweep = frequency_quantities(profile_field(flat_spec), INC, radii)
    D = sweep.columns["D"]
    N = sweep.columns["N"]
    dev_D = float(np.max(np.abs(D - flat_spec.degree)))
    dev_N = float(np.max(np.abs(N - flat_spec.degree)))
    bubble_spec = garabedian_bubble()
    bubble = frequency_quantities(
        profile_field(bubble_spec), INC, np.geomspace(0.05, 0.5, 6)
    )
    Db = bubble.columns["D"]
    dev_Db = float(np.max(np.abs(Db - bubble_spec.degree)))
    checks = [
        (f"D(r) = degree {flat_spec.degree:g} within 1e-3 on beta x1^2 x2+", dev_D <= 1e-3,
         f"measured D = {D[0]:.12f}; max |D - {flat_spec.degree:g}| = {dev_D:.1e}"),
        (f"N(r) = degree {flat_spec.degree:g} within 1e-3 on beta x1^2 x2+", dev_N <= 1e-3,
         f"measured N = {N[0]:.12f}; max |N - {flat_spec.degree:g}| = {dev_N:.1e}"),
        (f"D(r) = degree {bubble_spec.degree:g} within 1e-3 on the pointed bubble",
         dev_Db <= 1e-3,
         f"measured D = {Db[0]:.12f}; max |D - {bubble_spec.degree:g}| = {dev_Db:.1e}"),
    ]
    # the three deviations measure 1e-14 to 3e-14: 1e-13 of the degree is about 10x the
    # flat profile's (18x the bubble's) and no tighter, so a last-bit change in numpy or
    # libm cannot fail it
    for name, dev, spec in (("D", dev_D, flat_spec), ("N", dev_N, flat_spec), ("D", dev_Db, bubble_spec)):
        where = "beta x1^2 x2+" if spec is flat_spec else "the pointed bubble"
        checks.append((f"max |{name} - {spec.degree:g}| <= 1e-13 x degree on {where}",
                       dev <= 1e-13 * spec.degree, f"{dev:.1e} <= {1e-13 * spec.degree:.1e}"))
    report("9 (value checks)", checks)


def test_criterion_09_frequency_suite_remainder():
    flat = profile_field(flat_origin())
    radii = np.geomspace(0.05, 0.5, 12)
    sweep = frequency_quantities(flat, INC, radii)
    vplus = float(np.max(np.abs(sweep.columns["V_plus"])))
    jmono = bool(np.all(np.diff(sweep.columns["J_scaled"]) > 0))
    nbound = bool(np.all(sweep.columns["N"] >= 2.5 - 1e-3))
    pert = perturbed_flat_field(eps=0.3)
    out = frequency_blowup(pert, INC, np.geomspace(0.05, 0.8, 8))
    df = [rec["deficit"] for rec in out["records"]]
    decreasing = all(a < b for a, b in zip(df, df[1:]))
    checks = [
        ("V+ = 0 on the full-positivity profile", vplus == 0.0, f"max |V+| = {vplus:.1e}"),
        ("r -> r^-5 J(r) nondecreasing", jmono, "monotone"),
        ("N(r) >= 5/2 (the proven lower bound)", nbound, f"min N = {np.min(sweep.columns['N']):.4f}"),
        ("annulus homogeneity deficit decreases along r on the perturbed field",
         decreasing, f"{df[0]:.2e} .. {df[-1]:.2e}"),
    ]
    report("9 (remainder)", checks)


def test_criterion_10_end_to_end_classification():
    h = 1 / 256
    checks = []
    stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0)).resample(
        0.25, 1.75, -0.75, 0.75, h
    )
    res = classify(stokes, (1.0, 0.0))
    checks.append(
        ("Stokes corner field -> StokesCorner, fit residual < 1e-2",
         res.label == "StokesCorner" and res.fit_residual < 1e-2,
         f"label {res.label}, residual {res.fit_residual:.1e}")
    )
    par = profile_field(axis_parabola(0.8)).resample(0.0, 1.0, 0.0, 1.0, h)
    res = classify(par, (0.0, 0.5))
    ok = (
        res.label == "AxisParabola"
        and res.fit_residual < 1e-2
        and abs(res.fit_param - 0.8) / 0.8 <= 0.01
    )
    checks.append(
        ("parabola field -> AxisParabola with alpha within 1%",
         ok, f"label {res.label}, alpha {res.fit_param:.5f} (true 0.8)")
    )
    # alpha's error measures 1.3e-4: 1.3e-3 is 10x that, and sees a 1% error in the
    # axis's unit shape, which moves alpha by 0.99%
    alpha_err = abs(res.fit_param - 0.8) / 0.8
    checks.append(("alpha within 1.3e-3 relative", alpha_err <= 1.3e-3, f"relative error {alpha_err:.2e}"))
    gara = profile_field(garabedian_bubble()).resample(0.0, 1.0, -1.0, 1.0, h)
    res = classify(gara, (0.0, 0.0))
    b0 = garabedian_beta0()
    ok = (
        res.label == "GarabedianBubble"
        and res.fit_residual < 1e-2
        and abs(res.fit_param - b0) / b0 <= 0.01
    )
    checks.append(
        ("bubble field -> GarabedianBubble with beta0 within 1%",
         ok, f"label {res.label}, beta0 {res.fit_param:.5f} (true {b0:.5f})")
    )
    b0_err = abs(res.fit_param - b0) / b0  # measures 3.4e-5: 10x that
    checks.append(("beta0 within 3.4e-4 relative", b0_err <= 3.4e-4, f"relative error {b0_err:.2e}"))
    flat = profile_field(flat_origin()).resample(0.0, 1.0, -1.0, 1.0, h)
    res = classify(flat, (0.0, 0.0))
    checks.append(
        ("flat field -> HorizontalFlat", res.label == "HorizontalFlat", f"label {res.label}")
    )
    zero = GridField.from_function(lambda X1, X2: 0.0 * X1, 0.0, 1.0, -1.0, 1.0, 1 / 128)
    res = classify(zero, (0.0, 0.0))
    checks.append(("zero field -> Cusp", res.label == "Cusp", f"label {res.label}"))
    report(10, checks)
