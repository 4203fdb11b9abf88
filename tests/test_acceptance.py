"""End-to-end acceptance checks, one per criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Criteria 1, 2, 3, 5 and 6 run the closed-form checks of `flowbox.verify`,
the same ones `flowbox verify-all` runs, with seeds and time bounds of
their own; 4, 7, 8 and 9 are defined here.  Every check re-derives its
expectations from closed forms or from independent finite differences;
nothing is compared against stored output of the code under test.
"""
import time

import numpy as np

from flowbox import chart as chart_mod
from flowbox import dynsys
from flowbox import kef as kef_mod
from flowbox import refsol as refsol_mod
from flowbox import verify
from flowbox.cli import main
from flowbox.varfit import FitConfig, GridField, diff_axis, fit, loss, loss_gradient


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _report(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


# ---------------------------------------------------------------------------
# 1, 2, 3: the shared checks of flowbox.verify, with their own seeds and
# time bounds


def _shared_check(k, check, seed, time_bound=float("inf")):
    t0 = time.perf_counter()
    ok, detail, metrics = check(seed)
    elapsed = time.perf_counter() - t0
    _report(k, ok and elapsed < time_bound,
            f"{detail}; worst at {metrics['worst_point']}; {elapsed:.2f}s")


def test_acceptance_1_kpde_residuals():
    # closed-form eigenfunctions satisfy the eigenvalue PDE
    _shared_check(1, verify.check_kpde_residuals, 1000, time_bound=5.0)


def test_acceptance_2_chart_vs_closed_form():
    # the characteristics-built chart matches the closed forms
    _shared_check(2, verify.check_chart_vs_refsol, 2000, time_bound=30.0)


def test_acceptance_3_flowbox_law():
    # the flowbox conjugacy law z(flow(x, t)) = z(x) + t e_N
    _shared_check(3, verify.check_flowbox_law, 3000, time_bound=60.0)


# ---------------------------------------------------------------------------
# 4. minimal sets have full-rank differentials


def test_acceptance_4_minimal_set_rank():
    cases = []

    ref_a = refsol_mod.reference("source-a")
    pts_a = [p for p in ref_a.sample_valid(_rng(4000), 50)
             if np.hypot(*p) >= 0.1][:5]
    cases.append(("source-a", ref_a.field,
                  chart_mod.builtin_surface("circle-a"), pts_a))

    ref_b = refsol_mod.reference("hyperbolic-b")
    pts_b = [p for p in ref_b.sample_valid(_rng(4001), 80)
             if min(abs(p[0]), abs(p[1])) >= 0.1][:5]
    cases.append(("hyperbolic-b", ref_b.field,
                  chart_mod.builtin_surface("line-b"), pts_b))

    # eigenvector lines of the symmetric saddle-free node are x1 = +/- x2
    ref_r = refsol_mod.reference("linear-ar")
    pts_r = [p for p in ref_r.sample_valid(_rng(4002), 80)
             if np.hypot(*p) >= 0.1
             and abs(p[0] - p[1]) / np.sqrt(2.0) >= 0.1
             and abs(p[0] + p[1]) / np.sqrt(2.0) >= 0.1][:5]
    cases.append(("linear-ar", ref_r.field,
                  chart_mod.circle_surface(1.0), pts_r))

    detail_parts = []
    ok = True
    for system_id, field, surface, pts in cases:
        assert len(pts) == 5
        built = chart_mod.build_chart(field, surface)
        mset = kef_mod.minimal_set(built, audit_points=pts)
        ratios = [sv[-1] / sv[0] for _, sv in mset.rank_audit]
        ok = ok and mset.independent and mset.rank == field.dim
        ok = ok and all(r >= 1e-6 for r in ratios)
        detail_parts.append(f"{system_id} rank {mset.rank}/{field.dim},"
                            f" min sv ratio {min(ratios):.3g}")
    _report(4, ok, "; ".join(detail_parts) + " (5 audit points each, at least"
            " 0.1 from equilibria and eigen-lines)")


# ---------------------------------------------------------------------------
# 5, 6: shared checks of flowbox.verify again


def test_acceptance_5_orbitwise_counterexample():
    # along-orbit eigen behaviour does not certify the PDE
    _shared_check(5, verify.check_appendix_counterexample, 5000)


def test_acceptance_6_recurrence_audit():
    # the recurrence audit separates rotation sections from cross-sections
    _shared_check(6, verify.check_recurrence_audit, 6000)


# ---------------------------------------------------------------------------
# 7. the variational fit lands in the flowbox basin; singular patch flagged


def _direction_score(grid):
    dirs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hs = grid.spacings
    M = np.zeros((2, 2))
    for i in range(2):
        gi = np.stack(
            [diff_axis(grid.values[i], hs[a], a) for a in range(2)]
        )[:, 1:-1, 1:-1]
        norms = np.sqrt(np.sum(gi ** 2, axis=0))
        for j, d in enumerate(dirs):
            M[i, j] = float(np.mean(
                np.abs(d[0] * gi[0] + d[1] * gi[1]) / np.maximum(norms, 1e-300)
            ))
    return max(min(M[0, 0], M[1, 1]), min(M[0, 1], M[1, 0]))


def test_acceptance_7_variational_fit(ar_fits):
    field = dynsys.builtin("linear-ar")
    box_reg, box_sing = [[4.0, 6.0], [1.0, 3.0]], [[2.5, 3.0], [2.5, 3.0]]
    t0 = time.perf_counter()
    reg = fit(field, box_reg, (64, 64), FitConfig(seed=0))
    sing = fit(field, box_sing, (64, 64), FitConfig(seed=0))
    elapsed = time.perf_counter() - t0
    ar_fits.store(box_reg, reg)
    ar_fits.store(box_sing, sing)

    score = _direction_score(reg.grid)
    monotone = bool(np.all(np.diff(reg.history) <= 0.0))
    reg_ok = (
        reg.iterations_run <= 5000
        and float(np.max(reg.node_mean_a)) <= 1e-2
        and reg.node_mean_b <= 1e-2
        and monotone
        and score >= 0.99
        and not reg.elevated_residual
    )
    sing_ok = sing.elevated_residual or not sing.converged
    ok = reg_ok and sing_ok and elapsed < 120.0
    _report(
        7, ok,
        f"regular patch: node-mean defects {float(np.max(reg.node_mean_a)):.2e}"
        f"/{reg.node_mean_b:.2e} (<= 1e-2), history non-increasing ({monotone}),"
        f" gradient cosine {score:.4f} vs analytic directions (>= 0.99);"
        f" singular patch diagnostic fired ({sing.elevated_residual},"
        f" refinement gain {sing.refinement_gain:.2g}); both fits {elapsed:.1f}s"
        " single-threaded",
    )


# ---------------------------------------------------------------------------
# 8. the analytic loss gradient matches finite differences


def test_acceptance_8_loss_gradient_oracle():
    field = dynsys.builtin("linear-ar")
    box = np.array([[4.0, 6.0], [1.0, 3.0]])
    shape = (7, 9)
    rng = _rng(8000)
    worst = 0.0
    for _ in range(3):
        values = rng.standard_normal((2,) + shape)
        grid = GridField(box=box, values=values)
        grad = loss_gradient(grid, field)
        for _ in range(20):
            d = rng.standard_normal((2,) + shape)
            d /= np.sqrt(np.sum(d * d))
            eps = 1e-6
            tp = loss(GridField(box=box, values=values + eps * d), field)[2]
            tm = loss(GridField(box=box, values=values - eps * d), field)[2]
            fd = (tp - tm) / (2.0 * eps)
            an = float(np.sum(grad * d))
            rel = abs(an - fd) / max(abs(fd), 1e-300)
            worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(
        8, ok,
        f"max relative gradient error {worst:.3g} over 3 states x 20 random"
        " directions (central differences, step 1e-6)",
    )


# ---------------------------------------------------------------------------
# 9. the CLI reproduces its outputs byte for byte


def test_acceptance_9_cli_byte_determinism(tmp_path):
    fit_argv = [
        "varfit", "--system", "linear-ar", "--grid", "4x6x16,1x3x16",
        "--iterations", "1200", "--seed", "0",
    ]
    chart_argv = [
        "chart-build", "--system", "hyperbolic-b", "--surface", "line-b",
        "--grid", "0.8x2x8,0.2x1.2x8",
    ]
    fit_files = ["fit_y.csv", "fit_y.csv.json", "fit_flowbox.csv",
                 "fit_flowbox.csv.json", "loss_history.csv"]
    chart_files = ["chart_grid.csv"]

    identical = []
    for argv, files, tag in ((fit_argv, fit_files, "varfit"),
                             (chart_argv, chart_files, "chart-build")):
        out_a = tmp_path / f"{tag}-a"
        out_b = tmp_path / f"{tag}-b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        for name in files:
            same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
            identical.append((f"{tag}/{name}", same))
    ok = all(same for _, same in identical)
    n_same = sum(1 for _, same in identical if same)
    _report(
        9, ok,
        f"{n_same}/{len(identical)} output files byte-identical across two"
        " runs (grids, sidecars, loss history; manifests excluded as they"
        " carry wall-clock timestamps)",
    )
