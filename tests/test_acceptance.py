"""Acceptance gate: the eleven release criteria, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria and tolerances:

  C1  pruning == dense quadratic forms, rel 1e-9, 500 random trees, < 60 s
  C2  symmetric-tree closed form vs dense inversion, 1e-10, d in {2,3}^m, m <= 6
  C3  closed-form spectra vs dense eigendecomposition 1e-8; trace 1e-10
  C4  n_e <= kT/t (1000 trees); n_e <= L/T (1000 ultrametric); floor
      (1'V^{-1}1)^{-1} >= t/k; zero violations at 1e-9 slack
  C5  variance decay rates: -1.00 +- 0.05 (q=0.3), ln(0.8)/ln 2 +- 0.02
      (q=0.8), log-corrected slope 1 +- 0.1 (q=0.5), d=2, m in [8,20]
  C6  (n-k) sigma2_hat / sigma2: mean within 5% of n-k, variance within 5%
      of 2(n-k); corr(beta_hat, sigma2_hat) within 3 MC SE of 0; 10^4 reps,
      16 tips, < 60 s
  C7  var(beta_1) within 10% of sigma2 Sigma^{-1}/(n-k-2), n in {32,64,128},
      5000 reps each
  C8  shift-variance floors: (X'V^{-1}X)^{-1}[1,1] >= t1 + t_top/k_top (S)
      and >= t_top/k_top (SB), 200 random configurations, zero violations
  C9  stepwise attains the exhaustive optimum on >= 95% of 100 instances
      (10-12 tips, k in 3..6, both directions); stepwise >= band median
      always; optimum curve nondecreasing in k
  C10 star-tree corrected-vs-standard BIC difference equals
      ln(1+n) - ln(n) exactly; prior determinant identity to 1e-9 on 100
      random shift configurations
  C11 seeded commands byte-identical across reruns and across 1 vs 8 threads
"""

import io
import math
import time
from itertools import product

import numpy as np

from treegls import (
    ShiftSpec,
    bic_corrected_m0,
    bm_covariance,
    ess_intercept,
    ess_lineage,
    exhaustive_design,
    fit_shift_model,
    gls_fit,
    quadratic_forms_dense,
    quadratic_forms_pruning,
    random_design_bands,
    star_tree,
    stepwise_design,
    symmetric_tree_eigenvalues,
    tree_stats,
)
from treegls.cli import parse_args, run
from treegls.gls import _resolve_shift
from treegls.simlab import (
    make_symmetric_tree,
    phase_transition_curve,
    power_law_slope,
    log_corrected_slope,
    random_tree,
    simulate_traits,
    SymmetricTreeSpec,
)

from conftest import shift_pieces


def report(line):
    print(f"[acceptance] {line}")


def usable_focal_nodes(tree):
    return [
        u
        for u in range(tree.n_nodes)
        if not tree.is_tip(u)
        and u != tree.root
        and 0 < len(tree.tips_below(u)) < tree.n_tips
    ]


class TestC1OracleEquivalence:
    def test_pruning_equals_dense(self):
        start = time.time()
        rng = np.random.default_rng(101)
        worst = 0.0
        for case in range(500):
            n = int(rng.integers(2, 65))
            p = int(rng.integers(1, 5))
            tree = random_tree(n, seed=20_000 + case, ultrametric=bool(case % 2))
            X = rng.normal(size=(n, p))
            Y = rng.normal(size=n)
            fp = quadratic_forms_pruning(tree, X, Y)
            fd = quadratic_forms_dense(bm_covariance(tree), X, Y)

            def rel(a, b):
                scale = max(np.max(np.abs(b)), 1e-30)
                return np.max(np.abs(np.asarray(a) - np.asarray(b))) / scale

            worst = max(
                worst,
                rel(fp.xtvix, fd.xtvix),
                rel(fp.xtviy, fd.xtviy),
                rel(fp.ytviy, fd.ytviy),
                rel(fp.logdet_v, fd.logdet_v) if fd.logdet_v != 0 else 0.0,
                rel(fp.one_tvi_one, fd.one_tvi_one),
            )
            assert worst < 1e-9, f"case {case}: relative gap {worst}"
        elapsed = time.time() - start
        assert elapsed < 60.0
        report(f"C1 oracle equivalence: PASS (max rel {worst:.2e}, {elapsed:.1f}s)")


def all_level_specs(max_m, values=(2, 3)):
    for m in range(1, max_m + 1):
        yield from product(values, repeat=m)


class TestC2SymmetricClosedForm:
    def test_scaled_ess_closed_form(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for d in all_level_specs(6):
            t = tuple(float(x) for x in rng.uniform(0.1, 1.0, size=len(d)))
            tree = make_symmetric_tree(SymmetricTreeSpec(d, t))
            closed = 0.0
            prod_d = 1.0
            for di, ti in zip(d, t):
                prod_d *= di
                closed += ti / prod_d
            dense = 1.0 / float(np.sum(np.linalg.inv(bm_covariance(tree))))
            gap = abs(closed - dense) / abs(dense)
            worst = max(worst, gap)
            assert gap < 1e-10, f"d={d}: rel gap {gap}"
        report(f"C2 symmetric closed form: PASS (max rel {worst:.2e})")


class TestC3Spectra:
    def test_spectra_and_trace(self):
        rng = np.random.default_rng(303)
        worst = 0.0
        for d in all_level_specs(6):
            t = tuple(float(x) for x in rng.uniform(0.1, 1.0, size=len(d)))
            pairs = symmetric_tree_eigenvalues(d, t)
            n = int(np.prod(d))
            assert sum(m for _, m in pairs) == n
            trace = sum(lam * m for lam, m in pairs)
            assert abs(trace - n * sum(t)) <= 1e-10 * max(1.0, abs(trace))
            tree = make_symmetric_tree(SymmetricTreeSpec(d, t))
            dense = np.sort(np.linalg.eigvalsh(bm_covariance(tree)))
            closed = np.sort(np.concatenate([[lam] * m for lam, m in pairs]))
            scale = max(1.0, float(dense.max()))
            gap = float(np.max(np.abs(dense - closed))) / scale
            worst = max(worst, gap)
            assert gap < 1e-8, f"d={d}: spectra gap {gap}"
        report(f"C3 spectra: PASS (max rel {worst:.2e})")


class TestC4Bounds:
    def test_bound_suite(self):
        violations = 0
        for case in range(1000):
            tree = random_tree(
                2 + case % 30, seed=40_000 + case, polytomy_prob=0.15
            )
            rep = ess_intercept(tree)
            st = tree_stats(tree)
            if rep.n_e > rep.bound_root + 1e-9:
                violations += 1
            if 1.0 / rep.scaled_ess < st.min_root_edge / st.root_degree - 1e-9:
                violations += 1
        for case in range(1000):
            tree = random_tree(
                2 + case % 30, seed=50_000 + case, ultrametric=True,
                polytomy_prob=0.15,
            )
            rep = ess_intercept(tree)
            st = tree_stats(tree)
            assert rep.bound_length is not None
            if rep.n_e > rep.bound_length + 1e-9:
                violations += 1
            if rep.n_e > rep.bound_root + 1e-9:
                violations += 1
            if 1.0 / rep.scaled_ess < st.min_root_edge / st.root_degree - 1e-9:
                violations += 1
        assert violations == 0
        report("C4 bound suite: PASS (0 violations on 2000 trees)")


class TestC5PhaseTransition:
    def test_rate_regimes(self):
        start = time.time()
        window = range(8, 21)

        curve = phase_transition_curve(2, 0.3, 20, pruning_limit=2 ** 14)
        ns = [p.n for p in curve if p.m in window]
        vs = [p.var_closed for p in curve if p.m in window]
        slope_fast = power_law_slope(ns, vs)
        assert abs(slope_fast + 1.0) <= 0.05

        curve = phase_transition_curve(2, 0.8, 20, pruning_limit=2 ** 14)
        ns = [p.n for p in curve if p.m in window]
        vs = [p.var_closed for p in curve if p.m in window]
        slope_slow = power_law_slope(ns, vs)
        assert abs(slope_slow - math.log(0.8) / math.log(2)) <= 0.02

        curve = phase_transition_curve(2, 0.5, 20, pruning_limit=2 ** 14)
        ns = [p.n for p in curve if p.m in window]
        vs = [p.var_closed for p in curve if p.m in window]
        slope_log = log_corrected_slope(ns, vs)
        assert abs(slope_log - 1.0) <= 0.1

        # Closed form and pruning path agree wherever both are computed
        # (n up to 2^16).
        for q in (0.3, 0.5, 0.8):
            for p in phase_transition_curve(2, q, 16, pruning_limit=2 ** 16):
                if p.var_pruning is not None:
                    assert abs(p.var_closed - p.var_pruning) <= 1e-9 * p.var_closed

        elapsed = time.time() - start
        report(
            "C5 phase transition: PASS "
            f"(slopes {slope_fast:+.4f}, {slope_slow:+.4f}, log {slope_log:+.3f}, "
            f"{elapsed:.1f}s)"
        )


class TestC6DistributionalChecks:
    def test_chi_square_law_and_independence(self):
        start = time.time()
        tree = random_tree(16, seed=606, ultrametric=True)
        reps = 10_000
        sigma2 = 1.3
        X, Y = simulate_traits(
            tree, [0.4, 0.9], np.eye(1), sigma2, seed=77, reps=reps
        )
        k = 2
        dof = 16 - k
        stats = np.empty(reps)
        betas = np.empty((reps, k))
        for r in range(reps):
            fit = gls_fit(tree, np.column_stack([np.ones(16), X[r]]), Y[r])
            stats[r] = fit.dof * fit.sigma2_hat / sigma2
            betas[r] = fit.beta
        mean_gap = abs(stats.mean() - dof) / dof
        var_gap = abs(stats.var(ddof=1) - 2 * dof) / (2 * dof)
        assert mean_gap < 0.05
        assert var_gap < 0.05
        corr_bound = 3.0 / math.sqrt(reps)
        corrs = [
            abs(np.corrcoef(stats, betas[:, j])[0, 1]) for j in range(k)
        ]
        assert all(c < corr_bound for c in corrs)
        elapsed = time.time() - start
        assert elapsed < 60.0
        report(
            "C6 distributional checks: PASS "
            f"(mean gap {mean_gap:.3f}, var gap {var_gap:.3f}, "
            f"max |corr| {max(corrs):.4f}, {elapsed:.1f}s)"
        )


class TestC7SlopeVarianceRate:
    def test_exact_inverse_wishart_rate(self):
        Sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        Sigma_inv = np.linalg.inv(Sigma)
        k = 2
        sigma2 = 0.8
        gaps = []
        for n, seed in ((32, 731), (64, 732), (128, 733)):
            tree = random_tree(n, seed=seed, ultrametric=True)
            X, Y = simulate_traits(
                tree, [0.2, 1.0, -0.5], Sigma, sigma2, seed=seed, reps=5000
            )
            betas = np.empty((5000, k))
            ones = np.ones(n)
            for r in range(5000):
                fit = gls_fit(tree, np.column_stack([ones, X[r]]), Y[r])
                betas[r] = fit.beta[1:]
            mc = betas.var(axis=0, ddof=1)
            theory = sigma2 * np.diag(Sigma_inv) / (n - k - 2)
            gap = np.max(np.abs(mc - theory) / theory)
            gaps.append(gap)
            assert gap < 0.10, f"n={n}: relative gap {gap}"
        report(
            "C7 slope variance rate: PASS (gaps "
            + ", ".join(f"{g:.3f}" for g in gaps)
            + ")"
        )


class TestC8ShiftVarianceFloors:
    def test_floors_hold(self):
        rng = np.random.default_rng(808)
        checked = 0
        case = 0
        while checked < 200:
            case += 1
            tree = random_tree(
                6 + case % 15, seed=80_000 + case, ultrametric=bool(case % 2)
            )
            focals = usable_focal_nodes(tree)
            if not focals:
                continue
            focal = focals[int(rng.integers(len(focals)))]
            Y = rng.normal(size=tree.n_tips)
            for mode, floor_fn in (
                ("S", lambda r: r.subtending_length + r.t_top_min / r.k_top),
                ("SB", lambda r: r.t_top_min / r.k_top),
            ):
                spec = ShiftSpec(focal, mode)
                res = _resolve_shift(tree, spec)
                fit = fit_shift_model(tree, None, Y, spec)
                floor = floor_fn(res)
                assert fit.xtvix_inv[1, 1] >= floor - 1e-9, (
                    f"case {case} mode {mode}: "
                    f"{fit.xtvix_inv[1, 1]} < {floor}"
                )
            checked += 1
        report(f"C8 shift variance floors: PASS ({checked} configurations)")


class TestC9DesignOptimizer:
    def test_stepwise_against_oracle_and_bands(self):
        rng = np.random.default_rng(909)
        attempts = 0
        agreements = 0
        gaps = []
        for inst in range(100):
            n = 10 + inst % 3
            tree = random_tree(n, seed=90_000 + inst, ultrametric=True)
            prev_best = -np.inf
            for k in range(3, 7):
                best = exhaustive_design(tree, k)
                assert best.score >= prev_best - 1e-12
                prev_best = best.score
                band = random_design_bands(
                    tree, k, reps=100, seed=int(rng.integers(2 ** 31))
                )
                for direction in ("forward", "backward"):
                    res = stepwise_design(tree, k, direction)
                    attempts += 1
                    assert res.score <= best.score + 1e-12
                    if res.score >= best.score - 1e-9 * abs(best.score):
                        agreements += 1
                    else:
                        gaps.append(1.0 - res.score / best.score)
                    assert band.median <= res.n_e + 1e-9
        rate = agreements / attempts
        assert rate >= 0.95, f"stepwise agreement rate {rate}"
        worst_gap = max(gaps) if gaps else 0.0
        report(
            f"C9 design optimizer: PASS (agreement {rate:.3f}, "
            f"worst miss {worst_gap:.2%})"
        )


class TestC10CorrectedBic:
    def test_star_difference_exact(self):
        rng = np.random.default_rng(1010)
        for n in (10, 37, 100):
            tree = star_tree(n, 1.0)
            Y = rng.normal(size=n)
            fit = gls_fit(tree, np.ones((n, 1)), Y)
            score = bic_corrected_m0(fit, ess_intercept(tree))
            diff = score.bic_corrected - score.bic_standard
            assert abs(diff - (math.log(1 + n) - math.log(n))) < 1e-12

    def test_prior_determinant_identity_100_configs(self):
        rng = np.random.default_rng(1011)
        checked = 0
        case = 0
        worst = 0.0
        while checked < 100:
            case += 1
            tree = random_tree(
                6 + case % 12, seed=100_000 + case, ultrametric=True
            )
            focals = usable_focal_nodes(tree)
            if not focals:
                continue
            focal = focals[int(rng.integers(len(focals)))]
            spec = ShiftSpec(focal, "SB")
            res = _resolve_shift(tree, spec)
            pair = ess_lineage(tree, spec)
            top, bottom = shift_pieces(tree, res.focal_node)
            T_top = tree_stats(top).height_mean
            T = tree_stats(bottom).height_mean
            s_top = pair.top / T_top
            s_bot = pair.bot / T
            W_inv = np.array([[s_top + s_bot, s_top], [s_top, s_top]])
            W_pi = np.array([[T, -T], [-T, T + T_top]])
            lhs = np.linalg.det(W_inv + np.linalg.inv(W_pi)) * np.linalg.det(W_pi)
            rhs = (1 + pair.bot) * (1 + pair.top)
            gap = abs(lhs - rhs) / abs(rhs)
            worst = max(worst, gap)
            assert gap < 1e-9
            checked += 1
        report(f"C10 corrected BIC: PASS (det identity max rel {worst:.2e})")


class TestC11Reproducibility:
    def run_capture(self, argv):
        out = io.StringIO()
        err = io.StringIO()
        status = run(parse_args(argv), out=out, err=err)
        assert status == 0, err.getvalue()
        return out.getvalue()

    def test_seeded_commands_byte_identical(self, tmp_path):
        tree_path = tmp_path / "t.nwk"
        tree_path.write_text(
            "((A:0.5,B:0.5)ab:0.5,(C:0.4,D:0.4)cd:0.6);\n"
        )
        commands = [
            ["simulate", "--tree", str(tree_path), "--seed", "5", "--reps", "4"],
            ["simulate", "--tree", str(tree_path), "--seed", "5",
             "--reps", "4", "--format", "csv"],
            ["design", "--tree", str(tree_path), "--method", "random",
             "--seed", "2", "--reps", "300", "--format", "csv"],
            ["design", "--tree", str(tree_path), "--size", "2",
             "--method", "random", "--seed", "2", "--reps", "300"],
            ["phase", "--d", "2", "--q", "0.8", "--m-max", "20",
             "--format", "csv"],
        ]
        for argv in commands:
            first = self.run_capture(argv)
            second = self.run_capture(argv)
            assert first == second, f"rerun differs for {argv}"
            lo = self.run_capture(argv + ["--threads", "1"])
            hi = self.run_capture(argv + ["--threads", "8"])
            assert lo == hi == first, f"thread count changes output for {argv}"
        report("C11 reproducibility: PASS (reruns and 1 vs 8 threads identical)")
