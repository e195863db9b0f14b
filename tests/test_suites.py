"""Tests for the batch verification suites."""

import numpy as np
import pytest

from meairl.adversarial import gradient_alignment_gap
from meairl.shaping import (INVARIANCE_DP_TOL, check_policy_invariance,
                            q_shift_identity_gap, shape_reward)
from meairl.soft_dp import soft_value_iteration
from meairl.suites import (random_mdp, run_alignment_suite,
                           run_invariance_suite)


class TestRandomMdp:
    def test_instances_are_valid_and_varied(self):
        rng = np.random.default_rng(3)
        sizes = set()
        for _ in range(30):
            mdp = random_mdp(rng)
            sizes.add((mdp.n_states, mdp.n_actions))
            np.testing.assert_allclose(mdp.kernel.sum(axis=-1), 1.0, atol=1e-12)
            np.testing.assert_allclose(mdp.init_dist.sum(), 1.0, atol=1e-12)
        assert len(sizes) > 5

    def test_seeded_draws_are_reproducible(self):
        a = random_mdp(np.random.default_rng(7))
        b = random_mdp(np.random.default_rng(7))
        np.testing.assert_array_equal(a.kernel, b.kernel)
        np.testing.assert_array_equal(a.reward, b.reward)


class TestInvarianceSuite:
    def test_passes_on_small_batch(self):
        report = run_invariance_suite(n_cases=20, seed=0)
        assert report.passed
        assert report.n_cases == 20
        assert report.max_adv_gap <= report.tol
        assert report.max_q_shift_gap <= report.tol
        assert "PASS" in report.summary_line()

    def test_impossible_tolerance_reports_failure(self):
        # gaps are tiny but not exactly zero, so tol=0 must flip the verdict
        report = run_invariance_suite(n_cases=5, tol=0.0, seed=1)
        assert not report.passed
        assert "FAIL" in report.summary_line()

    def test_worst_case_equals_case_by_case_checks(self):
        # the suite solves every case in one stack; case-by-case stacks of one must agree
        rng = np.random.default_rng(4)
        adv_gaps, shift_gaps = [0.0], [0.0]
        for case in range(12):
            mdp = random_mdp(rng)
            phi_scale = 1.0 if case % 2 == 0 else 100.0
            phi = rng.uniform(-phi_scale, phi_scale, size=mdp.n_states)
            shaped = shape_reward(mdp, phi, mdp.kernel)
            [base] = soft_value_iteration([(mdp.kernel, mdp.reward, mdp.discount)],
                                          tol=INVARIANCE_DP_TOL)
            [shaped_values] = soft_value_iteration([(mdp.kernel, shaped, mdp.discount)],
                                                   tol=INVARIANCE_DP_TOL)
            adv_gaps.append(check_policy_invariance(base, shaped_values))
            shift_gaps.append(q_shift_identity_gap(base, shaped_values, phi))
        report = run_invariance_suite(n_cases=12, seed=4)
        assert report.max_adv_gap == max(adv_gaps)
        assert report.max_q_shift_gap == max(shift_gaps)

    def test_same_seed_same_worst_case(self):
        a = run_invariance_suite(n_cases=10, seed=5)
        b = run_invariance_suite(n_cases=10, seed=5)
        assert a.max_adv_gap == b.max_adv_gap
        assert a.max_q_shift_gap == b.max_q_shift_gap


class TestAlignmentSuite:
    def test_passes_against_a_nonzero_mce_side(self):
        report = run_alignment_suite(n_cases=10, seed=0)
        assert report.passed
        assert report.max_gap <= report.tol
        # the identity is checked where the expert and the learner differ,
        # and sample shaping misses it on these stochastic kernels
        assert report.max_mce > 1e6 * report.tol
        assert report.sample_defect > 1e3 * report.tol
        assert "PASS" in report.summary_line()

    def test_worst_case_equals_case_by_case_checks(self):
        # the suite checks every case in one stack; case-by-case stacks of one must agree
        rng = np.random.default_rng(4)
        gaps = []
        for _ in range(6):
            mdp = random_mdp(rng)
            g = rng.uniform(-1.0, 1.0, size=mdp.n_states)
            expert = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
            gaps.append(gradient_alignment_gap([(mdp, g, expert)], dp_tol=INVARIANCE_DP_TOL))
        report = run_alignment_suite(n_cases=6, seed=4)
        assert report.max_gap == max(gap.model[0] for gap in gaps)
        assert report.max_mce == max(gap.mce[0] for gap in gaps)
        assert report.sample_defect == max(gap.sample[0] for gap in gaps)

    def test_default_run_is_pinned(self):
        # the worst gaps of `verify-invariance`'s default alignment run, bit
        # for bit: a change to how the check builds its discriminator or
        # enumerates its batch must not move them, which no tolerance shows
        report = run_alignment_suite(50, seed=0)
        assert report.max_gap == 6.339373470609644e-13
        assert report.sample_defect == 0.18170214048409472
        assert report.max_mce == 0.20951028541225625

    def test_same_seed_same_gaps(self):
        a = run_alignment_suite(n_cases=5, seed=9)
        b = run_alignment_suite(n_cases=5, seed=9)
        assert (a.max_gap, a.max_mce, a.sample_defect) == (b.max_gap, b.max_mce,
                                                          b.sample_defect)


@pytest.mark.parametrize("suite", [run_invariance_suite, run_alignment_suite])
@pytest.mark.parametrize("n_cases", [0, -3])
def test_suite_refuses_fewer_than_one_case(suite, n_cases):
    # a suite over no cases has no verdict to give
    with pytest.raises(ValueError, match="n_cases"):
        suite(n_cases=n_cases)
