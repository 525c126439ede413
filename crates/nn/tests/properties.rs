//! Property-based tests for the kernels and the driving policy, driven by a
//! seeded generator loop (the build has no crates.io access, so no
//! proptest; each case count is high enough to exercise the input space).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seo_nn::kernel::{Kernel, ScalarKernel};
use seo_nn::policy::{DrivingPolicy, PolicyFeatures};
use seo_nn::InferenceScratch;
use seo_sim::vehicle::Control;

const CASES: usize = 200;

fn small_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect()
}

/// Scalar-reference action in a fresh scratch.
fn act(policy: &DrivingPolicy, f: &PolicyFeatures) -> Control {
    policy.act_scratch_with::<ScalarKernel>(f, &mut InferenceScratch::new())
}

/// Features drawn across (and a little beyond) their normal ranges.
fn random_features(rng: &mut StdRng) -> PolicyFeatures {
    PolicyFeatures {
        lateral: rng.gen_range(-1.5..1.5),
        heading: rng.gen_range(-1.5..1.5),
        speed: rng.gen_range(0.0..1.0),
        obstacle_proximity: rng.gen_range(0.0..1.0),
        obstacle_bearing: rng.gen_range(-3.0..3.0),
        obstacle_lateral: rng.gen_range(-1.0..1.0),
        progress: rng.gen_range(0.0..1.0),
    }
}

#[test]
fn matvec_is_linear() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let m: Vec<f64> = (0..18).map(|i| (i as f64) * 0.1 - 0.9).collect();
    for _ in 0..CASES {
        let a = small_vec(&mut rng, 6);
        let b = small_vec(&mut rng, 6);
        let alpha = rng.gen_range(-2.0..2.0);
        // M(alpha a + b) == alpha M a + M b for a fixed 3x6 matrix.
        let combined: Vec<f64> = a.iter().zip(&b).map(|(x, y)| alpha * x + y).collect();
        let matvec = |x: &[f64]| {
            let mut out = [0.0; 3];
            ScalarKernel::matvec(6, &m, x, &mut out);
            out
        };
        let left = matvec(&combined);
        let ma = matvec(&a);
        let mb = matvec(&b);
        for i in 0..3 {
            let right = alpha * ma[i] + mb[i];
            assert!((left[i] - right).abs() < 1e-9, "{} vs {right}", left[i]);
        }
    }
}

#[test]
fn mlp_outputs_are_finite() {
    // Features far outside their normal ranges saturate the tanh layers
    // instead of overflowing into a NaN control.
    let mut case_rng = StdRng::seed_from_u64(4);
    for _ in 0..40 {
        let seed = case_rng.gen_range(0u64..200);
        let policy = DrivingPolicy::new(&mut StdRng::seed_from_u64(seed));
        let x = small_vec(&mut case_rng, PolicyFeatures::DIM);
        let f = PolicyFeatures {
            lateral: x[0] * 1e6,
            heading: x[1] * 1e6,
            speed: x[2] * 1e6,
            obstacle_proximity: x[3] * 1e6,
            obstacle_bearing: x[4] * 1e6,
            obstacle_lateral: x[5] * 1e6,
            progress: x[6] * 1e6,
        };
        let u = act(&policy, &f);
        assert!(u.steering.is_finite() && u.throttle.is_finite(), "{u}");
    }
}

#[test]
fn policy_actions_always_actuatable() {
    let mut case_rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let seed = case_rng.gen_range(0u64..100);
        let lateral = case_rng.gen_range(-1.5..1.5);
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = DrivingPolicy::new(&mut rng);
        let f = PolicyFeatures {
            lateral,
            heading: case_rng.gen_range(-1.5..1.5),
            speed: case_rng.gen_range(0.0..1.0),
            obstacle_proximity: case_rng.gen_range(0.0..1.0),
            obstacle_bearing: case_rng.gen_range(-3.0..3.0),
            obstacle_lateral: lateral * 0.5,
            progress: 0.3,
        };
        let u = act(&policy, &f);
        assert!(u.steering.abs() <= 1.0);
        assert!(u.throttle.abs() <= 1.0);
    }
}

// --- A reused scratch must give the bytes a fresh one gives ---

#[test]
fn forward_in_a_reused_scratch_matches_a_fresh_one_exactly() {
    // One scratch shared by many policies, as a worker's episode scratch is
    // across cells: the last policy to use it leaves nothing behind.
    let mut case_rng = StdRng::seed_from_u64(0xF00D);
    let policies: Vec<DrivingPolicy> = (0..6)
        .map(|seed| DrivingPolicy::new(&mut StdRng::seed_from_u64(seed)))
        .collect();
    let mut scratch = InferenceScratch::new();
    for case in 0..120 {
        let policy = &policies[case % policies.len()];
        let f = random_features(&mut case_rng);
        assert_eq!(
            policy.act_scratch_with::<ScalarKernel>(&f, &mut scratch),
            act(policy, &f),
            "scratch inference must be bit-identical"
        );
    }
}

#[test]
fn act_in_a_reused_scratch_matches_a_fresh_one_exactly() {
    let mut case_rng = StdRng::seed_from_u64(0xCAB);
    for case in 0..40 {
        let mut rng = StdRng::seed_from_u64(case);
        let policy = DrivingPolicy::new(&mut rng);
        let mut scratch = InferenceScratch::new();
        for _ in 0..8 {
            let f = random_features(&mut case_rng);
            assert_eq!(
                policy.act_scratch_with::<ScalarKernel>(&f, &mut scratch),
                act(&policy, &f)
            );
        }
    }
}

// --- Kernel backends must match the scalar reference bit-for-bit ---

#[test]
fn blocked_matvec_is_bit_identical_across_shapes() {
    use seo_nn::kernel::BlockedKernel;
    let mut rng = StdRng::seed_from_u64(0xB10C);
    // Deliberate coverage of non-multiple-of-block-width shapes: odd rows
    // and cols, single-row (1xN), single-column (Nx1), every rows % 4 and
    // cols % 4 residue — plus random shapes.
    let mut shapes = vec![
        (1, 1),
        (1, 9),
        (9, 1),
        (2, 16),
        (3, 3),
        (5, 5),
        (6, 7),
        (7, 6),
        (16, 7),
        (16, 16),
        (17, 13),
    ];
    for _ in 0..CASES {
        shapes.push((rng.gen_range(1usize..24), rng.gen_range(1usize..24)));
    }
    for (rows, cols) in shapes {
        let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = small_vec(&mut rng, cols);
        let mut scalar = vec![f64::NAN; rows];
        let mut blocked = vec![f64::NAN; rows];
        ScalarKernel::matvec(cols, &data, &x, &mut scalar);
        BlockedKernel::matvec(cols, &data, &x, &mut blocked);
        assert_eq!(scalar, blocked, "{rows}x{cols}: blocked must be exact");
    }
}

#[test]
fn kernel_empty_shapes_are_consistent() {
    use seo_nn::kernel::BlockedKernel;
    // The policy's layers have no zero dimension, so the degenerate shapes
    // are pinned at the kernel layer directly: zero rows writes nothing,
    // zero cols writes the empty sum.
    let mut none: [f64; 0] = [];
    ScalarKernel::matvec(3, &[], &[1.0, 2.0, 3.0], &mut none);
    BlockedKernel::matvec(3, &[], &[1.0, 2.0, 3.0], &mut none);
    for n in 1usize..6 {
        let mut scalar = vec![f64::NAN; n];
        let mut blocked = vec![f64::NAN; n];
        ScalarKernel::matvec(0, &[], &[], &mut scalar);
        BlockedKernel::matvec(0, &[], &[], &mut blocked);
        assert_eq!(scalar, vec![0.0; n]);
        assert_eq!(blocked, vec![0.0; n]);
    }
}

#[test]
fn every_backend_reproduces_mlp_and_policy_outputs() {
    use seo_nn::kernel::{BlockedKernel, KernelBackend};
    // Exercised through the enum so a future backend added to ALL fails
    // here until its generic path is wired up everywhere.
    let mut case_rng = StdRng::seed_from_u64(0xD15);
    for case in 0..30 {
        let policy = DrivingPolicy::new(&mut StdRng::seed_from_u64(case));
        let mut scratch = InferenceScratch::new();
        for _ in 0..4 {
            let f = random_features(&mut case_rng);
            let reference = act(&policy, &f);
            for backend in KernelBackend::ALL {
                let got = match backend {
                    KernelBackend::Scalar => {
                        policy.act_scratch_with::<ScalarKernel>(&f, &mut scratch)
                    }
                    KernelBackend::Blocked => {
                        policy.act_scratch_with::<BlockedKernel>(&f, &mut scratch)
                    }
                };
                assert_eq!(got, reference, "{backend} diverged on the policy");
            }
        }
    }
}
