//! The main controller π.
//!
//! The paper's π is an RL-trained neural network emitting steering and
//! throttle. This module lets the runtime be driven by either controller
//! family provided by `seo-nn`:
//!
//! * the deterministic [`PotentialFieldController`] (the experiment-harness
//!   default — reproducible and guaranteed-competent), or
//! * a CEM-trained neural [`DrivingPolicy`], which is what the paper's
//!   title refers to by "multi-sensor **neural** controllers".
//!
//! SEO itself is agnostic: it schedules the *perception* models around π,
//! whichever family π belongs to.

use seo_nn::kernel::Kernel;
use seo_nn::policy::{DrivingPolicy, PolicyFeatures, PotentialFieldController};
use seo_sim::vehicle::Control;
use std::fmt;

/// A driving controller π: features in, control action out.
#[derive(Debug, Clone, PartialEq)]
pub enum Controller {
    /// Deterministic potential-field agent.
    PotentialField(PotentialFieldController),
    /// Neural policy (MLP trained with the Cross-Entropy Method).
    Neural(DrivingPolicy),
}

impl Controller {
    /// The paper plans' controller (`tight-margin`): a potential-field
    /// tuning with a 10 m influence radius and an 11 m/s cruise. Like the
    /// paper's RL agent, it passes obstacles closer than the shield would,
    /// so the filtered case measurably increases distances, and thus
    /// sampled δmax, over the unfiltered case (the paper's second key
    /// observation on Fig. 5).
    #[must_use]
    pub fn tight_margin_potential_field() -> Self {
        Self::PotentialField(PotentialFieldController {
            influence_radius: 10.0,
            bearing_cone: 1.2,
            target_speed: 11.0,
            ..PotentialFieldController::default()
        })
    }

    /// A deterministic fixed-seed neural policy (no training run): the
    /// `neural:N` plan cells use this to put the dense-kernel hot path in
    /// the loop — the potential-field controllers contain no dense kernels,
    /// so they cannot exercise a [`Kernel`] backend.
    #[must_use]
    pub fn seeded_neural(seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        Self::Neural(DrivingPolicy::new(&mut StdRng::seed_from_u64(seed)))
    }

    /// Computes the control action for the given features on the [`Kernel`]
    /// backend `K` — what the runtime's monomorphized episode loop calls.
    /// Neural inference runs inside the reused `scratch` workspace; the
    /// potential-field controller contains no dense kernels, so it neither
    /// allocates nor depends on the backend. Bit-identical across backends
    /// by the kernel contract (`seo_nn::kernel`).
    #[must_use]
    pub fn act_scratch_with<K: Kernel>(
        &self,
        features: &PolicyFeatures,
        scratch: &mut seo_nn::InferenceScratch,
    ) -> Control {
        match self {
            Self::PotentialField(pf) => pf.act(features),
            Self::Neural(policy) => policy.act_scratch_with::<K>(features, scratch),
        }
    }
}

impl Default for Controller {
    fn default() -> Self {
        Self::PotentialField(PotentialFieldController::default())
    }
}

impl From<PotentialFieldController> for Controller {
    fn from(pf: PotentialFieldController) -> Self {
        Self::PotentialField(pf)
    }
}

impl From<DrivingPolicy> for Controller {
    fn from(policy: DrivingPolicy) -> Self {
        Self::Neural(policy)
    }
}

impl fmt::Display for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PotentialField(_) => f.write_str("potential-field"),
            Self::Neural(_) => f.write_str("neural-policy"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seo_nn::kernel::ScalarKernel;
    use seo_nn::InferenceScratch;

    fn features() -> PolicyFeatures {
        PolicyFeatures {
            lateral: 0.2,
            heading: 0.1,
            speed: 0.6,
            obstacle_proximity: 0.5,
            obstacle_bearing: -0.3,
            obstacle_lateral: -0.4,
            progress: 0.5,
        }
    }

    fn act(c: &Controller) -> Control {
        c.act_scratch_with::<ScalarKernel>(&features(), &mut InferenceScratch::new())
    }

    #[test]
    fn both_variants_produce_bounded_controls() {
        let mut rng = StdRng::seed_from_u64(1);
        let controllers = [
            Controller::default(),
            Controller::tight_margin_potential_field(),
            Controller::Neural(DrivingPolicy::new(&mut rng)),
        ];
        for c in &controllers {
            let u = act(c);
            assert!(u.steering.abs() <= 1.0, "{c}: steering out of range");
            assert!(u.throttle.abs() <= 1.0, "{c}: throttle out of range");
        }
    }

    #[test]
    fn conversions_and_display() {
        let pf: Controller = PotentialFieldController::default().into();
        assert!(matches!(pf, Controller::PotentialField(_)));
        let mut rng = StdRng::seed_from_u64(2);
        let nn: Controller = DrivingPolicy::new(&mut rng).into();
        assert!(matches!(nn, Controller::Neural(_)));
        assert_eq!(pf.to_string(), "potential-field");
        assert_eq!(nn.to_string(), "neural-policy");
    }

    #[test]
    fn neural_controller_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = Controller::Neural(DrivingPolicy::new(&mut rng));
        assert_eq!(act(&c), act(&c));
    }

    #[test]
    fn clone_roundtrip() {
        let c = Controller::tight_margin_potential_field();
        let back = c.clone();
        assert_eq!(back, c);
    }
}
