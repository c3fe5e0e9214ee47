//! The controller stack: the stock policies that run beside the
//! controller, and their order. Every controller run goes through
//! [`with_controller_stack`], so the stack is defined here only.

use crate::ControlMode;
use asgov_governors::{AdrenoTz, CpubwHwmon};
use asgov_soc::Policy;

/// Run `engine` over the paper's controlled policy stack, in tick
/// order: `cpubw_hwmon` (CPU-only mode only), `msm-adreno-tz`, then
/// `controller`. The stock GPU governor runs in every mode (the GPU is
/// outside the paper's controlled configuration); in CPU-only mode
/// memory bandwidth stays with `cpubw_hwmon` (§V-D).
///
/// `controller` is an [`crate::EnergyController`] or a
/// [`crate::Supervisor`]. The stock governors live on the stack for
/// the call; nothing is allocated. The caller owns the engine call
/// (`sim::run`, `event::run_energy_j`, …), device and workload.
pub fn with_controller_stack<C: Policy, R>(
    mode: ControlMode,
    controller: &mut C,
    engine: impl FnOnce(&mut [&mut dyn Policy]) -> R,
) -> R {
    let mut gpu = AdrenoTz::default();
    match mode {
        ControlMode::Coordinated => engine(&mut [&mut gpu, controller]),
        ControlMode::CpuOnly => engine(&mut [&mut CpubwHwmon::default(), &mut gpu, controller]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgov_soc::Device;

    struct Probe;

    impl Policy for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn tick(&mut self, _device: &mut Device) {}
    }

    #[test]
    fn stack_order_per_mode() {
        let names = |mode| {
            with_controller_stack(mode, &mut Probe, |policies| {
                policies
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(names(ControlMode::Coordinated), ["msm-adreno-tz", "probe"]);
        assert_eq!(
            names(ControlMode::CpuOnly),
            ["cpubw_hwmon", "msm-adreno-tz", "probe"]
        );
    }
}
