//! The test scaffolding of the serving system: fault injectors, load
//! generators and the soaks that prove the robustness contract.
//!
//! None of this ships in `fast-bcnn`; it drives the library's public
//! API from outside, the way a client or an operator would.
//!
//! * [`faults`] — seeded fault injection at every attack surface
//!   (weights, activations, masks, thresholds, artifacts, shards).
//! * [`chaos`] — the resilience chaos soak ([`chaos::run_chaos`]) and the
//!   hot-swap-under-fire soak ([`chaos::run_swap_chaos`]).
//! * [`slo`] — the windowed SLO soak ([`slo::run_slo_soak`]).
//! * [`loadgen`] — the closed/open-loop load generator and the
//!   adversarial client battery.
//! * [`soak`] — the TCP serve soak ([`soak::run_serve_soak`]) and the
//!   shard-supervision soak ([`soak::run_supervise_soak`]).
//!
//! Each soak has one entry point taking its config and the telemetry
//! [`Registry`] to record into; [`record_into`] decides whether that
//! registry has to be installed for the run.

use fast_bcnn::models::ModelKind;
use fast_bcnn::telemetry::{self, InstallGuard, Recorder, Registry};
use fast_bcnn::EngineConfig;
use std::sync::Arc;

pub mod chaos;
pub mod faults;
pub mod loadgen;
pub mod slo;
pub mod soak;

/// Routes the global telemetry recorder into `registry` for as long as
/// the returned guard lives.
///
/// When the installed recorder already aggregates into `registry` —
/// `registry` itself, or a wrapper such as a windowed SLO registry whose
/// sink it is — nothing is installed and `None` comes back: recording
/// through the wrapper keeps its windowed view whole, and installing
/// again would deadlock on the non-reentrant install lock.
pub fn record_into(registry: &Arc<Registry>) -> Option<InstallGuard> {
    (!telemetry::installed_sink_is(registry))
        .then(|| telemetry::install(Arc::clone(registry) as Arc<dyn Recorder>))
}

/// The engine every soak serves: LeNet-5 at `samples` (at least 2) MC
/// samples, calibrated on three, seeded with `seed`.
pub(crate) fn soak_engine_config(seed: u64, samples: usize) -> EngineConfig {
    EngineConfig {
        samples: samples.max(2),
        calibration_samples: 3,
        seed,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    }
}

/// RAII filter over the global panic hook that swallows the harness's
/// own injected panics (payloads starting with `"chaos:"`) so a soak
/// does not flood stderr; every other panic still prints through the
/// previous hook. Restores the default hook on drop.
pub(crate) struct SilencedChaosPanics;

impl SilencedChaosPanics {
    pub(crate) fn install() -> Self {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.starts_with("chaos:")) {
                previous(info);
            }
        }));
        Self
    }
}

impl Drop for SilencedChaosPanics {
    fn drop(&mut self) {
        // Restore the default hook; the previous one is owned by the
        // filtering closure and cannot be recovered, but the default is
        // what every test environment starts from.
        let _ = std::panic::take_hook();
    }
}

#[cfg(test)]
mod tests {
    use super::chaos::{run_chaos, ChaosConfig};
    use super::*;
    use fast_bcnn::telemetry::{ManualClock, WindowedRegistry};

    /// Both ways a caller can already be recording into the registry it
    /// hands a soak: installed directly, or as the sink of an installed
    /// windowed registry (the `slo` soak and `fastbcnn watch`). Either
    /// way nothing re-installs, and counts recorded before the run stay
    /// out of the report.
    #[test]
    fn record_into_reuses_an_installed_sink_and_reports_deltas() {
        let fresh = run_chaos(&ChaosConfig::quick(5), &Arc::new(Registry::new()));
        let plain = Arc::new(Registry::new());
        let windowed = Arc::new(WindowedRegistry::new(
            1_000,
            4,
            Arc::new(ManualClock::new()) as Arc<dyn telemetry::Clock>,
        ));
        let installed: [(Arc<dyn Recorder>, &Arc<Registry>); 2] = [
            (Arc::clone(&plain) as Arc<dyn Recorder>, &plain),
            (Arc::clone(&windowed) as Arc<dyn Recorder>, windowed.total()),
        ];
        for (recorder, registry) in installed {
            let guard = telemetry::install(recorder);
            assert!(record_into(registry).is_none(), "re-installing deadlocks");
            telemetry::counter_add("retry_attempts", &[], 17);
            let report = run_chaos(&ChaosConfig::quick(5), registry);
            drop(guard);
            report.reconcile().unwrap();
            assert_eq!(report.counters, fresh.counters);
            assert!(registry.counter_total("retry_attempts") >= 17);
        }
        let guard = record_into(&plain);
        assert!(guard.is_some(), "an uninstalled registry is installed");
    }
}
