//! Deterministic fault injection for the background rebuild worker.
//!
//! [`FaultPlan`] scripts a sequence of [`FaultAction`]s consumed one per
//! rebuild request by a worker spawned through the *production*
//! `BackgroundBuilder::spawn_with_worker` hook — the builder, channels
//! and death-detection paths under test are exactly the shipped ones;
//! only the work function is scripted. Exhausting the script falls back
//! to normal computation, so a plan only describes the interesting
//! prefix.
//!
//! Delays are modelled with rendezvous gates rather than sleeps: a
//! [`FaultAction::HoldThenCompute`] worker blocks on a channel until the
//! test releases (or drops) its [`Gate`], making "the rebuild is slow"
//! a deterministic, schedule-independent state instead of a race.

use sgm_core::background::{run_rebuild, BackgroundBuilder, RebuildRequest};
use sgm_graph::lrd::Clustering;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Releases a held [`FaultAction::HoldThenCompute`] rebuild. Dropping
/// the gate releases it too (the worker treats a closed channel the
/// same as an explicit release).
#[derive(Debug)]
pub struct Gate(Sender<()>);

impl Gate {
    /// Lets the held rebuild proceed.
    pub fn release(self) {
        let _ = self.0.send(());
    }
}

/// One scripted behaviour of the rebuild worker for one request.
#[derive(Debug)]
pub enum FaultAction {
    /// Behave normally: run the real S1+S2 rebuild and return it.
    Compute,
    /// Block until the paired [`Gate`] is released (or dropped), then
    /// compute normally — models a slow rebuild.
    HoldThenCompute(Receiver<()>),
    /// Consume the request and return nothing — models a lost result.
    Drop,
    /// Panic with the given message — models a worker crash. The message
    /// must be recoverable through `WorkerDied::panic`.
    Panic(String),
}

impl FaultAction {
    /// A `HoldThenCompute` action plus the [`Gate`] that releases it.
    pub fn gated() -> (Gate, FaultAction) {
        let (tx, rx) = channel();
        (Gate(tx), FaultAction::HoldThenCompute(rx))
    }
}

/// A scripted sequence of worker behaviours.
#[derive(Debug)]
pub struct FaultPlan {
    actions: VecDeque<FaultAction>,
}

impl FaultPlan {
    /// Builds a plan from the actions to apply, in request order.
    pub fn new(actions: impl IntoIterator<Item = FaultAction>) -> Self {
        FaultPlan {
            actions: actions.into_iter().collect(),
        }
    }

    /// Spawns a `BackgroundBuilder` whose worker follows this script,
    /// computing normally once the script is exhausted. Computation is
    /// the production [`run_rebuild`], so a computed result is exactly
    /// what the real worker would have sent.
    pub fn spawn(self) -> BackgroundBuilder {
        let mut script = self.actions;
        BackgroundBuilder::spawn_with_worker(move |req: &RebuildRequest| -> Option<Clustering> {
            let action = script.pop_front().unwrap_or(FaultAction::Compute);
            match action {
                FaultAction::Compute => Some(run_rebuild(req)),
                FaultAction::HoldThenCompute(gate) => {
                    // Released or dropped — either way, proceed.
                    let _ = gate.recv();
                    Some(run_rebuild(req))
                }
                FaultAction::Drop => None,
                FaultAction::Panic(msg) => panic!("{msg}"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgm_graph::knn::{KnnConfig, KnnStrategy};
    use sgm_graph::lrd::LrdConfig;
    use sgm_graph::points::PointCloud;
    use sgm_linalg::rng::Rng64;
    use std::sync::Arc;

    fn request(seed: u64) -> RebuildRequest {
        let mut rng = Rng64::new(seed);
        RebuildRequest {
            cloud: Arc::new(PointCloud::uniform_box(120, 2, 0.0, 1.0, &mut rng)),
            knn: KnnConfig {
                k: 5,
                strategy: KnnStrategy::Grid,
                ..KnnConfig::default()
            },
            lrd: LrdConfig::default(),
        }
    }

    #[test]
    fn gated_rebuild_is_held_until_release() {
        let (gate, action) = FaultAction::gated();
        let mut b = FaultPlan::new([action]).spawn();
        assert!(b.request(request(1)).unwrap());
        // While the gate is held the result must not materialise.
        for _ in 0..50 {
            assert!(b.try_take().unwrap().is_none());
            std::thread::yield_now();
        }
        gate.release();
        let out = b.take_blocking().expect("released rebuild completes");
        assert_eq!(out.num_nodes(), 120);
        assert!(!b.is_dead());
    }

    #[test]
    fn dropped_gate_also_releases() {
        let (gate, action) = FaultAction::gated();
        let mut b = FaultPlan::new([action]).spawn();
        assert!(b.request(request(2)).unwrap());
        drop(gate);
        assert!(b.take_blocking().is_ok());
    }

    #[test]
    fn panic_action_kills_the_worker_with_its_message() {
        let mut b = FaultPlan::new([FaultAction::Panic("scripted crash".into())]).spawn();
        assert!(b.request(request(3)).unwrap());
        let err = b.take_blocking().unwrap_err();
        assert_eq!(err.panic.as_deref(), Some("scripted crash"));
        assert!(b.is_dead());
    }

    #[test]
    fn exhausted_script_computes_normally() {
        let mut b = FaultPlan::new([]).spawn();
        assert!(b.request(request(4)).unwrap());
        let out = b.take_blocking().expect("default action is Compute");
        assert_eq!(out.num_nodes(), 120);
    }
}
