//! # fle-harness — deterministic parallel trial execution
//!
//! Every experiment in the reproduction is a Monte-Carlo estimate over
//! thousands of simulated executions. This crate is the batch engine under
//! all of them: it fans `trials` independent simulations out across worker
//! threads and aggregates the outcomes into a [`TrialReport`], with two
//! hard guarantees:
//!
//! 1. **Bit-determinism.** Each trial's seed is a pure function of
//!    `(base_seed, trial_index)` ([`trial_seed`]), trial results are
//!    collected into their index slot, and aggregation walks the slots in
//!    index order — so a batch produces *byte-identical* output no matter
//!    how many threads run it or how they interleave.
//! 2. **Allocation reuse.** Each worker thread owns one reusable
//!    [`ring_sim::Engine`] (preallocated link queues and adjacency
//!    tables), so per-trial setup cost is the node behaviours only, not
//!    the whole simulator working set.
//!
//! ## Layers
//!
//! * [`run_batch`] — the generic core: per-worker state + per-trial
//!   closure → results in trial order.
//! * [`par_seeds`] — the legacy `fle-experiments` surface, now a thin
//!   wrapper over [`run_batch`] (seeds are the raw trial indices, for
//!   compatibility with the recorded experiment tables).
//! * [`run_sweep_partial`] — the one sweep runner: build a [`SweepSpec`]
//!   (an honest [`HonestSweep`], an adversarial [`AttackSweep`] or a
//!   tree-dictator [`TreeSweep`]) and run any contiguous trial range of it
//!   into a mergeable [`ReportPartial`] with exact metric histograms;
//!   disjoint partials [`merge`](ReportPartial::merge) in any order and
//!   [`finish`](ReportPartial::finish) to bytes identical to the
//!   monolithic run. Panicking trials are contained per-trial as recorded
//!   [`TrialFault`]s instead of aborting the sweep.
//! * [`run_sweep`] — the full range, finished into a [`TrialReport`] with
//!   per-node win counts, failure counts, message/step summaries and
//!   percentiles — plus, for adversarial grids, attack success counts
//!   with Wilson 95% CIs — serializable to JSON ([`TrialReport::to_json`])
//!   and CSV ([`TrialReport::to_csv`]). Specs round-trip through
//!   deterministic JSON ([`SweepSpec::to_json`] /
//!   [`SweepSpec::parse_json`]) and are reference-checked by
//!   [`SweepSpec::validate`].
//! * [`run_sweep_checkpointed`] — atomic-file checkpoint/resume on top of
//!   [`run_sweep_partial`].
//!
//! ## Example
//!
//! ```
//! use fle_harness::{BatchConfig, HonestSweep, ProtocolKind, SweepSpec, run_sweep};
//!
//! let spec = SweepSpec::Honest(HonestSweep {
//!     protocol: ProtocolKind::PhaseAsyncLead,
//!     n: 8,
//!     fn_key: 9,
//!     batch: BatchConfig { trials: 64, base_seed: 1, threads: 2 },
//!     batch_width: 0, // 0 = default lockstep width; results are width-invariant
//!     schedule: fle_harness::ScheduleSpec::Fifo,
//!     fault: None,
//! });
//! let report = run_sweep(&spec).expect("valid spec");
//! assert_eq!(report.trials, 64);
//! assert_eq!(report.wins.iter().sum::<u64>() + report.fails.total(), 64);
//! // Identical regardless of thread count:
//! let serial = run_sweep(&SweepSpec::Honest(HonestSweep {
//!     protocol: ProtocolKind::PhaseAsyncLead,
//!     n: 8,
//!     fn_key: 9,
//!     batch: BatchConfig { trials: 64, base_seed: 1, threads: 1 },
//!     batch_width: 0,
//!     schedule: fle_harness::ScheduleSpec::Fifo,
//!     fault: None,
//! }))
//! .expect("valid spec");
//! assert_eq!(report.to_json(), serial.to_json());
//! // ... and regardless of how the trial range is sharded:
//! let mut left = fle_harness::run_sweep_partial(&spec, 0, 40).expect("valid range");
//! let right = fle_harness::run_sweep_partial(&spec, 40, 64).expect("valid range");
//! left.merge(&right).expect("disjoint shards");
//! assert_eq!(left.finish().expect("full coverage").to_json(), report.to_json());
//! // Specs round-trip through JSON for scenario files:
//! assert_eq!(fle_harness::SweepSpec::parse_json(&spec.to_json()), Ok(spec));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod batch;
mod checkpoint;
mod digest;
mod json;
mod partial;
mod report;
mod spec;
mod sweep;
mod tree;

pub use batch::{
    batched_trials, default_threads, par_seeds, run_batch, run_batch_range,
    run_batch_range_grouped, set_default_threads, BatchConfig, TrialFault,
};
pub use checkpoint::{
    run_sweep_checkpointed, write_checkpoint, CheckpointedRun, SweepCheckpoint, CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
};
pub use digest::sha256_hex;
pub use json::Json;
pub use partial::{ReportPartial, PARTIAL_FORMAT, PARTIAL_VERSION};
pub use report::{
    wilson_ci95, AttackSummary, FailCounts, FaultSummary, MetricSummary, TrialOutcome, TrialReport,
};
pub use spec::{
    protocol_key, AttackSweep, CoalitionSpec, FaultSpec, FnKeySpec, GraphSpec, ScheduleSpec,
    SeedMode, SweepSpec, TargetSpec, TreeSweep,
};
// The timed-network and fault-injection building blocks, re-exported so
// spec consumers can construct schedules, per-edge nets and crash plans
// without naming `ring_sim`.
pub use ring_sim::{
    CrashInstant, FaultConfig, FaultPlan, LatencySpec, LinkProfile, TimedNetConfig,
};
pub use sweep::{
    run_sweep, run_sweep_partial, HonestSweep, ProtocolKind, DEFAULT_BATCH_WIDTH, MAX_BATCH_WIDTH,
};

use ring_sim::rng::mix;

/// Domain-separation salt for [`trial_seed`] (distinct from the salts used
/// by `SplitMix64::derive`, so harness streams never collide with per-node
/// streams).
const TRIAL_SALT: u64 = 0x7f1e_ba7c_4a11_5eed;

/// Derives the seed of trial `trial_index` in a batch seeded `base_seed`.
///
/// A pure function of its arguments — the cornerstone of the harness's
/// thread-count independence. Workers never share or advance a common RNG;
/// every trial recomputes its own seed from scratch.
///
/// # Examples
///
/// ```
/// use fle_harness::trial_seed;
///
/// assert_eq!(trial_seed(1, 0), trial_seed(1, 0));
/// assert_ne!(trial_seed(1, 0), trial_seed(1, 1));
/// assert_ne!(trial_seed(1, 0), trial_seed(2, 0));
/// ```
pub fn trial_seed(base_seed: u64, trial_index: u64) -> u64 {
    // Two rounds of the SplitMix64 finalizer with the batch seed folded in
    // between: well-mixed, stream-separated, and trivially reproducible.
    mix(mix(trial_index ^ TRIAL_SALT).wrapping_add(base_seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_spread() {
        let mut seen = std::collections::HashSet::new();
        for base in 0..4u64 {
            for i in 0..1000u64 {
                assert!(
                    seen.insert(trial_seed(base, i)),
                    "collision base={base} i={i}"
                );
            }
        }
    }
}
