//! # fle-attacks — adversarial deviations against fair leader election
//!
//! Executable versions of every attack in Yifrach & Mansour (PODC 2018).
//! Each attack is a *coalition strategy*: it replaces the honest behaviour
//! of the coalition's processors and, when its layout preconditions hold,
//! forces the protocol to elect an arbitrary target `w` — without any
//! honest processor detecting a deviation.
//!
//! | Attack | Paper | Victim | Coalition needed |
//! |---|---|---|---|
//! | [`BasicSingleAttack`] | Claim B.1 | `Basic-LEAD` | 1 anywhere |
//! | [`RushingAttack`] | Lemma 4.1 / Thm 4.2 | `A-LEADuni` | every `l_j ≤ k−1` (e.g. `k ≥ √n` equally spaced) |
//! | [`CubicAttack`] | Thm 4.3 | `A-LEADuni` | `k ≥ 2·∛n`, geometric distances |
//! | [`RandomLocatedAttack`] | Thm C.1 | `A-LEADuni` | `Θ(√(n log n))` random w.h.p. |
//! | [`PhaseRushingAttack`] | §6 remark | `PhaseAsyncLead` | `k ≥ √n + 3`, every `l_j ≤ k−1` |
//! | [`PhaseBurstAttack`] | §6 motivation | `PhaseAsyncLead` | any — **must fail** (detection) |
//! | [`PhaseSumAttack`] | App. E.4 | `PhaseSumLead` | `k = 4` equally spaced |
//! | [`WakeupIdLieAttack`] | App. H | `WakeLead` (unknown ids) | 1 anywhere (`E[u₀] = k/n`) |
//! | [`WakeupMaskAttack`] | App. H | `WakeLead` (unknown ids) | every `l_j ≤ k−1`; per-segment origins |
//! | [`PhaseGuessAttack`] | §6 ablation | `PhaseAsyncLead` | 1 — survives with probability exactly `1/m` |
//!
//! Attacks whose layout preconditions fail return
//! [`AttackError::Infeasible`] instead of running — the experiments use
//! exactly this boundary to locate the paper's resilience crossovers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basic_single;
mod cubic;
mod phase_burst;
mod phase_guess;
mod phase_rushing;
mod phase_sum;
mod random_located;
mod runner;
mod rushing;
mod wakeup_mask;

pub use basic_single::{BasicSingleAttack, BasicSingleCache, WaitAndCancel};
pub use cubic::{cubic_distances, plan_with_k, CubicAttack, CubicPlan};
pub use phase_burst::PhaseBurstAttack;
pub use phase_guess::PhaseGuessAttack;
pub use phase_rushing::{
    BatchPhaseRusher, PhaseRusher, PhaseRushingAttack, PhaseRushingBatchCache, PhaseRushingCache,
    PhaseRushingLayout,
};
pub use phase_sum::PhaseSumAttack;
pub use random_located::RandomLocatedAttack;
pub use runner::{
    build_runner, AttackKind, AttackRunner, AttackTrialResult, RANDOM_LOCATED_WINDOW,
};
pub use rushing::{
    BatchRusher, Rusher, RushingAttack, RushingBatchCache, RushingCache, RushingLayout,
};
pub use wakeup_mask::{MaskPlan, WakeupIdLieAttack, WakeupMaskAttack};

/// Why an attack could not be mounted with the given coalition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackError {
    /// The coalition layout violates the attack's preconditions; the
    /// string explains which one (e.g. a segment longer than `k − 1`).
    Infeasible(String),
}

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackError::Infeasible(why) => write!(f, "attack infeasible: {why}"),
        }
    }
}

impl std::error::Error for AttackError {}
