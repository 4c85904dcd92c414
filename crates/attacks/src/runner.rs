//! Uniform cached dispatch over every implemented attack.
//!
//! Each attack crate module exposes a `run_in` fast path taking its own
//! concrete protocol and [`TrialCache`](fle_core::protocols::TrialCache)
//! flavour; this module erases those differences behind one
//! [`AttackRunner`] trait so a harness can sweep any attack without
//! per-attack special cases. [`build_runner`] resolves an [`AttackKind`]
//! plus a coalition layout into a boxed runner owning its caches — built
//! once per worker thread, then allocation-free per trial in steady
//! state.

use crate::{
    cubic_distances, AttackError, BasicSingleAttack, BasicSingleCache, CubicAttack, CubicPlan,
    PhaseBurstAttack, PhaseGuessAttack, PhaseRushingAttack, PhaseRushingBatchCache,
    PhaseRushingCache, PhaseRushingLayout, PhaseSumAttack, RandomLocatedAttack, RushingAttack,
    RushingBatchCache, RushingCache, RushingLayout, WakeupIdLieAttack, WakeupMaskAttack,
};
use fle_core::protocols::{
    ALeadTrialCache, ALeadUni, BasicLead, FleProtocol, PhaseAsyncLead, PhaseSumLead,
    PhaseTrialCache, WakeLead, WakeTrialCache,
};
use fle_core::{Coalition, Execution, NodeId};
use std::str::FromStr;

/// The circularity-detection window `C` used by [`AttackKind::RandomLocated`]
/// runners (the value every experiment and test in this repository uses).
pub const RANDOM_LOCATED_WINDOW: usize = 3;

/// Every attack the runner layer can dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// [`BasicSingleAttack`] (Claim B.1) on `Basic-LEAD`.
    BasicSingle,
    /// [`RushingAttack`] (Lemma 4.1 / Thm 4.2) on `A-LEADuni`.
    Rushing,
    /// [`CubicAttack`] (Thm 4.3) on `A-LEADuni`.
    Cubic,
    /// [`RandomLocatedAttack`] (Thm C.1) on `A-LEADuni`.
    RandomLocated,
    /// [`PhaseRushingAttack`] (§6 remark) on `PhaseAsyncLead`.
    PhaseRushing,
    /// [`PhaseGuessAttack`] (§6 ablation) on `PhaseAsyncLead`.
    PhaseGuess,
    /// [`PhaseBurstAttack`] (§6 motivation, must fail) on `PhaseAsyncLead`.
    PhaseBurst,
    /// [`PhaseSumAttack`] (App. E.4) on `PhaseSumLead`.
    PhaseSum,
    /// [`WakeupIdLieAttack`] (App. H) on `WakeLead`.
    WakeupIdLie,
    /// [`WakeupMaskAttack`] (App. H) on `WakeLead`.
    WakeupMask,
}

impl AttackKind {
    /// All attack kinds, in documentation order.
    pub const ALL: [AttackKind; 10] = [
        AttackKind::BasicSingle,
        AttackKind::Rushing,
        AttackKind::Cubic,
        AttackKind::RandomLocated,
        AttackKind::PhaseRushing,
        AttackKind::PhaseGuess,
        AttackKind::PhaseBurst,
        AttackKind::PhaseSum,
        AttackKind::WakeupIdLie,
        AttackKind::WakeupMask,
    ];

    /// The canonical spelling accepted by [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::BasicSingle => "basic_single",
            AttackKind::Rushing => "rushing",
            AttackKind::Cubic => "cubic",
            AttackKind::RandomLocated => "random_located",
            AttackKind::PhaseRushing => "phase_rushing",
            AttackKind::PhaseGuess => "phase_guess",
            AttackKind::PhaseBurst => "phase_burst",
            AttackKind::PhaseSum => "phase_sum",
            AttackKind::WakeupIdLie => "wakeup_id_lie",
            AttackKind::WakeupMask => "wakeup_mask",
        }
    }

    /// The display name of the protocol this attack targets.
    pub fn protocol_name(self) -> &'static str {
        match self {
            AttackKind::BasicSingle => "Basic-LEAD",
            AttackKind::Rushing | AttackKind::Cubic | AttackKind::RandomLocated => "A-LEADuni",
            AttackKind::PhaseRushing | AttackKind::PhaseGuess | AttackKind::PhaseBurst => {
                "PhaseAsyncLead"
            }
            AttackKind::PhaseSum => "PhaseSumLead",
            AttackKind::WakeupIdLie | AttackKind::WakeupMask => "WakeLead",
        }
    }

    /// `true` iff the target protocol derives per-round values from a
    /// random function, i.e. the runner's `fn_key` argument matters.
    pub fn uses_fn_key(self) -> bool {
        matches!(
            self,
            AttackKind::PhaseRushing | AttackKind::PhaseGuess | AttackKind::PhaseBurst
        )
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AttackKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AttackKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown attack '{s}' (expected basic_single | rushing | cubic | \
                     random_located | phase_rushing | phase_guess | phase_burst | phase_sum | \
                     wakeup_id_lie | wakeup_mask)"
                )
            })
    }
}

/// One completed adversarial trial: the cached execution plus whether the
/// attack achieved its goal (by its own success predicate — forcing a
/// specific winner for most attacks, electing a ghost id for
/// [`AttackKind::WakeupIdLie`], surviving validation for
/// [`AttackKind::PhaseGuess`]).
pub struct AttackTrialResult<'a> {
    /// The execution, borrowed from the runner's internal cache.
    pub exec: &'a Execution,
    /// Whether the attack's success predicate held.
    pub success: bool,
}

/// A reusable per-thread attack executor: protocol bases hoisted,
/// engine/scheduler/arena cached, allocation-free per trial in steady
/// state.
///
/// `seed` is the protocol instance seed, `fn_key` selects the random
/// function for phase protocols (ignored elsewhere — see
/// [`AttackKind::uses_fn_key`]), and `target` is the attack's goal:
/// the forced leader for most attacks, the coalition member *index*
/// for [`AttackKind::WakeupMask`], and ignored by
/// [`AttackKind::PhaseGuess`] / [`AttackKind::WakeupIdLie`] whose
/// success predicates do not name a winner.
pub trait AttackRunner {
    /// Runs one trial.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when the attack's preconditions fail
    /// for this instance.
    fn run_trial(
        &mut self,
        seed: u64,
        fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError>;

    /// Installs (or clears) a timed network on the runner's trial cache:
    /// subsequent trials run on the engine's virtual-clock path under
    /// `net`'s per-link latency/loss/duplication profiles, with the
    /// network-noise stream derived from each trial's seed. `None`
    /// restores the untimed FIFO fast path.
    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>);

    /// Installs (or clears) a crash-fault configuration: each subsequent
    /// trial draws a [`ring_sim::FaultPlan`] from its trial seed (through
    /// the salt-separated fault stream) and applies it for that trial.
    /// `None` restores the fault-free path.
    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>);

    /// Runs a group of trials in lockstep (`ring_sim::batch`): lane `i`
    /// is `run_trial(seeds[i], fn_key, targets[i])`, all lanes sharing
    /// one `fn_key`.
    ///
    /// Returns `true` after passing every lane's result to `each`, in
    /// lane order, each bit-identical to what `run_trial` returns for
    /// that lane. Returns `false` without calling `each` when the group
    /// cannot run in lockstep — the attack has no lockstep path (the
    /// default), a timed network or crash faults are installed, the
    /// layout or a target is infeasible, or the lanes diverged — and the
    /// caller must run the trials through `run_trial`.
    fn run_group(
        &mut self,
        seeds: &[u64],
        fn_key: u64,
        targets: &[u64],
        each: &mut dyn FnMut(AttackTrialResult<'_>),
    ) -> bool {
        let _ = (seeds, fn_key, targets, each);
        false
    }
}

/// The lockstep side of a runner with a batched path: the group cache
/// (built on the first group), the reused lane [`Execution`], and whether
/// the installed network and faults still allow lockstep.
struct Lockstep<C> {
    cache: Option<C>,
    exec: Execution,
    timed: bool,
    faulty: bool,
}

impl<C> Lockstep<C> {
    fn new() -> Self {
        Self {
            cache: None,
            exec: Execution::default(),
            timed: false,
            faulty: false,
        }
    }

    /// Reports every lane of a completed group to `each`, judging
    /// success as the scalar runners do (the forced leader was elected).
    fn emit(
        &mut self,
        targets: &[u64],
        read: impl Fn(&C, usize, &mut Execution),
        each: &mut dyn FnMut(AttackTrialResult<'_>),
    ) {
        let cache = self.cache.as_ref().expect("a group ran on this cache");
        for (lane, &target) in targets.iter().enumerate() {
            read(cache, lane, &mut self.exec);
            let exec = &self.exec;
            each(AttackTrialResult {
                exec,
                success: exec.outcome.elected() == Some(target),
            });
        }
    }
}

/// Builds the cached runner for `kind` on a ring of `n` with the given
/// coalition layout.
///
/// # Errors
///
/// [`AttackError::Infeasible`] when the coalition is for a different ring
/// size, when a single-adversary attack gets `k != 1`, or when
/// [`AttackKind::Cubic`] gets a layout other than its own Theorem 4.3
/// geometric one (pass `cubic_distances(n)?.coalition()`).
///
/// # Panics
///
/// Panics if `n` is below the victim protocol's minimum ring size
/// (e.g. `PhaseAsyncLead` needs `n >= 4`).
pub fn build_runner(
    kind: AttackKind,
    n: usize,
    coalition: &Coalition,
) -> Result<Box<dyn AttackRunner>, AttackError> {
    if coalition.n() != n {
        return Err(AttackError::Infeasible(format!(
            "coalition is for n={}, sweep has n={n}",
            coalition.n()
        )));
    }
    Ok(match kind {
        AttackKind::BasicSingle => Box::new(BasicSingleRunner {
            base: BasicLead::new(n),
            pos: single_position(kind, coalition)?,
            cache: BasicSingleCache::ring(n),
        }),
        AttackKind::Rushing => Box::new(RushingRunner {
            base: ALeadUni::new(n),
            layout: RushingLayout::new(coalition),
            cache: RushingCache::ring(n),
            lockstep: Lockstep::new(),
        }),
        AttackKind::Cubic => {
            let plan = cubic_distances(n)?;
            if plan.positions() != coalition.positions() {
                return Err(AttackError::Infeasible(format!(
                    "cubic attack dictates its own Theorem 4.3 layout {:?}; \
                     use the cubic coalition placement",
                    plan.positions()
                )));
            }
            Box::new(CubicRunner {
                base: ALeadUni::new(n),
                plan,
                cache: ALeadTrialCache::ring(n),
            })
        }
        AttackKind::RandomLocated => Box::new(RandomLocatedRunner {
            base: ALeadUni::new(n),
            coalition: coalition.clone(),
            cache: ALeadTrialCache::ring(n),
        }),
        AttackKind::PhaseRushing => Box::new(PhaseRushingRunner {
            base: PhaseBase::new(n),
            layout: PhaseRushingLayout::new(coalition),
            cache: PhaseRushingCache::ring(n),
            lockstep: Lockstep::new(),
        }),
        AttackKind::PhaseGuess => Box::new(PhaseGuessRunner {
            base: PhaseBase::new(n),
            pos: single_position(kind, coalition)?,
            cache: PhaseTrialCache::ring(n),
        }),
        AttackKind::PhaseBurst => Box::new(PhaseBurstRunner {
            base: PhaseBase::new(n),
            coalition: coalition.clone(),
            cache: PhaseTrialCache::ring(n),
        }),
        AttackKind::PhaseSum => Box::new(PhaseSumRunner {
            base: PhaseSumLead::new(n),
            coalition: coalition.clone(),
            cache: PhaseTrialCache::ring(n),
        }),
        AttackKind::WakeupIdLie => Box::new(WakeupIdLieRunner {
            base: WakeLead::new(n),
            coalition: coalition.clone(),
            cache: WakeTrialCache::ring(n),
        }),
        AttackKind::WakeupMask => Box::new(WakeupMaskRunner {
            base: WakeLead::new(n),
            coalition: coalition.clone(),
            cache: WakeTrialCache::ring(n),
        }),
    })
}

fn single_position(kind: AttackKind, coalition: &Coalition) -> Result<NodeId, AttackError> {
    if coalition.k() != 1 {
        return Err(AttackError::Infeasible(format!(
            "{} takes a single adversary; got a coalition of k={}",
            kind.name(),
            coalition.k()
        )));
    }
    Ok(coalition.positions()[0])
}

/// Memoizes one `PhaseAsyncLead` base per `fn_key` so a fixed-key sweep
/// builds the random function once per worker, while key-per-seed sweeps
/// still work (one rebuild per trial).
struct PhaseBase {
    n: usize,
    cached: Option<(u64, PhaseAsyncLead)>,
}

impl PhaseBase {
    fn new(n: usize) -> Self {
        Self { n, cached: None }
    }

    fn instance(&mut self, fn_key: u64, seed: u64) -> PhaseAsyncLead {
        let hit = matches!(&self.cached, Some((k, _)) if *k == fn_key);
        if !hit {
            self.cached = Some((fn_key, PhaseAsyncLead::new(self.n).with_fn_key(fn_key)));
        }
        let (_, base) = self.cached.as_ref().expect("cached base was just set");
        (*base).with_seed(seed)
    }
}

struct BasicSingleRunner {
    base: BasicLead,
    pos: NodeId,
    cache: BasicSingleCache,
}

impl AttackRunner for BasicSingleRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        _fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let p = self.base.clone().with_seed(seed);
        let exec = BasicSingleAttack::new(self.pos, target).run_in(&p, &mut self.cache)?;
        let success = exec.outcome.elected() == Some(target);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

/// The rushing runner checks the coalition layout once, when built; per
/// trial only the target is checked.
struct RushingRunner {
    base: ALeadUni,
    layout: Result<RushingLayout, AttackError>,
    cache: RushingCache,
    lockstep: Lockstep<RushingBatchCache>,
}

impl AttackRunner for RushingRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        _fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let attack = RushingAttack::new(target);
        attack.check_target(self.base.n())?;
        let layout = self.layout.as_ref().map_err(Clone::clone)?;
        let p = self.base.clone().with_seed(seed);
        let exec = attack.run_planned_in(&p, layout, &mut self.cache)?;
        let success = exec.outcome.elected() == Some(target);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.lockstep.timed = net.is_some();
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.lockstep.faulty = cfg.is_some();
        self.cache.set_faults(cfg);
    }

    fn run_group(
        &mut self,
        seeds: &[u64],
        _fn_key: u64,
        targets: &[u64],
        each: &mut dyn FnMut(AttackTrialResult<'_>),
    ) -> bool {
        let lockstep = &mut self.lockstep;
        let Ok(layout) = &self.layout else {
            return false;
        };
        if lockstep.timed || lockstep.faulty {
            return false;
        }
        let n = self.base.n();
        let cache = lockstep
            .cache
            .get_or_insert_with(|| RushingBatchCache::ring(n));
        if !layout.run_batch_into(&self.base, seeds, targets, cache) {
            return false;
        }
        lockstep.emit(targets, RushingBatchCache::execution_into, each);
        true
    }
}

struct CubicRunner {
    base: ALeadUni,
    plan: CubicPlan,
    cache: ALeadTrialCache,
}

impl AttackRunner for CubicRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        _fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let p = self.base.clone().with_seed(seed);
        let exec = CubicAttack::new(target).run_in(&p, &self.plan, &mut self.cache)?;
        let success = exec.outcome.elected() == Some(target);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

struct RandomLocatedRunner {
    base: ALeadUni,
    coalition: Coalition,
    cache: ALeadTrialCache,
}

impl AttackRunner for RandomLocatedRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        _fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let p = self.base.clone().with_seed(seed);
        let attack = RandomLocatedAttack::new(target, RANDOM_LOCATED_WINDOW);
        let exec = attack.run_in(&p, &self.coalition, &mut self.cache)?;
        let success = exec.outcome.elected() == Some(target);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

/// The phase-rushing runner checks the coalition layout once, when
/// built; per trial only the target is checked.
struct PhaseRushingRunner {
    base: PhaseBase,
    layout: Result<PhaseRushingLayout, AttackError>,
    cache: PhaseRushingCache,
    lockstep: Lockstep<PhaseRushingBatchCache>,
}

impl AttackRunner for PhaseRushingRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let attack = PhaseRushingAttack::new(target);
        attack.check_target(self.base.n)?;
        let layout = self.layout.as_ref().map_err(Clone::clone)?;
        let p = self.base.instance(fn_key, seed);
        let exec = attack.run_planned_in(&p, layout, &mut self.cache)?;
        let success = exec.outcome.elected() == Some(target);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.lockstep.timed = net.is_some();
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.lockstep.faulty = cfg.is_some();
        self.cache.set_faults(cfg);
    }

    fn run_group(
        &mut self,
        seeds: &[u64],
        fn_key: u64,
        targets: &[u64],
        each: &mut dyn FnMut(AttackTrialResult<'_>),
    ) -> bool {
        let lockstep = &mut self.lockstep;
        let Ok(layout) = &self.layout else {
            return false;
        };
        if lockstep.timed || lockstep.faulty {
            return false;
        }
        let n = self.base.n;
        let p = self.base.instance(fn_key, 0);
        let cache = lockstep
            .cache
            .get_or_insert_with(|| PhaseRushingBatchCache::ring(n));
        // The attack's own target is unused: every lane is retargeted.
        if !PhaseRushingAttack::new(0).run_batch_into(&p, layout, seeds, targets, cache) {
            return false;
        }
        lockstep.emit(targets, PhaseRushingBatchCache::execution_into, each);
        true
    }
}

struct PhaseGuessRunner {
    base: PhaseBase,
    pos: NodeId,
    cache: PhaseTrialCache,
}

impl AttackRunner for PhaseGuessRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        fn_key: u64,
        _target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let p = self.base.instance(fn_key, seed);
        let exec = PhaseGuessAttack::new(self.pos).run_in(&p, &mut self.cache)?;
        // The guessing adversary "wins" by surviving validation at all
        // (probability exactly 1/m) — any elected leader counts.
        let success = exec.outcome.elected().is_some();
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

struct PhaseBurstRunner {
    base: PhaseBase,
    coalition: Coalition,
    cache: PhaseTrialCache,
}

impl AttackRunner for PhaseBurstRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let p = self.base.instance(fn_key, seed);
        let exec = PhaseBurstAttack::new(target).run_in(&p, &self.coalition, &mut self.cache)?;
        let success = exec.outcome.elected() == Some(target);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

struct PhaseSumRunner {
    base: PhaseSumLead,
    coalition: Coalition,
    cache: PhaseTrialCache,
}

impl AttackRunner for PhaseSumRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        _fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let p = self.base.with_seed(seed);
        let exec = PhaseSumAttack::new(target).run_in(&p, &self.coalition, &mut self.cache)?;
        let success = exec.outcome.elected() == Some(target);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

struct WakeupIdLieRunner {
    base: WakeLead,
    coalition: Coalition,
    cache: WakeTrialCache,
}

impl AttackRunner for WakeupIdLieRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        _fn_key: u64,
        _target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let p = self.base.clone().with_seed(seed);
        let exec = WakeupIdLieAttack::new().run_in(&p, &self.coalition, &mut self.cache)?;
        // Success: a fabricated (ghost) id won the election.
        let success = exec
            .outcome
            .elected()
            .is_some_and(WakeupIdLieAttack::is_ghost);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

struct WakeupMaskRunner {
    base: WakeLead,
    coalition: Coalition,
    cache: WakeTrialCache,
}

impl AttackRunner for WakeupMaskRunner {
    fn run_trial(
        &mut self,
        seed: u64,
        _fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        self.cache.set_trial_seed(seed);
        let p = self.base.clone().with_seed(seed);
        // `target` is the coalition member index; success is electing that
        // member's fabricated id, which depends on the per-seed id draw.
        let attack = WakeupMaskAttack::new(target as usize);
        let target_id = attack.plan(&p, &self.coalition)?.target_id;
        let exec = attack.run_in(&p, &self.coalition, &mut self.cache)?;
        let success = exec.outcome.elected() == Some(target_id);
        Ok(AttackTrialResult { exec, success })
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_kind_parses_every_canonical_name() {
        for kind in AttackKind::ALL {
            assert_eq!(kind.name().parse::<AttackKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "rush".parse::<AttackKind>().unwrap_err();
        assert!(err.contains("unknown attack 'rush'"), "{err}");
        assert!(err.contains("wakeup_mask"), "{err}");
    }

    #[test]
    fn build_runner_rejects_bad_layouts() {
        let wrong_n = Coalition::equally_spaced(8, 2, 1).unwrap();
        assert!(build_runner(AttackKind::Rushing, 16, &wrong_n).is_err());

        let pair = Coalition::new(16, vec![3, 9]).unwrap();
        assert!(build_runner(AttackKind::BasicSingle, 16, &pair).is_err());
        assert!(build_runner(AttackKind::PhaseGuess, 16, &pair).is_err());

        let not_cubic = Coalition::equally_spaced(16, 8, 1).unwrap();
        let Err(err) = build_runner(AttackKind::Cubic, 16, &not_cubic) else {
            panic!("non-cubic layout must be rejected");
        };
        assert!(
            err.to_string().contains("Theorem 4.3 layout"),
            "unexpected error: {err}"
        );
        let cubic = cubic_distances(16).unwrap().coalition();
        assert!(build_runner(AttackKind::Cubic, 16, &cubic).is_ok());
    }

    #[test]
    fn rushing_runner_matches_direct_attack_runs() {
        let n = 16;
        let coalition = Coalition::equally_spaced(n, 7, 1).unwrap();
        let mut runner = build_runner(AttackKind::Rushing, n, &coalition).unwrap();
        for seed in 0..20u64 {
            let target = seed % n as u64;
            let p = ALeadUni::new(n).with_seed(seed);
            let direct = RushingAttack::new(target).run(&p, &coalition).unwrap();
            let cached = runner.run_trial(seed, 0, target).unwrap();
            assert_eq!(cached.exec.outcome, direct.outcome, "seed {seed}");
            assert_eq!(
                cached.success,
                direct.outcome.elected() == Some(target),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn phase_runner_matches_direct_attack_runs_across_fn_keys() {
        let n = 16;
        let coalition = Coalition::equally_spaced(n, 7, 1).unwrap();
        let mut runner = build_runner(AttackKind::PhaseRushing, n, &coalition).unwrap();
        for seed in 0..10u64 {
            let fn_key = seed / 2; // exercise both memo hits and misses
            let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(fn_key);
            let direct = PhaseRushingAttack::new(3).run(&p, &coalition).unwrap();
            let cached = runner.run_trial(seed, fn_key, 3).unwrap();
            assert_eq!(cached.exec.outcome, direct.outcome, "seed {seed}");
        }
    }

    #[test]
    fn wakeup_runners_score_ghost_and_member_targets() {
        let n = 12;
        let lone = Coalition::new(n, vec![4]).unwrap();
        let mut id_lie = build_runner(AttackKind::WakeupIdLie, n, &lone).unwrap();
        let r = id_lie.run_trial(5, 0, 0).unwrap();
        if let Some(id) = r.exec.outcome.elected() {
            assert_eq!(r.success, WakeupIdLieAttack::is_ghost(id));
        }

        let coalition = Coalition::equally_spaced(n, 5, 1).unwrap();
        let mut mask = build_runner(AttackKind::WakeupMask, n, &coalition).unwrap();
        let r = mask.run_trial(5, 0, 2).unwrap();
        let p = WakeLead::new(n).with_seed(5);
        let plan = WakeupMaskAttack::new(2).plan(&p, &coalition).unwrap();
        assert_eq!(r.success, r.exec.outcome.elected() == Some(plan.target_id));
        // Out-of-range member index is an infeasibility, not a panic.
        assert!(mask.run_trial(5, 0, 99).is_err());
    }
}
