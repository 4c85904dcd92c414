//! Protocol-level batch sweeps with per-worker engine reuse.

use crate::attack::attack_partial;
use crate::partial::ReportPartial;
use crate::spec::{FaultSpec, ScheduleSpec, SweepSpec};
use crate::tree::tree_partial;
use crate::{run_batch_range_grouped, trial_seed, BatchConfig, TrialOutcome, TrialReport};
use fle_core::protocols::{
    run_ring_honest_pooled_into, run_ring_honest_timed_into, ALeadBatchCache, ALeadNode, ALeadUni,
    BasicBatchCache, BasicLead, BasicNode, PhaseAsyncLead, PhaseBatchCache, PhaseMsg, PhaseNode,
    PhaseSumLead,
};
use ring_sim::{
    ArenaBacked, Engine, Execution, FaultPlan, FifoScheduler, Node, NodeId, TimedScheduler,
    Topology, TrialArena,
};

/// The ring protocols the harness can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Appendix B's non-resilient strawman (`n ≥ 2`).
    BasicLead,
    /// Abraham et al.'s buffered protocol (`n ≥ 2`).
    ALeadUni,
    /// The paper's Θ(√n)-resilient protocol (`n ≥ 4`).
    PhaseAsyncLead,
    /// The Appendix E.4 ablation (`n ≥ 4`).
    PhaseSumLead,
}

impl ProtocolKind {
    /// All sweepable protocols, in paper order.
    pub const ALL: &'static [ProtocolKind] = &[
        ProtocolKind::BasicLead,
        ProtocolKind::ALeadUni,
        ProtocolKind::PhaseAsyncLead,
        ProtocolKind::PhaseSumLead,
    ];

    /// The smallest ring the protocol runs on.
    pub fn min_n(&self) -> usize {
        match self {
            ProtocolKind::BasicLead | ProtocolKind::ALeadUni => 2,
            ProtocolKind::PhaseAsyncLead | ProtocolKind::PhaseSumLead => 4,
        }
    }

    /// The protocol's display name (matches
    /// [`fle_core::protocols::FleProtocol::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::BasicLead => "Basic-LEAD",
            ProtocolKind::ALeadUni => "A-LEADuni",
            ProtocolKind::PhaseAsyncLead => "PhaseAsyncLead",
            ProtocolKind::PhaseSumLead => "PhaseSumLead",
        }
    }
}

impl std::str::FromStr for ProtocolKind {
    type Err = String;

    /// Parses a CLI spelling: `basic`, `alead`, `phase`, `phasesum` (or
    /// the full display names, case-insensitively, with `-` stripped).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let key: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        match key.as_str() {
            "basic" | "basiclead" => Ok(ProtocolKind::BasicLead),
            "alead" | "aleaduni" => Ok(ProtocolKind::ALeadUni),
            "phase" | "phaseasynclead" => Ok(ProtocolKind::PhaseAsyncLead),
            "phasesum" | "phasesumlead" => Ok(ProtocolKind::PhaseSumLead),
            _ => Err(format!(
                "unknown protocol '{s}' (expected basic | alead | phase | phasesum)"
            )),
        }
    }
}

/// The lockstep batch width [`HonestSweep::batch_width`] 0 resolves to,
/// and the width of lockstep attack groups.
///
/// Chosen from the per-layer width scan of the 10k `PhaseAsyncLead`
/// n=64 sweep: the cost per event grows slowly with the width, so the
/// cost per lane keeps falling up to 64 lanes, but each phase node's
/// store holds `(n + 1 + vals_in_f) · k` words, 0.54 MB per worker at
/// n=64 and k=16. At 16 the lanes of one group still fit a 2 MiB L2, and
/// peak heap stays below that of width 8 with the older, larger stores;
/// 32 would double the stores again.
pub const DEFAULT_BATCH_WIDTH: usize = 16;

/// The largest accepted [`HonestSweep::batch_width`]: beyond this the
/// lane state stops fitting in cache and the fast path only gets slower.
pub const MAX_BATCH_WIDTH: usize = 1024;

/// One honest protocol sweep: which protocol, at what size, over which
/// batch. Wrap in [`SweepSpec::Honest`] (or use `.into()`) to dispatch
/// through [`run_sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HonestSweep {
    /// The protocol to run honestly.
    pub protocol: ProtocolKind,
    /// Ring size.
    pub n: usize,
    /// Key of the random function `f` (used by `PhaseAsyncLead` only).
    pub fn_key: u64,
    /// Trial count, base seed and worker threads.
    pub batch: BatchConfig,
    /// Lockstep batch width `k`: trials run `k` at a time through the
    /// structure-of-arrays engine (`ring_sim::batch`). 0 resolves to
    /// [`DEFAULT_BATCH_WIDTH`]; 1 forces the scalar path; timed
    /// schedules always run scalar. Results are bit-identical for every
    /// width.
    pub batch_width: usize,
    /// Delivery discipline (FIFO fast path or timed network).
    pub schedule: ScheduleSpec,
    /// Optional crash-fault injection: per trial, a deterministic
    /// [`FaultPlan`] is drawn from the trial seed's fault stream and
    /// installed on the engine. Forces the scalar trial path.
    pub fault: Option<FaultSpec>,
}

impl HonestSweep {
    /// The lockstep width this sweep actually runs with: the configured
    /// width (0 → [`DEFAULT_BATCH_WIDTH`]), forced to 1 (scalar) under a
    /// timed schedule (whose per-delivery noise streams are inherently
    /// per-trial) or a fault plan (whose crash instants diverge trials
    /// immediately).
    pub fn resolved_batch_width(&self) -> usize {
        if self.schedule.timed_net().is_some() || self.fault.is_some() {
            return 1;
        }
        match self.batch_width {
            0 => DEFAULT_BATCH_WIDTH,
            w => w,
        }
    }
}

/// A ring protocol as the honest sweep drives it: a seed-free base
/// instance built once per worker, seeded per trial, whose nodes draw
/// their state from the worker's [`TrialArena`], plus its lockstep batch
/// entry point.
trait SweepProtocol {
    type Msg: Clone;
    type Node: Node<Self::Msg> + ArenaBacked;
    type Cache;
    fn base(n: usize, fn_key: u64) -> Self;
    fn seeded(&self, seed: u64) -> Self;
    fn node(&self, id: NodeId, arena: &mut TrialArena) -> Self::Node;
    fn ring_wakes(&self) -> Vec<NodeId>;
    fn cache(n: usize) -> Self::Cache;
    fn run_batch(&self, seeds: &[u64], cache: &mut Self::Cache) -> bool;
    fn lane(cache: &Self::Cache, lane: usize, out: &mut Execution);
}

macro_rules! sweep_protocol {
    ($p:ty, $msg:ty, $node:ty, $cache:ty, |$n:ident, $key:ident| $base:expr) => {
        impl SweepProtocol for $p {
            type Msg = $msg;
            type Node = $node;
            type Cache = $cache;
            fn base($n: usize, $key: u64) -> Self {
                $base
            }
            fn seeded(&self, seed: u64) -> Self {
                self.clone().with_seed(seed)
            }
            fn node(&self, id: NodeId, arena: &mut TrialArena) -> $node {
                self.honest_ring_node_in(id, arena)
            }
            fn ring_wakes(&self) -> Vec<NodeId> {
                self.wakes()
            }
            fn cache(n: usize) -> $cache {
                <$cache>::ring(n)
            }
            fn run_batch(&self, seeds: &[u64], cache: &mut $cache) -> bool {
                self.run_honest_batch_into(seeds, cache)
            }
            fn lane(cache: &$cache, lane: usize, out: &mut Execution) {
                cache.execution_into(lane, out)
            }
        }
    };
}

sweep_protocol!(BasicLead, u64, BasicNode, BasicBatchCache, |n, _key| {
    BasicLead::new(n)
});
sweep_protocol!(ALeadUni, u64, ALeadNode, ALeadBatchCache, |n, _key| {
    ALeadUni::new(n)
});
sweep_protocol!(
    PhaseAsyncLead,
    PhaseMsg,
    PhaseNode,
    PhaseBatchCache,
    |n, key| PhaseAsyncLead::new(n).with_fn_key(key)
);
sweep_protocol!(
    PhaseSumLead,
    PhaseMsg,
    PhaseNode,
    PhaseBatchCache,
    |n, _key| PhaseSumLead::new(n)
);

/// Per-worker state of one honest protocol sweep: the hoisted protocol
/// instance (its seed-independent state — `PhaseParams`, the keyed
/// `RandomFn`, the ring size — is built once per worker), a reusable
/// [`Engine`], the monomorphized node vector, the (constant) wake list,
/// the FIFO and timed schedulers, the [`TrialArena`] node-state pool, the
/// reused [`Execution`] out-parameter and fault plan, and — when the
/// sweep runs lockstep groups — the lane cache. Once every buffer has
/// reached its steady-state capacity a trial performs *no* heap
/// allocation at all, node construction included.
struct SweepWorker<P: SweepProtocol> {
    base: P,
    engine: Engine<P::Msg>,
    nodes: Vec<P::Node>,
    wakes: Vec<NodeId>,
    fifo: FifoScheduler,
    timed: TimedScheduler<P::Msg>,
    arena: TrialArena,
    exec: Execution,
    plan: FaultPlan,
    cache: Option<P::Cache>,
    seeds: Vec<u64>,
}

/// What one honest trial hands back for recording: its [`TrialOutcome`]
/// and, on fault sweeps, whether a planned crash fired. Fault-free sweeps
/// keep the bare outcome, so their per-trial result slots stay small.
trait HonestRecord: Send {
    fn of(exec: &Execution) -> Self;
    fn record(self, partial: &mut ReportPartial, index: u64);
}

impl HonestRecord for TrialOutcome {
    fn of(exec: &Execution) -> Self {
        TrialOutcome::of(exec)
    }
    fn record(self, partial: &mut ReportPartial, index: u64) {
        partial.record(index, self);
    }
}

impl HonestRecord for (TrialOutcome, bool) {
    fn of(exec: &Execution) -> Self {
        (TrialOutcome::of(exec), exec.stats.crashes > 0)
    }
    fn record(self, partial: &mut ReportPartial, index: u64) {
        partial.record_faulty(index, self.0, self.1);
    }
}

/// Trials `start..end` of an honest sweep, recorded with crash counters
/// exactly when the spec injects faults.
fn honest_partial<P: SweepProtocol>(cfg: &HonestSweep, start: u64, end: u64) -> ReportPartial {
    match cfg.fault {
        None => honest_trials::<P, TrialOutcome>(cfg, start, end),
        Some(_) => honest_trials::<P, (TrialOutcome, bool)>(cfg, start, end),
    }
}

/// The one honest trial body: trials `start..end` of `cfg` through
/// [`run_batch_range_grouped`], lockstep groups where the sweep's
/// resolved width allows them, and one scalar closure that draws the
/// trial's [`FaultPlan`] when the spec has one and runs the timed or the
/// pooled FIFO engine path.
fn honest_trials<P: SweepProtocol, R: HonestRecord>(
    cfg: &HonestSweep,
    start: u64,
    end: u64,
) -> ReportPartial {
    let n = cfg.n;
    let width = cfg.resolved_batch_width();
    let base_seed = cfg.batch.base_seed;
    let net = cfg.schedule.timed_net();
    let fault = cfg.fault.map(|f| f.config());
    let results = run_batch_range_grouped(
        &cfg.batch,
        start,
        end,
        width,
        || {
            let base = P::base(n, cfg.fn_key);
            SweepWorker {
                engine: Engine::new(Topology::ring(n)),
                nodes: Vec::with_capacity(n),
                wakes: base.ring_wakes(),
                fifo: FifoScheduler::new(),
                timed: TimedScheduler::new(),
                arena: TrialArena::new(),
                exec: Execution::default(),
                plan: FaultPlan::none(),
                cache: (width > 1).then(|| P::cache(n)),
                seeds: Vec::new(),
                base,
            }
        },
        |w: &mut SweepWorker<P>, gstart, out| {
            let Some(cache) = &mut w.cache else {
                return false;
            };
            // Exactly the seeds the scalar path derives for these indices.
            w.seeds.clear();
            w.seeds
                .extend((0..width as u64).map(|j| trial_seed(base_seed, gstart + j)));
            if !w.base.run_batch(&w.seeds, cache) {
                return false;
            }
            for lane in 0..width {
                P::lane(cache, lane, &mut w.exec);
                out.push(R::of(&w.exec));
            }
            true
        },
        |w, _i, seed| {
            if let Some(fcfg) = &fault {
                w.plan.draw_into(fcfg, n, seed);
                w.engine.set_fault_plan(&w.plan);
            }
            let p = w.base.seeded(seed);
            let node = |id, arena: &mut TrialArena| p.node(id, arena);
            match &net {
                Some(net) => run_ring_honest_timed_into(
                    &mut w.engine,
                    n,
                    node,
                    &w.wakes,
                    &mut w.nodes,
                    &mut w.timed,
                    net,
                    seed,
                    &mut w.arena,
                    &mut w.exec,
                ),
                None => run_ring_honest_pooled_into(
                    &mut w.engine,
                    n,
                    node,
                    &w.wakes,
                    &mut w.nodes,
                    &mut w.fifo,
                    &mut w.arena,
                    &mut w.exec,
                ),
            }
            R::of(&w.exec)
        },
    );
    let mut partial =
        ReportPartial::new_honest(cfg.protocol.name(), n, base_seed, cfg.batch.trials);
    if fault.is_some() {
        partial = partial.with_faults();
    }
    for (i, slot) in results.into_iter().enumerate() {
        match slot {
            Ok(result) => result.record(&mut partial, start + i as u64),
            Err(fault) => partial.record_fault(fault),
        }
    }
    partial
}

/// Runs any [`SweepSpec`] — honest, attack or tree-dictator — and
/// aggregates it into a [`TrialReport`]: [`run_sweep_partial`] over the
/// full trial range, finished. The report (and its JSON/CSV
/// serializations) is byte-identical for every thread count.
///
/// # Errors
///
/// If the spec violates a constructor precondition (an honest ring below
/// the protocol's minimum size, an infeasible coalition layout, ...) —
/// the same conditions [`SweepSpec::validate`] reports.
pub fn run_sweep(spec: &SweepSpec) -> Result<TrialReport, String> {
    run_sweep_partial(spec, 0, spec.batch().trials)?.finish()
}

/// Runs trials `start..end` of any [`SweepSpec`] into a mergeable
/// [`ReportPartial`] — the harness's one sweep runner, which
/// [`run_sweep`], sharding and checkpointing are built on. Disjoint
/// ranges [`merge`](ReportPartial::merge) and
/// [`finish`](ReportPartial::finish) to bytes identical to [`run_sweep`]
/// over the full range.
///
/// Indices and seeds are global (trial `i` runs with
/// [`trial_seed`]`(base_seed, i)` whatever the range), and each worker
/// thread owns one reusable engine, protocol instance or attack runner,
/// so steady-state trials allocate nothing. Panicking trials are
/// contained as recorded faults. Where a sweep can, it runs trials in
/// lockstep groups ([`HonestSweep::resolved_batch_width`]; FIFO,
/// fault-free `rushing`/`phase_rushing` attack sweeps with one `fn_key`
/// run groups of [`DEFAULT_BATCH_WIDTH`]), with a scalar rerun of any
/// group that diverges; the bytes are the same either way. Attack trials
/// whose per-instance preconditions fail count as `infeasible`.
///
/// # Errors
///
/// If the range exceeds the spec's trial count, an honest ring is below
/// the protocol's minimum size ([`ProtocolKind::min_n`]), an attack
/// coalition does not resolve or its layout is rejected by the runner,
/// or a tree graph's parameters are invalid. A malformed spec is a
/// `Result`, never a worker panic.
pub fn run_sweep_partial(spec: &SweepSpec, start: u64, end: u64) -> Result<ReportPartial, String> {
    let trials = spec.batch().trials;
    if start > end || end > trials {
        return Err(format!(
            "trial range [{start}, {end}) invalid for a sweep of {trials} trials"
        ));
    }
    match spec {
        SweepSpec::Honest(cfg) => {
            let min = cfg.protocol.min_n();
            if cfg.n < min {
                return Err(format!(
                    "{} needs n >= {min}, got n={}",
                    cfg.protocol.name(),
                    cfg.n
                ));
            }
            Ok(match cfg.protocol {
                ProtocolKind::BasicLead => honest_partial::<BasicLead>(cfg, start, end),
                ProtocolKind::ALeadUni => honest_partial::<ALeadUni>(cfg, start, end),
                ProtocolKind::PhaseAsyncLead => honest_partial::<PhaseAsyncLead>(cfg, start, end),
                ProtocolKind::PhaseSumLead => honest_partial::<PhaseSumLead>(cfg, start, end),
            })
        }
        SweepSpec::Attack(cfg) => attack_partial(cfg, start, end),
        SweepSpec::TreeDictator(cfg) => tree_partial(cfg, start, end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial_seed;
    use fle_core::protocols::FleProtocol;

    #[test]
    fn protocol_kind_parses() {
        assert_eq!("basic".parse::<ProtocolKind>(), Ok(ProtocolKind::BasicLead));
        assert_eq!(
            "A-LEADuni".parse::<ProtocolKind>(),
            Ok(ProtocolKind::ALeadUni)
        );
        assert_eq!(
            "phase".parse::<ProtocolKind>(),
            Ok(ProtocolKind::PhaseAsyncLead)
        );
        assert_eq!(
            "PhaseSumLead".parse::<ProtocolKind>(),
            Ok(ProtocolKind::PhaseSumLead)
        );
        assert!("nope".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn sweep_accounts_every_trial() {
        for &protocol in ProtocolKind::ALL {
            let report = run_sweep(&SweepSpec::Honest(HonestSweep {
                protocol,
                n: 6,
                fn_key: 3,
                batch: BatchConfig {
                    trials: 20,
                    base_seed: 2,
                    threads: 1,
                },
                batch_width: 0,
                schedule: ScheduleSpec::Fifo,
                fault: None,
            }))
            .expect("valid spec");
            assert_eq!(report.protocol, protocol.name());
            assert_eq!(
                report.elected() + report.out_of_range + report.fails.total(),
                20,
                "{protocol:?}"
            );
            // Honest runs never fail.
            assert_eq!(report.fails.total(), 0, "{protocol:?}");
            assert_eq!(report.out_of_range, 0, "{protocol:?}");
        }
    }

    #[test]
    fn zero_profile_timed_sweep_matches_fifo_sweep() {
        use ring_sim::LatencySpec;
        for &protocol in ProtocolKind::ALL {
            let base = HonestSweep {
                protocol,
                n: 8,
                fn_key: 5,
                batch: BatchConfig {
                    trials: 25,
                    base_seed: 11,
                    threads: 1,
                },
                batch_width: 0,
                schedule: ScheduleSpec::Fifo,
                fault: None,
            };
            let fifo = run_sweep(&base.into()).expect("valid spec");
            let timed = run_sweep(
                &HonestSweep {
                    schedule: ScheduleSpec::Timed {
                        latency: LatencySpec::ZERO,
                        loss_permille: 0,
                        dup_permille: 0,
                    },
                    ..base
                }
                .into(),
            )
            .expect("valid spec");
            assert_eq!(timed.to_json(), fifo.to_json(), "{protocol:?}");
        }
    }

    #[test]
    fn sweep_matches_direct_protocol_runs() {
        let n = 8;
        let batch = BatchConfig {
            trials: 12,
            base_seed: 9,
            threads: 1,
        };
        let report = run_sweep(&SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::ALeadUni,
            n,
            fn_key: 0,
            batch,
            batch_width: 0,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        }))
        .expect("valid spec");
        let mut wins = vec![0u64; n];
        for i in 0..batch.trials {
            let exec = ALeadUni::new(n)
                .with_seed(trial_seed(batch.base_seed, i))
                .run_honest();
            wins[exec.outcome.elected().expect("honest") as usize] += 1;
        }
        assert_eq!(report.wins, wins);
        // A-LEADuni sends exactly n² messages in every honest run.
        assert_eq!(report.messages.min, (n * n) as u64);
        assert_eq!(report.messages.max, (n * n) as u64);
    }
}
