//! The sweeps' trial loops re-driven from outside the harness: the same
//! public layer calls `fle_harness` makes for each trial, in the same
//! order and with the same seeds, each wrapped in a span. Recording the
//! resulting outcomes into a `ReportPartial` gives the exact partial
//! `run_sweep_partial` returns for the range, which the traced run
//! checks, so the per-layer numbers time the work the sweep does.

use fle_attacks::build_runner;
use fle_core::protocols::{
    run_ring_honest_pooled_into, run_ring_honest_timed_into, ALeadBatchCache, ALeadNode, ALeadUni,
    BasicBatchCache, BasicLead, BasicNode, PhaseAsyncLead, PhaseBatchCache, PhaseMsg, PhaseNode,
    PhaseSumLead,
};
use fle_harness::{
    trial_seed, AttackSweep, FaultConfig, HonestSweep, ProtocolKind, ReportPartial, SweepSpec,
    TimedNetConfig, TrialOutcome,
};
use ring_sim::{
    ArenaBacked, Engine, Execution, FaultPlan, FifoScheduler, Node, NodeId, TimedScheduler,
    Topology, TrialArena,
};

use crate::trace::Tracer;

/// An honest ring protocol as the harness sweeps it: a seed-free base
/// instance, seeded per trial, whose nodes draw their state from a trial
/// arena, plus its lockstep batch entry point.
pub trait Honest: Clone {
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

macro_rules! honest {
    ($p:ty, $msg:ty, $node:ty, $cache:ty, |$n:ident, $key:ident| $base:expr) => {
        impl Honest for $p {
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

honest!(BasicLead, u64, BasicNode, BasicBatchCache, |n, _key| {
    BasicLead::new(n)
});
honest!(ALeadUni, u64, ALeadNode, ALeadBatchCache, |n, _key| {
    ALeadUni::new(n)
});
honest!(
    PhaseAsyncLead,
    PhaseMsg,
    PhaseNode,
    PhaseBatchCache,
    |n, key| PhaseAsyncLead::new(n).with_fn_key(key)
);
honest!(
    PhaseSumLead,
    PhaseMsg,
    PhaseNode,
    PhaseBatchCache,
    |n, _key| PhaseSumLead::new(n)
);

/// One trial's result, in the shape the matching `ReportPartial::record*`
/// method takes.
pub enum Rec {
    Honest(TrialOutcome),
    Faulty(TrialOutcome, bool),
    Attack(Option<TrialOutcome>, bool, Option<bool>),
}

/// What a loop did, summed from its spans.
#[derive(Default)]
pub struct LoopStats {
    pub lockstep_ns: u64,
    pub lockstep_calls: u64,
    pub diverged: u64,
    pub lane_deliveries: u64,
    pub scalar_ns: u64,
    pub scalar_trials: u64,
    pub deliveries: u64,
    pub draw_ns: u64,
    pub crashes: u64,
    pub build_runner_ns: u64,
    pub attack_ns: u64,
    pub attack_trials: u64,
    pub infeasible: u64,
}

/// Per-worker buffers of one honest sweep, as the harness keeps them.
pub struct Worker<P: Honest> {
    base: P,
    n: usize,
    base_seed: u64,
    net: Option<TimedNetConfig>,
    fault: Option<FaultConfig>,
    engine: Engine<P::Msg>,
    nodes: Vec<P::Node>,
    wakes: Vec<NodeId>,
    fifo: FifoScheduler,
    timed: TimedScheduler<P::Msg>,
    arena: TrialArena,
    exec: Execution,
    plan: FaultPlan,
    cache: P::Cache,
    seeds: Vec<u64>,
}

impl<P: Honest> Worker<P> {
    pub fn new(h: &HonestSweep) -> Self {
        let base = P::base(h.n, h.fn_key);
        let wakes = base.ring_wakes();
        Self {
            n: h.n,
            base_seed: h.batch.base_seed,
            net: h.schedule.timed_net(),
            fault: h.fault.map(|f| f.config()),
            engine: Engine::new(Topology::ring(h.n)),
            nodes: Vec::with_capacity(h.n),
            wakes,
            fifo: FifoScheduler::new(),
            timed: TimedScheduler::new(),
            arena: TrialArena::new(),
            exec: Execution::default(),
            plan: FaultPlan::none(),
            cache: P::cache(h.n),
            seeds: Vec::new(),
            base,
        }
    }

    /// One scalar trial: fault-plan draw (fault sweeps), then the pooled
    /// engine run on the FIFO or the timed scheduler.
    fn scalar(&mut self, tr: &mut Tracer, index: u64, st: &mut LoopStats) -> Rec {
        let n = self.n;
        let seed = trial_seed(self.base_seed, index);
        let p = self.base.seeded(seed);
        if let Some(fcfg) = &self.fault {
            let id = tr.enter("fault.draw_into");
            self.plan.draw_into(fcfg, n, seed);
            st.draw_ns += tr.exit(id);
            self.engine.set_fault_plan(&self.plan);
        }
        let id = match &self.net {
            Some(net) => {
                let id = tr.enter("timed.run_ring_honest_timed_into");
                run_ring_honest_timed_into(
                    &mut self.engine,
                    n,
                    |i, a| p.node(i, a),
                    &self.wakes,
                    &mut self.nodes,
                    &mut self.timed,
                    net,
                    seed,
                    &mut self.arena,
                    &mut self.exec,
                );
                id
            }
            None => {
                let id = tr.enter("engine.run_ring_honest_pooled_into");
                run_ring_honest_pooled_into(
                    &mut self.engine,
                    n,
                    |i, a| p.node(i, a),
                    &self.wakes,
                    &mut self.nodes,
                    &mut self.fifo,
                    &mut self.arena,
                    &mut self.exec,
                );
                id
            }
        };
        st.scalar_ns += tr.exit(id);
        let stats = &self.exec.stats;
        tr.set_count(id, stats.delivered);
        st.scalar_trials += 1;
        st.deliveries += stats.delivered;
        st.crashes += stats.crashes;
        let outcome = TrialOutcome::of(&self.exec);
        match self.fault {
            Some(_) => Rec::Faulty(outcome, stats.crashes > 0),
            None => Rec::Honest(outcome),
        }
    }

    /// Trials `start..end`: groups of `group` lanes through the lockstep
    /// entry point (a diverged group reruns scalar), the ragged tail and
    /// everything when `group` is 0 through the scalar path.
    pub fn range(
        &mut self,
        tr: &mut Tracer,
        start: u64,
        end: u64,
        group: usize,
        st: &mut LoopStats,
        out: &mut Vec<Rec>,
    ) {
        let mut i = start;
        while i < end {
            let width = group as u64;
            if group == 0 || end - i < width {
                let rec = self.scalar(tr, i, st);
                out.push(rec);
                i += 1;
                continue;
            }
            self.seeds.clear();
            self.seeds
                .extend((0..width).map(|j| trial_seed(self.base_seed, i + j)));
            let id = tr.enter("lockstep.run_honest_batch_into");
            let ok = self.base.run_batch(&self.seeds, &mut self.cache);
            st.lockstep_ns += tr.exit(id);
            st.lockstep_calls += 1;
            if ok {
                let mut delivered = 0;
                for lane in 0..group {
                    P::lane(&self.cache, lane, &mut self.exec);
                    delivered += self.exec.stats.delivered;
                    out.push(Rec::Honest(TrialOutcome::of(&self.exec)));
                }
                tr.set_count(id, delivered);
                st.lane_deliveries += delivered;
            } else {
                st.diverged += 1;
                for j in 0..width {
                    let rec = self.scalar(tr, i + j, st);
                    out.push(rec);
                }
            }
            i += width;
        }
    }
}

/// The lockstep group width the harness resolves `h` to, as a `group`
/// argument of [`Worker::range`] (0: scalar only).
fn sweep_group(h: &HonestSweep) -> usize {
    match h.resolved_batch_width() {
        w if w > 1 => w,
        _ => 0,
    }
}

fn honest<P: Honest>(
    tr: &mut Tracer,
    h: &HonestSweep,
    start: u64,
    end: u64,
    st: &mut LoopStats,
    out: &mut Vec<Rec>,
) {
    Worker::<P>::new(h).range(tr, start, end, sweep_group(h), st, out);
}

/// Attack trials `start..end` through one cached runner, as
/// `run_attack_partial` drives them on a single worker.
pub fn attack(
    tr: &mut Tracer,
    a: &AttackSweep,
    start: u64,
    end: u64,
    st: &mut LoopStats,
    out: &mut Vec<Rec>,
) -> Result<(), String> {
    let coalition = a.coalition.resolve(a.n)?;
    let id = tr.enter("attack.build_runner");
    let runner = build_runner(a.attack, a.n, &coalition);
    st.build_runner_ns += tr.exit(id);
    let mut runner = runner.map_err(|e| e.to_string())?;
    let net = a.schedule.timed_net();
    let fault = a.fault.map(|f| f.config());
    runner.set_timed_net(net.as_ref());
    runner.set_faults(fault.as_ref());
    for index in start..end {
        let seed = a
            .seed_mode
            .resolve(index, trial_seed(a.batch.base_seed, index));
        let fn_key = a.fn_key.resolve(seed);
        let target = a.target.resolve(seed, a.n);
        let id = tr.enter("attack.run_trial");
        let result = runner.run_trial(seed, fn_key, target);
        st.attack_ns += tr.exit(id);
        st.attack_trials += 1;
        let (outcome, success, crashed) = match result {
            Ok(r) => (
                Some(TrialOutcome::of(r.exec)),
                r.success,
                r.exec.stats.crashes > 0,
            ),
            Err(_) => {
                st.infeasible += 1;
                (None, false, false)
            }
        };
        out.push(Rec::Attack(outcome, success, fault.map(|_| crashed)));
    }
    Ok(())
}

/// Trials `start..end` of any workload sweep through the direct loops.
pub fn run(
    tr: &mut Tracer,
    spec: &SweepSpec,
    start: u64,
    end: u64,
    st: &mut LoopStats,
    out: &mut Vec<Rec>,
) -> Result<(), String> {
    match spec {
        SweepSpec::Honest(h) => {
            match h.protocol {
                ProtocolKind::BasicLead => honest::<BasicLead>(tr, h, start, end, st, out),
                ProtocolKind::ALeadUni => honest::<ALeadUni>(tr, h, start, end, st, out),
                ProtocolKind::PhaseAsyncLead => {
                    honest::<PhaseAsyncLead>(tr, h, start, end, st, out)
                }
                ProtocolKind::PhaseSumLead => honest::<PhaseSumLead>(tr, h, start, end, st, out),
            }
            Ok(())
        }
        SweepSpec::Attack(a) => attack(tr, a, start, end, st, out),
        SweepSpec::TreeDictator(_) => Err("tree sweeps have no direct loop".to_string()),
    }
}

/// Records `recs` (global trials `start..`) into an empty partial of
/// `spec`'s shape inside one `partial.record` span; returns the partial
/// and the span's duration.
pub fn record(
    tr: &mut Tracer,
    spec: &SweepSpec,
    start: u64,
    recs: &[Rec],
) -> Result<(ReportPartial, u64), String> {
    let (mut partial, faulty) = match spec {
        SweepSpec::Honest(h) => (
            ReportPartial::new_honest(h.protocol.name(), h.n, h.batch.base_seed, h.batch.trials),
            h.fault.is_some(),
        ),
        SweepSpec::Attack(a) => {
            let label = format!("{}:{}", a.attack.protocol_name(), a.attack.name());
            (
                ReportPartial::new_attack(&label, a.n, a.batch.base_seed, a.batch.trials),
                a.fault.is_some(),
            )
        }
        SweepSpec::TreeDictator(_) => return Err("tree sweeps have no direct loop".to_string()),
    };
    if faulty {
        partial = partial.with_faults();
    }
    let id = tr.enter("partial.record");
    for (index, rec) in (start..).zip(recs) {
        match *rec {
            Rec::Honest(o) => partial.record(index, o),
            Rec::Faulty(o, crashed) => partial.record_faulty(index, o, crashed),
            Rec::Attack(o, success, None) => partial.record_attack(index, o, success),
            Rec::Attack(o, success, Some(crashed)) => {
                partial.record_attack_faulty(index, o, success, crashed)
            }
        }
    }
    let ns = tr.exit(id);
    tr.set_count(id, recs.len() as u64);
    Ok((partial, ns))
}
