//! The rushing attack of Lemma 4.1 / Theorem 4.2 on `A-LEADuni`.
//!
//! Adversaries never select a secret of their own and forward every
//! incoming message immediately instead of buffering it. After `n − k`
//! receives each adversary has seen **all** honest secrets; it then spends
//! its `k` spare messages on a correcting value `M`, padding zeros, and
//! the replayed secrets of its own honest segment, steering every
//! segment's sum to the target.
//!
//! Feasible exactly when every honest segment satisfies `l_j ≤ k − 1`
//! (Lemma 4.1) — equally-spaced coalitions of `k ≥ √n` qualify
//! (Theorem 4.2), consecutive coalitions only from `k ≥ ⌈(n+1)/2⌉`
//! (the Claim D.1 crossover).

use crate::AttackError;
use fle_core::protocols::{
    fold_mod, wrap_sub, ALeadBatchCache, ALeadNode, ALeadUni, BatchDeviants, FleProtocol,
    TrialCache,
};
use fle_core::{Coalition, DeviationNodes, Execution, Node, NodeId};
use ring_sim::batch::{LaneCtx, LockstepNode};
use ring_sim::Ctx;

/// [`TrialCache`] for the rushing coalition's fully unboxed fast path:
/// honest positions run the concrete [`ALeadNode`], every coalition slot
/// runs the concrete [`Rusher`] — a homogeneous coalition needs no
/// `Box<dyn Node>` anywhere in the mix.
pub type RushingCache = TrialCache<u64, ALeadNode, Rusher>;

/// [`ALeadBatchCache`] for lockstep groups of the rushing attack: honest
/// positions run [`fle_core::protocols::BatchALeadNode`], coalition slots
/// run [`BatchRusher`].
pub type RushingBatchCache = ALeadBatchCache<BatchRusher>;

/// The seed- and target-independent part of [`RushingAttack::plan`]: the
/// actively deviating coalition and its segment lengths `l_j`. A sweep
/// checks the Lemma 4.1 precondition once through this and reuses it for
/// every trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RushingLayout {
    active: Coalition,
    distances: Vec<usize>,
}

impl RushingLayout {
    /// Drops an honestly-behaving origin from `coalition` and checks that
    /// every remaining segment has `l_j ≤ k − 1`.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when no active adversary remains or
    /// some segment is too long.
    pub fn new(coalition: &Coalition) -> Result<Self, AttackError> {
        let active: Vec<NodeId> = coalition
            .positions()
            .iter()
            .copied()
            .filter(|&p| p != 0)
            .collect();
        if active.is_empty() {
            return Err(AttackError::Infeasible(
                "only the origin is corrupted and it must behave honestly".into(),
            ));
        }
        let active = Coalition::new(coalition.n(), active).expect("subset of a valid coalition");
        let k = active.k();
        let distances = active.distances();
        if let Some((j, &l)) = distances.iter().enumerate().find(|&(_, &l)| l > k - 1) {
            return Err(AttackError::Infeasible(format!(
                "segment I_{j} has length {l} > k - 1 = {} (Lemma 4.1 requires l_j <= k - 1)",
                k - 1
            )));
        }
        Ok(Self { active, distances })
    }

    /// Runs one lockstep group of the rushing attack: lane `i` is the
    /// trial `RushingAttack::new(targets[i])` against
    /// `protocol.with_seed(seeds[i])`. Returns `false` if the group
    /// diverged or some target is out of range (re-run those trials
    /// scalar); on `true` each lane's execution, read with
    /// [`ALeadBatchCache::execution_into`], is bit-identical to
    /// [`RushingAttack::run_in`]'s.
    ///
    /// # Panics
    ///
    /// Panics if the layout, the protocol and the cache disagree on the
    /// ring size, `seeds` is empty, or `targets.len() != seeds.len()`.
    pub fn run_batch_into(
        &self,
        protocol: &ALeadUni,
        seeds: &[u64],
        targets: &[u64],
        cache: &mut RushingBatchCache,
    ) -> bool {
        assert_eq!(seeds.len(), targets.len(), "one target per lane");
        assert_eq!(self.active.n(), protocol.n(), "layout is for another ring");
        if targets.iter().any(|&w| w >= protocol.n() as u64) {
            return false;
        }
        protocol.run_batch_with_into(
            seeds,
            &mut RushingLanes {
                layout: self,
                targets,
            },
            cache,
        )
    }
}

/// The Lemma 4.1 rushing attack on [`ALeadUni`].
///
/// If the origin (processor 0) is in the coalition it simply behaves
/// honestly, as in the paper's randomized attack; the layout precondition
/// is then evaluated on the remaining, actively-deviating coalition.
///
/// # Examples
///
/// ```
/// use fle_attacks::RushingAttack;
/// use fle_core::protocols::ALeadUni;
/// use fle_core::Coalition;
/// use ring_sim::Outcome;
///
/// let n = 36;
/// let protocol = ALeadUni::new(n).with_seed(1);
/// let coalition = Coalition::equally_spaced(n, 6, 1).unwrap(); // k = √n
/// let exec = RushingAttack::new(17).run(&protocol, &coalition).unwrap();
/// assert_eq!(exec.outcome, Outcome::Elected(17));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RushingAttack {
    target: u64,
}

impl RushingAttack {
    /// An attack forcing the election of `target`.
    pub fn new(target: u64) -> Self {
        Self { target }
    }

    /// The forced leader.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Checks the Lemma 4.1 precondition and returns the *active*
    /// coalition (the input minus an honestly-behaving origin).
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when the target is out of range, no
    /// active adversary remains, or some segment has `l_j > k − 1`.
    pub fn plan(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<Coalition, AttackError> {
        Ok(self.layout(protocol, coalition)?.active)
    }

    /// [`RushingAttack::plan`] returning the whole [`RushingLayout`].
    fn layout(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<RushingLayout, AttackError> {
        let n = protocol.n();
        if coalition.n() != n {
            return Err(AttackError::Infeasible(format!(
                "coalition is for a ring of {} but the protocol has n={n}",
                coalition.n()
            )));
        }
        self.check_target(n)?;
        RushingLayout::new(coalition)
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

    /// Builds the deviation nodes for the coalition.
    ///
    /// # Errors
    ///
    /// Propagates [`RushingAttack::plan`] errors.
    pub fn adversary_nodes(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<DeviationNodes<u64>, AttackError> {
        let mut nodes: Vec<(NodeId, Box<dyn Node<u64>>)> = Vec::with_capacity(coalition.k());
        if coalition.contains(0) {
            nodes.push((0, protocol.honest_node(0)));
        }
        for (pos, rusher) in self.adversary_ring_nodes(protocol, coalition)? {
            nodes.push((pos, Box::new(rusher)));
        }
        Ok(nodes)
    }

    /// [`RushingAttack::adversary_nodes`] as concrete [`Rusher`]s — the
    /// form [`RushingAttack::run_in`]'s homogeneous-coalition fast path
    /// stores unboxed. A corrupted origin behaves honestly, so it is
    /// simply *omitted* here: the cache's honest builder supplies the
    /// identical [`ALeadNode`] for position 0 (bit-identical executions
    /// either way).
    ///
    /// # Errors
    ///
    /// Propagates [`RushingAttack::plan`] errors.
    pub fn adversary_ring_nodes(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<Vec<(NodeId, Rusher)>, AttackError> {
        Ok(self.rushers(&self.layout(protocol, coalition)?))
    }

    /// The coalition's [`Rusher`]s for an already checked layout.
    fn rushers(&self, layout: &RushingLayout) -> Vec<(NodeId, Rusher)> {
        let active = &layout.active;
        let (n, k) = (active.n() as u64, active.k() as u64);
        active
            .positions()
            .iter()
            .zip(&layout.distances)
            .map(|(&pos, &l)| {
                (
                    pos,
                    Rusher {
                        n,
                        k,
                        l: l as u64,
                        w: self.target,
                        count: 0,
                        sum: 0,
                        tail: Vec::with_capacity(l),
                    },
                )
            })
            .collect()
    }

    /// Runs the deviation against a protocol instance.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when the layout precondition
    /// fails — the boundary the experiments probe.
    pub fn run(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<Execution, AttackError> {
        let nodes = self.adversary_nodes(protocol, coalition)?;
        Ok(protocol.run_with(nodes))
    }

    /// [`RushingAttack::run`] through a per-thread [`RushingCache`] — the
    /// fully unboxed attack fast path: cached engine, pooled scheduler, a
    /// reused [`Execution`], honest positions on the concrete
    /// [`ALeadNode`] and the whole homogeneous coalition on the concrete
    /// [`Rusher`] — no `Box<dyn Node>` anywhere. Bit-identical outcomes to
    /// [`RushingAttack::run`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when the layout precondition
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if the cache's ring size differs from the protocol's.
    pub fn run_in<'c>(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
        cache: &'c mut RushingCache,
    ) -> Result<&'c Execution, AttackError> {
        let nodes = self.adversary_ring_nodes(protocol, coalition)?;
        Ok(protocol.run_with_in(nodes, cache))
    }

    /// [`RushingAttack::run_in`] over a layout checked once up front, so
    /// a sweep pays only the target check per trial. Bit-identical
    /// outcomes.
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
        protocol: &ALeadUni,
        layout: &RushingLayout,
        cache: &'c mut RushingCache,
    ) -> Result<&'c Execution, AttackError> {
        assert_eq!(
            layout.active.n(),
            protocol.n(),
            "layout is for another ring"
        );
        self.check_target(protocol.n())?;
        Ok(protocol.run_with_in(self.rushers(layout), cache))
    }
}

/// The rushing adversary: pipes the first `n − k` messages (learning every
/// honest secret), then spends its `k` spare sends on
/// `[M, 0 × (k−1−l), secrets of its segment]`, making its outgoing sum `w`
/// while satisfying every condition of Lemma 3.3.
///
/// Public as a concrete type so [`RushingAttack::run_in`]'s homogeneous
/// coalition can store it unboxed; build instances with
/// [`RushingAttack::adversary_ring_nodes`].
pub struct Rusher {
    n: u64,
    k: u64,
    l: u64,
    w: u64,
    count: u64,
    sum: u64,
    tail: Vec<u64>,
}

impl Node<u64> for Rusher {
    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        let m = msg % self.n;
        self.count += 1;
        if self.count > self.n - self.k {
            // Learning is over; surplus deliveries are ignored (we have
            // already terminated in the burst below, so the engine drops
            // them anyway).
            return;
        }
        self.sum = (self.sum + m) % self.n;
        if self.count > self.n - self.k - self.l {
            self.tail.push(m);
        }
        ctx.send(m);
        if self.count == self.n - self.k {
            // All n − k honest secrets observed; the last l of them are
            // exactly the secrets of our honest segment, in the order the
            // validations demand (Lemma 4.5).
            let tail_sum = self.tail.iter().sum::<u64>() % self.n;
            let correcting = (self.w + 2 * self.n - self.sum - tail_sum) % self.n;
            ctx.send(correcting);
            for _ in 0..(self.k - 1 - self.l) {
                ctx.send(0);
            }
            for i in 0..self.tail.len() {
                let v = self.tail[i];
                ctx.send(v);
            }
            ctx.terminate(Some(self.w));
        }
    }
}

/// The lane-parallel [`Rusher`]: one coalition slot of a lockstep group,
/// with the shared receive count and per-lane target, running sum and
/// segment tail. Its control flow depends only on the receive count, so
/// all lanes always stay in step.
pub struct BatchRusher {
    n: u64,
    k: u64,
    l: u64,
    count: u64,
    lanes: usize,
    w: Vec<u64>,
    sum: Vec<u64>,
    /// The segment tail, slot-major: tail value `j` of lane `x` at
    /// `tail[j * lanes + x]`.
    tail: Vec<u64>,
}

impl LockstepNode for BatchRusher {
    fn on_wake(&mut self, _ctx: &mut LaneCtx<'_>) {}

    fn on_message(&mut self, _tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
        let (n, k) = (self.n, self.lanes);
        self.count += 1;
        let learn = self.n - self.k;
        if self.count > learn {
            return;
        }
        let out = ctx.send(0);
        let tail_from = learn - self.l;
        let tail_slot = (self.count > tail_from).then(|| (self.count - tail_from - 1) as usize * k);
        for (lane, (&msg, o)) in lanes.iter().zip(out.iter_mut()).enumerate() {
            let m = fold_mod(msg, n);
            self.sum[lane] = wrap_sub(self.sum[lane] + m, n);
            if let Some(base) = tail_slot {
                self.tail[base + lane] = m;
            }
            *o = m;
        }
        if self.count == learn {
            let out = ctx.send(0);
            for (lane, o) in out.iter_mut().enumerate() {
                let tail_sum = (0..self.l as usize)
                    .map(|j| self.tail[j * k + lane])
                    .sum::<u64>()
                    % n;
                *o = (self.w[lane] + 2 * n - self.sum[lane] - tail_sum) % n;
            }
            for _ in 0..(self.k - 1 - self.l) {
                // Send slots come back holding stale lanes: pad with
                // explicit zeros, as the scalar rusher does.
                ctx.send(0).fill(0);
            }
            for slot in self.tail.chunks_exact(k) {
                ctx.send(0).copy_from_slice(slot);
            }
            ctx.terminate().copy_from_slice(&self.w);
        }
    }
}

/// The rushing coalition of one lockstep group: builds and refreshes the
/// [`BatchRusher`]s for the group's lane targets.
struct RushingLanes<'a> {
    layout: &'a RushingLayout,
    targets: &'a [u64],
}

impl BatchDeviants for RushingLanes<'_> {
    type Node = BatchRusher;

    fn positions(&self) -> &[NodeId] {
        self.layout.active.positions()
    }

    fn build(&mut self, id: NodeId) -> BatchRusher {
        let active = &self.layout.active;
        let j = active
            .positions()
            .binary_search(&id)
            .expect("a coalition position");
        let mut node = BatchRusher {
            n: active.n() as u64,
            k: active.k() as u64,
            l: self.layout.distances[j] as u64,
            count: 0,
            lanes: 0,
            w: Vec::new(),
            sum: Vec::new(),
            tail: Vec::new(),
        };
        self.reset(id, &mut node);
        node
    }

    fn reset(&mut self, _id: NodeId, node: &mut BatchRusher) {
        let k = self.targets.len();
        node.count = 0;
        node.lanes = k;
        node.w.clear();
        node.w.extend_from_slice(self.targets);
        node.sum.clear();
        node.sum.resize(k, 0);
        // Every tail slot is written before it is read.
        node.tail.resize(node.l as usize * k, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::Outcome;

    #[test]
    fn equally_spaced_sqrt_n_controls_every_target() {
        let n = 25;
        let protocol = ALeadUni::new(n).with_seed(3);
        let coalition = Coalition::equally_spaced(n, 5, 1).unwrap();
        for w in [0u64, 1, 7, 24] {
            let exec = RushingAttack::new(w).run(&protocol, &coalition).unwrap();
            assert_eq!(exec.outcome, Outcome::Elected(w), "target {w}");
        }
    }

    #[test]
    fn every_adversary_sends_exactly_n() {
        let n = 16;
        let protocol = ALeadUni::new(n).with_seed(9);
        let coalition = Coalition::equally_spaced(n, 4, 1).unwrap();
        let exec = RushingAttack::new(2).run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(2));
        assert!(exec.stats.sent.iter().all(|&s| s == n as u64));
    }

    #[test]
    fn infeasible_when_a_segment_is_too_long() {
        let n = 36;
        let protocol = ALeadUni::new(n).with_seed(0);
        // k = 4 < √n: equal spacing gives l_j = 8 > k − 1 = 3.
        let coalition = Coalition::equally_spaced(n, 4, 1).unwrap();
        let err = RushingAttack::new(0)
            .run(&protocol, &coalition)
            .unwrap_err();
        assert!(matches!(err, AttackError::Infeasible(_)));
    }

    #[test]
    fn consecutive_coalition_crossover_at_half_n() {
        // Claim D.1: consecutive coalitions are harmless below ⌈(n+1)/2⌉
        // and fully controlling at/above it.
        let n = 17;
        let protocol = ALeadUni::new(n).with_seed(5);
        let below = Coalition::consecutive(n, 8, 1).unwrap(); // l = 9 > 7
        assert!(RushingAttack::new(3).run(&protocol, &below).is_err());
        let above = Coalition::consecutive(n, 9, 1).unwrap(); // l = 8 = k − 1
        let exec = RushingAttack::new(3).run(&protocol, &above).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(3));
    }

    #[test]
    fn origin_in_coalition_behaves_honestly() {
        let n = 25;
        let protocol = ALeadUni::new(n).with_seed(2);
        // Coalition includes 0; active coalition is the other 5, equally
        // spaced with l_j <= 4.
        let mut positions = vec![0];
        positions.extend(
            Coalition::equally_spaced(n, 5, 2)
                .unwrap()
                .positions()
                .to_vec(),
        );
        let coalition = Coalition::new(n, positions).unwrap();
        let exec = RushingAttack::new(11).run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(11));
    }

    #[test]
    fn origin_only_coalition_is_infeasible() {
        let protocol = ALeadUni::new(8).with_seed(0);
        let coalition = Coalition::new(8, vec![0]).unwrap();
        assert!(RushingAttack::new(1).run(&protocol, &coalition).is_err());
    }

    #[test]
    fn adjacent_adversaries_act_as_pipes() {
        // Coalition with an l_j = 0 pair still succeeds.
        let n = 12;
        let protocol = ALeadUni::new(n).with_seed(7);
        let coalition = Coalition::new(n, vec![1, 2, 5, 8, 11]).unwrap();
        // distances: 1->2:0, 2->5:2, 5->8:2, 8->11:2, 11->1:1; all <= k-1=4.
        let exec = RushingAttack::new(6).run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(6));
    }

    #[test]
    fn rejects_out_of_range_target() {
        let protocol = ALeadUni::new(9).with_seed(0);
        let coalition = Coalition::equally_spaced(9, 3, 1).unwrap();
        assert!(RushingAttack::new(9).run(&protocol, &coalition).is_err());
    }
}
