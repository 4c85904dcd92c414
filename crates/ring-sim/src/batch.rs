//! Batch-lockstep execution: k trials of one configuration in one sweep.
//!
//! The honest runs of every ring protocol in this workspace share a
//! property the scalar engine cannot exploit: their *control flow* is
//! data-independent. Which messages are sent, in which order, and when
//! each processor terminates depends only on `(protocol, n)` — the
//! payload values differ per seed, but the event schedule does not
//! (honest nodes only branch on data to *abort*, which never happens in
//! an honest execution). The [`LockstepEngine`] runs `k` seeds of one
//! configuration through a **single** fused-FIFO event stream, so the
//! per-event bookkeeping (queue pop, dispatch, counters) is paid once
//! per *event* instead of once per *trial × event*, and the per-lane
//! payload work is a short contiguous loop over `k` values — the
//! GPU-style structure-of-arrays Monte-Carlo batching trick.
//!
//! Correctness is not entrusted to the lockstep assumption: any branch a
//! batched node cannot take uniformly across all lanes (a would-be abort,
//! a parity violation, a step-limit hit) calls [`LaneCtx::diverge`],
//! [`LockstepEngine::run`] returns `false`, and the caller re-runs those
//! trials through the scalar path — which reproduces the exact per-trial
//! behaviour by construction. Batched results are therefore bit-identical
//! to scalar results in all cases, and the fast path only applies where
//! it is exact.
//!
//! The engine mirrors the scalar fused global-FIFO stream precisely:
//! wake events first (in wake order), then deliveries in send order; a
//! terminated node's deliveries are counted and dropped; `steps` counts
//! wake-ups plus deliveries. Per-trial statistics (`sent`, `received`,
//! `steps`, `delivered`) are shared across lanes — the lockstep property
//! guarantees they are identical — while outputs are per-lane.
//!
//! The stream lives in one power-of-two FIFO ring: a `(tag, to)` header
//! per queued message beside one `k`-lane payload slot. Wakes precede
//! every send in the fused order, so they run straight from the wake list
//! and never enter the ring. The ring grows only when more messages are
//! in flight than it holds, so a group touches memory in proportion to
//! its in-flight messages, not to the length of the run. Slots are
//! reused without clearing: [`LaneCtx::send`] hands out a slot with
//! unspecified contents, and the caller writes every lane.

use crate::engine::Execution;
use crate::outcome::outcome_of;

/// Slots of a fresh ring, and the floor the retained capacity decays to.
const MIN_RING_SLOTS: usize = 16;

/// The queued half of one message; its payload sits in the payload slot
/// of the same ring index.
#[derive(Debug, Clone, Copy, Default)]
struct Header {
    /// Message tag (protocol-defined).
    tag: u8,
    /// Receiving node.
    to: u32,
}

/// The fused FIFO stream of one lockstep group: a power-of-two ring of
/// [`Header`]s with one `lanes`-wide payload slot per header.
#[derive(Debug)]
struct EventRing {
    lanes: usize,
    /// One header per slot; `headers.len()` is the capacity, a power of
    /// two.
    headers: Vec<Header>,
    /// Slot `s`'s lanes at `[s * lanes, (s + 1) * lanes)`.
    payloads: Vec<u64>,
    /// Slot of the oldest queued message.
    head: usize,
    /// Messages queued.
    len: usize,
    /// Most messages queued at once in the current run.
    peak: usize,
    /// Decaying high-water mark of `peak` over recent runs, driving the
    /// shrink-on-idle budget.
    hwm: usize,
}

impl EventRing {
    fn new() -> Self {
        Self {
            lanes: 0,
            headers: vec![Header::default(); MIN_RING_SLOTS],
            payloads: Vec::new(),
            head: 0,
            len: 0,
            peak: 0,
            hwm: 0,
        }
    }

    /// Empties the ring for a `lanes`-wide run. Retained capacity decays
    /// toward a ×4 budget of the recent in-flight high-water mark (the
    /// policy the scalar engine and timed scheduler adopted in the
    /// memory-budget work), so an oversized one-off group does not pin
    /// its peak allocation forever.
    fn reset(&mut self, lanes: usize) {
        self.hwm = self.hwm.max(self.peak);
        let budget = (2 * self.hwm).next_power_of_two().max(MIN_RING_SLOTS);
        if self.headers.len() > 2 * budget {
            self.headers.truncate(budget);
            self.headers.shrink_to_fit();
        }
        // Let the high-water itself decay so the budget tracks recent
        // groups, not the all-time peak.
        self.hwm = self.peak.max(self.hwm / 2);
        self.peak = 0;
        self.head = 0;
        self.len = 0;
        self.lanes = lanes;
        let slots = self.headers.len() * lanes;
        self.payloads.resize(slots, 0);
        if self.payloads.capacity() > 2 * slots {
            self.payloads.shrink_to_fit();
        }
    }

    /// Queues a message and returns its payload slot, contents
    /// unspecified.
    fn push(&mut self, tag: u8, to: u32) -> &mut [u64] {
        if self.len == self.headers.len() {
            self.grow();
        }
        let slot = (self.head + self.len) & (self.headers.len() - 1);
        self.headers[slot] = Header { tag, to };
        self.len += 1;
        self.peak = self.peak.max(self.len);
        let start = slot * self.lanes;
        &mut self.payloads[start..start + self.lanes]
    }

    /// Dequeues the oldest message: its header and its slot, whose
    /// payload stays readable until the next [`EventRing::push`].
    fn pop(&mut self) -> Option<(Header, usize)> {
        if self.len == 0 {
            return None;
        }
        let slot = self.head;
        self.head = (slot + 1) & (self.headers.len() - 1);
        self.len -= 1;
        Some((self.headers[slot], slot))
    }

    fn payload(&self, slot: usize) -> &[u64] {
        &self.payloads[slot * self.lanes..(slot + 1) * self.lanes]
    }

    /// Doubles a full ring. The queue then runs from `head` to the old
    /// end and wraps to `head − 1`; moving the wrapped prefix
    /// `[0, head)` behind the old end keeps it contiguous and in order.
    fn grow(&mut self) {
        let (cap, lanes) = (self.headers.len(), self.lanes);
        self.headers.resize(2 * cap, Header::default());
        self.payloads.resize(2 * cap * lanes, 0);
        self.headers.copy_within(..self.head, cap);
        self.payloads.copy_within(..self.head * lanes, cap * lanes);
    }
}

/// Behaviour of one processor over `k` lockstep trials.
///
/// The mirror of [`crate::Node`] for batched execution: one activation
/// handles the same logical event of all `k` trials at once. Payloads are
/// `k`-lane `u64` slices (`lanes[l]` is trial `l`'s value); messages are
/// distinguished by a small `tag` instead of an enum so the engine stays
/// monomorphic over payload storage.
///
/// Implementations must take the *same* control-flow decisions (sends,
/// termination) for all lanes; whenever a lane would force a different
/// branch — any condition that aborts a scalar honest run — they must
/// call [`LaneCtx::diverge`] instead of guessing.
pub trait LockstepNode {
    /// Called on the node's spontaneous wake-up.
    fn on_wake(&mut self, ctx: &mut LaneCtx<'_>);

    /// Called when a `tag`-tagged message with per-lane payload `lanes`
    /// arrives on the node's incoming ring link.
    fn on_message(&mut self, tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>);
}

/// The uninhabited node: the deviator type of a lockstep group with no
/// coalition, so an honest group's honest/deviant slot enum compiles
/// down to the honest node alone.
impl LockstepNode for std::convert::Infallible {
    fn on_wake(&mut self, _ctx: &mut LaneCtx<'_>) {
        match *self {}
    }

    fn on_message(&mut self, _tag: u8, _lanes: &[u64], _ctx: &mut LaneCtx<'_>) {
        match *self {}
    }
}

/// The action handle of one batched activation — the lockstep analogue
/// of [`crate::Ctx`].
pub struct LaneCtx<'a> {
    succ: u32,
    ring: &'a mut EventRing,
    outputs: &'a mut [u64],
    sent: u64,
    terminated: bool,
    diverged: bool,
}

impl LaneCtx<'_> {
    /// The batch width `k` (lanes per payload).
    pub fn lanes(&self) -> usize {
        self.ring.lanes
    }

    /// Sends one `tag`-tagged message to the ring successor and returns
    /// its `k` payload slots.
    ///
    /// The slots' contents are unspecified on return (a reused ring slot
    /// keeps an earlier message's values): the caller must write every
    /// lane, zeros included.
    pub fn send(&mut self, tag: u8) -> &mut [u64] {
        self.sent += 1;
        self.ring.push(tag, self.succ)
    }

    /// Terminates this node in every lane and returns the `k` output
    /// slots for the caller to fill with per-lane outputs.
    ///
    /// As in the scalar engine, sends issued after termination within the
    /// same activation are still delivered; the node is simply never
    /// activated again.
    pub fn terminate(&mut self) -> &mut [u64] {
        self.terminated = true;
        self.outputs
    }

    /// Declares that the lanes can no longer share one control flow (a
    /// scalar run would abort, or lanes disagree on a branch). The run
    /// stops and [`LockstepEngine::run`] returns `false`; the caller must
    /// re-run these trials through the scalar path.
    pub fn diverge(&mut self) {
        self.diverged = true;
    }
}

/// A reusable engine running `k` trials of one ring configuration in
/// lockstep over one fused event stream.
///
/// Create once per worker with [`LockstepEngine::new`] and call
/// [`LockstepEngine::run`] per trial group; all buffers (event ring,
/// counters, outputs) retain their capacity across runs, so steady-state
/// groups allocate nothing.
#[derive(Debug)]
pub struct LockstepEngine {
    n: usize,
    lanes: usize,
    ring: EventRing,
    /// The popped message's payload, copied out of its ring slot so the
    /// activation can queue new sends (which may reuse that slot) while
    /// reading it.
    incoming: Vec<u64>,
    /// Per-lane outputs, node-major: node `i`'s lanes at
    /// `[i * lanes, (i + 1) * lanes)`. Valid where `has_output[i]`.
    outputs: Vec<u64>,
    has_output: Vec<bool>,
    sent: Vec<u64>,
    received: Vec<u64>,
    steps: u64,
    delivered: u64,
    diverged: bool,
}

impl LockstepEngine {
    /// Creates a lockstep engine for a unidirectional ring of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a ring needs at least 2 nodes, got {n}");
        Self {
            n,
            lanes: 0,
            ring: EventRing::new(),
            incoming: Vec::new(),
            outputs: Vec::new(),
            has_output: vec![false; n],
            sent: vec![0; n],
            received: vec![0; n],
            steps: 0,
            delivered: 0,
            diverged: false,
        }
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The batch width of the most recent [`LockstepEngine::run`].
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Message slots the event ring currently retains (a power of two):
    /// the high-water mark of messages in flight, decayed across runs.
    pub fn retained_ring_capacity(&self) -> usize {
        self.ring.headers.len()
    }

    /// Runs `lanes` lockstep trials: wakes `wakes` in order, then drives
    /// the fused FIFO stream to quiescence (or to `step_limit`).
    ///
    /// Returns `true` if the run completed in lockstep; `false` if any
    /// activation diverged (or the step limit was hit), in which case the
    /// engine's results are meaningless and the caller must re-run the
    /// trials through the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != n`, `lanes == 0`, or a wake id is out of
    /// range.
    pub fn run<N: LockstepNode>(
        &mut self,
        lanes: usize,
        nodes: &mut [N],
        wakes: &[usize],
        step_limit: u64,
    ) -> bool {
        assert_eq!(nodes.len(), self.n, "need one node per ring position");
        assert!(lanes > 0, "lockstep run needs at least one lane");
        if let Some(w) = wakes.iter().find(|&&w| w >= self.n) {
            panic!("wake id {w} out of range");
        }
        self.reset(lanes);
        // Mirror the scalar fused loop exactly: the limit check runs
        // before the step is counted; hitting it means the lockstep
        // result cannot represent the scalar `StepLimit` outcome, so it
        // is treated as a divergence. Every wake precedes every send in
        // the fused stream, so the wakes run first, straight from `wakes`.
        for &me in wakes {
            if self.steps >= step_limit {
                return false;
            }
            self.steps += 1;
            if !self.has_output[me] {
                self.activate(nodes, me, None);
                if self.diverged {
                    return false;
                }
            }
        }
        while let Some((header, slot)) = self.ring.pop() {
            if self.steps >= step_limit {
                return false;
            }
            self.steps += 1;
            let to = header.to as usize;
            self.received[to] += 1;
            self.delivered += 1;
            if !self.has_output[to] {
                self.incoming.copy_from_slice(self.ring.payload(slot));
                self.activate(nodes, to, Some(header.tag));
                if self.diverged {
                    return false;
                }
            }
        }
        true
    }

    /// Dispatches one activation to `nodes[me]` with field-split borrows,
    /// then folds the activation's effects back into the engine.
    fn activate<N: LockstepNode>(&mut self, nodes: &mut [N], me: usize, tag: Option<u8>) {
        let lanes = self.lanes;
        let succ = if me + 1 == self.n { 0 } else { me + 1 } as u32;
        let out_start = me * lanes;
        let mut ctx = LaneCtx {
            succ,
            ring: &mut self.ring,
            outputs: &mut self.outputs[out_start..out_start + lanes],
            sent: 0,
            terminated: false,
            diverged: false,
        };
        match tag {
            None => nodes[me].on_wake(&mut ctx),
            Some(t) => nodes[me].on_message(t, &self.incoming, &mut ctx),
        }
        let LaneCtx {
            sent,
            terminated,
            diverged,
            ..
        } = ctx;
        self.sent[me] += sent;
        if terminated {
            self.has_output[me] = true;
        }
        if diverged {
            self.diverged = true;
        }
    }

    /// Extracts trial `lane`'s [`Execution`] from the last completed run,
    /// bit-identical to the scalar engine's output for the same trial.
    ///
    /// Only meaningful after [`LockstepEngine::run`] returned `true`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn execution_into(&self, lane: usize, out: &mut Execution) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        out.outputs.clear();
        for i in 0..self.n {
            out.outputs.push(if self.has_output[i] {
                Some(Some(self.outputs[i * self.lanes + lane]))
            } else {
                None
            });
        }
        out.stats.steps = self.steps;
        out.stats.delivered = self.delivered;
        out.stats.sent.clear();
        out.stats.sent.extend_from_slice(&self.sent);
        out.stats.received.clear();
        out.stats.received.extend_from_slice(&self.received);
        // Lockstep runs never hit the step limit (that diverges), so the
        // stream always drained: `all_delivered` is unconditionally true,
        // exactly as in the scalar fused path on a completed run.
        out.outcome = outcome_of(&out.outputs, true);
    }

    /// Resets per-run state for a `lanes`-wide group, retaining capacity.
    fn reset(&mut self, lanes: usize) {
        self.lanes = lanes;
        self.ring.reset(lanes);
        self.incoming.resize(lanes, 0);
        self.outputs.clear();
        self.outputs.resize(self.n * lanes, 0);
        self.has_output.clear();
        self.has_output.resize(self.n, false);
        self.sent.clear();
        self.sent.resize(self.n, 0);
        self.received.clear();
        self.received.resize(self.n, 0);
        self.steps = 0;
        self.delivered = 0;
        self.diverged = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;

    /// A k-lane ping-pong: the origin sends per-lane counters around a
    /// 2-ring until they reach a bound, then both nodes elect the bound.
    struct Pong {
        bound: u64,
        last: Vec<u64>,
    }

    impl LockstepNode for Pong {
        fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
            let out = ctx.send(0);
            out.copy_from_slice(&self.last);
        }

        fn on_message(&mut self, _tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
            self.last.copy_from_slice(lanes);
            if lanes.iter().all(|&v| v >= 3) {
                ctx.terminate().copy_from_slice(lanes);
                ctx.send(0).copy_from_slice(lanes);
            } else if lanes.iter().all(|&v| v < 3) {
                let out = ctx.send(0);
                for (o, &v) in out.iter_mut().zip(lanes) {
                    *o = v + self.bound;
                }
            } else {
                ctx.diverge();
            }
        }
    }

    #[test]
    fn lockstep_ping_pong_elects_per_lane() {
        let mut engine = LockstepEngine::new(2);
        let mut nodes = vec![
            Pong {
                bound: 1,
                last: vec![0, 1],
            },
            Pong {
                bound: 1,
                last: vec![0, 0],
            },
        ];
        // Lanes start at 0 and 1 and both count up by 1 per hop; they hit
        // ≥3 on the same hop only if they started equal — lanes 0/1 force
        // a divergence, which must be reported, not mis-executed.
        let ok = engine.run(2, &mut nodes, &[0], 1000);
        assert!(!ok, "unequal lanes must diverge");

        let mut nodes = vec![
            Pong {
                bound: 1,
                last: vec![0, 0],
            },
            Pong {
                bound: 1,
                last: vec![0, 0],
            },
        ];
        let ok = engine.run(2, &mut nodes, &[0], 1000);
        assert!(ok);
        let mut exec = Execution::default();
        for lane in 0..2 {
            engine.execution_into(lane, &mut exec);
            assert_eq!(exec.outcome, Outcome::Elected(3), "lane {lane}");
            assert_eq!(exec.stats.delivered, 6);
            assert_eq!(exec.stats.steps, 7);
        }
    }

    #[test]
    fn step_limit_diverges() {
        struct Loopy;
        impl LockstepNode for Loopy {
            fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
                ctx.send(0);
            }
            fn on_message(&mut self, _t: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
                ctx.send(0).copy_from_slice(lanes);
            }
        }
        let mut engine = LockstepEngine::new(2);
        let mut nodes = vec![Loopy, Loopy];
        assert!(!engine.run(1, &mut nodes, &[0], 100));
    }

    #[test]
    fn terminated_nodes_drop_but_count_deliveries() {
        // Node 1 terminates on its first delivery; node 0 sends twice at
        // wake. The second delivery must be counted and dropped.
        struct Once;
        impl LockstepNode for Once {
            fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
                ctx.send(0);
                ctx.send(0);
            }
            fn on_message(&mut self, _t: u8, _l: &[u64], ctx: &mut LaneCtx<'_>) {
                ctx.terminate();
            }
        }
        struct Sink;
        impl LockstepNode for Sink {
            fn on_wake(&mut self, _ctx: &mut LaneCtx<'_>) {}
            fn on_message(&mut self, _t: u8, _l: &[u64], ctx: &mut LaneCtx<'_>) {
                ctx.terminate();
            }
        }
        enum Mix {
            Once(Once),
            Sink(Sink),
        }
        impl LockstepNode for Mix {
            fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
                match self {
                    Mix::Once(x) => x.on_wake(ctx),
                    Mix::Sink(x) => x.on_wake(ctx),
                }
            }
            fn on_message(&mut self, t: u8, l: &[u64], ctx: &mut LaneCtx<'_>) {
                match self {
                    Mix::Once(x) => x.on_message(t, l, ctx),
                    Mix::Sink(x) => x.on_message(t, l, ctx),
                }
            }
        }
        let mut engine = LockstepEngine::new(2);
        let mut nodes = vec![Mix::Once(Once), Mix::Sink(Sink)];
        assert!(engine.run(3, &mut nodes, &[0], 100));
        let mut exec = Execution::default();
        engine.execution_into(0, &mut exec);
        // Node 1 terminated on the first delivery but both deliveries are
        // counted (wake + 2 deliveries = 3 steps)... node 0 never
        // terminates, so the run deadlocks — exactly what the scalar
        // engine reports for this behaviour.
        assert_eq!(exec.stats.delivered, 2);
        assert_eq!(exec.stats.received[1], 2);
        assert_eq!(exec.stats.steps, 3);
        assert!(exec.outcome.is_fail());
    }

    #[test]
    fn payload_capacity_decays_after_oversized_group() {
        let mut engine = LockstepEngine::new(2);
        /// Node 0 bursts `burst` messages at wake; everyone then relays
        /// `rounds` more before terminating.
        struct Burst {
            burst: usize,
            rounds: u64,
        }
        impl LockstepNode for Burst {
            fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
                for _ in 0..self.burst {
                    ctx.send(0).fill(0);
                }
            }
            fn on_message(&mut self, _t: u8, l: &[u64], ctx: &mut LaneCtx<'_>) {
                if self.rounds == 0 {
                    ctx.terminate().copy_from_slice(l);
                } else {
                    self.rounds -= 1;
                    ctx.send(0).copy_from_slice(l);
                }
            }
        }
        let burst = |burst, rounds| vec![Burst { burst, rounds }, Burst { burst: 0, rounds }];
        assert!(engine.run(64, &mut burst(4096, 8192), &[0], u64::MAX));
        let peak = engine.retained_ring_capacity();
        let peak_words = engine.ring.payloads.capacity();
        assert!(peak >= 4096, "the ring grows to the in-flight count");
        for _ in 0..16 {
            assert!(engine.run(2, &mut burst(1, 2), &[0], u64::MAX));
        }
        // Back to the floor: the ring holds 16 slots of 2 lanes again.
        let small = engine.ring.payloads.capacity();
        assert_eq!(engine.retained_ring_capacity(), MIN_RING_SLOTS);
        assert!(
            small <= 2 * MIN_RING_SLOTS * 2,
            "payload capacity must decay: peak {peak_words} words, now {small}"
        );
    }
}
