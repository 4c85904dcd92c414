//! Property-based tests for the simulator substrate.

use proptest::prelude::*;
use ring_sim::batch::{LaneCtx, LockstepEngine, LockstepNode};
use ring_sim::rng::{mix, SplitMix64};
use ring_sim::{
    reference, Ctx, Engine, EnumerativeScheduler, Execution, FifoScheduler, FnNode, LifoScheduler,
    Node, NodeId, Outcome, PackedToken, RandomScheduler, Scheduler, SimBuilder, Token, Topology,
};

/// Sorted multiset of tokens for conservation comparisons.
fn sorted(mut tokens: Vec<Token>) -> Vec<Token> {
    tokens.sort_unstable_by_key(|t| match *t {
        Token::Wake(i) => (0, i),
        Token::Deliver(e) => (1, e),
    });
    tokens
}

/// Drives `s` through an arbitrary interleaved push/pop sequence
/// (`ops[i] = Some(token)` pushes, `None` pops), then drains it, and
/// checks the [`Scheduler`] contract: every pop returns a token whose
/// push is still outstanding (nothing invented, nothing duplicated),
/// `len` tracks the pending count, and draining eventually pops every
/// pushed token (eventual delivery).
fn check_scheduler_contract(mut s: Box<dyn Scheduler>, ops: &[Option<Token>]) {
    let mut outstanding: Vec<Token> = Vec::new();
    let mut popped: Vec<Token> = Vec::new();
    for op in ops {
        match op {
            Some(token) => {
                s.push(*token);
                outstanding.push(*token);
            }
            None => {
                let before = s.len();
                match s.pop() {
                    Some(t) => {
                        let at = outstanding
                            .iter()
                            .position(|&o| o == t)
                            .expect("scheduler invented or duplicated a token");
                        outstanding.swap_remove(at);
                        popped.push(t);
                        assert_eq!(s.len(), before - 1);
                    }
                    None => assert!(outstanding.is_empty(), "pop refused a pending token"),
                }
            }
        }
        assert_eq!(s.len(), outstanding.len());
        assert_eq!(s.is_empty(), outstanding.is_empty());
    }
    while let Some(t) = s.pop() {
        let at = outstanding
            .iter()
            .position(|&o| o == t)
            .expect("drain invented or duplicated a token");
        outstanding.swap_remove(at);
        popped.push(t);
    }
    assert!(
        outstanding.is_empty(),
        "tokens never delivered: {outstanding:?}"
    );
    let pushed: Vec<Token> = ops.iter().flatten().copied().collect();
    assert_eq!(sorted(popped), sorted(pushed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `next_below` is always in range and deterministic per seed.
    #[test]
    fn rng_next_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..10 {
            let x = a.next_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_below(bound));
        }
    }

    /// Derived streams never collide with the parent stream prefix.
    #[test]
    fn rng_derive_separates_streams(seed in any::<u64>(), salt in 0u64..1000) {
        let parent = SplitMix64::new(seed);
        let mut c1 = parent.derive(salt);
        let mut c2 = parent.derive(salt.wrapping_add(1));
        prop_assert_ne!(c1.next_u64(), c2.next_u64());
    }

    /// Every scheduler returns exactly the multiset of pushed tokens.
    #[test]
    fn schedulers_conserve_tokens(edges in proptest::collection::vec(0usize..50, 1..80), seed in any::<u64>()) {
        let run = |mut s: Box<dyn Scheduler>| {
            for &e in &edges {
                s.push(Token::Deliver(e));
            }
            let mut out = Vec::new();
            while let Some(Token::Deliver(e)) = s.pop() {
                out.push(e);
            }
            out.sort_unstable();
            out
        };
        let mut expect = edges.clone();
        expect.sort_unstable();
        prop_assert_eq!(run(Box::new(FifoScheduler::new())), expect.clone());
        prop_assert_eq!(run(Box::new(LifoScheduler::new())), expect.clone());
        prop_assert_eq!(run(Box::new(RandomScheduler::new(seed))), expect.clone());
        prop_assert_eq!(run(Box::new(EnumerativeScheduler::new())), expect);
    }

    /// For ANY interleaved push/pop sequence, every scheduler — FIFO,
    /// LIFO, seeded-random and the enumerative model checker — eventually
    /// pops each pushed token exactly once and never invents one.
    #[test]
    fn schedulers_honor_contract_under_interleaved_ops(
        raw_ops in proptest::collection::vec(0u64..100, 0..120),
        seed in any::<u64>(),
    ) {
        // Encode each draw as one op: 40% pops, 60% pushes of a wake or
        // deliver token with a small id space (so duplicates are common).
        let ops: Vec<Option<Token>> = raw_ops
            .into_iter()
            .map(|v| match v % 5 {
                0 | 1 => None,
                2 => Some(Token::Wake((v / 5 % 10) as usize)),
                _ => Some(Token::Deliver((v / 5 % 10) as usize)),
            })
            .collect();
        check_scheduler_contract(Box::new(FifoScheduler::new()), &ops);
        check_scheduler_contract(Box::new(LifoScheduler::new()), &ops);
        check_scheduler_contract(Box::new(RandomScheduler::new(seed)), &ops);
        check_scheduler_contract(Box::new(EnumerativeScheduler::new()), &ops);
    }

    /// The packed-token schedulers must reproduce the pre-packing
    /// `VecDeque`/`Vec<Token>` implementations **bit for bit**: for any
    /// interleaved push/pop sequence, all three policies (FIFO, LIFO,
    /// seeded-random) pop the exact same token at every step — including
    /// `None`s on empty pops and the trailing drain. This is the oracle
    /// that licenses the `FifoScheduler` masked ring buffer and the 8-byte
    /// `PackedToken` storage as pure layout changes.
    #[test]
    fn packed_schedulers_match_reference_implementations(
        raw_ops in proptest::collection::vec(0u64..200, 0..160),
        seed in any::<u64>(),
    ) {
        // ~1/3 pops, ~2/3 pushes of wake/deliver tokens over a small id
        // space; a mid-sequence `clear` exercises storage reuse.
        let ops: Vec<Option<Token>> = raw_ops
            .iter()
            .map(|v| match v % 6 {
                0 | 1 => None,
                2 => Some(Token::Wake((v / 6 % 12) as usize)),
                _ => Some(Token::Deliver((v / 6 % 12) as usize)),
            })
            .collect();
        let differential = |mut packed: Box<dyn Scheduler>, mut oracle: Box<dyn Scheduler>| {
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Some(token) => {
                        // Alternate the entry form so both the enum and
                        // the packed push surface are exercised.
                        if step % 2 == 0 {
                            packed.push(*token);
                        } else {
                            packed.push_packed(PackedToken::from(*token));
                        }
                        oracle.push(*token);
                    }
                    None => {
                        prop_assert_eq!(packed.pop(), oracle.pop(), "step {}", step);
                    }
                }
                prop_assert_eq!(packed.len(), oracle.len(), "len at step {}", step);
                if step == ops.len() / 2 {
                    packed.clear();
                    oracle.clear();
                }
            }
            loop {
                let (a, b) = (packed.pop_packed().map(PackedToken::decode), oracle.pop());
                prop_assert_eq!(a, b, "drain");
                if b.is_none() {
                    break;
                }
            }
            Ok(())
        };
        differential(
            Box::new(FifoScheduler::new()),
            Box::new(reference::FifoScheduler::new()),
        )?;
        differential(
            Box::new(LifoScheduler::new()),
            Box::new(reference::LifoScheduler::new()),
        )?;
        differential(
            Box::new(RandomScheduler::new(seed)),
            Box::new(reference::RandomScheduler::new(seed)),
        )?;
    }

    /// On a unidirectional ring every oblivious schedule produces the same
    /// outcome (the paper's Section 2 observation).
    #[test]
    fn ring_outcomes_are_schedule_independent(n in 3usize..12, laps in 1u64..4, seed in any::<u64>()) {
        let target = laps * n as u64;
        let build = || {
            let mut b: SimBuilder<'_, u64> = SimBuilder::new(Topology::ring(n));
            for i in 0..n {
                let node = FnNode::new(move |_f: NodeId, m: u64, ctx: &mut Ctx<'_, u64>| {
                    if m >= target {
                        if m < target + n as u64 - 1 {
                            ctx.send(m + 1);
                        }
                        ctx.terminate(Some(target));
                    } else {
                        ctx.send(m + 1);
                    }
                });
                if i == 0 {
                    b = b.node(0, FnNode::new(move |_f: NodeId, m: u64, ctx: &mut Ctx<'_, u64>| {
                        if m >= target {
                            if m < target + n as u64 - 1 {
                                ctx.send(m + 1);
                            }
                            ctx.terminate(Some(target));
                        } else {
                            ctx.send(m + 1);
                        }
                    }).on_wake(|ctx| ctx.send(1)));
                } else {
                    b = b.node(i, node);
                }
            }
            b.wake(0)
        };
        let fifo = build().scheduler(FifoScheduler::new()).run();
        let lifo = build().scheduler(LifoScheduler::new()).run();
        let rand = build().scheduler(RandomScheduler::new(seed)).run();
        prop_assert_eq!(fifo.outcome, Outcome::Elected(target));
        prop_assert_eq!(lifo.outcome, fifo.outcome);
        prop_assert_eq!(rand.outcome, fifo.outcome);
    }

    /// Message conservation: everything sent is eventually delivered (no
    /// deadlock scenarios here because every node replies until target).
    #[test]
    fn sends_equal_deliveries(n in 2usize..8) {
        let mut b: SimBuilder<'_, u64> = SimBuilder::new(Topology::ring(n));
        for i in 0..n {
            b = b.node(
                i,
                FnNode::new(move |_f: NodeId, m: u64, ctx: &mut Ctx<'_, u64>| {
                    if m == 0 {
                        ctx.terminate(Some(1));
                    } else {
                        ctx.send(m - 1);
                        ctx.terminate(Some(1));
                    }
                })
                .on_wake(move |ctx| {
                    ctx.send(3);
                }),
            );
        }
        let exec = b.wake_all().run();
        prop_assert_eq!(exec.stats.total_sent(), exec.stats.delivered);
    }
}

/// The control flow of one test node, shared by its scalar and lockstep
/// twins: how many data and padding messages each activation sends and
/// when the node terminates. It never looks at payloads, so both twins
/// take the same branches and only the values differ per lane.
struct Script {
    rng: SplitMix64,
    /// Data messages of a wake-up; deliveries send `0..=burst`.
    burst: u64,
    /// Activations before the node terminates.
    life: u64,
    /// Sends left; bounds the run.
    budget: u64,
    acts: u64,
}

impl Script {
    fn new(seed: u64, id: usize, burst: u64) -> Self {
        let mut rng = SplitMix64::new(seed).derive(id as u64);
        let life = 1 + rng.next_below(12);
        Self {
            rng,
            burst,
            life,
            budget: 4 * burst,
            acts: 0,
        }
    }

    /// The next activation's `(data sends, padding sends, terminate)`.
    /// Wake-ups burst at full size, so the in-flight count passes the
    /// ring's initial capacity within one activation.
    fn next(&mut self, wake: bool) -> (u64, u64, bool) {
        self.acts += 1;
        let data = if wake {
            self.burst
        } else {
            self.rng.next_below(self.burst + 1)
        };
        let data = data.min(self.budget);
        self.budget -= data;
        let pad = self.rng.next_below(3).min(self.budget);
        self.budget -= pad;
        (data, pad, self.acts >= self.life)
    }
}

/// Folds a received `(tag, value)` into a node's running digest.
fn absorb(acc: u64, tag: u8, value: u64) -> u64 {
    mix(acc ^ value.rotate_left(17) ^ (u64::from(tag) << 56))
}

/// The scalar twin: data messages carry digests of everything received,
/// padding carries zero, and the output is the final digest.
struct ScalarTwin {
    script: Script,
    acc: u64,
}

impl ScalarTwin {
    fn act(&mut self, wake: bool, ctx: &mut Ctx<'_, (u8, u64)>) {
        let (data, pad, terminate) = self.script.next(wake);
        for j in 0..data {
            ctx.send((0, absorb(self.acc, 0, j)));
        }
        if terminate {
            ctx.terminate(Some(self.acc));
        }
        for _ in 0..pad {
            ctx.send((1, 0));
        }
    }
}

impl Node<(u8, u64)> for ScalarTwin {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, (u8, u64)>) {
        self.act(true, ctx);
    }

    fn on_message(&mut self, _from: NodeId, (tag, value): (u8, u64), ctx: &mut Ctx<'_, (u8, u64)>) {
        self.acc = absorb(self.acc, tag, value);
        self.act(false, ctx);
    }
}

/// The lockstep twin: [`ScalarTwin`] over `k` lanes. Every send writes
/// every lane, padding zeros included, since reused ring slots come back
/// holding stale values.
struct LaneTwin {
    script: Script,
    acc: Vec<u64>,
}

impl LaneTwin {
    fn act(&mut self, wake: bool, ctx: &mut LaneCtx<'_>) {
        let (data, pad, terminate) = self.script.next(wake);
        for j in 0..data {
            for (o, &a) in ctx.send(0).iter_mut().zip(&self.acc) {
                *o = absorb(a, 0, j);
            }
        }
        if terminate {
            ctx.terminate().copy_from_slice(&self.acc);
        }
        for _ in 0..pad {
            ctx.send(1).fill(0);
        }
    }
}

impl LockstepNode for LaneTwin {
    fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
        self.act(true, ctx);
    }

    fn on_message(&mut self, tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
        for (a, &v) in self.acc.iter_mut().zip(lanes) {
            *a = absorb(*a, tag, v);
        }
        self.act(false, ctx);
    }
}

/// Lane `lane`'s initial digest at node `id`.
fn lane_acc(seed: u64, lane: usize, id: usize) -> u64 {
    mix(seed ^ mix(lane as u64) ^ (id as u64).rotate_left(32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lockstep event ring against the scalar FIFO engine, lane by
    /// lane: bursts that pass the ring's initial capacity inside one
    /// activation (so it grows mid-activation, and wraps as the stream
    /// drains and refills), explicitly zeroed padding, and nodes that
    /// terminate with messages still queued to them. The outputs are
    /// digests of every payload received, so the full `Execution`
    /// comparison covers the payload values. One engine serves every
    /// width, so width changes reuse the retained ring.
    #[test]
    fn lockstep_ring_matches_scalar_fifo_engine(
        seed in any::<u64>(),
        n in 2usize..8,
        burst in 17u64..48,
    ) {
        let mut order = SplitMix64::new(seed ^ 0x5eed);
        let mut wakes: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            wakes.swap(i, order.next_below(i as u64 + 1) as usize);
        }
        wakes.truncate(1 + order.next_below(n as u64) as usize);
        let limit = 1_000_000;
        let mut lockstep = LockstepEngine::new(n);
        let mut scalar = Engine::new(Topology::ring(n));
        let mut exec = Execution::default();
        for width in [1usize, 2, 7, 8, 16, 64] {
            let lane_seed = seed.wrapping_add(width as u64);
            let mut nodes: Vec<LaneTwin> = (0..n)
                .map(|id| LaneTwin {
                    script: Script::new(seed, id, burst),
                    acc: (0..width).map(|lane| lane_acc(lane_seed, lane, id)).collect(),
                })
                .collect();
            prop_assert!(lockstep.run(width, &mut nodes, &wakes, limit));
            prop_assert!(lockstep.retained_ring_capacity() >= burst as usize);
            for lane in 0..width {
                let mut twins: Vec<ScalarTwin> = (0..n)
                    .map(|id| ScalarTwin {
                        script: Script::new(seed, id, burst),
                        acc: lane_acc(lane_seed, lane, id),
                    })
                    .collect();
                let reference = scalar.run(&mut twins, &wakes, &mut FifoScheduler::new(), limit);
                lockstep.execution_into(lane, &mut exec);
                prop_assert_eq!(&exec, &reference, "width {} lane {}", width, lane);
            }
        }
    }
}
