//! Differential tests of the engine's execution paths.
//!
//! The engine exposes one semantics through several entry points tuned for
//! different callers: the one-shot `SimBuilder` (fresh working set per
//! run), `Engine::run` / `Engine::run_into` over boxed `Box<dyn Node>`
//! mixes (allocation reuse) and over a homogeneous node vector (the
//! honest fast path: no boxing, static dispatch), the
//! arena-pooled `run_ring_honest_pooled_into` batch loop, and the
//! `run_with_in`/`TrialCache` attack fast path. Since the packed-token /
//! link-slab engine landed, each protocol additionally runs through an
//! `Engine::new_with_general_links` oracle — the general-topology
//! `VecDeque` link layout — against the default ring `LinkSlab` layout.
//! Every pair must produce *identical* `Execution`s — outcome, per-node
//! outputs, and every counter — for every protocol, ring size and seed.
//! These property tests are the oracle that keeps the fast paths honest.

use fle_attacks::{
    BasicSingleAttack, BasicSingleCache, PhaseGuessAttack, PhaseRushingAttack, PhaseRushingCache,
    PhaseSumAttack, RushingAttack, RushingCache,
};
use fle_core::protocols::{
    run_ring_honest_in, run_ring_honest_pooled_into, ALeadTrialCache, ALeadUni, BasicLead,
    BasicTrialCache, FleProtocol, PhaseAsyncLead, PhaseSumLead, PhaseTrialCache,
};
use fle_core::Coalition;
use proptest::prelude::*;
use ring_sim::{
    default_step_limit, ArenaBacked, Engine, Execution, FifoScheduler, Node, Topology, TrialArena,
};

/// Drives one protocol instance through every engine entry point against
/// the `SimBuilder` reference execution. The engine and the `run_into`
/// out-parameter are reused across paths, so buffer-reuse bugs surface as
/// cross-run contamination.
fn assert_paths_agree<M: 'static, N: Node<M> + ArenaBacked>(
    n: usize,
    wakes: &[usize],
    reference: &Execution,
    engine: &mut Engine<M>,
    mut boxed: impl FnMut() -> Vec<Box<dyn Node<M>>>,
    mut mono: impl FnMut(usize) -> N,
    mut pooled: impl FnMut(usize, &mut TrialArena) -> N,
) {
    let limit = default_step_limit(n);

    let via_run = engine.run(&mut boxed(), wakes, &mut FifoScheduler::new(), limit);
    assert_eq!(&via_run, reference, "Engine::run vs SimBuilder");

    // The out-parameter starts dirty (filled by the previous path) and is
    // reused below — run_into must overwrite it completely each time.
    let mut out = via_run;
    engine.run_into(
        &mut boxed(),
        wakes,
        &mut FifoScheduler::new(),
        limit,
        &mut out,
    );
    assert_eq!(&out, reference, "Engine::run_into vs SimBuilder");

    let mut mono_nodes: Vec<N> = (0..n).map(&mut mono).collect();
    let mut scheduler = FifoScheduler::new();
    let via_mono = engine.run(&mut mono_nodes, wakes, &mut scheduler, limit);
    assert_eq!(&via_mono, reference, "Engine::run (unboxed) vs SimBuilder");

    // Reused scheduler + reused out-parameter: the zero-allocation path.
    let mut mono_nodes: Vec<N> = (0..n).map(&mut mono).collect();
    engine.run_into(&mut mono_nodes, wakes, &mut scheduler, limit, &mut out);
    assert_eq!(&out, reference, "Engine::run_into (unboxed) vs SimBuilder");

    // The arena-pooled batch loop, twice over the same arena and node
    // buffer: the second pass runs entirely on reclaimed stores, so a
    // stale or mis-reset buffer surfaces as a mismatch.
    let mut arena = TrialArena::new();
    let mut nodes_buf: Vec<N> = Vec::new();
    for pass in 0..2 {
        run_ring_honest_pooled_into(
            engine,
            n,
            &mut pooled,
            wakes,
            &mut nodes_buf,
            &mut scheduler,
            &mut arena,
            &mut out,
        );
        assert_eq!(
            &out, reference,
            "run_ring_honest_pooled_into (pass {pass}) vs SimBuilder"
        );
    }

    let via_honest_in = run_ring_honest_in(engine, n, mono, wakes);
    assert_eq!(
        &via_honest_in, reference,
        "run_ring_honest_in vs SimBuilder"
    );
}

/// Runs the same honest instance through every engine storage layout:
/// the fused global-FIFO stream (what `FifoScheduler` rides) on both the
/// ring `LinkSlab` engine and the forced general-topology `VecDeque`
/// engine, plus the *split* token/link path driven by
/// `ring_sim::reference::FifoScheduler` (identical pop order,
/// `is_global_fifo` = false) on both layouts. All four must equal the
/// `SimBuilder` reference. Engines are reused for a second pass so a
/// stale slab cursor or dirty-list bug surfaces as a second-run mismatch.
fn assert_link_layouts_agree<M, N: Node<M> + ArenaBacked>(
    n: usize,
    wakes: &[usize],
    reference: &Execution,
    mut mono: impl FnMut(usize) -> N,
) {
    let limit = default_step_limit(n);
    let mut slab = Engine::new(Topology::ring(n));
    let mut general = Engine::new_with_general_links(Topology::ring(n));
    assert!(slab.uses_ring_slab() && !general.uses_ring_slab());
    for pass in 0..2 {
        let via_slab = run_ring_honest_in(&mut slab, n, &mut mono, wakes);
        assert_eq!(&via_slab, reference, "fused on slab engine (pass {pass})");
        let via_general = run_ring_honest_in(&mut general, n, &mut mono, wakes);
        assert_eq!(
            &via_general, reference,
            "fused on general-links engine (pass {pass})"
        );
        let mut nodes: Vec<N> = (0..n).map(&mut mono).collect();
        let split_slab = slab.run(
            &mut nodes,
            wakes,
            &mut ring_sim::reference::FifoScheduler::new(),
            limit,
        );
        assert_eq!(&split_slab, reference, "split LinkSlab path (pass {pass})");
        let mut nodes: Vec<N> = (0..n).map(&mut mono).collect();
        let split_general = general.run(
            &mut nodes,
            wakes,
            &mut ring_sim::reference::FifoScheduler::new(),
            limit,
        );
        assert_eq!(
            &split_general, reference,
            "split VecDeque-links path (pass {pass})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn basic_lead_paths_agree(seed in any::<u64>(), n in 2usize..24) {
        let p = BasicLead::new(n).with_seed(seed);
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring(n));
        assert_paths_agree(
            n,
            &p.wakes(),
            &reference,
            &mut engine,
            || (0..n).map(|id| p.honest_node(id)).collect(),
            |id| p.honest_ring_node(id),
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_link_layouts_agree(n, &p.wakes(), &reference, |id| p.honest_ring_node(id));
        prop_assert_eq!(p.run_honest_in(&mut engine), reference);
    }

    #[test]
    fn a_lead_uni_paths_agree(seed in any::<u64>(), n in 2usize..24) {
        let p = ALeadUni::new(n).with_seed(seed);
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring(n));
        assert_paths_agree(
            n,
            &p.wakes(),
            &reference,
            &mut engine,
            || (0..n).map(|id| p.honest_node(id)).collect(),
            |id| p.honest_ring_node(id),
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_link_layouts_agree(n, &p.wakes(), &reference, |id| p.honest_ring_node(id));
        prop_assert_eq!(p.run_honest_in(&mut engine), reference);
    }

    #[test]
    fn phase_async_paths_agree(seed in any::<u64>(), key in any::<u64>(), n in 4usize..24) {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(key);
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring(n));
        assert_paths_agree(
            n,
            &p.wakes(),
            &reference,
            &mut engine,
            || (0..n).map(|id| p.honest_node(id)).collect(),
            |id| p.honest_ring_node(id),
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_link_layouts_agree(n, &p.wakes(), &reference, |id| p.honest_ring_node(id));
        prop_assert_eq!(p.run_honest_in(&mut engine), reference);
    }

    #[test]
    fn phase_sum_paths_agree(seed in any::<u64>(), n in 4usize..24) {
        let p = PhaseSumLead::new(n).with_seed(seed);
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring(n));
        assert_paths_agree(
            n,
            &p.wakes(),
            &reference,
            &mut engine,
            || (0..n).map(|id| p.honest_node(id)).collect(),
            |id| p.honest_ring_node(id),
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_link_layouts_agree(n, &p.wakes(), &reference, |id| p.honest_ring_node(id));
        prop_assert_eq!(p.run_honest_in(&mut engine), reference);
    }
}

// ---------------------------------------------------------------------------
// Attack-path differentials: `run_with_in` (cached engine + MixNode) vs
// `SimBuilder::run_with`, for every protocol. The cache is reused across
// two runs per case so cross-trial contamination in the attack fast path
// would surface as a second-run mismatch.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn basic_single_attack_paths_agree(
        seed in any::<u64>(),
        n in 3usize..24,
        adv in 0usize..24,
        w in 0u64..24,
    ) {
        let adv = adv % n;
        let w = w % n as u64;
        let p = BasicLead::new(n).with_seed(seed);
        let attack = BasicSingleAttack::new(adv, w);
        let reference = attack.run(&p).expect("always feasible in range");
        // Boxed mix through the generic cache…
        let mut cache = BasicTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = vec![attack.adversary_node(&p).expect("feasible")];
            let exec = p.run_with_in(nodes, &mut cache);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the fully monomorphized single-deviator fast path.
        let mut cache = BasicSingleCache::ring(n);
        for pass in 0..2 {
            let exec = attack.run_in(&p, &mut cache).expect("feasible");
            prop_assert_eq!(exec, &reference, "concrete pass {}", pass);
        }
    }

    #[test]
    fn rushing_attack_paths_agree(seed in any::<u64>(), n in 16usize..26, w in 0u64..16) {
        let p = ALeadUni::new(n).with_seed(seed);
        let coalition = Coalition::equally_spaced(n, 5, 1).expect("valid layout");
        let attack = RushingAttack::new(w);
        prop_assume!(attack.plan(&p, &coalition).is_ok());
        let reference = attack.run(&p, &coalition).expect("planned");
        // Boxed coalition through the generic cache…
        let mut cache = ALeadTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_nodes(&p, &coalition).expect("planned");
            let exec = p.run_with_in(nodes, &mut cache);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the homogeneous coalition fully unboxed (concrete Rusher).
        let mut cache = RushingCache::ring(n);
        for pass in 0..2 {
            let exec = attack.run_in(&p, &coalition, &mut cache).expect("planned");
            prop_assert_eq!(exec, &reference, "unboxed pass {}", pass);
        }
    }

    #[test]
    fn phase_rushing_attack_paths_agree(
        seed in any::<u64>(),
        key in any::<u64>(),
        n in 16usize..26,
        w in 0u64..16,
    ) {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(key);
        let coalition = Coalition::equally_spaced(n, 7, 1).expect("valid layout");
        let attack = PhaseRushingAttack::new(w);
        prop_assume!(attack.plan(&p, &coalition).is_ok());
        let reference = attack.run(&p, &coalition).expect("planned");
        // Boxed coalition through the generic cache…
        let mut cache = PhaseTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_nodes(&p, &coalition).expect("planned");
            let exec = p.run_with_in(nodes, &mut cache);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the homogeneous coalition fully unboxed (concrete
        // PhaseRusher).
        let mut cache = PhaseRushingCache::ring(n);
        for pass in 0..2 {
            let exec = attack.run_in(&p, &coalition, &mut cache).expect("planned");
            prop_assert_eq!(exec, &reference, "unboxed pass {}", pass);
        }
    }

    #[test]
    fn phase_guess_attack_paths_agree(
        seed in any::<u64>(),
        key in any::<u64>(),
        n in 4usize..20,
        pos in 0usize..20,
    ) {
        let pos = 1 + pos % (n - 1);
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(key);
        let attack = PhaseGuessAttack::new(pos);
        let reference = attack.run(&p).expect("valid position");
        let mut cache = PhaseTrialCache::ring(n);
        for pass in 0..2 {
            let exec = attack.run_in(&p, &mut cache).expect("valid position");
            prop_assert_eq!(exec, &reference, "pass {}", pass);
        }
    }

    #[test]
    fn phase_sum_attack_paths_agree(seed in any::<u64>(), n_quarter in 4usize..7, w in 0u64..16) {
        let n = 4 * n_quarter;
        let w = w % n as u64;
        let p = PhaseSumLead::new(n).with_seed(seed);
        let coalition = Coalition::equally_spaced(n, 4, 1).expect("valid layout");
        let attack = PhaseSumAttack::new(w);
        prop_assume!(attack.plan(&p, &coalition).is_ok());
        let reference = {
            let nodes = attack.adversary_nodes(&p, &coalition).expect("planned");
            p.run_with(nodes)
        };
        let mut cache = PhaseTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_nodes(&p, &coalition).expect("planned");
            let exec = p.run_with_in(nodes, &mut cache);
            prop_assert_eq!(exec, &reference, "pass {}", pass);
        }
    }
}

/// Times the *split* token/link path (non-global-FIFO schedulers) on the
/// ring `LinkSlab` layout vs. the general `VecDeque` layout, for the two
/// non-FIFO schedulers the suite ships. Ignored by default: it is a
/// measurement, not an assertion — run it in release to (re)settle the
/// keep-or-delete question for the slab's non-FIFO branch:
///
/// ```text
/// cargo test --release -p fle-bench --test engine_paths -- \
///     --ignored --nocapture split_path_slab_vs_vecdeque_timing
/// ```
///
/// Recorded 2026-08-08 (PR 7, 1-core container, PhaseAsyncLead n=64,
/// 300 trials/config, two runs): Lifo slab 199–226 µs/trial vs general
/// 219–251 µs/trial (slab ~1.10x faster); Random slab 285–298 µs/trial
/// vs general 293–357 µs/trial (parity to ~1.25x — the scheduler's
/// `swap_remove` dominates). Verdict: keep the slab branch — it never
/// loses on either non-FIFO scheduler, and deleting it would fork the
/// engine's link storage per scheduler for no win.
#[test]
#[ignore = "release-mode timing measurement; run explicitly with --nocapture"]
fn split_path_slab_vs_vecdeque_timing() {
    use ring_sim::{LifoScheduler, RandomScheduler, Scheduler};
    use std::time::Instant;

    let n = 64;
    let trials = 300u64;
    let limit = default_step_limit(n);
    fn time_config<S: Scheduler>(
        label: &str,
        engine: &mut Engine<fle_core::protocols::PhaseMsg>,
        mut scheduler: S,
        n: usize,
        trials: u64,
        limit: u64,
    ) -> std::time::Duration {
        // Warm-up trial so allocations reach steady state before timing.
        for pass in 0..2 {
            let start = Instant::now();
            for seed in 0..trials {
                let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(7);
                let mut nodes: Vec<_> = (0..n).map(|id| p.honest_ring_node(id)).collect();
                let exec = engine.run(&mut nodes, &p.wakes(), &mut scheduler, limit);
                assert!(exec.outcome.elected().is_some(), "{label} seed {seed}");
            }
            if pass == 1 {
                let per = start.elapsed() / trials as u32;
                println!("{label}: {per:?}/trial");
                return start.elapsed();
            }
        }
        unreachable!()
    }

    for layout in ["slab", "general"] {
        let mut engine = if layout == "slab" {
            Engine::new(Topology::ring(n))
        } else {
            Engine::new_with_general_links(Topology::ring(n))
        };
        time_config(
            &format!("lifo/{layout}"),
            &mut engine,
            LifoScheduler::new(),
            n,
            trials,
            limit,
        );
        time_config(
            &format!("random/{layout}"),
            &mut engine,
            RandomScheduler::new(42),
            n,
            trials,
            limit,
        );
    }
}

// ---------------------------------------------------------------------------
// Lockstep-batch differentials: the structure-of-arrays
// `run_honest_batch_into` fast path vs the scalar per-trial engine, for
// every protocol and batch width. Caches are reused across widths and
// seed groups, so cross-group contamination in the SoA state surfaces as
// a later-lane mismatch.

use fle_core::protocols::{ALeadBatchCache, BasicBatchCache, PhaseBatchCache};
use fle_harness::{
    batched_trials, run_sweep_partial, trial_seed, BatchConfig, HonestSweep, ProtocolKind,
    ScheduleSpec, SweepSpec,
};

/// Widths around the interesting boundaries: scalar-equivalent 1, the
/// smallest real batch, a non-power-of-two, the default, and one wider
/// than every ring under test.
const BATCH_WIDTHS: [usize; 5] = [1, 2, 7, 8, 64];

/// Runs `widths`-sized lockstep groups over consecutive derived seeds and
/// asserts every lane equals its scalar reference `Execution` exactly.
fn assert_batch_lanes_match(
    label: &str,
    base: u64,
    widths: &[usize],
    mut batch: impl FnMut(&[u64]) -> Vec<Execution>,
    scalar: impl Fn(u64) -> Execution,
) {
    let mut next = 0u64;
    for &width in widths {
        let seeds: Vec<u64> = (0..width as u64)
            .map(|j| trial_seed(base, next + j))
            .collect();
        next += width as u64;
        let lanes = batch(&seeds);
        assert_eq!(lanes.len(), width, "{label} width {width} filled");
        for (lane, exec) in lanes.iter().enumerate() {
            let reference = scalar(seeds[lane]);
            assert_eq!(
                exec, &reference,
                "{label} width {width} lane {lane} vs scalar"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_vs_scalar_basic(base in any::<u64>(), n in 2usize..24) {
        let p = BasicLead::new(n);
        let mut cache = BasicBatchCache::ring(n);
        assert_batch_lanes_match(
            "basic",
            base,
            &BATCH_WIDTHS,
            |seeds| {
                assert!(p.run_honest_batch_into(seeds, &mut cache), "honest never diverges");
                let mut lanes = vec![Execution::default(); seeds.len()];
                for (lane, out) in lanes.iter_mut().enumerate() {
                    cache.execution_into(lane, out);
                }
                lanes
            },
            |seed| p.clone().with_seed(seed).run_honest(),
        );
    }

    #[test]
    fn batch_vs_scalar_a_lead_uni(base in any::<u64>(), n in 2usize..24) {
        let p = ALeadUni::new(n);
        let mut cache = ALeadBatchCache::ring(n);
        assert_batch_lanes_match(
            "alead",
            base,
            &BATCH_WIDTHS,
            |seeds| {
                assert!(p.run_honest_batch_into(seeds, &mut cache), "honest never diverges");
                let mut lanes = vec![Execution::default(); seeds.len()];
                for (lane, out) in lanes.iter_mut().enumerate() {
                    cache.execution_into(lane, out);
                }
                lanes
            },
            |seed| p.clone().with_seed(seed).run_honest(),
        );
    }

    #[test]
    fn batch_vs_scalar_phase_async(base in any::<u64>(), key in any::<u64>(), n in 4usize..24) {
        let p = PhaseAsyncLead::new(n).with_fn_key(key);
        let mut cache = PhaseBatchCache::ring(n);
        assert_batch_lanes_match(
            "phase",
            base,
            &BATCH_WIDTHS,
            |seeds| {
                assert!(p.run_honest_batch_into(seeds, &mut cache), "honest never diverges");
                let mut lanes = vec![Execution::default(); seeds.len()];
                for (lane, out) in lanes.iter_mut().enumerate() {
                    cache.execution_into(lane, out);
                }
                lanes
            },
            |seed| p.with_seed(seed).run_honest(),
        );
    }

    #[test]
    fn batch_vs_scalar_phase_sum(base in any::<u64>(), n in 4usize..24) {
        let p = PhaseSumLead::new(n);
        let mut cache = PhaseBatchCache::ring(n);
        assert_batch_lanes_match(
            "phasesum",
            base,
            &BATCH_WIDTHS,
            |seeds| {
                assert!(p.run_honest_batch_into(seeds, &mut cache), "honest never diverges");
                let mut lanes = vec![Execution::default(); seeds.len()];
                for (lane, out) in lanes.iter_mut().enumerate() {
                    cache.execution_into(lane, out);
                }
                lanes
            },
            |seed| p.with_seed(seed).run_honest(),
        );
    }

    /// Arbitrary sub-ranges of the trial index space, batched vs scalar
    /// through the real sweep dispatch: the mid-chunk-resume shape. Ranges
    /// deliberately do not align to the batch width, so every case
    /// exercises the group realignment and the scalar ragged tail.
    #[test]
    fn batched_partial_matches_scalar_over_arbitrary_ranges(
        start in 0u64..40,
        len in 0u64..40,
        width in 1usize..12,
        threads in 1usize..4,
    ) {
        let spec = |batch_width| {
            SweepSpec::Honest(HonestSweep {
                protocol: ProtocolKind::PhaseAsyncLead,
                n: 8,
                fn_key: 9,
                batch: BatchConfig {
                    trials: 80,
                    base_seed: 1,
                    threads,
                },
                batch_width,
                schedule: ScheduleSpec::Fifo,
                fault: None,
            })
        };
        let _serial = BATCH_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let batched = run_sweep_partial(&spec(width), start, start + len).expect("valid range");
        let scalar = run_sweep_partial(&spec(1), start, start + len).expect("valid range");
        prop_assert_eq!(batched, scalar);
    }
}

/// A full batched sweep must serialize byte-identically to the scalar
/// sweep — for every protocol, at a width (7) that leaves a ragged tail —
/// and the lockstep path must actually have run (not silently fallen back
/// to scalar).
#[test]
fn batched_sweeps_match_scalar_sweeps_bytewise() {
    let _serial = BATCH_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let spec = |protocol, batch_width| {
        SweepSpec::Honest(HonestSweep {
            protocol,
            n: 9,
            fn_key: 4,
            batch: BatchConfig {
                trials: 61,
                base_seed: 3,
                threads: 1,
            },
            batch_width,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        })
    };
    for protocol in [
        ProtocolKind::BasicLead,
        ProtocolKind::ALeadUni,
        ProtocolKind::PhaseAsyncLead,
        ProtocolKind::PhaseSumLead,
    ] {
        let before = batched_trials();
        let batched = fle_harness::run_sweep(&spec(protocol, 7)).expect("valid spec");
        assert!(
            batched_trials() >= before + 56,
            "{protocol:?}: lockstep path did not run"
        );
        let scalar = fle_harness::run_sweep(&spec(protocol, 1)).expect("valid spec");
        assert_eq!(batched.to_json(), scalar.to_json(), "{protocol:?}");
    }
}

/// The batched sweep's JSON is invariant under the worker thread count,
/// exactly like the scalar path (batch groups realign to each worker's
/// chunk, so the merged report cannot depend on the split).
#[test]
fn batched_sweep_json_is_thread_invariant() {
    let _serial = BATCH_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let spec = |threads| {
        SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 8,
            fn_key: 9,
            batch: BatchConfig {
                trials: 100,
                base_seed: 1,
                threads,
            },
            batch_width: 8,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        })
    };
    let one = fle_harness::run_sweep(&spec(1))
        .expect("valid spec")
        .to_json();
    for threads in [2, 8] {
        let multi = fle_harness::run_sweep(&spec(threads)).expect("valid spec");
        assert_eq!(multi.to_json(), one, "threads {threads}");
    }
}

/// One engine serving many seeds back to back (the sweep worker's actual
/// life) must match per-seed fresh references throughout.
#[test]
fn engine_reuse_across_seeds_matches_fresh_runs() {
    let n = 9;
    let mut engine = Engine::new(Topology::ring(n));
    for seed in 0..40u64 {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(7);
        assert_eq!(p.run_honest_in(&mut engine), p.run_honest(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Lockstep attack groups: the `rushing` and `phase_rushing` runners'
// `run_group` vs their scalar `run_trial`, lane by lane, and attack
// sweeps through the harness vs a scalar reference loop.

use fle_attacks::{
    build_runner, AttackKind, AttackRunner, PhaseRushingBatchCache, PhaseRushingLayout,
};
use fle_harness::{
    AttackSweep, CoalitionSpec, FaultSpec, FnKeySpec, LatencySpec, ReportPartial, SeedMode,
    TargetSpec, TrialOutcome,
};
use ring_sim::{CrashInstant, FailReason, Outcome};
use std::sync::Mutex;

/// Serializes every test of this file that runs sweeps, so a test may
/// assert that the process-wide `batched_trials()` counter did *not*
/// move.
static BATCH_COUNTER: Mutex<()> = Mutex::new(());

/// One lane's observable result: the full execution and the success flag,
/// or `None` for an infeasible trial.
type Lane = Option<(Execution, bool)>;

fn scalar_lane(runner: &mut dyn AttackRunner, seed: u64, fn_key: u64, target: u64) -> Lane {
    runner
        .run_trial(seed, fn_key, target)
        .ok()
        .map(|r| (r.exec.clone(), r.success))
}

/// Runs `seeds`/`targets` as one lockstep group on `group` and lane by
/// lane on `scalar`, asserting they agree. Returns whether the group ran
/// in lockstep.
fn assert_group_matches_scalar(
    label: &str,
    group: &mut dyn AttackRunner,
    scalar: &mut dyn AttackRunner,
    seeds: &[u64],
    fn_key: u64,
    targets: &[u64],
) -> bool {
    let mut lanes: Vec<Lane> = Vec::new();
    let ran = group.run_group(seeds, fn_key, targets, &mut |r| {
        lanes.push(Some((r.exec.clone(), r.success)))
    });
    if !ran {
        assert!(lanes.is_empty(), "{label}: a refused group reported lanes");
        return false;
    }
    assert_eq!(lanes.len(), seeds.len(), "{label}: one result per lane");
    for (lane, got) in lanes.into_iter().enumerate() {
        let want = scalar_lane(scalar, seeds[lane], fn_key, targets[lane]);
        assert_eq!(got, want, "{label} lane {lane} vs scalar run_trial");
        // The same group seed through the group runner's own scalar path
        // must agree too (shared caches must not leak between paths).
        let again = scalar_lane(group, seeds[lane], fn_key, targets[lane]);
        assert_eq!(
            again, want,
            "{label} lane {lane}: group runner's scalar path"
        );
    }
    true
}

/// Drives `kind` over widths 1, 2, 7 and 8 on an `(n, k, offset)`
/// equally spaced layout, with seed-product targets, and checks every
/// lockstep group against scalar. Feasible layouts must run in lockstep;
/// infeasible ones must be refused (and are infeasible on the scalar
/// path for every trial).
fn check_attack_groups(
    kind: AttackKind,
    base: u64,
    fn_key: u64,
    n: usize,
    k: usize,
    offset: usize,
) {
    let Ok(coalition) = Coalition::equally_spaced(n, k, offset) else {
        return;
    };
    let mut group = build_runner(kind, n, &coalition).expect("runner builds");
    let mut scalar = build_runner(kind, n, &coalition).expect("runner builds");
    let feasible = scalar.run_trial(base, fn_key, 0).is_ok();
    let mut next = 0;
    for width in [1usize, 2, 7, 8] {
        let seeds: Vec<u64> = (0..width as u64)
            .map(|j| trial_seed(base, next + j))
            .collect();
        next += width as u64;
        let targets: Vec<u64> = seeds
            .iter()
            .map(|&s| TargetSpec::SeedProduct { multiplier: 31 }.resolve(s, n))
            .collect();
        let label = format!("{kind} n={n} k={k} offset={offset} width={width}");
        let ran = assert_group_matches_scalar(
            &label,
            &mut *group,
            &mut *scalar,
            &seeds,
            fn_key,
            &targets,
        );
        assert_eq!(
            ran, feasible,
            "{label}: lockstep runs exactly the feasible layouts"
        );
        if !feasible {
            for (&s, &t) in seeds.iter().zip(&targets) {
                assert!(
                    scalar.run_trial(s, fn_key, t).is_err(),
                    "{label}: infeasible"
                );
            }
        }
    }
    // An out-of-range target is refused for the whole group.
    let seeds = [trial_seed(base, 100), trial_seed(base, 101)];
    assert!(!group.run_group(&seeds, fn_key, &[0, n as u64], &mut |_| {
        panic!("refused groups report nothing")
    }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn attack_batch_vs_scalar_rushing_layouts(
        base in any::<u64>(),
        n in 4usize..40,
        k in 1usize..12,
        offset in 0usize..40,
    ) {
        check_attack_groups(AttackKind::Rushing, base, 0, n, k, offset % n);
    }

    #[test]
    fn attack_batch_vs_scalar_phase_rushing_layouts(
        base in any::<u64>(),
        key in any::<u64>(),
        n in 4usize..40,
        k in 1usize..12,
        offset in 0usize..40,
    ) {
        check_attack_groups(AttackKind::PhaseRushing, base, key, n, k, offset % n);
    }

    /// With a one-draw search budget the preimage search usually misses,
    /// so honest segments elect different leaders: lockstep must report
    /// the scalar `Disagreement` outcomes lane for lane.
    #[test]
    fn attack_batch_phase_rushing_exhausted_search_matches_scalar(
        base in any::<u64>(),
        key in any::<u64>(),
        n in 9usize..30,
    ) {
        let k = (n as f64).sqrt().ceil() as usize + 3;
        let coalition = Coalition::equally_spaced(n, k, 1).expect("valid layout");
        let layout = PhaseRushingLayout::new(&coalition).expect("feasible layout");
        let p = PhaseAsyncLead::new(n).with_fn_key(key);
        let attack = PhaseRushingAttack::new(0).with_search_budget(1);
        let mut cache = PhaseRushingBatchCache::ring(n);
        let mut scalar_cache = PhaseRushingCache::ring(n);
        let mut exec = Execution::default();
        let mut disagreements = 0;
        for (g, width) in [8usize, 3, 8].into_iter().enumerate() {
            let seeds: Vec<u64> = (0..width as u64)
                .map(|j| trial_seed(base, 10 * g as u64 + j))
                .collect();
            let targets: Vec<u64> = seeds.iter().map(|&s| s % n as u64).collect();
            prop_assert!(attack.run_batch_into(&p, &layout, &seeds, &targets, &mut cache));
            for (lane, (&seed, &w)) in seeds.iter().zip(&targets).enumerate() {
                cache.execution_into(lane, &mut exec);
                let want = PhaseRushingAttack::new(w)
                    .with_search_budget(1)
                    .run_in(&p.with_seed(seed), &coalition, &mut scalar_cache)
                    .expect("feasible");
                prop_assert_eq!(&exec, want, "group {} lane {}", g, lane);
                disagreements +=
                    usize::from(exec.outcome == Outcome::Fail(FailReason::Disagreement));
            }
        }
        // 19 trials × ≥2 honest segments, each hitting with probability
        // 1/n per draw: all-hit groups are vanishingly rare.
        prop_assert!(disagreements > 0, "the exhausted search never disagreed");
    }
}

/// The scalar reference for an attack sweep range: a plain `run_trial`
/// loop recorded into a partial, as the harness did before attack
/// sweeps gained lockstep groups.
fn scalar_attack_partial(cfg: &AttackSweep, start: u64, end: u64) -> ReportPartial {
    let coalition = cfg.coalition.resolve(cfg.n).expect("valid coalition");
    let mut runner = build_runner(cfg.attack, cfg.n, &coalition).expect("runner builds");
    let label = format!("{}:{}", cfg.attack.protocol_name(), cfg.attack.name());
    let mut partial =
        ReportPartial::new_attack(&label, cfg.n, cfg.batch.base_seed, cfg.batch.trials);
    for index in start..end {
        let seed = cfg
            .seed_mode
            .resolve(index, trial_seed(cfg.batch.base_seed, index));
        let target = cfg.target.resolve(seed, cfg.n);
        match runner.run_trial(seed, cfg.fn_key.resolve(seed), target) {
            Ok(r) => partial.record_attack(index, Some(TrialOutcome::of(r.exec)), r.success),
            Err(_) => partial.record_attack(index, None, false),
        }
    }
    partial
}

fn attack_sweep(
    attack: AttackKind,
    n: usize,
    k: usize,
    trials: u64,
    threads: usize,
) -> AttackSweep {
    AttackSweep {
        attack,
        n,
        fn_key: FnKeySpec::Fixed(9),
        batch: BatchConfig {
            trials,
            base_seed: 5,
            threads,
        },
        coalition: CoalitionSpec::EquallySpaced { k, offset: 1 },
        target: TargetSpec::Fixed(3),
        seed_mode: SeedMode::Derived,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Attack sweep ranges that do not align to the lockstep width, over
    /// 1, 2 and 8 threads, seed-product targets and raw-index seeds,
    /// feasible and infeasible layouts: the grouped harness path must
    /// equal the scalar reference loop.
    #[test]
    fn attack_batch_partial_matches_scalar_over_arbitrary_ranges(
        phase in any::<bool>(),
        k in 2usize..9,
        start in 0u64..30,
        len in 0u64..50,
        threads_ix in 0usize..3,
        raw_index in any::<bool>(),
        seed_product in any::<bool>(),
    ) {
        let kind = if phase { AttackKind::PhaseRushing } else { AttackKind::Rushing };
        let mut cfg = attack_sweep(kind, 16, k, 80, [1, 2, 8][threads_ix]);
        if raw_index {
            cfg.seed_mode = SeedMode::RawIndex;
        }
        if seed_product {
            cfg.target = TargetSpec::SeedProduct { multiplier: 31 };
        }
        let end = (start + len).min(80);
        let _serial = BATCH_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let grouped = run_sweep_partial(&cfg.clone().into(), start, end).expect("valid spec");
        prop_assert_eq!(grouped, scalar_attack_partial(&cfg, start, end));
    }
}

/// FIFO, fault-free, single-key attack sweeps run in lockstep; timed,
/// faulted and per-seed-`fn_key` sweeps run scalar. Both give the scalar
/// reference bytes.
#[test]
fn attack_batch_sweeps_engage_lockstep_only_on_plain_fifo() {
    let _serial = BATCH_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    for kind in [AttackKind::Rushing, AttackKind::PhaseRushing] {
        // 61 trials at width 8 on one thread: 7 groups and a ragged tail.
        let cfg = attack_sweep(kind, 16, 7, 61, 1);
        let before = batched_trials();
        let grouped = run_sweep_partial(&cfg.clone().into(), 0, 61).expect("valid spec");
        assert!(
            batched_trials() >= before + 56,
            "{kind}: the lockstep path did not run"
        );
        assert_eq!(grouped, scalar_attack_partial(&cfg, 0, 61), "{kind}");

        let timed = AttackSweep {
            schedule: ScheduleSpec::Timed {
                latency: LatencySpec::ZERO,
                loss_permille: 0,
                dup_permille: 0,
            },
            ..cfg.clone()
        };
        let faulted = AttackSweep {
            fault: Some(FaultSpec {
                crashes: 1,
                window: CrashInstant::Deliveries(64),
                recover: None,
            }),
            ..cfg.clone()
        };
        let per_seed_key = AttackSweep {
            fn_key: FnKeySpec::SeedXor(0x5eed),
            ..cfg.clone()
        };
        for (label, scalar_only) in [
            ("timed", &timed),
            ("faulted", &faulted),
            ("per-seed fn_key", &per_seed_key),
        ] {
            if label == "per-seed fn_key" && !kind.uses_fn_key() {
                continue; // the key is ignored, so lockstep is still exact
            }
            let before = batched_trials();
            run_sweep_partial(&scalar_only.clone().into(), 0, 61).expect("valid spec");
            assert_eq!(
                batched_trials(),
                before,
                "{kind}: {label} sweep must run scalar"
            );
        }
        assert_eq!(
            run_sweep_partial(&timed.clone().into(), 0, 61).expect("valid spec"),
            grouped,
            "{kind}: zero-profile timed ≡ FIFO"
        );
    }
}

/// A runner refuses lockstep groups while a timed network or crash
/// faults are installed, and serves them again once cleared.
#[test]
fn attack_batch_runner_refuses_timed_and_faulted_groups() {
    let coalition = Coalition::equally_spaced(16, 7, 1).expect("valid layout");
    let net = ring_sim::TimedNetConfig::uniform(ring_sim::LinkProfile::default());
    let faults = FaultSpec {
        crashes: 1,
        window: CrashInstant::Deliveries(64),
        recover: None,
    }
    .config();
    let seeds = [trial_seed(1, 0), trial_seed(1, 1)];
    for kind in [AttackKind::Rushing, AttackKind::PhaseRushing] {
        let mut runner = build_runner(kind, 16, &coalition).expect("runner builds");
        let group =
            |runner: &mut dyn AttackRunner| runner.run_group(&seeds, 9, &[3, 3], &mut |_| {});
        assert!(group(&mut *runner), "{kind}: plain FIFO runs in lockstep");
        runner.set_timed_net(Some(&net));
        assert!(!group(&mut *runner), "{kind}: timed");
        runner.set_timed_net(None);
        runner.set_faults(Some(&faults));
        assert!(!group(&mut *runner), "{kind}: faulted");
        runner.set_faults(None);
        assert!(group(&mut *runner), "{kind}: cleared");
    }
    // Every other attack kind has no lockstep path.
    let lone = Coalition::new(16, vec![5]).expect("valid layout");
    let mut basic = build_runner(AttackKind::BasicSingle, 16, &lone).expect("runner builds");
    assert!(!basic.run_group(&seeds, 0, &[3, 3], &mut |_| {}));
}
