//! Attack-grid execution: [`AttackSweep`] specs dispatched onto
//! per-worker [`AttackRunner`](fle_attacks::AttackRunner) caches.

use crate::partial::ReportPartial;
use crate::spec::{AttackSweep, FnKeySpec};
use crate::{run_batch_range_grouped, trial_seed, TrialOutcome, DEFAULT_BATCH_WIDTH};
use fle_attacks::{build_runner, AttackTrialResult};

/// Runs trials `start..end` of an adversarial sweep of the configured
/// attack into a mergeable [`ReportPartial`] whose `attack` arm carries
/// the success and infeasible counts (see
/// [`run_sweep_partial`](crate::run_sweep_partial)).
///
/// Each worker thread builds one cached runner
/// ([`fle_attacks::build_runner`]) in `make_worker`: protocol base,
/// engine, scheduler, arena and result buffers are all reused, so
/// steady-state trials are allocation-free. Trials whose per-instance
/// preconditions fail count as `infeasible` (and never as successes).
///
/// On a FIFO schedule without faults, when every trial shares one
/// `fn_key` (a fixed key, or an attack that ignores it), trials run in
/// groups of [`DEFAULT_BATCH_WIDTH`] through the runner's lockstep path
/// ([`fle_attacks::AttackRunner::run_group`]) — the `rushing` and
/// `phase_rushing` attacks have one. Groups the runner cannot run in
/// lockstep, and the ragged tail, run scalar, exactly as
/// [`run_batch_range_grouped`] describes; the bytes are the same either
/// way.
///
/// # Errors
///
/// If the coalition does not resolve or the runner rejects the layout —
/// the same conditions [`SweepSpec::validate`](crate::SweepSpec::validate)
/// reports.
pub(crate) fn attack_partial(
    cfg: &AttackSweep,
    start: u64,
    end: u64,
) -> Result<ReportPartial, String> {
    // Validate the spec once up front so workers can only fail per-trial:
    // the coalition must resolve and the runner must accept the layout.
    let coalition = cfg.coalition.resolve(cfg.n)?;
    build_runner(cfg.attack, cfg.n, &coalition).map_err(|e| e.to_string())?;
    let net = cfg.schedule.timed_net();
    let fcfg = cfg.fault.map(|f| f.config());
    let one_key = matches!(cfg.fn_key, FnKeySpec::Fixed(_)) || !cfg.attack.uses_fn_key();
    let width = if net.is_none() && fcfg.is_none() && one_key {
        DEFAULT_BATCH_WIDTH
    } else {
        1
    };
    let lane = |r: AttackTrialResult<'_>| {
        (
            Some(TrialOutcome::of(r.exec)),
            r.success,
            r.exec.stats.crashes > 0,
        )
    };
    let results = run_batch_range_grouped(
        &cfg.batch,
        start,
        end,
        width,
        || {
            let mut runner =
                build_runner(cfg.attack, cfg.n, &coalition).expect("layout validated above");
            runner.set_timed_net(net.as_ref());
            runner.set_faults(fcfg.as_ref());
            (runner, Vec::new(), Vec::new())
        },
        |(runner, seeds, targets), gstart, out| {
            seeds.clear();
            targets.clear();
            for index in gstart..gstart + width as u64 {
                let seed = cfg
                    .seed_mode
                    .resolve(index, trial_seed(cfg.batch.base_seed, index));
                seeds.push(seed);
                targets.push(cfg.target.resolve(seed, cfg.n));
            }
            let fn_key = cfg.fn_key.resolve(seeds[0]);
            runner.run_group(seeds, fn_key, targets, &mut |r| out.push(lane(r)))
        },
        |(runner, _, _), index, derived| {
            let seed = cfg.seed_mode.resolve(index, derived);
            let fn_key = cfg.fn_key.resolve(seed);
            let target = cfg.target.resolve(seed, cfg.n);
            match runner.run_trial(seed, fn_key, target) {
                Ok(r) => lane(r),
                // Infeasible trials never ran, so they never crashed.
                Err(_) => (None, false, false),
            }
        },
    );
    let label = format!("{}:{}", cfg.attack.protocol_name(), cfg.attack.name());
    let mut partial =
        ReportPartial::new_attack(&label, cfg.n, cfg.batch.base_seed, cfg.batch.trials);
    let faulty = fcfg.is_some();
    if faulty {
        partial = partial.with_faults();
    }
    for (i, slot) in results.into_iter().enumerate() {
        match slot {
            Ok((outcome, success, crashed)) => {
                let index = start + i as u64;
                if faulty {
                    partial.record_attack_faulty(index, outcome, success, crashed);
                } else {
                    partial.record_attack(index, outcome, success);
                }
            }
            Err(fault) => partial.record_fault(fault),
        }
    }
    Ok(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;
    use crate::spec::{CoalitionSpec, FnKeySpec, ScheduleSpec, SeedMode, TargetSpec};
    use crate::BatchConfig;
    use fle_attacks::{AttackKind, RushingAttack};
    use fle_core::protocols::ALeadUni;
    use fle_core::Coalition;

    fn rushing_sweep(threads: usize, seed_mode: SeedMode) -> AttackSweep {
        AttackSweep {
            attack: AttackKind::Rushing,
            n: 16,
            fn_key: FnKeySpec::Fixed(0),
            batch: BatchConfig {
                trials: 40,
                base_seed: 1,
                threads,
            },
            coalition: CoalitionSpec::EquallySpaced { k: 7, offset: 1 },
            target: TargetSpec::Fixed(3),
            seed_mode,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        }
    }

    #[test]
    fn attack_sweep_is_thread_count_invariant() {
        let baseline = run_sweep(&rushing_sweep(1, SeedMode::Derived).into()).expect("valid");
        for threads in [2, 8] {
            let report =
                run_sweep(&rushing_sweep(threads, SeedMode::Derived).into()).expect("valid");
            assert_eq!(report.to_json(), baseline.to_json(), "threads={threads}");
            assert_eq!(report.to_csv(), baseline.to_csv(), "threads={threads}");
        }
    }

    #[test]
    fn zero_profile_timed_attack_sweep_matches_fifo() {
        use ring_sim::LatencySpec;
        let fifo = run_sweep(&rushing_sweep(1, SeedMode::Derived).into()).expect("valid");
        let mut timed_cfg = rushing_sweep(1, SeedMode::Derived);
        timed_cfg.schedule = ScheduleSpec::Timed {
            latency: LatencySpec::ZERO,
            loss_permille: 0,
            dup_permille: 0,
        };
        let timed = run_sweep(&timed_cfg.into()).expect("valid");
        assert_eq!(timed.to_json(), fifo.to_json());
    }

    #[test]
    fn raw_index_mode_matches_historical_loops() {
        // The pre-spec experiment tables looped `for seed in 0..trials`
        // and ran the attack directly; RawIndex mode must reproduce that
        // stream exactly.
        let report = run_sweep(&rushing_sweep(1, SeedMode::RawIndex).into()).expect("valid");
        let coalition = Coalition::equally_spaced(16, 7, 1).unwrap();
        let attack = RushingAttack::new(3);
        let mut successes = 0;
        for seed in 0..40u64 {
            let p = ALeadUni::new(16).with_seed(seed);
            let exec = attack.run(&p, &coalition).unwrap();
            if exec.outcome.elected() == Some(3) {
                successes += 1;
            }
        }
        let attack_arm = report.attack.expect("attack sweeps carry the arm");
        assert_eq!(attack_arm.successes, successes);
        assert_eq!(attack_arm.infeasible, 0);
        assert_eq!(report.trials, 40);
    }

    #[test]
    fn invalid_spec_is_an_error_not_a_panic() {
        // k > n cannot resolve; historically this panicked inside a worker.
        let mut cfg = rushing_sweep(1, SeedMode::Derived);
        cfg.coalition = CoalitionSpec::EquallySpaced { k: 99, offset: 0 };
        let err = run_sweep(&cfg.into()).unwrap_err();
        assert!(err.contains("coalition"), "unexpected message: {err}");
    }

    #[test]
    fn infeasible_trials_are_counted_not_dropped() {
        // Rushing with a too-sparse coalition: every trial refuses.
        let cfg = AttackSweep {
            attack: AttackKind::Rushing,
            n: 16,
            fn_key: FnKeySpec::Fixed(0),
            batch: BatchConfig {
                trials: 10,
                base_seed: 0,
                threads: 1,
            },
            coalition: CoalitionSpec::Explicit {
                positions: vec![5, 11],
            },
            target: TargetSpec::Fixed(1),
            seed_mode: SeedMode::Derived,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        };
        let report = run_sweep(&cfg.into()).expect("valid");
        let arm = report.attack.expect("attack arm");
        assert_eq!(arm.infeasible, 10);
        assert_eq!(arm.successes, 0);
        assert_eq!(report.trials, 10);
        assert_eq!(report.elected(), 0);
    }
}
