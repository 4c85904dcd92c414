//! Thread-count independence of the harness.
//!
//! The contract: a batch's aggregated [`TrialReport`] — and its JSON and
//! CSV serializations — are *byte-identical* no matter how many worker
//! threads run it. Seeds are pure functions of `(base_seed, index)`,
//! results land in their index slot, and aggregation walks slots in
//! order, so 1, 2 and 8 threads must be indistinguishable in output.

use fle_harness::{
    run_batch, run_sweep, BatchConfig, HonestSweep, ProtocolKind, ScheduleSpec, SweepSpec,
    TrialReport,
};

fn sweep_with_threads(
    protocol: ProtocolKind,
    n: usize,
    trials: u64,
    threads: usize,
) -> TrialReport {
    run_sweep(&SweepSpec::Honest(HonestSweep {
        protocol,
        n,
        fn_key: 9,
        batch: BatchConfig {
            trials,
            base_seed: 1,
            threads,
        },
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }))
    .expect("valid spec")
}

#[test]
fn sweep_reports_identical_across_thread_counts() {
    for &protocol in ProtocolKind::ALL {
        let reference = sweep_with_threads(protocol, 16, 200, 1);
        for threads in [2, 3, 8] {
            let report = sweep_with_threads(protocol, 16, 200, threads);
            assert_eq!(report, reference, "{protocol:?} at {threads} threads");
            assert_eq!(
                report.to_json(),
                reference.to_json(),
                "{protocol:?} JSON at {threads} threads"
            );
            assert_eq!(
                report.to_csv(),
                reference.to_csv(),
                "{protocol:?} CSV at {threads} threads"
            );
        }
    }
}

#[test]
fn thread_count_exceeding_trials_is_fine() {
    let reference = sweep_with_threads(ProtocolKind::ALeadUni, 8, 5, 1);
    let wide = sweep_with_threads(ProtocolKind::ALeadUni, 8, 5, 64);
    assert_eq!(wide, reference);
}

#[test]
fn batch_slots_are_index_ordered_regardless_of_worker_partition() {
    // Workers get contiguous chunks; uneven trial counts exercise the
    // short-last-chunk path.
    for trials in [1u64, 7, 97, 100] {
        let run = |threads| {
            run_batch(
                &BatchConfig {
                    trials,
                    base_seed: 3,
                    threads,
                },
                || (),
                |(), index, seed| (index, seed),
            )
        };
        let reference = run(1);
        assert_eq!(
            reference.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..trials).collect::<Vec<_>>()
        );
        for threads in [2, 5, 8] {
            assert_eq!(run(threads), reference, "trials={trials} threads={threads}");
        }
    }
}
