//! Tree-dictator grids: Theorem 7.2's simulated-tree protocol under its
//! dictator coalition, swept over deterministic seeds.

use crate::partial::ReportPartial;
use crate::spec::TreeSweep;
use crate::{run_batch_range, TrialOutcome};
use fle_topology::tree_fle::TreeSumFle;

/// Runs trials `start..end` of a tree-dictator sweep of [`TreeSumFle`]
/// on the configured graph into a mergeable [`ReportPartial`] whose
/// `attack` arm counts how often the dictator coalition forced its
/// target (Theorem 7.2 predicts: always).
///
/// Each worker thread resolves the graph and its Claim F.5 partition
/// once; per trial only the seeded protocol instance is rebuilt.
///
/// # Errors
///
/// If the graph family parameters are invalid — the same conditions
/// [`SweepSpec::validate`](crate::SweepSpec::validate) reports.
pub(crate) fn tree_partial(cfg: &TreeSweep, start: u64, end: u64) -> Result<ReportPartial, String> {
    let n = cfg.graph.n();
    // Validate the spec once up front so workers can only fail per-trial.
    cfg.graph.resolve()?;
    let results = run_batch_range(
        &cfg.batch,
        start,
        end,
        || cfg.graph.resolve().expect("graph validated above"),
        |(graph, partition), index, derived| {
            let seed = cfg.seed_mode.resolve(index, derived);
            let target = cfg.target.resolve(seed, n) % n as u64;
            let fle = TreeSumFle::new(graph, partition, seed);
            let exec = fle.run_with_dictator(target);
            let success = exec.outcome.elected() == Some(target);
            (Some(TrialOutcome::of(&exec)), success)
        },
    );
    let label = format!("TreeSumFle:{}", cfg.graph.label());
    let mut partial = ReportPartial::new_attack(&label, n, cfg.batch.base_seed, cfg.batch.trials);
    for (i, slot) in results.into_iter().enumerate() {
        match slot {
            Ok((outcome, success)) => partial.record_attack(start + i as u64, outcome, success),
            Err(fault) => partial.record_fault(fault),
        }
    }
    Ok(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;
    use crate::spec::{GraphSpec, SeedMode, TargetSpec};
    use crate::BatchConfig;

    #[test]
    fn dictator_always_wins_across_graph_families() {
        for graph in [
            GraphSpec::Path(8),
            GraphSpec::Grid { rows: 3, cols: 4 },
            GraphSpec::Figure2,
        ] {
            let report = run_sweep(
                &TreeSweep {
                    graph,
                    batch: BatchConfig {
                        trials: 12,
                        base_seed: 0,
                        threads: 1,
                    },
                    target: TargetSpec::SeedProduct { multiplier: 5 },
                    seed_mode: SeedMode::RawIndex,
                }
                .into(),
            )
            .expect("valid spec");
            let arm = report.attack.expect("tree sweeps carry the arm");
            assert_eq!(arm.successes, 12, "{graph:?}");
            assert_eq!(arm.infeasible, 0, "{graph:?}");
            assert_eq!(report.n, graph.n(), "{graph:?}");
        }
    }

    #[test]
    fn tree_sweep_is_thread_count_invariant() {
        let sweep = |threads| {
            run_sweep(
                &TreeSweep {
                    graph: GraphSpec::RandomConnected {
                        n: 12,
                        permille: 250,
                        seed: 4,
                    },
                    batch: BatchConfig {
                        trials: 24,
                        base_seed: 7,
                        threads,
                    },
                    target: TargetSpec::Fixed(3),
                    seed_mode: SeedMode::Derived,
                }
                .into(),
            )
            .expect("valid spec")
        };
        let baseline = sweep(1);
        for threads in [2, 8] {
            assert_eq!(sweep(threads).to_json(), baseline.to_json());
        }
    }
}
