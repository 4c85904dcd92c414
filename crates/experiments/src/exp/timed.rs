//! timed: adversary placement vs. asymmetric latency, and the cost of
//! leaving the FIFO reliable-link model.
//!
//! The paper proves its guarantees against an *oblivious adversarial
//! scheduler* over reliable FIFO links (Section 2): the Section 4
//! attacks control the outcome under every delivery order of that
//! model, so no latency assumption can rescue the honest majority. The
//! timed layer makes the complementary measurement possible, and it
//! splits cleanly in two:
//!
//! * **Table A** keeps the model. Constant per-link delays — however
//!   asymmetric, including a 200x-slow arc placed either over the
//!   coalition or over the honest segment — preserve per-link FIFO
//!   order, and on a unidirectional ring every node's input stream is
//!   then identical to the untimed run. Control stays at 1 in every
//!   row: adversary placement vs. latency placement is a draw, exactly
//!   as the adversarial-scheduler model demands.
//! * **Table B** leaves the model. Random per-message jitter lets
//!   messages overtake on a link (non-FIFO channels) and loss drops
//!   them outright; both void the premise the rushing schedule is
//!   built on. Under loss the collapse is geometric — every one of the
//!   `M` lossless-run messages must arrive — which the `(1-p)^M`
//!   reference column tracks.

use super::fmt_rate_ci;
use crate::Table;
use fle_attacks::{build_runner, AttackKind};
use fle_harness::{
    run_sweep, trial_seed, AttackSweep, BatchConfig, CoalitionSpec, FnKeySpec, LatencySpec,
    LinkProfile, ReportPartial, ScheduleSpec, SeedMode, TargetSpec, TimedNetConfig, TrialOutcome,
    TrialReport,
};

/// Ring size: small enough for dense trial counts, large enough that a
/// half-ring latency arc is geometrically meaningful.
const N: usize = 16;
/// Contiguous coalition size. Members are `1..=9` (starting at 1 keeps
/// the origin honest, so the rushing plan keeps all `k` members), and
/// the lone honest segment `{10..15, 0}` has length `7 <= k - 1`, so the
/// rushing precondition (Lemma 4.1) holds — and "over the coalition" vs.
/// "over the honest arc" name disjoint arcs of the ring.
const K: usize = 9;

/// The Theorem 4.2 rushing cell, parameterized by delivery schedule.
fn spec(trials: u64, schedule: ScheduleSpec) -> AttackSweep {
    AttackSweep {
        attack: AttackKind::Rushing,
        n: N,
        fn_key: FnKeySpec::Fixed(0),
        batch: BatchConfig {
            trials,
            base_seed: 0,
            threads: 0,
        },
        coalition: CoalitionSpec::Contiguous { k: K, start: 1 },
        target: TargetSpec::SeedProduct { multiplier: 31 },
        seed_mode: SeedMode::RawIndex,
        schedule,
        fault: None,
    }
}

/// A lossless, duplicate-free link with constant delay `ns`.
fn const_link(ns: u64) -> LinkProfile {
    LinkProfile {
        latency: LatencySpec::Constant { ns },
        ..LinkProfile::default()
    }
}

/// A net that is fast everywhere except the directed ring edges in
/// `slow` (edge `i` leaves node `i`), which are 200x slower.
fn slow_arc(slow: impl Iterator<Item = usize>) -> TimedNetConfig {
    TimedNetConfig {
        default: const_link(10),
        overrides: slow.map(|e| (e, const_link(2000))).collect(),
    }
}

/// Runs the attack sweep `cfg` (a FIFO spec) over the per-edge `net`
/// instead, which a [`ScheduleSpec`] cannot express: trial by trial on
/// one cached runner, with the seeds, targets and report the harness
/// would give the same sweep on a uniform timed schedule.
fn sweep_over_net(cfg: &AttackSweep, net: &TimedNetConfig) -> TrialReport {
    let coalition = cfg.coalition.resolve(cfg.n).expect("valid coalition");
    let mut runner = build_runner(cfg.attack, cfg.n, &coalition).expect("valid layout");
    runner.set_timed_net(Some(net));
    let label = format!("{}:{}", cfg.attack.protocol_name(), cfg.attack.name());
    let (base_seed, trials) = (cfg.batch.base_seed, cfg.batch.trials);
    let mut partial = ReportPartial::new_attack(&label, cfg.n, base_seed, trials);
    for index in 0..trials {
        let seed = cfg.seed_mode.resolve(index, trial_seed(base_seed, index));
        let target = cfg.target.resolve(seed, cfg.n);
        match runner.run_trial(seed, cfg.fn_key.resolve(seed), target) {
            Ok(r) => partial.record_attack(index, Some(TrialOutcome::of(r.exec)), r.success),
            Err(_) => partial.record_attack(index, None, false),
        }
    }
    partial.finish().expect("every trial recorded")
}

/// A uniform timed schedule with the given latency and loss.
fn timed(latency: LatencySpec, loss_permille: u32) -> ScheduleSpec {
    ScheduleSpec::Timed {
        latency,
        loss_permille,
        dup_permille: 0,
    }
}

/// The shared `label | Pr[w] ± ci | msgs mean` prefix of a row.
fn rate_cells(label: &str, report: &TrialReport) -> Vec<String> {
    let arm = report.attack.expect("attack sweeps carry the arm");
    vec![
        label.to_string(),
        fmt_rate_ci(arm.success_rate(report.trials), arm.ci95(report.trials)),
        format!("{:.1}", report.messages.mean),
    ]
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let trials: u64 = if quick { 30 } else { 200 };
    let fifo = spec(trials, ScheduleSpec::Fifo);
    let mut a = Table::new(
        "timed-a: rushing on A-LEADuni vs. latency placement (n=16, contiguous k=9)",
        &["scenario (FIFO links)", "Pr[w] ± ci", "msgs mean"],
    );
    for (label, report) in [
        (
            "untimed fifo",
            run_sweep(&fifo.clone().into()).expect("valid spec"),
        ),
        (
            "timed, zero latency",
            run_sweep(&spec(trials, timed(LatencySpec::ZERO, 0)).into()).expect("valid spec"),
        ),
        (
            "const 100ns everywhere",
            run_sweep(&spec(trials, timed(LatencySpec::Constant { ns: 100 }, 0)).into())
                .expect("valid spec"),
        ),
        (
            "slow arc over coalition",
            sweep_over_net(&fifo, &slow_arc(1..=K)),
        ),
        (
            "slow arc over honest seg",
            sweep_over_net(&fifo, &slow_arc((K + 1..N).chain([0]))),
        ),
    ] {
        a.row_vec(rate_cells(label, &report));
    }
    a.note("constant per-link delays preserve FIFO links; on a directed ring every node");
    a.note("then sees the untimed input stream, so placement never rescues the honest arc");

    let mut b = Table::new(
        "timed-b: the same attack outside the FIFO reliable-link model",
        &["scenario", "Pr[w] ± ci", "msgs mean", "(1-p)^M"],
    );
    let base_msgs = run_sweep(&fifo.clone().into())
        .expect("valid spec")
        .messages
        .mean;
    let jitter =
        run_sweep(&spec(trials, timed(LatencySpec::Uniform { lo: 0, hi: 1000 }, 0)).into())
            .expect("valid spec");
    let stalls = run_sweep(
        &spec(
            trials,
            timed(
                LatencySpec::TwoPoint {
                    lo: 10,
                    hi: 1000,
                    hi_permille: 50,
                },
                0,
            ),
        )
        .into(),
    )
    .expect("valid spec");
    for (label, report) in [("jitter U(0,1000)ns", jitter), ("5% stalls x100", stalls)] {
        let mut cells = rate_cells(label, &report);
        cells.push("-".to_string());
        b.row_vec(cells);
    }
    for loss in [2u32, 5, 25, 250] {
        let report =
            run_sweep(&spec(trials, timed(LatencySpec::ZERO, loss)).into()).expect("valid spec");
        let pred = (1.0 - f64::from(loss) / 1000.0).powf(base_msgs);
        let mut cells = rate_cells(&format!("loss {loss} permille"), &report);
        cells.push(format!("{pred:.3}"));
        b.row_vec(cells);
    }
    b.note("random jitter lets messages overtake on a link (non-FIFO channels); loss");
    b.note("drops them -- both leave the Sec 2 model the rushing schedule is built on");
    vec![a, b]
}

#[cfg(test)]
mod tests {
    /// Extracts the `Pr[w]` column from every data row of a rendered
    /// table (rows whose second whitespace-token parses as a rate).
    fn rates(rendered: &str) -> Vec<f64> {
        rendered
            .lines()
            .filter_map(|l| {
                let mut toks = l.split_whitespace().rev();
                toks.position(|t| t == "±" || t.starts_with('±'))?;
                l.split_whitespace()
                    .find(|t| t.starts_with("0.") || t.starts_with("1."))
                    .and_then(|t| t.parse().ok())
            })
            .collect()
    }

    #[test]
    fn placement_never_rescues_the_ring_but_leaving_the_model_does() {
        let tables = super::run(true);
        // Table A: every FIFO-preserving latency assignment — zero,
        // uniform constant, and both asymmetric 200x arcs — leaves the
        // rushing coalition in full control.
        let a = tables[0].render();
        let a_rates = rates(&a);
        assert_eq!(a_rates.len(), 5, "five placement rows rendered:\n{a}");
        for (i, r) in a_rates.iter().enumerate() {
            assert_eq!(*r, 1.0, "row {i} must keep control:\n{a}");
        }
        // Table B: non-FIFO jitter breaks the rushing schedule, and
        // success decays monotonically in the loss rate.
        let b = tables[1].render();
        let b_rates = rates(&b);
        assert_eq!(b_rates.len(), 6, "six out-of-model rows rendered:\n{b}");
        assert!(
            b_rates[0] < 0.5,
            "uniform jitter must break the FIFO-built schedule:\n{b}"
        );
        let loss = &b_rates[2..];
        for w in loss.windows(2) {
            assert!(w[0] >= w[1], "success must be monotone in loss: {loss:?}");
        }
        assert!(loss[3] < 0.2, "25% loss must break the election: {loss:?}");
    }
}
