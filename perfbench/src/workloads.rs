//! The three sweep workloads, their correctness gates and the
//! end-to-end measurement loop.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fle_attacks::AttackKind;
use fle_harness::{
    run_sweep, run_sweep_checkpointed, run_sweep_partial, sha256_hex, AttackSweep, BatchConfig,
    CoalitionSpec, CrashInstant, FaultSpec, FnKeySpec, HonestSweep, LatencySpec, ProtocolKind,
    ScheduleSpec, SeedMode, SweepSpec, TargetSpec, TrialReport,
};

use crate::memory;
use crate::reference::{nominal_s, Reference};
use crate::stats::median;
use crate::trace::Tracer;

/// The base seed the golden report is pinned at.
pub const GOLDEN_SEED: u64 = 1;

/// sha-256 of the 10k-trial PhaseAsyncLead n=64 report at [`GOLDEN_SEED`]
/// (the same pin `tests/golden_outcomes.rs` holds).
const GOLDEN_SHA: &str = "3001849b911e21739d42048ea699659cc662da9466873125127b4673124019e4";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The pinned 10k-trial honest sweep on the lockstep path.
    HonestGolden,
    /// Rushing coalitions on the scalar engine with attack runners.
    AttackRushing,
    /// Timed-scheduler and crash-fault sweeps through checkpointing.
    ScalarTimedFault,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HonestGolden,
        Workload::AttackRushing,
        Workload::ScalarTimedFault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HonestGolden => "honest_golden",
            Workload::AttackRushing => "attack_rushing",
            Workload::ScalarTimedFault => "scalar_timed_fault",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One sweep of a workload. `spec` runs on one thread; the 2-thread
/// variant differs only in `BatchConfig::threads`.
pub struct Sweep {
    pub label: &'static str,
    pub spec: SweepSpec,
    /// Run through `run_sweep_checkpointed` with this cadence (trials)
    /// instead of `run_sweep`.
    pub checkpoint_every: Option<u64>,
}

impl Sweep {
    pub fn trials(&self) -> u64 {
        self.spec.batch().trials
    }

    pub fn with_threads(&self, threads: usize) -> SweepSpec {
        let mut spec = self.spec.clone();
        match &mut spec {
            SweepSpec::Honest(h) => h.batch.threads = threads,
            SweepSpec::Attack(a) => a.batch.threads = threads,
            SweepSpec::TreeDictator(t) => t.batch.threads = threads,
        }
        spec
    }

    /// The checkpoint file of this sweep, inside the benchmark's own
    /// output directory.
    pub fn checkpoint_path(&self) -> PathBuf {
        out_dir().join(format!("{}.ckpt", self.label))
    }
}

/// Where checkpoint files and span traces go: a directory inside the
/// benchmark package, ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn batch(trials: u64, seed: u64) -> BatchConfig {
    BatchConfig {
        trials,
        base_seed: seed,
        threads: 1,
    }
}

fn phase_n64(trials: u64, seed: u64) -> HonestSweep {
    HonestSweep {
        protocol: ProtocolKind::PhaseAsyncLead,
        n: 64,
        fn_key: 0,
        batch: batch(trials, seed),
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }
}

fn rushing_n16(attack: AttackKind, trials: u64, seed: u64) -> SweepSpec {
    SweepSpec::Attack(AttackSweep {
        attack,
        n: 16,
        fn_key: FnKeySpec::Fixed(0),
        batch: batch(trials, seed),
        coalition: CoalitionSpec::EquallySpaced { k: 7, offset: 1 },
        target: TargetSpec::Fixed(3),
        seed_mode: SeedMode::Derived,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    })
}

/// The sweeps of `workload` at base seed `seed`. Trial counts are sized
/// so that one pass over a workload's sweeps takes a few tenths of a
/// second on one core.
pub fn sweeps(workload: Workload, seed: u64) -> Vec<Sweep> {
    match workload {
        Workload::HonestGolden => vec![Sweep {
            label: "phase_n64",
            spec: phase_n64(10_000, seed).into(),
            checkpoint_every: None,
        }],
        Workload::AttackRushing => vec![
            Sweep {
                label: "rushing_alead_n16",
                spec: rushing_n16(AttackKind::Rushing, 40_000, seed),
                checkpoint_every: None,
            },
            Sweep {
                label: "phase_rushing_n16",
                spec: rushing_n16(AttackKind::PhaseRushing, 10_000, seed),
                checkpoint_every: None,
            },
        ],
        Workload::ScalarTimedFault => vec![
            Sweep {
                label: "phase_n64_timed_const500",
                spec: HonestSweep {
                    schedule: ScheduleSpec::Timed {
                        latency: LatencySpec::Constant { ns: 500 },
                        loss_permille: 0,
                        dup_permille: 0,
                    },
                    ..phase_n64(1_000, seed)
                }
                .into(),
                checkpoint_every: Some(250),
            },
            Sweep {
                label: "phase_n64_crash2",
                spec: HonestSweep {
                    // `fle_lab sweep --crash 2`: two crash-stop faults per
                    // trial inside the default 2n² delivery window.
                    fault: Some(FaultSpec {
                        crashes: 2,
                        window: CrashInstant::Deliveries(2 * 64 * 64),
                        recover: None,
                    }),
                    ..phase_n64(4_000, seed)
                }
                .into(),
                checkpoint_every: Some(1_000),
            },
        ],
    }
}

/// Trials attempted and failed, plus the reason for every failed check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one checked execution of `trials` trials; a failed check
    /// counts all of them as failed.
    pub fn check(&mut self, trials: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += trials;
        self.verify(trials, ok, what);
    }

    /// A further check on `trials` trials already counted as attempted;
    /// a failure counts them as failed (never more than were attempted).
    pub fn verify(&mut self, trials: u64, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed = (self.failed + trials).min(self.attempted);
            self.errors.push(what());
        }
    }

    /// Counts an execution that returned an error instead of a result.
    pub fn error(&mut self, trials: u64, what: String) {
        self.check(trials, false, || what);
    }
}

/// Runs one sweep the way a user would, spec to report bytes: through
/// `run_sweep_checkpointed` (from an empty checkpoint) when the sweep
/// checkpoints, through `run_sweep` otherwise. Returns the report, its
/// JSON and the time the call took; the checkpoint file is removed
/// before the timer starts and after it stops.
pub fn run_to_report(
    sweep: &Sweep,
    spec: &SweepSpec,
) -> Result<(TrialReport, String, Duration), String> {
    let Some(every) = sweep.checkpoint_every else {
        let start = Instant::now();
        let report = run_sweep(spec)?;
        let json = report.to_json();
        return Ok((report, json, start.elapsed()));
    };
    let path = sweep.checkpoint_path();
    remove_if_exists(&path)?;
    let start = Instant::now();
    let run = run_sweep_checkpointed(spec, &path, every, 0, sweep.trials());
    let report = run.and_then(|r| r.partial.finish()).map(|r| {
        let json = r.to_json();
        (r, json)
    });
    let elapsed = start.elapsed();
    remove_if_exists(&path)?;
    let (report, json) = report?;
    Ok((report, json, elapsed))
}

pub fn remove_if_exists(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", path.display())),
    }
}

/// Runs the workload's correctness gates and returns each sweep's
/// reference report JSON (its 1-thread output), against which every
/// later execution is compared byte for byte. These runs are not timed.
pub fn gates(workload: Workload, sweeps: &[Sweep], tally: &mut Tally) -> Vec<String> {
    let mut refs = Vec::with_capacity(sweeps.len());
    for sweep in sweeps {
        let trials = sweep.trials();
        let label = sweep.label;
        let one = run_to_report(sweep, &sweep.with_threads(1));
        let two = run_to_report(sweep, &sweep.with_threads(2));
        let ((report, json), json2) = match (one, two) {
            (Ok((r, j, _)), Ok((_, j2, _))) => ((r, j), j2),
            (Err(e), _) | (_, Err(e)) => {
                tally.error(2 * trials, format!("{label}: {e}"));
                refs.push(String::new());
                continue;
            }
        };
        tally.check(trials, report.faults.is_empty(), || {
            format!("{label}: {} trials panicked", report.faults.len())
        });
        tally.check(trials, json2 == json, || {
            format!("{label}: the 2-thread report differs from the 1-thread report")
        });
        match workload {
            Workload::HonestGolden => {
                tally.verify(trials, report.elected() == trials, || {
                    format!("{label}: {} of {trials} trials elected", report.elected())
                });
                let base_seed = sweep.spec.batch().base_seed;
                if base_seed == GOLDEN_SEED {
                    let sha = sha256_hex(json.as_bytes());
                    tally.verify(trials, sha == GOLDEN_SHA, || {
                        format!("{label}: report sha256 {sha}, pinned {GOLDEN_SHA}")
                    });
                }
            }
            Workload::AttackRushing => {
                let attack = report.attack.unwrap_or(fle_harness::AttackSummary {
                    successes: 0,
                    infeasible: trials,
                });
                tally.verify(
                    trials,
                    attack.successes == trials && attack.infeasible == 0,
                    || {
                        format!(
                            "{label}: {} successes, {} infeasible of {trials}",
                            attack.successes, attack.infeasible
                        )
                    },
                );
            }
            Workload::ScalarTimedFault => {
                // The checkpointed run above must equal a plain run, and
                // a two-shard merge must equal the monolithic report.
                let plain = run_sweep(&sweep.spec).map(|r| r.to_json());
                tally.check(trials, plain.as_ref() == Ok(&json), || {
                    format!("{label}: checkpointed report differs from the plain report")
                });
                let half = trials / 2;
                let merged = run_sweep_partial(&sweep.spec, 0, half).and_then(|mut left| {
                    let right = run_sweep_partial(&sweep.spec, half, trials)?;
                    left.merge(&right)?;
                    Ok(left.finish()?.to_json())
                });
                tally.check(trials, merged.as_ref() == Ok(&json), || {
                    format!("{label}: two-shard merge differs from the monolithic report")
                });
            }
        }
        refs.push(json);
    }
    refs
}

/// End-to-end figures of one workload, plus what the stderr table shows
/// next to them: the round count, the raw (unnormalised) throughputs and
/// the median kernel slice times.
pub struct EndToEnd {
    pub setup_s: f64,
    pub trials_per_s_1t: f64,
    pub trials_per_s_2t: f64,
    pub peak_heap_mb: f64,
    pub rounds: usize,
    pub raw_trials_per_s_1t: f64,
    pub raw_trials_per_s_2t: f64,
    pub kernel_s_1t: f64,
    pub kernel_s_2t: f64,
}

/// Set-up time of a workload: for each sweep, from its spec text to the
/// first finished trial (`parse_json` + `validate` + a one-trial
/// `run_sweep_partial`, which builds the runner, caches and tables).
fn setup_once(texts: &[String], tally: &mut Tally) -> Duration {
    let mut total = Duration::ZERO;
    for text in texts {
        let start = Instant::now();
        let result = SweepSpec::parse_json(text).and_then(|spec| {
            spec.validate()?;
            run_sweep_partial(&spec, 0, 1)
        });
        total += start.elapsed();
        match result {
            Ok(p) => tally.check(1, p.covered() == 1 && p.faults().is_empty(), || {
                "set-up trial did not complete".to_string()
            }),
            Err(e) => tally.error(1, format!("set-up: {e}")),
        }
    }
    total
}

/// Runs one sweep at `threads` threads and compares its report with the
/// reference bytes. Returns the sweep's wall time, or `None` when it
/// returned an error (counted in `tally`).
fn run_checked(
    sweep: &Sweep,
    reference: &str,
    threads: usize,
    tally: &mut Tally,
) -> Option<Duration> {
    match run_to_report(sweep, &sweep.with_threads(threads)) {
        Ok((_, json, elapsed)) => {
            tally.check(sweep.trials(), json == reference, || {
                format!("{}: {threads}-thread report differs", sweep.label)
            });
            Some(elapsed)
        }
        Err(e) => {
            tally.error(sweep.trials(), format!("{}: {e}", sweep.label));
            None
        }
    }
}

/// One pass over every sweep of the workload at `threads` threads.
/// Returns the wall time of the sweeps (checkpoint-file removal and the
/// byte comparison against the references are outside it). With a
/// tracer, each sweep call gets a span under one `e2e.pass` span.
fn pass(
    sweeps: &[Sweep],
    refs: &[String],
    threads: usize,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Duration {
    let pass_span = tracer.as_mut().map(|t| t.enter("e2e.pass"));
    let mut total = Duration::ZERO;
    for (sweep, reference) in sweeps.iter().zip(refs) {
        let name = if sweep.checkpoint_every.is_some() {
            "harness.run_sweep_checkpointed"
        } else {
            "harness.run_sweep"
        };
        let span = tracer.as_mut().map(|t| t.enter(name));
        let elapsed = run_checked(sweep, reference, threads, tally);
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.exit(s);
            t.set_count(s, sweep.trials());
        }
        total += elapsed.unwrap_or_default();
    }
    if let (Some(t), Some(s)) = (tracer, pass_span) {
        t.exit(s);
    }
    total
}

/// One pass at `threads` threads with a kernel slice on as many threads
/// between consecutive sweeps (and before the first, after the last).
/// Returns the pass's raw wall time and its normalised time: each sweep's
/// time over the mean of the two slices around it, times the slice's
/// [`nominal_s`], summed over the sweeps.
fn normalised_pass(
    sweeps: &[Sweep],
    refs: &[String],
    threads: usize,
    kernel: &mut Reference,
    kernel_times: &mut Vec<f64>,
    tally: &mut Tally,
) -> (f64, f64) {
    let (mut raw, mut normalised) = (0.0, 0.0);
    let mut before = kernel.time(threads);
    kernel_times.push(before);
    for (sweep, reference) in sweeps.iter().zip(refs) {
        let elapsed = run_checked(sweep, reference, threads, tally)
            .unwrap_or_default()
            .as_secs_f64();
        let after = kernel.time(threads);
        kernel_times.push(after);
        raw += elapsed;
        normalised += elapsed / (0.5 * (before + after)) * nominal_s(threads);
        before = after;
    }
    (raw, normalised)
}

/// Set-up samples taken per round of the end-to-end loop.
const SETUP_SAMPLES_PER_ROUND: usize = 10;

/// Untimed rounds with heap counting on, after the timed loop.
const HEAP_ROUNDS: usize = 3;

/// The untraced end-to-end loop. Each round takes
/// [`SETUP_SAMPLES_PER_ROUND`] set-up samples between two 1-thread kernel
/// slices, then one normalised 1-thread pass and one normalised 2-thread
/// pass. Rounds repeat until `seconds` have elapsed (at least three).
/// Set-up time is the median over rounds of the round's median sample
/// over the mean of its two slices, times the 1-thread [`nominal_s`];
/// throughput is trials over the median normalised pass time. Then
/// [`HEAP_ROUNDS`] untimed rounds of one 1-thread and one 2-thread pass
/// run with heap counting on; the heap peak is their median.
pub fn measure(sweeps: &[Sweep], refs: &[String], seconds: f64, tally: &mut Tally) -> EndToEnd {
    let texts: Vec<String> = sweeps.iter().map(|s| s.spec.to_json()).collect();
    let trials = sweeps.iter().map(Sweep::trials).sum::<u64>() as f64;
    let mut kernel = Reference::new(2);
    let (mut setup, mut one, mut two, mut heap) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut raw_one, mut raw_two) = (Vec::new(), Vec::new());
    let (mut kernel_one, mut kernel_two) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while one.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let before = kernel.time(1);
        let samples: Vec<f64> = (0..SETUP_SAMPLES_PER_ROUND)
            .map(|_| setup_once(&texts, tally).as_secs_f64())
            .collect();
        let after = kernel.time(1);
        kernel_one.extend([before, after]);
        setup.push(median(&samples) / (0.5 * (before + after)) * nominal_s(1));
        let (raw, normalised) =
            normalised_pass(sweeps, refs, 1, &mut kernel, &mut kernel_one, tally);
        raw_one.push(raw);
        one.push(normalised);
        let (raw, normalised) =
            normalised_pass(sweeps, refs, 2, &mut kernel, &mut kernel_two, tally);
        raw_two.push(raw);
        two.push(normalised);
    }
    for _ in 0..HEAP_ROUNDS {
        heap.push(memory::heap_peak_mb(|| {
            pass(sweeps, refs, 1, tally, None);
            pass(sweeps, refs, 2, tally, None);
        }));
    }
    EndToEnd {
        setup_s: median(&setup),
        trials_per_s_1t: trials / median(&one),
        trials_per_s_2t: trials / median(&two),
        peak_heap_mb: median(&heap),
        rounds: one.len(),
        raw_trials_per_s_1t: trials / median(&raw_one),
        raw_trials_per_s_2t: trials / median(&raw_two),
        kernel_s_1t: median(&kernel_one),
        kernel_s_2t: median(&kernel_two),
    }
}

/// Tracing overhead of the end-to-end loop: 1-thread passes alternate
/// between traced and untraced for `seconds`, each timed whole (spans
/// included); returns `median(traced) / median(untraced) - 1`.
pub fn trace_overhead(
    sweeps: &[Sweep],
    refs: &[String],
    seconds: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while on.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        pass(sweeps, refs, 1, tally, None);
        off.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        pass(sweeps, refs, 1, tally, Some(tracer));
        on.push(t.elapsed().as_secs_f64());
    }
    median(&on) / median(&off) - 1.0
}
