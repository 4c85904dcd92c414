//! The traced run: per-layer metrics, each computed from spans around
//! calls into one layer's public functions.
//!
//! Two kinds of measurement share the run:
//! * fixed layer probes (lockstep width scan, scalar engine per protocol,
//!   timed scheduler, fault plans, attack runners) on inputs drawn from
//!   the seed, identical for every workload;
//! * harness passes over the traced workload's own sweeps (dispatch
//!   share, 2-thread scaling, partial recording/merging/parsing,
//!   checkpoint writes, report and spec JSON).

use std::hint::black_box;
use std::time::{Duration, Instant};

use fle_core::protocols::{ALeadUni, BasicLead, PhaseAsyncLead, PhaseSumLead};
use fle_core::EvalTable;
use fle_harness::{
    run_sweep_checkpointed, run_sweep_partial, sha256_hex, write_checkpoint, HonestSweep,
    ProtocolKind, ReportPartial, SweepCheckpoint, SweepSpec, DEFAULT_BATCH_WIDTH,
};

use crate::direct::{self, Honest, LoopStats, Worker};
use crate::memory;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workloads::{self, remove_if_exists, Sweep, Tally};

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Lockstep widths of the width scan.
const WIDTHS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Trials per chunk of a probe loop; every scanned width divides it.
const CHUNK: u64 = 256;

/// Shares of `--seconds` each part of the traced run gets.
const SHARE_OVERHEAD: f64 = 0.15;
const SHARE_HARNESS: f64 = 0.35;
const SHARE_LOCKSTEP_WIDTH: f64 = 0.03;
const SHARE_ENGINE_PROTOCOL: f64 = 0.03;
const SHARE_TIMED: f64 = 0.05;
const SHARE_FAULT: f64 = 0.04;
const SHARE_ATTACK: f64 = 0.03;

/// Trial-index space of the probes: large enough that no chunk runs out.
const PROBE_TRIALS: u64 = 1 << 40;

/// Runs `body(start, stats)` on consecutive `CHUNK`-trial ranges from
/// `CHUNK` on (range 0 is each probe's warm-up) until `seconds` pass,
/// at least twice.
fn chunks(seconds: f64, mut body: impl FnMut(u64, &mut LoopStats)) -> LoopStats {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut st = LoopStats::default();
    let mut start = CHUNK;
    let mut rounds = 0;
    while rounds < 2 || Instant::now() < end {
        body(start, &mut st);
        start += CHUNK;
        rounds += 1;
    }
    st
}

fn honest_spec(protocol: ProtocolKind, seed: u64, width: usize) -> HonestSweep {
    let SweepSpec::Honest(h) = &workloads::sweeps(workloads::Workload::HonestGolden, seed)[0].spec
    else {
        unreachable!("the golden workload is one honest sweep")
    };
    let mut h = *h;
    h.protocol = protocol;
    h.batch_width = width;
    h.batch.trials = PROBE_TRIALS;
    h
}

/// Honest trials of `h` in chunks through one persistent worker, after
/// one unmeasured warm-up chunk (builds the `EvalTable`, node stores and
/// queues). `group` as in [`Worker::range`].
fn honest_probe<P: Honest>(
    tr: &mut Tracer,
    name: &'static str,
    h: &HonestSweep,
    group: usize,
    seconds: f64,
) -> LoopStats {
    let mut w = Worker::<P>::new(h);
    let mut out = Vec::new();
    w.range(tr, 0, CHUNK, group, &mut LoopStats::default(), &mut out);
    let parent = tr.enter(name);
    let st = chunks(seconds, |start, st| {
        out.clear();
        w.range(tr, start, start + CHUNK, group, st, &mut out);
    });
    tr.exit(parent);
    tr.set_count(parent, group as u64);
    st
}

fn lockstep_metrics(tr: &mut Tracer, seed: u64, seconds: f64, out: &mut Vec<Metric>) {
    let mut diverged = (0, 0);
    for width in WIDTHS {
        let h = honest_spec(ProtocolKind::PhaseAsyncLead, seed, width);
        let st = honest_probe::<PhaseAsyncLead>(
            tr,
            "probe.lockstep",
            &h,
            width,
            seconds * SHARE_LOCKSTEP_WIDTH,
        );
        let ns = ratio(st.lockstep_ns as f64, st.lane_deliveries as f64);
        if width == DEFAULT_BATCH_WIDTH {
            out.push(metric("lockstep.ns_per_lane_delivery", "ns", ns));
            diverged = (st.diverged, st.lockstep_calls);
        }
        out.push(metric(
            format!("lockstep.ns_per_lane_delivery.w{width}"),
            "ns",
            ns,
        ));
    }
    out.push(metric(
        "lockstep.diverged_group_frac",
        "ratio",
        ratio(diverged.0 as f64, diverged.1 as f64),
    ));
    let p = PhaseAsyncLead::new(64).with_fn_key(0);
    let (f, params) = (p.random_fn(), p.params());
    let parent = tr.enter("probe.evaltable");
    let samples: Vec<f64> = (0..1000)
        .map(|_| {
            let (table, ns) = tr.time("randfn.EvalTable::new", || {
                EvalTable::new(black_box(&f), params.n, params.vals_in_f())
            });
            black_box(table);
            ns as f64
        })
        .collect();
    tr.exit(parent);
    out.push(metric(
        "lockstep.evaltable_us",
        "us",
        median(&samples) / 1e3,
    ));
}

fn engine_metrics(tr: &mut Tracer, seed: u64, seconds: f64, out: &mut Vec<Metric>) {
    let secs = seconds * SHARE_ENGINE_PROTOCOL;
    let name = "probe.engine";
    for (key, protocol) in [
        ("basic", ProtocolKind::BasicLead),
        ("alead", ProtocolKind::ALeadUni),
        ("phase", ProtocolKind::PhaseAsyncLead),
        ("phasesum", ProtocolKind::PhaseSumLead),
    ] {
        let h = honest_spec(protocol, seed, 1);
        let st = match protocol {
            ProtocolKind::BasicLead => honest_probe::<BasicLead>(tr, name, &h, 0, secs),
            ProtocolKind::ALeadUni => honest_probe::<ALeadUni>(tr, name, &h, 0, secs),
            ProtocolKind::PhaseAsyncLead => honest_probe::<PhaseAsyncLead>(tr, name, &h, 0, secs),
            ProtocolKind::PhaseSumLead => honest_probe::<PhaseSumLead>(tr, name, &h, 0, secs),
        };
        out.push(metric(
            format!("engine.ns_per_delivery.{key}"),
            "ns",
            ratio(st.scalar_ns as f64, st.deliveries as f64),
        ));
        out.push(metric(
            format!("engine.deliveries_per_trial.{key}"),
            "deliveries/trial",
            ratio(st.deliveries as f64, st.scalar_trials as f64),
        ));
    }
}

/// The scalar-timed-fault workload's honest spec `index`, re-aimed at
/// the probe trial space.
fn scalar_spec(seed: u64, index: usize) -> HonestSweep {
    let SweepSpec::Honest(h) =
        &workloads::sweeps(workloads::Workload::ScalarTimedFault, seed)[index].spec
    else {
        unreachable!("the scalar workload's sweeps are honest")
    };
    let mut h = *h;
    h.batch.trials = PROBE_TRIALS;
    h
}

fn timed_metrics(tr: &mut Tracer, seed: u64, seconds: f64, out: &mut Vec<Metric>) {
    // Timed and untimed runs alternate over the same 64-trial ranges.
    let timed_h = scalar_spec(seed, 0);
    let plain_h = HonestSweep {
        schedule: fle_harness::ScheduleSpec::Fifo,
        batch_width: 1,
        ..timed_h
    };
    let mut timed = Worker::<PhaseAsyncLead>::new(&timed_h);
    let mut plain = Worker::<PhaseAsyncLead>::new(&plain_h);
    let (mut ts, mut ps) = (LoopStats::default(), LoopStats::default());
    let mut recs = Vec::new();
    timed.range(tr, 0, 64, 0, &mut LoopStats::default(), &mut recs);
    plain.range(tr, 0, 64, 0, &mut LoopStats::default(), &mut recs);
    let parent = tr.enter("probe.timed");
    let end = Instant::now() + Duration::from_secs_f64(seconds * SHARE_TIMED);
    let mut start = 64;
    while ts.scalar_trials < 128 || Instant::now() < end {
        recs.clear();
        timed.range(tr, start, start + 64, 0, &mut ts, &mut recs);
        plain.range(tr, start, start + 64, 0, &mut ps, &mut recs);
        start += 64;
    }
    tr.exit(parent);
    out.push(metric(
        "timed.ns_per_delivery",
        "ns",
        ratio(ts.scalar_ns as f64, ts.deliveries as f64),
    ));
    out.push(metric(
        "timed.overhead_ratio",
        "ratio",
        ratio(ts.scalar_ns as f64, ps.scalar_ns as f64),
    ));
}

fn fault_metrics(tr: &mut Tracer, seed: u64, seconds: f64, out: &mut Vec<Metric>) {
    let h = scalar_spec(seed, 1);
    let st = honest_probe::<PhaseAsyncLead>(tr, "probe.fault", &h, 0, seconds * SHARE_FAULT);
    let trials = st.scalar_trials as f64;
    out.push(metric(
        "fault.draw_ns",
        "ns",
        ratio(st.draw_ns as f64, trials),
    ));
    out.push(metric(
        "fault.ns_per_delivery",
        "ns",
        ratio(st.scalar_ns as f64, st.deliveries as f64),
    ));
    out.push(metric(
        "fault.deliveries_per_trial",
        "deliveries/trial",
        ratio(st.deliveries as f64, trials),
    ));
    out.push(metric(
        "fault.crashes_per_trial",
        "crashes/trial",
        ratio(st.crashes as f64, trials),
    ));
}

fn attack_metrics(
    tr: &mut Tracer,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) {
    let mut builds = Vec::new();
    let (mut trials, mut infeasible) = (0, 0);
    for (key, index) in [("rushing", 0), ("phase_rushing", 1)] {
        let SweepSpec::Attack(mut a) = workloads::sweeps(workloads::Workload::AttackRushing, seed)
            [index]
            .spec
            .clone()
        else {
            unreachable!("the attack workload's sweeps are attacks")
        };
        a.batch.trials = PROBE_TRIALS;
        let parent = tr.enter("probe.attack");
        let mut recs = Vec::new();
        // Each chunk builds its runner afresh, so every chunk also
        // samples `build_runner`.
        let st = chunks(seconds * SHARE_ATTACK, |start, st| {
            recs.clear();
            let before = st.build_runner_ns;
            if let Err(e) = direct::attack(tr, &a, start, start + CHUNK, st, &mut recs) {
                tally.error(CHUNK, format!("attack probe: {e}"));
            }
            builds.push((st.build_runner_ns - before) as f64);
        });
        tr.exit(parent);
        trials += st.attack_trials;
        infeasible += st.infeasible;
        out.push(metric(
            format!("attack.ns_per_trial.{key}"),
            "ns",
            ratio(st.attack_ns as f64, st.attack_trials as f64),
        ));
    }
    out.push(metric(
        "attack.build_runner_us",
        "us",
        median(&builds) / 1e3,
    ));
    out.push(metric(
        "attack.infeasible_frac",
        "ratio",
        ratio(infeasible as f64, trials as f64),
    ));
}

/// Sums over one harness pass across the workload's sweeps.
#[derive(Default)]
struct Pass {
    layer_ns: u64,
    sweep1_ns: u64,
    sweep2_ns: u64,
    record_ns: u64,
    trials: u64,
    merge_ns: u64,
    finish_ns: u64,
    parse_ns: u64,
    to_json_ns: u64,
    json_bytes: u64,
    write_ns: u64,
    checkpoint_bytes: u64,
    checkpointed_ns: u64,
    parse_validate_ns: u64,
}

/// One harness pass over one sweep: the direct loop, recording its
/// outcomes, `run_sweep_partial` on 1 and 2 threads, partial
/// JSON round trip, two-shard merge and finish, report JSON, checkpoint
/// write and checkpointed run, spec parse. Every result is checked
/// against the direct loop's partial or the reference report.
fn harness_sweep(
    tr: &mut Tracer,
    sweep: &Sweep,
    reference: &str,
    tally: &mut Tally,
    acc: &mut Pass,
) -> Result<(), String> {
    let t = sweep.trials();
    let label = sweep.label;
    let (spec1, spec2) = (sweep.with_threads(1), sweep.with_threads(2));
    let mut st = LoopStats::default();
    let mut recs = Vec::with_capacity(t as usize);
    let parent = tr.enter("direct.sweep");
    let ran = direct::run(tr, &spec1, 0, t, &mut st, &mut recs);
    tr.exit(parent);
    ran?;
    let (direct, record_ns) = direct::record(tr, &spec1, 0, &recs)?;
    let (p1, ns1) = tr.time("harness.run_sweep_partial", || {
        run_sweep_partial(&spec1, 0, t)
    });
    let (p2, ns2) = tr.time("harness.run_sweep_partial.2t", || {
        run_sweep_partial(&spec2, 0, t)
    });
    let (p1, p2) = (p1?, p2?);
    tally.check(t, p1 == direct, || {
        format!("{label}: direct-loop partial differs from run_sweep_partial")
    });
    tally.check(t, p2 == p1, || {
        format!("{label}: 2-thread partial differs from the 1-thread partial")
    });

    let json = p1.to_json();
    let (parsed, parse_ns) = tr.time("partial.parse_json", || ReportPartial::parse_json(&json));
    tally.verify(t, parsed.as_ref() == Ok(&p1), || {
        format!("{label}: partial JSON does not round-trip")
    });

    let half = t / 2;
    let (shards, _) = tr.time("harness.run_sweep_partial.shards", || {
        Ok::<_, String>((
            run_sweep_partial(&spec2, 0, half)?,
            run_sweep_partial(&spec2, half, t)?,
        ))
    });
    let (mut left, right) = shards?;
    let (merged, merge_ns) = tr.time("partial.merge", || left.merge(&right));
    merged?;
    let (report, finish_ns) = tr.time("partial.finish", || left.finish());
    let (report_json, to_json_ns) = tr.time("report.to_json", || report.map(|r| r.to_json()));
    let report_json = report_json?;
    tally.check(t, report_json == reference, || {
        format!("{label}: merged shards differ from the reference report")
    });

    let path = sweep.checkpoint_path();
    let checkpoint = SweepCheckpoint {
        spec_sha256: sha256_hex(spec1.to_json().as_bytes()),
        start: 0,
        end: t,
        partial: p1,
    };
    let (written, write_ns) = tr.time("checkpoint.write_checkpoint", || {
        write_checkpoint(&path, &checkpoint)
    });
    written?;
    let checkpoint_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
        .len();
    remove_if_exists(&path)?;
    let every = sweep.checkpoint_every.unwrap_or(t / 4);
    let (run, checkpointed_ns) = tr.time("checkpoint.run_sweep_checkpointed", || {
        run_sweep_checkpointed(&spec1, &path, every, 0, t)
    });
    remove_if_exists(&path)?;
    tally.check(t, run?.partial == checkpoint.partial, || {
        format!("{label}: checkpointed partial differs from run_sweep_partial")
    });

    let text = spec1.to_json();
    let (valid, parse_validate_ns) = tr.time("spec.parse_validate", || {
        SweepSpec::parse_json(&text).and_then(|s| s.validate())
    });
    valid?;

    acc.layer_ns += st.lockstep_ns + st.scalar_ns + st.draw_ns + st.build_runner_ns + st.attack_ns;
    acc.sweep1_ns += ns1;
    acc.sweep2_ns += ns2;
    acc.record_ns += record_ns;
    acc.trials += t;
    acc.merge_ns += merge_ns;
    acc.finish_ns += finish_ns;
    acc.parse_ns += parse_ns;
    acc.to_json_ns += to_json_ns;
    acc.json_bytes += report_json.len() as u64;
    acc.write_ns += write_ns;
    acc.checkpoint_bytes += checkpoint_bytes;
    acc.checkpointed_ns += checkpointed_ns;
    acc.parse_validate_ns += parse_validate_ns;
    Ok(())
}

fn harness_metrics(
    tr: &mut Tracer,
    sweeps: &[Sweep],
    refs: &[String],
    seconds: f64,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) {
    let per_sweep = sweeps.len() as f64;
    let mut series: Vec<(&'static str, &'static str, Vec<f64>)> = vec![
        ("harness.dispatch_frac", "ratio", Vec::new()),
        ("harness.scaling_eff_2t", "ratio", Vec::new()),
        ("partial.record_ns", "ns", Vec::new()),
        ("partial.merge_us", "us", Vec::new()),
        ("partial.finish_us", "us", Vec::new()),
        ("partial.parse_us", "us", Vec::new()),
        ("checkpoint.write_us", "us", Vec::new()),
        ("checkpoint.bytes", "bytes", Vec::new()),
        ("checkpoint.overhead_frac", "ratio", Vec::new()),
        ("report.to_json_us", "us", Vec::new()),
        ("report.json_bytes", "bytes", Vec::new()),
        ("spec.parse_validate_us", "us", Vec::new()),
    ];
    let end = Instant::now() + Duration::from_secs_f64(seconds * SHARE_HARNESS);
    let mut passes = 0;
    while passes < 2 || Instant::now() < end {
        passes += 1;
        let mut acc = Pass::default();
        let parent = tr.enter("probe.harness");
        for (sweep, reference) in sweeps.iter().zip(refs) {
            if let Err(e) = harness_sweep(tr, sweep, reference, tally, &mut acc) {
                tally.error(sweep.trials(), format!("{}: {e}", sweep.label));
            }
        }
        tr.exit(parent);
        let sweep1 = acc.sweep1_ns as f64;
        let values = [
            1.0 - ratio(acc.layer_ns as f64, sweep1),
            ratio(sweep1, 2.0 * acc.sweep2_ns as f64),
            ratio(acc.record_ns as f64, acc.trials as f64),
            acc.merge_ns as f64 / per_sweep / 1e3,
            acc.finish_ns as f64 / per_sweep / 1e3,
            acc.parse_ns as f64 / per_sweep / 1e3,
            acc.write_ns as f64 / per_sweep / 1e3,
            acc.checkpoint_bytes as f64 / per_sweep,
            ratio(acc.checkpointed_ns as f64, sweep1) - 1.0,
            acc.to_json_ns as f64 / per_sweep / 1e3,
            acc.json_bytes as f64 / per_sweep,
            acc.parse_validate_ns as f64 / per_sweep / 1e3,
        ];
        for ((_, _, xs), v) in series.iter_mut().zip(values) {
            xs.push(v);
        }
    }
    for (name, unit, xs) in series {
        out.push(metric(name, unit, median(&xs)));
    }
}

/// Cost of one empty span (enter + exit), from 20k of them.
fn span_cost_ns(tr: &mut Tracer) -> f64 {
    const SPANS: u32 = 20_000;
    let parent = tr.enter("probe.span_cost");
    let start = Instant::now();
    for _ in 0..SPANS {
        let id = tr.enter("trace.empty");
        tr.exit(id);
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(SPANS);
    tr.exit(parent);
    ns
}

/// Every per-layer metric of the traced run of `sweeps`.
pub fn measure(
    sweeps: &[Sweep],
    refs: &[String],
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let overhead = workloads::trace_overhead(sweeps, refs, seconds * SHARE_OVERHEAD, tally, tr);
    harness_metrics(tr, sweeps, refs, seconds, tally, &mut out);
    lockstep_metrics(tr, seed, seconds, &mut out);
    engine_metrics(tr, seed, seconds, &mut out);
    timed_metrics(tr, seed, seconds, &mut out);
    fault_metrics(tr, seed, seconds, &mut out);
    attack_metrics(tr, seed, seconds, tally, &mut out);
    out.push(metric("trace.overhead_frac", "ratio", overhead));
    out.push(metric("trace.span_ns", "ns", span_cost_ns(tr)));
    // The process's peak RSS, for reading next to the end-to-end heap
    // peak; it varies with allocator arena reuse (see `memory`).
    match memory::peak_rss_mb() {
        Ok(mb) => out.push(metric("process.peak_rss_mb", "MiB", mb)),
        Err(e) => tally.errors.push(e),
    }
    out
}
