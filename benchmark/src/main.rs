//! Repository benchmark: drives the simulator through its public API on
//! one named workload and prints the metrics `BENCHMARK.json` declares.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <full_ul|fabric_c64|failover_pool> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there).
//! `--trace 0` repeats the workload, untraced, for about `--seconds`
//! and prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced repetitions (the program's `SpanProfiler`
//! attached, plus the benchmark's own spans around every call), replays
//! the layers that have no span, prints the per-layer metrics, and
//! writes the spans to `.bench_traces/` as Chrome trace JSON.
//!
//! Host costs are process CPU time: on a shared machine, wall time of
//! identical runs swings with other tenants' load far more than the
//! bounds allow. Wall-clock figures are reported per layer, unbounded.
//! Other tenants still slow the process's CPU time down, by a fifth or
//! more for seconds at a time, so each slot's end-to-end cost is the
//! least that slot took in any timed repetition.
//!
//! Every repetition of a run uses the same seed, so each must produce
//! the same trace hash; the run also fails if an analysed trace ring
//! wrapped, the chaos oracle finds a violation, a crash is not detected
//! exactly once, or, on `failover_pool`, a cell is not re-paired or the
//! spare pool not refilled.
//! The last stdout line is one JSON object: `correct`, `attempted`
//! (repetitions run), `failed` (repetitions that failed a check) and
//! `metrics`.

mod cpu;
mod replay;
mod spans;
mod spec;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use slingshot_phy_dsp::DspKernels;
use slingshot_sim::{ProfilerReport, SpanProfiler};

use crate::spans::SpanLog;
use crate::spec::Spec;
use crate::stats::{beyond, median, percentile};
use crate::workload::{run_rep, setup_cpu_ns, Rep, Workload};

/// Worker threads every workload's pool uses. One: the end-to-end costs
/// are CPU time, which more workers cannot lower, and on a shared 2-vCPU
/// VM two busy threads made the CPU time of the same work move by up to
/// 30% between minute-long stretches (`fabric_c64` read 44k-75k
/// cell-slots/cpu-s over eight runs, against 63k-71k on one thread in
/// the runs between them). One worker runs the pool's jobs inline,
/// through the same job-granular path.
const WORKERS: usize = 1;
/// Extra build-and-first-slot samples after each untraced repetition.
const SETUP_PROBES: usize = 32;
/// Fewest repetitions, after the warm-up one, that slot costs are
/// taken from.
const MIN_TIMED_REPS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --key value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{k}"));
    }
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be in 1..=600".to_string());
    }
    Ok(args)
}

fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    median(&v).unwrap_or(0.0)
}

/// Cell-slots per second of a repetition whose slot steps took `ns`
/// (wall or CPU) nanoseconds each.
fn rate(w: Workload, ns: &[u64]) -> f64 {
    (w.cells() * ns.len()) as f64 / (ns.iter().sum::<u64>() as f64 / 1e9)
}

fn to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// The `q` percentile of a repetition's slot steps, in µs.
fn step_us(ns: &[u64], q: f64) -> f64 {
    percentile(&to_us(ns), q).unwrap_or(0.0)
}

/// Busiest dispatch lane's wall µs per simulated slot. An unsharded
/// engine has one lane, busy for the whole of every slot step.
fn lane_us_per_slot(rep: &Rep) -> (f64, f64) {
    let slots = rep.sim.slots as f64;
    if rep.lane_busy_ns.is_empty() {
        let mean = rep.stepped_ns() as f64 / rep.step_ns.len() as f64 / 1e3;
        return (mean, mean);
    }
    let per_slot: Vec<f64> = rep
        .lane_busy_ns
        .iter()
        .map(|&b| b as f64 / slots / 1e3)
        .collect();
    let max = per_slot.iter().copied().fold(0.0, f64::max);
    (max, per_slot.iter().sum::<f64>() / per_slot.len() as f64)
}

/// Per-stage totals and percentiles of the program's own profiler,
/// accumulated over traced repetitions.
#[derive(Default)]
struct Stages {
    total_ns: BTreeMap<String, f64>,
    count: BTreeMap<String, u64>,
    p50_ns: BTreeMap<String, Vec<f64>>,
    p99_ns: BTreeMap<String, Vec<f64>>,
    spans_dropped: Vec<f64>,
}

impl Stages {
    fn add(&mut self, report: &ProfilerReport) {
        for s in &report.stages {
            *self.total_ns.entry(s.stage.clone()).or_default() += s.mean_ns * s.count as f64;
            *self.count.entry(s.stage.clone()).or_default() += s.count;
            self.p50_ns
                .entry(s.stage.clone())
                .or_default()
                .push(s.p50_ns as f64);
            self.p99_ns
                .entry(s.stage.clone())
                .or_default()
                .push(s.p99_ns as f64);
        }
        self.spans_dropped.push(report.spans_dropped as f64);
    }

    fn total(&self, stage: &str) -> f64 {
        self.total_ns.get(stage).copied().unwrap_or(0.0)
    }

    fn p50_us(&self, stage: &str) -> f64 {
        self.p50_ns
            .get(stage)
            .map_or(0.0, |v| med(v.iter().copied()) / 1e3)
    }

    fn p99_us(&self, stage: &str) -> f64 {
        self.p99_ns
            .get(stage)
            .map_or(0.0, |v| med(v.iter().copied()) / 1e3)
    }

    fn mean_us(&self, stage: &str) -> f64 {
        match self.count.get(stage) {
            Some(&n) if n > 0 => self.total(stage) / n as f64 / 1e3,
            _ => 0.0,
        }
    }
}

/// Values by metric name, each with the unit it is computed in.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn end_to_end(w: Workload, reps: &[Rep], rss_kib: u64, setup_probes: &[u64]) -> Metrics {
    // The first repetition warms caches and lazily built tables; slot
    // costs come from the rest.
    let timed = &reps[1..];
    let floor = slot_floor_ns(timed);
    let setup = setup_probes
        .iter()
        .chain(reps.iter().map(|r| &r.setup_cpu_ns))
        .map(|&n| n as f64 / 1e9);
    let mut m = Metrics::new();
    m.insert(
        "cell_slots_per_cpu_s",
        (rate(w, &floor), "cell-slots/cpu-s"),
    );
    m.insert("slot_cpu_us_p50", (step_us(&floor, 0.5), "us"));
    // p95, not p99: the rarest slot costs move most with the host.
    m.insert("slot_cpu_us_p95", (step_us(&floor, 0.95), "us"));
    m.insert("setup_s", (med(setup), "s"));
    m.insert("peak_rss_mib", (rss_kib as f64 / 1024.0, "MiB"));
    m.insert("ul_goodput_mbps", (reps[0].sim.ul_goodput_mbps, "Mbit/s"));
    println!(
        "# samples: {} repetitions ({} timed), {} slot steps each, {} above the p95, {} set-ups",
        reps.len(),
        timed.len(),
        floor.len(),
        beyond(&to_us(&floor), 0.95),
        setup_probes.len() + reps.len(),
    );
    println!(
        "# per-repetition medians: rate {} p50 {} p95 {}",
        med(timed.iter().map(|r| rate(w, &r.step_cpu_ns))),
        med(timed.iter().map(|r| step_us(&r.step_cpu_ns, 0.5))),
        med(timed.iter().map(|r| step_us(&r.step_cpu_ns, 0.95))),
    );
    m
}

/// Each slot step's CPU cost with the host's interference taken out:
/// the least any timed repetition spent on it. Every repetition runs
/// the same seed, so slot `i` does the same work in each of them (the
/// trace hashes are checked equal); what differs between them is only
/// what other tenants of the machine cost the process at that moment.
fn slot_floor_ns(timed: &[Rep]) -> Vec<u64> {
    (0..timed[0].step_cpu_ns.len())
        .map(|i| timed.iter().map(|r| r.step_cpu_ns[i]).min().unwrap_or(0))
        .collect()
}

fn per_layer(
    w: Workload,
    untraced: &[Rep],
    traced: &[Rep],
    stages: &Stages,
    r: &replay::Replay,
) -> Metrics {
    let sim = &untraced[0].sim;
    let cell_slots = (w.cells() as u64 * sim.slots) as f64;
    let events = untraced[0].events as f64;
    // Untraced repetitions after the warm-up one; shares are of their
    // process CPU time, like the end-to-end costs.
    let timed = &untraced[1..];
    let cpu_ns = |r: &Rep| r.step_cpu_ns.iter().sum::<u64>() as f64;
    let untraced_cpu_ns = med(timed.iter().map(cpu_ns));
    // The profiler is attached from the first slot on, so its stages
    // are compared with every slot step of the traced repetitions.
    let traced_wall_ns = traced
        .iter()
        .map(|r| (r.first_slot_ns + r.stepped_ns()) as f64)
        .sum::<f64>()
        / traced.len() as f64;
    let n_traced = traced.len() as f64;
    let per_rep = |stage: &str| stages.total(stage) / n_traced;
    let c = |name: &str| sim.counter(name) as f64;
    let lanes: Vec<(f64, f64)> = timed.iter().map(lane_us_per_slot).collect();
    let lane_max = med(lanes.iter().map(|l| l.0));
    let lane_mean = med(lanes.iter().map(|l| l.1));
    let loads = &untraced[0].lane_loads;
    let imbalance = if loads.is_empty() {
        1.0
    } else {
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        max / (loads.iter().sum::<u64>() as f64 / loads.len() as f64)
    };
    let jobs = per_rep("slot_jobs");
    let decodes = c("ul_tbs_decoded") + c("ul_crc_failures");
    // Only Full fidelity carries IQ; counting every fronthaul byte as
    // BFP payload bounds its PRB count from above.
    let fh_prbs = if w.fidelity() == slingshot_ran::Fidelity::Full {
        sim.fronthaul_bytes as f64 / r.bfp_prb_bytes as f64
    } else {
        0.0
    };
    let fapi_msgs = c("forwarded_to_phy") + c("forwarded_to_l2");
    let share = |ns: f64| ns / untraced_cpu_ns;
    // Top-level stages the dispatching thread records without nesting:
    // the PHY's whole slot, UE encode and channel, queue pops; on a
    // sharded engine, lane windows and the barrier merge.
    let attributed: f64 = [
        "slot_total",
        "ue_encode",
        "channel",
        "queue_pop",
        "lane_dispatch",
        "barrier_merge",
    ]
    .iter()
    .map(|s| per_rep(s))
    .sum();
    let detect = &sim.detect_us;

    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        m.insert(name, (value, unit));
    };
    // Wall-clock figures: what a user waits, but stretched by whatever
    // else the host runs, so they carry no bound.
    put(
        "wall.cell_slots_per_s",
        med(timed.iter().map(|r| rate(w, &r.step_ns))),
        "cell-slots/s",
    );
    put(
        "wall.slot_us_p50",
        med(timed.iter().map(|r| step_us(&r.step_ns, 0.5))),
        "us",
    );
    put(
        "wall.slot_us_p99",
        med(timed.iter().map(|r| step_us(&r.step_ns, 0.99))),
        "us",
    );
    put(
        "cpu.slot_us_p99",
        med(timed.iter().map(|r| step_us(&r.step_cpu_ns, 0.99))),
        "us",
    );
    put(
        "sim.engine.events_per_cell_slot",
        events / cell_slots,
        "count",
    );
    put(
        "sim.engine.events_per_cpu_s",
        events / (untraced_cpu_ns / 1e9),
        "1/cpu-s",
    );
    put(
        "sim.engine.queue_ns_per_event",
        (per_rep("queue_push") + per_rep("queue_pop")) / events,
        "ns",
    );
    put(
        "sim.engine.barrier_merge_us_per_slot",
        per_rep("barrier_merge") / sim.slots as f64 / 1e3,
        "us",
    );
    put("sim.engine.lane_busy_us_per_slot.max", lane_max, "us");
    put("sim.engine.lane_busy_us_per_slot.mean", lane_mean, "us");
    put("sim.engine.lane_event_imbalance", imbalance, "ratio");
    put(
        "sim.pool.parallel_efficiency",
        if jobs > 0.0 {
            (per_rep("ul_decode") + per_rep("dl_encode")) / (jobs * WORKERS as f64)
        } else {
            0.0
        },
        "share",
    );
    put(
        "sim.trace.events_recorded",
        sim.trace_recorded as f64,
        "count",
    );
    put(
        "sim.trace.events_dropped",
        sim.trace_dropped as f64,
        "count",
    );
    put(
        "sim.slo.analyze_ms",
        med(untraced.iter().map(|r| r.analyze_ns as f64 / 1e6)),
        "ms",
    );
    put(
        "sim.slo.oracle_check_ms",
        med(untraced.iter().map(|r| r.oracle_ns as f64 / 1e6)),
        "ms",
    );
    put(
        "phy_dsp.ldpc_decode_us_p50",
        stages.p50_us("ldpc_decode"),
        "us",
    );
    put(
        "phy_dsp.ldpc_decode_us_p99",
        stages.p99_us("ldpc_decode"),
        "us",
    );
    put(
        "phy_dsp.ldpc_decode_share",
        // Decodes run on every worker while the PHY's slot span runs on
        // the dispatching thread: the share is of that span's thread time.
        if per_rep("slot_total") > 0.0 {
            per_rep("ldpc_decode") / (per_rep("slot_total") * WORKERS as f64)
        } else {
            0.0
        },
        "share",
    );
    put(
        "phy_dsp.channel_us_per_slot",
        per_rep("channel") / sim.slots as f64 / 1e3,
        "us",
    );
    put("phy_dsp.replay.ldpc_decode_ns", r.ldpc_decode_ns, "ns");
    put("phy_dsp.replay.demap_ns_per_sym", r.demap_ns_per_sym, "ns");
    put(
        "phy_dsp.replay.demap_share",
        if w.fidelity() == slingshot_ran::Fidelity::Full {
            share(decodes * r.syms_per_tb as f64 * r.demap_ns_per_sym)
        } else {
            0.0
        },
        "share",
    );
    put("ran.phy.ul_decode_us_p99", stages.p99_us("ul_decode"), "us");
    put("ran.phy.dl_encode_us_p50", stages.p50_us("dl_encode"), "us");
    put(
        "ran.phy.slot_prepare_us",
        stages.mean_us("slot_prepare"),
        "us",
    );
    put("ran.phy.slot_merge_us", stages.mean_us("slot_merge"), "us");
    put(
        "ran.phy.ul_decode_yield",
        c("ul_tbs_decoded") / decodes.max(1.0),
        "share",
    );
    put("ran.phy.null_slots", c("null_slots"), "count");
    put("ran.phy.work_slots", c("work_slots"), "count");
    put(
        "ran.phy.slot_deadline_miss",
        sim.deadline_misses as f64,
        "count",
    );
    put("ran.ue.ue_encode_us_p50", stages.p50_us("ue_encode"), "us");
    put("ran.sched.replay.ul_grant_ns", r.ul_grant_ns, "ns");
    put(
        "ran.sched.replay.share",
        share(c("ul_grants_served") * r.ul_grant_ns),
        "share",
    );
    put(
        "fronthaul.replay.bfp_compress_ns_per_prb",
        r.bfp_compress_ns_per_prb,
        "ns",
    );
    put(
        "fronthaul.replay.bfp_decompress_ns_per_prb",
        r.bfp_decompress_ns_per_prb,
        "ns",
    );
    put("fronthaul.replay.msg_encode_ns", r.fh_encode_ns, "ns");
    put("fronthaul.replay.msg_decode_ns", r.fh_decode_ns, "ns");
    put(
        "fronthaul.replay.share",
        share(
            sim.fronthaul_frames as f64 * (r.fh_encode_ns + r.fh_decode_ns)
                + fh_prbs * (r.bfp_compress_ns_per_prb + r.bfp_decompress_ns_per_prb),
        ),
        "share",
    );
    put(
        "fronthaul.bytes_per_cell_slot",
        sim.fronthaul_bytes as f64 / cell_slots,
        "B",
    );
    put("fapi.replay.encode_ns", r.fapi_encode_ns, "ns");
    put("fapi.replay.decode_ns", r.fapi_decode_ns, "ns");
    put(
        "fapi.replay.share",
        share(fapi_msgs * (r.fapi_encode_ns + r.fapi_decode_ns)),
        "share",
    );
    put("fapi.msgs_per_cell_slot", fapi_msgs / cell_slots, "count");
    put(
        "switch.frames_per_cell_slot",
        c("forwarded_frames") / cell_slots,
        "count",
    );
    put("switch.dl_filtered", c("dl_filtered"), "count");
    put("switch.ctl_packets", c("ctl_packets"), "count");
    put(
        "switch.migrations_executed",
        c("migrations_executed"),
        "count",
    );
    put(
        "switch.false_failures",
        c("failures_reported") - sim.crashes as f64,
        "count",
    );
    put("core.orion.fwd_to_phy", c("forwarded_to_phy"), "count");
    put("core.orion.fwd_to_l2", c("forwarded_to_l2"), "count");
    put("core.orion.null_fapi_sent", c("null_fapi_sent"), "count");
    put(
        "core.orion.dropped_standby_msgs",
        c("dropped_standby_msgs"),
        "count",
    );
    put(
        "core.orion.drained_late_msgs",
        c("drained_late_msgs"),
        "count",
    );
    put("core.orion.fwd_us_p99", sim.orion_fwd_us_p99, "us");
    put("core.recovery.grants", c("grants"), "count");
    put(
        "core.recovery.requests_queued",
        c("requests_queued"),
        "count",
    );
    put(
        "core.recovery.scrubs_completed",
        c("scrubs_completed"),
        "count",
    );
    put("core.recovery.ttr_ms_p50", sim.ttr_ms_p50, "ms");
    put(
        "core.deployment.build_ms",
        med(untraced.iter().map(|r| r.build_ns as f64 / 1e6)),
        "ms",
    );
    put(
        "core.deployment.first_slot_ms",
        med(untraced.iter().map(|r| r.first_slot_ns as f64 / 1e6)),
        "ms",
    );
    put("transport.udp_delivery", sim.udp_delivery, "share");
    put("transport.dl_goodput_mbps", sim.dl_goodput_mbps, "Mbit/s");
    put("slo.tti_loss", sim.tti_loss, "share");
    put("slo.detect_us_p50", median(detect).unwrap_or(0.0), "us");
    put(
        "slo.detect_us_max",
        percentile(detect, 1.0).unwrap_or(0.0),
        "us",
    );
    put("slo.dropped_ttis_max", sim.dropped_ttis_max as f64, "TTIs");
    put("slo.availability_nines", sim.availability_nines, "nines");
    put(
        "trace.attributed_share",
        attributed / traced_wall_ns,
        "share",
    );
    put(
        "trace.overhead_share",
        med(traced.iter().map(cpu_ns)) / untraced_cpu_ns - 1.0,
        "share",
    );
    put(
        "profiler.spans_dropped",
        med(stages.spans_dropped.iter().copied()),
        "count",
    );
    m
}

/// Print the result line. Fails (so no result is printed) if the
/// computed metrics do not match the declaration exactly.
fn emit(
    declared: &[spec::MetricSpec],
    metrics: &Metrics,
    attempted: usize,
    failed: usize,
    correct: bool,
) -> Result<(), String> {
    if metrics.len() != declared.len() {
        let extra: Vec<_> = metrics
            .keys()
            .filter(|k| !declared.iter().any(|d| d.name == **k))
            .collect();
        return Err(format!(
            "computed {} metrics for {} declared; undeclared: {extra:?}",
            metrics.len(),
            declared.len()
        ));
    }
    let mut fields = Vec::new();
    for d in declared {
        let (value, unit) = metrics
            .get(d.name.as_str())
            .ok_or(format!("metric {} declared but not computed", d.name))?;
        if *unit != d.unit {
            return Err(format!(
                "{} computed in {unit}, declared in {}",
                d.name, d.unit
            ));
        }
        if !value.is_finite() {
            return Err(format!("{} is not finite: {value}", d.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            d.name
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let spec = Spec::parse(&spec_text)?;
    let w = args.workload;
    if !spec.workloads.iter().any(|n| n == w.name()) {
        return Err(format!("workload {} is not declared", w.name()));
    }
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    println!(
        "# workload {} seed {} trace {} kernels {} workers {WORKERS} host threads {}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        DspKernels::detect().name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // Set-up is cheap next to a repetition, so it is also sampled on
    // its own after each untraced repetition: samples taken while the
    // process is still cold at start-up differ between processes by up
    // to twice.
    let mut setup_probes: Vec<u64> = Vec::new();
    // Peak resident memory up to the end of the first repetition. Later
    // repetitions and set-up samples reuse the memory it freed, and the
    // peak over all of them depends on how the allocator happened to lay
    // them out (it moved 12-16 MiB between runs of `failover_pool`).
    let mut rss_kib = 0;
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut stages = Stages::default();
    let run_id = format!("{}-s{}-{}", w.name(), args.seed, std::process::id());
    let mut log = if args.trace {
        SpanLog::enabled(run_id.clone())
    } else {
        SpanLog::disabled()
    };
    // Traced runs alternate untraced and traced repetitions so the two
    // see the same machine state; the replays get a tenth of the time.
    // A repetition starts only if it is expected to end within the
    // budget, so a run lasts about `--seconds`, not a repetition more.
    let rep_budget = if args.trace { budget * 9 / 10 } else { budget };
    let mut longest_rep = Duration::ZERO;
    while untraced.len() < MIN_TIMED_REPS + 1
        || (args.trace && traced.is_empty())
        || started.elapsed() + longest_rep < rep_budget
    {
        let rep_started = Instant::now();
        if args.trace && untraced.len() > traced.len() {
            let profiler = SpanProfiler::enabled();
            let rep = run_rep(w, args.seed, Some(profiler.clone()), &mut log);
            if let Some(p) = &rep.profile {
                stages.add(p);
            }
            traced.push(rep);
        } else {
            untraced.push(run_rep(w, args.seed, None, &mut SpanLog::disabled()));
            if untraced.len() == 1 {
                rss_kib = peak_rss_kib();
            }
            if !args.trace {
                setup_probes.extend((0..SETUP_PROBES).map(|_| setup_cpu_ns(w, args.seed)));
            }
        }
        longest_rep = longest_rep.max(rep_started.elapsed());
    }

    let reference = untraced[0].trace_hash;
    let mut failed = 0;
    for (i, rep) in untraced.iter().chain(&traced).enumerate() {
        let mut failures = rep.failures.clone();
        if rep.trace_hash != reference {
            failures.push(format!(
                "trace hash {:016x} differs from the first repetition's {reference:016x}",
                rep.trace_hash
            ));
        }
        for f in &failures {
            eprintln!("repetition {i}: {f}");
        }
        failed += usize::from(!failures.is_empty());
    }
    let attempted = untraced.len() + traced.len();
    let sim = &untraced[0].sim;
    println!(
        "# digest: trace_hash {reference:016x} events {} slots {} crashes {}",
        untraced[0].events, sim.slots, sim.crashes
    );
    println!(
        "# sim: ul_goodput_mbps {} dl_goodput_mbps {} tti_loss {} detect_us {:?} dropped_ttis_max {} nines {} orion_fwd_us_p99 {} deadline_miss {}",
        sim.ul_goodput_mbps,
        sim.dl_goodput_mbps,
        sim.tti_loss,
        sim.detect_us,
        sim.dropped_ttis_max,
        sim.availability_nines,
        sim.orion_fwd_us_p99,
        sim.deadline_misses,
    );

    let metrics = if args.trace {
        for i in spec::INTERACTIONS.iter().filter(|i| i.workload == w.name()) {
            println!(
                "# predicts: {} {} {}{}",
                i.layer_metric,
                if i.moves { "moves" } else { "leaves unchanged" },
                i.end_to_end,
                i.via.map(|v| format!(" via {v}")).unwrap_or_default()
            );
        }
        let per_op = (budget / 10 / 12).max(Duration::from_millis(5));
        let r = replay::run(w, args.seed, per_op, &mut log);
        let m = per_layer(w, &untraced, &traced, &stages, &r);
        write_spans(&log, &run_id);
        m
    } else {
        end_to_end(w, &untraced, rss_kib, &setup_probes)
    };
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    emit(declared, &metrics, attempted, failed, failed == 0)
}

fn write_spans(log: &SpanLog, run_id: &str) {
    let dir = std::path::Path::new(".bench_traces");
    let path = dir.join(format!("{run_id}.json"));
    let result = std::fs::create_dir_all(dir).and_then(|_| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        log.write_chrome_trace(&mut f)?;
        std::io::Write::flush(&mut f)
    });
    match result {
        Ok(()) => println!("# spans: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("benchmark: {e}");
        std::process::exit(2);
    }
}
