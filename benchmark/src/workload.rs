//! The three workloads and one repetition of each: build the
//! deployment, step it one slot at a time, then read back what it
//! computed and check it.

use std::collections::BTreeMap;
use std::time::Instant;

use slingshot::{expectations_for, ChaosRunner, Deployment, DeploymentBuilder};
use slingshot_ran::{AppServerNode, CellConfig, Fidelity, UeConfig, UeNode};
use slingshot_sim::chaos::{oracle, FaultKind, FaultTarget, Scenario};
use slingshot_sim::slo::{self, SloConfig};
use slingshot_sim::trace::{self, TraceEventKind};
use slingshot_sim::{Nanos, ProfilerReport, SimRng, SpanProfiler, SLOT_DURATION};
use slingshot_transport::{UdpCbrSource, UdpSink};

use crate::cpu::process_cpu_ns;
use crate::spans::SpanLog;

/// PRBs per cell in every workload (20 MHz at 30 kHz SCS).
pub const PRBS: u16 = 51;
/// Spare PHYs in the failover pool.
const POOL: usize = 2;
/// Crashes per failover repetition: at least three times the pool, so
/// the pool runs dry and scrub-recycle must refill it; two per cell.
const CRASHES: usize = 8;
/// Minimum slots between crashes; gaps are `GAP + U[0, GAP)` (the
/// `ChaosDistribution` spacing rule), well clear of the ~40-slot
/// scrub turnaround. No longer than that: a slot's cost is the least
/// over repetitions, and shorter repetitions give each slot more
/// chances at a quiet host.
const CRASH_GAP: u64 = 100;
/// Slots after the last crash, so every cell re-pairs and the pool
/// refills before the run ends.
const COOLDOWN: u64 = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FullUl,
    FabricC64,
    FailoverPool,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FullUl,
        Workload::FabricC64,
        Workload::FailoverPool,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullUl => "full_ul",
            Workload::FabricC64 => "fabric_c64",
            Workload::FailoverPool => "failover_pool",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn cells(self) -> usize {
        match self {
            Workload::FabricC64 => 64,
            Workload::FullUl | Workload::FailoverPool => 4,
        }
    }

    /// Slots per repetition of a fault-free workload. `fabric_c64` times
    /// 1000 slot steps after the first, so each repetition's p99 has ten
    /// samples beyond it. `full_ul` takes half that: its slots cost ten
    /// times more, and a slot's cost is the least over repetitions, so
    /// shorter repetitions give each slot more chances at a quiet host.
    fn fault_free_slots(self) -> u64 {
        match self {
            Workload::FullUl => 501,
            Workload::FabricC64 | Workload::FailoverPool => 1001,
        }
    }

    pub fn fidelity(self) -> Fidelity {
        match self {
            Workload::FullUl => Fidelity::Full,
            Workload::FabricC64 => Fidelity::Abstract,
            Workload::FailoverPool => Fidelity::Sampled,
        }
    }

    /// Mean UE SNR per cell (dB). `full_ul` spreads its UEs over the
    /// link-adaptation range so MCS, LDPC iterations and HARQ
    /// retransmissions differ per cell.
    pub fn snr_db(self, cell: usize) -> f64 {
        match self {
            Workload::FullUl => [16.0, 19.0, 22.0, 25.0][cell % 4],
            Workload::FabricC64 | Workload::FailoverPool => 22.0,
        }
    }

    /// Uplink CBR rate per UE and its packet size.
    pub fn ul_flow(self) -> (u64, usize) {
        match self {
            Workload::FullUl => (12_000_000, 1200),
            Workload::FabricC64 => (1_000_000, 600),
            Workload::FailoverPool => (4_000_000, 1000),
        }
    }

    /// Downlink CBR rate per UE and its packet size, if any.
    pub fn dl_flow(self) -> Option<(u64, usize)> {
        match self {
            Workload::FailoverPool => Some((20_000_000, 1200)),
            Workload::FullUl | Workload::FabricC64 => None,
        }
    }

    /// The fault schedule: a seeded renewal train of `PhyCrash` faults,
    /// each at the current active PHY of a cell, for `failover_pool`;
    /// no faults otherwise. Its horizon is the repetition's length.
    ///
    /// Victims come in seeded random order, every cell once per round:
    /// a cell's uplink goodput stays depressed after each failover it
    /// takes, so uneven draws would make goodput swing with the seed.
    pub fn scenario(self, seed: u64) -> Scenario {
        if self != Workload::FailoverPool {
            return Scenario::new(self.name(), self.fault_free_slots());
        }
        let mut rng = SimRng::new(seed ^ 0x00ca_5cad_e500_5107);
        let cells = self.cells();
        let mut at = 200 + rng.below(CRASH_GAP);
        let mut faults = Vec::with_capacity(CRASHES);
        let mut round: Vec<u8> = Vec::new();
        for _ in 0..CRASHES {
            if round.is_empty() {
                round = (0..cells as u8).collect();
            }
            let victim = round.swap_remove(rng.below(round.len() as u64) as usize);
            faults.push((at, victim));
            at += CRASH_GAP + rng.below(CRASH_GAP);
        }
        let horizon = faults.last().map_or(0, |f| f.0) + COOLDOWN;
        faults
            .into_iter()
            .fold(Scenario::new(self.name(), horizon), |s, (at, cell)| {
                s.fault(at, FaultTarget::ActivePhyOf(cell), FaultKind::PhyCrash)
            })
    }

    /// Build the deployment with its flows attached.
    pub fn build(self, seed: u64) -> Deployment {
        let cells = self.cells();
        let mut b = DeploymentBuilder::new()
            .seed(seed)
            .cell(CellConfig {
                num_prbs: PRBS,
                fidelity: self.fidelity(),
                ..CellConfig::default()
            })
            .cells(cells)
            .workers(crate::WORKERS)
            // Large enough that no analysed ring wraps (checked).
            .trace(1 << 22)
            .ues(
                (0..cells)
                    .map(|c| UeConfig::new(rnti(c), c as u8, &format!("ue-c{c}"), self.snr_db(c))),
            );
        b = match self {
            Workload::FabricC64 => b.cell_groups(4).shards(2),
            Workload::FailoverPool => b.spare_pool(POOL),
            Workload::FullUl => b,
        };
        let mut d = b.build();
        let (ul_bps, ul_size) = self.ul_flow();
        for c in 0..cells {
            d.add_flow(
                c,
                rnti(c),
                Box::new(UdpCbrSource::new(ul_bps, ul_size, Nanos::ZERO)),
                Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
            );
            if let Some((dl_bps, dl_size)) = self.dl_flow() {
                d.add_flow(
                    c,
                    rnti(c),
                    Box::new(UdpSink::new(Nanos::ZERO, Nanos::from_millis(10))),
                    Box::new(UdpCbrSource::new(dl_bps, dl_size, Nanos::ZERO)),
                );
            }
        }
        d
    }
}

fn rnti(cell: usize) -> u16 {
    100 + cell as u16
}

/// What one repetition's simulation computed. Every field is a function
/// of (workload, seed) alone: none depends on host speed.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    pub slots: u64,
    pub crashes: u64,
    pub ul_goodput_mbps: f64,
    pub dl_goodput_mbps: f64,
    pub udp_delivery: f64,
    pub tti_loss: f64,
    pub detect_us: Vec<f64>,
    pub dropped_ttis_max: u64,
    pub availability_nines: f64,
    pub ttr_ms_p50: f64,
    pub orion_fwd_us_p99: f64,
    /// Node counters summed over every node that publishes them.
    pub counters: BTreeMap<String, u64>,
    pub fronthaul_bytes: u64,
    pub fronthaul_frames: u64,
    pub trace_recorded: u64,
    pub trace_dropped: u64,
    pub deadline_misses: u64,
    pub standby_repairs: u64,
}

impl SimStats {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One repetition: host timings, the simulation's digest and
/// statistics, and every correctness failure found.
pub struct Rep {
    pub build_ns: u64,
    pub first_slot_ns: u64,
    /// Process CPU time of the build and the first slot.
    pub setup_cpu_ns: u64,
    /// Wall time of each `run_until` slot step after the first.
    pub step_ns: Vec<u64>,
    /// Process CPU time (all threads) of each of those steps.
    pub step_cpu_ns: Vec<u64>,
    pub trace_hash: u64,
    pub events: u64,
    pub lane_busy_ns: Vec<u64>,
    pub lane_loads: Vec<u64>,
    pub analyze_ns: u64,
    pub oracle_ns: u64,
    pub sim: SimStats,
    pub profile: Option<ProfilerReport>,
    pub failures: Vec<String>,
}

impl Rep {
    pub fn stepped_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }
}

/// Process CPU time to build the deployment and run its first slot.
pub fn setup_cpu_ns(w: Workload, seed: u64) -> u64 {
    let cpu = process_cpu_ns();
    let mut d = w.build(seed);
    d.engine.run_until(SLOT_DURATION);
    process_cpu_ns().saturating_sub(cpu)
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Run one repetition of `w` at `seed`. With `profiler`, the program's
/// own stage profiler is attached after build (tracing on).
pub fn run_rep(w: Workload, seed: u64, profiler: Option<SpanProfiler>, log: &mut SpanLog) -> Rep {
    let scenario = w.scenario(seed);
    let horizon = scenario.horizon_slots;

    let cpu = process_cpu_ns();
    let t = Instant::now();
    let mut d = log.span("build", 0, || w.build(seed));
    let build_ns = ns(t);
    if let Some(p) = profiler {
        d.engine.set_profiler(p);
    }
    let expectations = expectations_for(&d, &scenario);
    let faults = scenario.sorted_faults();

    let mut first_slot_ns = 0;
    let mut setup_cpu_ns = 0;
    let mut step_ns = Vec::with_capacity(horizon as usize);
    let mut step_cpu_ns = Vec::with_capacity(horizon as usize);
    let mut next_fault = 0;
    for slot in 0..horizon {
        let cpu_start = process_cpu_ns();
        let t = Instant::now();
        log.span("slot_step", slot, || {
            let end = next_fault
                + faults[next_fault..]
                    .iter()
                    .take_while(|f| f.at_slot == slot)
                    .count();
            if end > next_fault {
                // Faults due this slot: the chaos runner applies them at
                // the slot's start and runs to its end.
                let mut step = Scenario::new(&scenario.name, slot + 1);
                step.faults = faults[next_fault..end].to_vec();
                next_fault = end;
                ChaosRunner::new(&step).run(&mut d, slot + 1);
            } else {
                d.engine.run_until(Nanos((slot + 1) * SLOT_DURATION.0));
            }
        });
        let wall = ns(t);
        let cpu_end = process_cpu_ns();
        if slot == 0 {
            first_slot_ns = wall;
            setup_cpu_ns = cpu_end.saturating_sub(cpu);
        } else {
            step_ns.push(wall);
            step_cpu_ns.push(cpu_end.saturating_sub(cpu_start));
        }
    }

    log.span("publish_metrics", horizon, || d.publish_metrics());

    // The last UL TTI is still being decoded when the run stops, so the
    // analysis window ends one TDD cycle before the horizon.
    let slo_cfg = SloConfig {
        horizon_slots: horizon - SloConfig::default().tdd_stride,
        initial_active: d
            .cells
            .iter()
            .map(|c| (c.ru_id as u64, c.primary_phy_id as u64))
            .collect(),
        ..SloConfig::default()
    };
    let t = Instant::now();
    let slo_report = log.span("slo_analyze", horizon, || {
        slo::analyze(d.engine.event_trace(), &slo_cfg)
    });
    let analyze_ns = ns(t);
    let t = Instant::now();
    let verdict = log.span("oracle_check", horizon, || {
        oracle::check(d.engine.event_trace(), &expectations)
    });
    let oracle_ns = ns(t);

    let sim = sim_stats(w, &d, &scenario, &slo_report);
    let failures = check(w, &d, &sim, &slo_report, &verdict);
    Rep {
        build_ns,
        first_slot_ns,
        setup_cpu_ns,
        step_ns,
        step_cpu_ns,
        trace_hash: d.engine.trace_hash(),
        events: d.engine.dispatched(),
        lane_busy_ns: d.engine.lane_busy_ns(),
        lane_loads: d.engine.lane_loads(),
        analyze_ns,
        oracle_ns,
        sim,
        profile: d.engine.profiler().report(),
        failures,
    }
}

/// (bytes received, packets received) by a sink.
fn sink_totals(sink: &UdpSink) -> (u64, u64) {
    (sink.bins.bins().iter().sum(), sink.total_rx)
}

fn sim_stats(
    w: Workload,
    d: &Deployment,
    scenario: &Scenario,
    slo_report: &slo::SloReport,
) -> SimStats {
    let engine = &d.engine;
    let sim_s = scenario.horizon_slots as f64 * SLOT_DURATION.0 as f64 / 1e9;
    let server = engine
        .node::<AppServerNode>(d.server)
        .expect("deployment has an app server");
    let (mut ul_bytes, mut dl_bytes, mut rx, mut sent) = (0, 0, 0, 0);
    for (c, &ue_id) in d.ues.iter().enumerate() {
        let ue = engine.node::<UeNode>(ue_id).expect("UE node");
        let (b, r) = sink_totals(server.app::<UdpSink>(rnti(c), 0).expect("UL sink"));
        ul_bytes += b;
        rx += r;
        sent += ue.app::<UdpCbrSource>(0).expect("UL source").sent_packets;
        if w.dl_flow().is_some() {
            let (b, r) = sink_totals(ue.app::<UdpSink>(1).expect("DL sink"));
            dl_bytes += b;
            rx += r;
            sent += server
                .app::<UdpCbrSource>(rnti(c), 1)
                .expect("DL source")
                .sent_packets;
        }
    }

    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (scope, name, v) in engine.metrics().counters() {
        if !scope.starts_with("link:") {
            *counters.entry(name.to_string()).or_default() += v;
        }
    }
    let orion_fwd_ns_p99 = engine
        .metrics()
        .histograms()
        .filter(|(_, name, _)| *name == "fwd_latency_ns")
        .filter_map(|(_, _, h)| h.p99())
        .max()
        .unwrap_or(0);
    let (mut fronthaul_bytes, mut fronthaul_frames) = (0, 0);
    for c in &d.cells {
        let sw = d.switch_for_ru(c.ru_id);
        for s in [engine.link_stats(c.ru, sw), engine.link_stats(sw, c.ru)]
            .into_iter()
            .flatten()
        {
            fronthaul_bytes += s.bytes;
            fronthaul_frames += s.sent;
        }
    }

    let ring = engine.event_trace();
    let fleet = &slo_report.fleet;
    SimStats {
        slots: scenario.horizon_slots,
        crashes: scenario.faults.len() as u64,
        ul_goodput_mbps: ul_bytes as f64 * 8.0 / sim_s / 1e6,
        dl_goodput_mbps: dl_bytes as f64 * 8.0 / sim_s / 1e6,
        udp_delivery: rx as f64 / sent.max(1) as f64,
        tti_loss: fleet.dropped_ttis as f64 / fleet.expected_ttis.max(1) as f64,
        detect_us: trace::detections(ring.iter())
            .iter()
            .map(|det| det.latency().0 as f64 / 1e3)
            .collect(),
        dropped_ttis_max: slo_report
            .cells
            .iter()
            .flat_map(|c| &c.outages)
            .map(|o| o.missing_ttis)
            .max()
            .unwrap_or(0),
        availability_nines: fleet.nines,
        ttr_ms_p50: fleet.ttr_p50.map_or(0.0, |t| t.0 as f64 / 1e6),
        orion_fwd_us_p99: orion_fwd_ns_p99 as f64 / 1e3,
        counters,
        fronthaul_bytes,
        fronthaul_frames,
        trace_recorded: ring.total_recorded(),
        trace_dropped: ring.dropped_oldest(),
        deadline_misses: ring.of_kind(TraceEventKind::SlotDeadlineMiss).count() as u64,
        standby_repairs: ring.of_kind(TraceEventKind::StandbyRepaired).count() as u64,
    }
}

/// The per-repetition correctness gate.
fn check(
    w: Workload,
    d: &Deployment,
    sim: &SimStats,
    slo_report: &slo::SloReport,
    verdict: &oracle::OracleReport,
) -> Vec<String> {
    let mut failures = Vec::new();
    if sim.trace_dropped > 0 || slo_report.truncated {
        failures.push(format!(
            "trace ring wrapped: {} events evicted",
            sim.trace_dropped
        ));
    }
    for v in &verdict.violations {
        failures.push(format!("oracle: {v}"));
    }
    if sim.detect_us.len() as u64 != sim.crashes {
        failures.push(format!(
            "{} detections for {} crashes",
            sim.detect_us.len(),
            sim.crashes
        ));
    }
    if sim.counter("failures_reported") != sim.crashes {
        failures.push(format!(
            "switches reported {} failures for {} crashes",
            sim.counter("failures_reported"),
            sim.crashes
        ));
    }
    if sim.udp_delivery <= 0.0 || sim.ul_goodput_mbps <= 0.0 {
        failures.push("no UDP traffic delivered".to_string());
    }
    if w == Workload::FailoverPool {
        if sim.standby_repairs != sim.crashes {
            failures.push(format!(
                "{} standbys re-paired for {} crashes",
                sim.standby_repairs, sim.crashes
            ));
        }
        let metrics = d.engine.metrics();
        let scope = d
            .recovery
            .map(|id| d.engine.node_name(id).to_string())
            .unwrap_or_default();
        let pool = metrics.gauge(&scope, "pool_size");
        let pending = metrics.gauge(&scope, "pending_requests");
        if pool != Some(POOL as i64) || pending != Some(0) {
            failures.push(format!(
                "spare pool not refilled: size {pool:?} of {POOL}, pending {pending:?}"
            ));
        }
        if sim.dl_goodput_mbps <= 0.0 {
            failures.push("no downlink traffic delivered".to_string());
        }
    }
    failures
}
