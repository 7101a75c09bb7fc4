//! `BENCHMARK.json`: the metric and workload declarations the benchmark
//! prints against, plus the interaction table that says which
//! end-to-end metric each per-layer metric should move, on which
//! workload.
//!
//! The declaration file holds only names, units and directions; the
//! interaction table lives here so the file keeps its fixed key set.

use std::collections::BTreeMap;

/// A parsed JSON value (the subset of JSON the declaration file uses is
/// all of JSON, so this is a complete if minimal parser).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat("{")?;
        let mut kv = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(":")?;
            kv.push((k, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.i < self.s.len() && self.s[self.i] != b'"' && self.s[self.i] != b'\\' {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?);
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i - 1)),
                    });
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad value at byte {start}"))
    }
}

/// A metric or workload name: 1..=64 of `[A-Za-z0-9_.-]`, starting with
/// a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// A unit: 1..=16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the benchmark prints against.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse and validate the declaration file's text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let workloads = root
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("missing {key}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("{key} entry without {f}"))
                    };
                    if !matches!(field("better")?, "higher" | "lower") {
                        return Err(format!("{key}: better must be higher or lower"));
                    }
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                    })
                })
                .collect()
        };
        let spec = Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        let mut seen = BTreeMap::new();
        let names = self
            .workloads
            .iter()
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|m| &m.name));
        for name in names {
            if !valid_name(name) {
                return Err(format!("invalid name {name:?}"));
            }
            if seen.insert(name.as_str(), ()).is_some() {
                return Err(format!("name {name:?} used twice"));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            if !valid_unit(&m.unit) {
                return Err(format!("invalid unit {:?} of {}", m.unit, m.name));
            }
        }
        self.validate_interactions()
    }

    /// Every per-layer metric must have an entry in [`INTERACTIONS`],
    /// and every entry for a declared metric must name a declared
    /// end-to-end metric and workload.
    fn validate_interactions(&self) -> Result<(), String> {
        let layer = |name: &str| self.per_layer.iter().any(|m| m.name == name);
        for i in INTERACTIONS.iter().filter(|i| layer(i.layer_metric)) {
            if !self.end_to_end.iter().any(|m| m.name == i.end_to_end) {
                return Err(format!(
                    "{} moves {}, which is not an end-to-end metric",
                    i.layer_metric, i.end_to_end
                ));
            }
            if !self.workloads.iter().any(|w| w == i.workload) {
                return Err(format!(
                    "{} names workload {}, which is not declared",
                    i.layer_metric, i.workload
                ));
            }
            if let Some(via) = i.via.filter(|v| !layer(v)) {
                return Err(format!(
                    "{} acts via {via}, which is not declared",
                    i.layer_metric
                ));
            }
        }
        match self
            .per_layer
            .iter()
            .find(|m| !INTERACTIONS.iter().any(|i| i.layer_metric == m.name))
        {
            Some(m) => Err(format!(
                "per-layer metric {} has no interaction entry",
                m.name
            )),
            None => Ok(()),
        }
    }
}

/// Which end-to-end metric a per-layer metric should move, on which
/// workload, and through which simulated statistic when the path runs
/// through one (`via`, itself a per-layer metric). `moves: false`
/// records a workload that bypasses the layer: the prediction there is
/// no change.
#[derive(Debug, Clone, Copy)]
pub struct Interaction {
    pub layer_metric: &'static str,
    pub end_to_end: &'static str,
    pub workload: &'static str,
    pub via: Option<&'static str>,
    pub moves: bool,
}

const fn moves(
    layer_metric: &'static str,
    end_to_end: &'static str,
    workload: &'static str,
) -> Interaction {
    Interaction {
        layer_metric,
        end_to_end,
        workload,
        via: None,
        moves: true,
    }
}

const fn holds(
    layer_metric: &'static str,
    end_to_end: &'static str,
    workload: &'static str,
) -> Interaction {
    Interaction {
        moves: false,
        ..moves(layer_metric, end_to_end, workload)
    }
}

const fn moves_via(
    layer_metric: &'static str,
    end_to_end: &'static str,
    workload: &'static str,
    via: &'static str,
) -> Interaction {
    Interaction {
        via: Some(via),
        ..moves(layer_metric, end_to_end, workload)
    }
}

/// The interaction table, written down before measuring. Simulated
/// per-layer statistics (the `slo.*` family) are the paper's budgets;
/// they move with behaviour, not host speed, and their end-to-end
/// effect shows in goodput.
#[rustfmt::skip]
pub const INTERACTIONS: &[Interaction] = &[
    moves("sim.engine.events_per_cell_slot", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("sim.engine.events_per_cpu_s", "cell_slots_per_cpu_s", "fabric_c64"),
    holds("sim.engine.events_per_cell_slot", "cell_slots_per_cpu_s", "full_ul"),
    moves("sim.engine.queue_ns_per_event", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("sim.engine.barrier_merge_us_per_slot", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("sim.engine.lane_busy_us_per_slot.max", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("sim.engine.lane_busy_us_per_slot.mean", "cell_slots_per_cpu_s", "fabric_c64"),
    // Imbalance idles threads at the barrier: wall time, not CPU time.
    holds("sim.engine.lane_event_imbalance", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("wall.cell_slots_per_s", "cell_slots_per_cpu_s", "full_ul"),
    moves("wall.cell_slots_per_s", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("wall.slot_us_p50", "slot_cpu_us_p50", "full_ul"),
    moves("wall.slot_us_p99", "slot_cpu_us_p95", "full_ul"),
    moves("cpu.slot_us_p99", "slot_cpu_us_p95", "full_ul"),
    holds("sim.engine.barrier_merge_us_per_slot", "cell_slots_per_cpu_s", "full_ul"),
    moves("sim.pool.parallel_efficiency", "slot_cpu_us_p95", "full_ul"),
    moves("sim.pool.parallel_efficiency", "cell_slots_per_cpu_s", "full_ul"),
    moves("sim.trace.events_recorded", "peak_rss_mib", "failover_pool"),
    moves("sim.trace.events_dropped", "peak_rss_mib", "failover_pool"),
    holds("sim.slo.analyze_ms", "cell_slots_per_cpu_s", "failover_pool"),
    holds("sim.slo.oracle_check_ms", "cell_slots_per_cpu_s", "failover_pool"),
    moves("phy_dsp.ldpc_decode_us_p50", "cell_slots_per_cpu_s", "full_ul"),
    moves("phy_dsp.ldpc_decode_us_p99", "slot_cpu_us_p95", "full_ul"),
    moves("phy_dsp.ldpc_decode_share", "cell_slots_per_cpu_s", "full_ul"),
    moves("phy_dsp.ldpc_decode_share", "cell_slots_per_cpu_s", "failover_pool"),
    holds("phy_dsp.ldpc_decode_share", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("phy_dsp.channel_us_per_slot", "slot_cpu_us_p50", "full_ul"),
    moves("phy_dsp.replay.ldpc_decode_ns", "cell_slots_per_cpu_s", "full_ul"),
    moves("phy_dsp.replay.demap_ns_per_sym", "cell_slots_per_cpu_s", "full_ul"),
    moves("phy_dsp.replay.demap_share", "cell_slots_per_cpu_s", "full_ul"),
    moves("ran.phy.ul_decode_us_p99", "slot_cpu_us_p95", "full_ul"),
    moves("ran.phy.dl_encode_us_p50", "slot_cpu_us_p50", "full_ul"),
    moves("ran.phy.slot_prepare_us", "slot_cpu_us_p50", "full_ul"),
    moves("ran.phy.slot_merge_us", "slot_cpu_us_p50", "full_ul"),
    moves("ran.phy.ul_decode_yield", "cell_slots_per_cpu_s", "full_ul"),
    moves("ran.phy.null_slots", "cell_slots_per_cpu_s", "failover_pool"),
    moves("ran.phy.work_slots", "cell_slots_per_cpu_s", "failover_pool"),
    moves("ran.phy.slot_deadline_miss", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("ran.ue.ue_encode_us_p50", "slot_cpu_us_p50", "full_ul"),
    moves("ran.sched.replay.ul_grant_ns", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("ran.sched.replay.share", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("fronthaul.replay.bfp_compress_ns_per_prb", "cell_slots_per_cpu_s", "full_ul"),
    moves("fronthaul.replay.bfp_decompress_ns_per_prb", "cell_slots_per_cpu_s", "full_ul"),
    moves("fronthaul.replay.msg_encode_ns", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("fronthaul.replay.msg_decode_ns", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("fronthaul.replay.share", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("fronthaul.bytes_per_cell_slot", "cell_slots_per_cpu_s", "full_ul"),
    moves("fronthaul.bytes_per_cell_slot", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("fapi.replay.encode_ns", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("fapi.replay.decode_ns", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("fapi.replay.share", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("fapi.msgs_per_cell_slot", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("switch.frames_per_cell_slot", "cell_slots_per_cpu_s", "fabric_c64"),
    moves("switch.dl_filtered", "cell_slots_per_cpu_s", "fabric_c64"),
    moves_via("switch.ctl_packets", "ul_goodput_mbps", "failover_pool", "slo.detect_us_max"),
    moves_via("switch.migrations_executed", "ul_goodput_mbps", "failover_pool", "slo.dropped_ttis_max"),
    moves_via("switch.false_failures", "ul_goodput_mbps", "failover_pool", "slo.detect_us_p50"),
    moves_via("core.orion.fwd_to_phy", "ul_goodput_mbps", "failover_pool", "core.orion.fwd_us_p99"),
    moves_via("core.orion.fwd_to_l2", "ul_goodput_mbps", "failover_pool", "core.orion.fwd_us_p99"),
    moves_via("core.orion.null_fapi_sent", "ul_goodput_mbps", "failover_pool", "core.orion.fwd_us_p99"),
    moves_via("core.orion.dropped_standby_msgs", "ul_goodput_mbps", "failover_pool", "core.orion.fwd_us_p99"),
    moves_via("core.orion.drained_late_msgs", "ul_goodput_mbps", "failover_pool", "core.orion.fwd_us_p99"),
    moves("core.orion.fwd_us_p99", "ul_goodput_mbps", "failover_pool"),
    moves_via("core.recovery.grants", "ul_goodput_mbps", "failover_pool", "slo.availability_nines"),
    moves_via("core.recovery.requests_queued", "ul_goodput_mbps", "failover_pool", "slo.dropped_ttis_max"),
    moves_via("core.recovery.scrubs_completed", "ul_goodput_mbps", "failover_pool", "slo.availability_nines"),
    moves_via("core.recovery.ttr_ms_p50", "ul_goodput_mbps", "failover_pool", "slo.availability_nines"),
    moves("core.deployment.build_ms", "setup_s", "fabric_c64"),
    moves("core.deployment.first_slot_ms", "setup_s", "fabric_c64"),
    moves("transport.udp_delivery", "ul_goodput_mbps", "full_ul"),
    moves("transport.dl_goodput_mbps", "ul_goodput_mbps", "failover_pool"),
    moves("slo.tti_loss", "ul_goodput_mbps", "failover_pool"),
    moves("slo.detect_us_p50", "ul_goodput_mbps", "failover_pool"),
    moves("slo.detect_us_max", "ul_goodput_mbps", "failover_pool"),
    moves("slo.dropped_ttis_max", "ul_goodput_mbps", "failover_pool"),
    moves("slo.availability_nines", "ul_goodput_mbps", "failover_pool"),
    // Tracing figures describe the traced run only; untraced costs hold.
    holds("trace.attributed_share", "cell_slots_per_cpu_s", "full_ul"),
    holds("trace.overhead_share", "cell_slots_per_cpu_s", "fabric_c64"),
    holds("profiler.spans_dropped", "peak_rss_mib", "full_ul"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        Spec::parse(&text).expect("BENCHMARK.json parses and validates")
    }

    #[test]
    fn name_rules() {
        for ok in [
            "cell_slots_per_cpu_s",
            "sim.engine.lane_busy_us_per_slot.max",
            "9a",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "1/s", "cell-slots/s", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a unit", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn json_round_trip_of_the_subset_in_use() {
        let v = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b\"\n": "xA"} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(v.get("b\"\n").and_then(Json::as_str), Some("xA"));
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1] 2").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    /// A declaration with one workload, the given end-to-end entries
    /// and the given per-layer entries.
    fn doc(workload: &str, e2e: &str, layer: &str) -> String {
        format!(
            r#"{{"workloads":[{{"name":"{workload}","why":"x"}}],
                "end_to_end":[{e2e}],"per_layer":[{layer}]}}"#
        )
    }

    const E2E: &str = r#"{"name":"setup_s","unit":"s","better":"lower"}"#;
    const LAYER: &str = r#"{"name":"core.deployment.build_ms","unit":"ms","better":"lower"}"#;

    #[test]
    fn duplicate_and_invalid_names_are_refused() {
        assert!(Spec::parse(&doc("fabric_c64", E2E, LAYER)).is_ok());
        assert!(Spec::parse(&doc("fabric_c64", &format!("{E2E},{E2E}"), LAYER)).is_err());
        let clash = r#"{"name":"fabric_c64","unit":"s","better":"lower"}"#;
        assert!(Spec::parse(&doc("fabric_c64", &format!("{E2E},{clash}"), LAYER)).is_err());
        let bad = r#"{"name":"bad name","unit":"s","better":"lower"}"#;
        assert!(Spec::parse(&doc("fabric_c64", &format!("{E2E},{bad}"), LAYER)).is_err());
        let up = r#"{"name":"x","unit":"s","better":"up"}"#;
        assert!(Spec::parse(&doc("fabric_c64", &format!("{E2E},{up}"), LAYER)).is_err());
    }

    #[test]
    fn interaction_table_is_enforced() {
        // The table says build_ms moves setup_s on fabric_c64.
        assert!(Spec::parse(&doc("full_ul", E2E, LAYER)).is_err());
        let other = r#"{"name":"ul_goodput_mbps","unit":"Mbit/s","better":"higher"}"#;
        assert!(Spec::parse(&doc("fabric_c64", other, LAYER)).is_err());
        let untabled = r#"{"name":"core.new_counter","unit":"count","better":"lower"}"#;
        assert!(Spec::parse(&doc("fabric_c64", E2E, untabled)).is_err());
    }

    #[test]
    fn declared_file_is_valid() {
        let spec = declared();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_table_entry_names_a_declared_metric() {
        let spec = declared();
        for i in INTERACTIONS {
            assert!(
                spec.per_layer.iter().any(|m| m.name == i.layer_metric),
                "{} is in the table but not declared",
                i.layer_metric
            );
        }
    }
}
