//! Pieces every workload shares: the run configuration, the metric
//! catalogue, the window summary, the golden-model wrapper, the `vgpu.*`
//! counts and the process's peak memory.

use crate::calib::{self, Calibrator, HostScale};
use crate::spans::Recorder;
use crate::stats::{self, Op};
use gem_aig::Eaig;
use gem_core::{Compiled, GemSimulator};
use gem_netlist::Bits;
use gem_sim::EaigSim;
use gem_synth::PortBits;
use gem_telemetry::Json;
use gem_vgpu::{GpuSpec, KernelCounters, TimingModel};
use std::time::Instant;

/// Length of one alternation phase of a traced run: ops starting in an
/// even phase are traced, in an odd one untraced, so the two halves see
/// the same host and the gap between them is the tracing overhead.
pub const TRACE_PHASE_S: f64 = 0.5;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// End-to-end metrics: name and unit, in output order. Every workload
/// reports every one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. A workload that never calls a layer
/// reports 0 for it (the layer is bypassed, which is the point of the
/// control workloads).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("analyze.analyze_s", "s"),
    ("synth.synthesize_s", "s"),
    ("core.compile_eaig_s", "s"),
    ("core.load_ms", "ms"),
    ("netlist.parse_ms", "ms"),
    ("core.step_us_p50", "us"),
    ("core.step_us_tail", "us"),
    ("core.poke_us_per_cycle", "us"),
    ("core.peek_us_per_cycle", "us"),
    ("core.step64_us_p50", "us"),
    ("vgpu.alu_ops_per_cycle", "count"),
    ("vgpu.global_bytes_per_cycle", "bytes"),
    ("vgpu.global_transactions_per_cycle", "count"),
    ("vgpu.shared_accesses_per_cycle", "count"),
    ("vgpu.device_syncs_per_cycle", "count"),
    ("vgpu.blocks_run_per_cycle", "count"),
    ("vgpu.modeled_a100_hz", "Hz_modeled"),
    ("netlist.vcd_parse_ms", "ms"),
    ("netlist.vcd_write_ms", "ms"),
    ("telemetry.json_encode_ms", "ms"),
    ("telemetry.json_decode_ms", "ms"),
    ("telemetry.frame_bytes_in", "bytes"),
    ("telemetry.frame_bytes_out", "bytes"),
    ("telemetry.wire_gap_us_p50", "us"),
    ("server.request_us_p50", "us"),
    ("server.open_miss_ms", "ms"),
    ("server.open_hit_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.busy_refusals", "count"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values over a fixed catalogue (all start at 0).
#[derive(Debug, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Every metric of `catalogue` at 0.
    pub fn new(catalogue: &[(&'static str, &'static str)]) -> Metrics {
        Metrics {
            values: catalogue.iter().map(|&(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// Sets a metric of the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
        slot.2 = value;
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        for &(name, unit, value) in &self.values {
            let mut m = Json::object();
            m.set("value", value);
            m.set("unit", unit);
            o.set(name, m);
        }
        o
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the measured window (steps or requests).
    pub attempted: u64,
    /// Failed, refused or golden-mismatched operations among them.
    pub failed: u64,
    /// Reasons the run is not correct beyond per-op failures (e.g. a
    /// count that did not repeat).
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced phases only).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only; zeros otherwise).
    pub layers: Metrics,
    /// Workload parameters and derived facts for the printed record.
    pub record: Json,
    /// Every span recorded (empty when untraced).
    pub spans: Recorder,
}

impl Outcome {
    /// A fresh outcome with empty metrics.
    pub fn new(spans: Recorder) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            end_to_end: Metrics::new(&END_TO_END),
            layers: Metrics::new(&PER_LAYER),
            record: Json::object(),
            spans,
        }
    }
}

/// Whether an op starting at `t` (window seconds) falls in a traced phase.
pub fn traced_phase(cfg: &Config, t: f64) -> bool {
    cfg.trace && ((t / TRACE_PHASE_S) as u64).is_multiple_of(2)
}

/// A timed operation plus whether it ran in a traced phase.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// The op's interval and work.
    pub op: Op,
    /// Ran with spans recorded.
    pub traced: bool,
}

/// What a workload measured, before it is put on the reference scale.
#[derive(Debug)]
pub struct Window<'a> {
    /// Every timed operation of the window.
    pub ops: &'a [Timed],
    /// Window length on the streams' busy clocks, seconds.
    pub seconds: f64,
    /// The run's cold starts.
    pub setups: &'a Setups,
    /// Calibration samples taken during the window.
    pub calib: &'a Calibrator,
    /// Share of the window the process spent on a CPU.
    pub cpu_share: f64,
    /// The workload's pinned tail percentile (see [`stats::tail`]).
    pub tail_cap: f64,
}

/// Fills the end-to-end metrics from a window, on the reference-host
/// scale, and records the raw figures beside them. Each op is scaled by
/// the host speed calibrated in its own one-second slice, so a run that
/// spans a fast and a slow stretch of the host is corrected piece by
/// piece. Untraced runs use every op. Traced runs alternate phases: the
/// untraced ops give the printed end-to-end figures, and the traced ones
/// are compared against them for the tracing overhead.
pub fn summarize_window(out: &mut Outcome, w: &Window<'_>, cfg: &Config) {
    let slices = (w.seconds.round() as usize).max(1);
    let width = w.seconds / slices as f64;
    let factors: Vec<f64> = w
        .calib
        .slice_speeds(w.seconds, slices)
        .into_iter()
        .map(|speed| {
            HostScale {
                speed,
                cpu_share: w.cpu_share,
            }
            .time_factor()
        })
        .collect();
    let factor_at = |t: f64| factors[((t / width) as usize).min(slices - 1)];
    let plain: Vec<Op> = w.ops.iter().filter(|t| !t.traced).map(|t| t.op).collect();
    let lat_raw: Vec<f64> = plain.iter().map(|o| (o.end - o.start) * 1e3).collect();
    let lat: Vec<f64> = plain
        .iter()
        .map(|o| (o.end - o.start) * 1e3 * factor_at(o.start))
        .collect();
    let (rate_raw, rate) = if cfg.trace {
        // Half the window is untraced; rate over the time it covered.
        let units: f64 = plain.iter().map(|o| o.units).sum();
        let busy = |l: &[f64]| l.iter().sum::<f64>().max(f64::MIN_POSITIVE) / 1e3;
        (units / busy(&lat_raw), units / busy(&lat))
    } else {
        let raw = stats::slice_rates(&plain, w.seconds, slices);
        if let Some(spread) = stats::relative_spread(&raw) {
            out.record.set("slice_rate_spread", spread);
        }
        let scaled: Vec<f64> = raw.iter().zip(&factors).map(|(r, f)| r / f).collect();
        (stats::median(&raw), stats::median(&scaled))
    };
    let tail = stats::tail(&lat, w.tail_cap);
    if tail.is_none() {
        out.problems
            .push(format!("only {} requests: too few for a tail", lat.len()));
    }
    let tail_raw = stats::tail(&lat_raw, w.tail_cap).map_or(0.0, |t| t.value);
    let speed = w.calib.speed();

    let e = &mut out.end_to_end;
    e.set("setup_s", w.setups.median(SetupRep::scaled));
    e.set("sim_cycles_per_s", rate);
    e.set("request_ms_p50", stats::median(&lat));
    e.set("request_ms_tail", tail.map_or(0.0, |t| t.value));

    let mut raw = Json::object();
    raw.set("setup_s", w.setups.median(|r| r.raw));
    raw.set("sim_cycles_per_s", rate_raw);
    raw.set("request_ms_p50", stats::median(&lat_raw));
    raw.set("request_ms_tail", tail_raw);
    out.record.set("raw", raw);
    let mut host = Json::object();
    host.set("speed", speed);
    host.set("cpu_share", w.cpu_share);
    host.set(
        "slice_time_factors",
        Json::Array(factors.iter().map(|&f| Json::F64(f)).collect()),
    );
    out.record.set("host_scale", host);
    out.record.set("setup_reps", w.setups.to_json());
    let mut tail_rec = Json::object();
    if let Some(t) = tail {
        tail_rec.set("percentile", t.percentile);
        tail_rec.set("samples_beyond", t.beyond as u64);
        tail_rec.set("samples", t.samples as u64);
    }
    out.record.set("request_ms_tail", tail_rec);
    let units: f64 = plain.iter().map(|o| o.units).sum();
    out.record.set("requests", plain.len() as u64);
    out.record.set("cycles", units);
    out.record
        .set("requests_per_s", rate * plain.len() as f64 / units.max(1.0));
    if cfg.trace {
        let mean = |traced: bool| {
            let v: Vec<f64> = w
                .ops
                .iter()
                .filter(|t| t.traced == traced)
                .map(|t| (t.op.end - t.op.start) * factor_at(t.op.start) / t.op.units)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let overhead = (mean(true) / mean(false) - 1.0) * 100.0;
        out.layers.set("trace.overhead_pct", overhead);
    }
}

/// Calibration passes run right before and right after each cold start
/// (about 6 ms on the reference host).
const SPOT_PASSES: usize = 2;

/// One cold start as measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupRep {
    /// Wall time, seconds.
    pub raw: f64,
    /// Process CPU time over wall time, clamped to `0..=1`.
    pub cpu_share: f64,
    /// Host speed calibrated right around it.
    pub speed: f64,
}

impl SetupRep {
    /// The wall time on the reference scale: its CPU-bound share takes
    /// the host speed, its waiting (the wire) does not.
    pub fn scaled(&self) -> f64 {
        self.raw
            * HostScale {
                speed: self.speed,
                cpu_share: self.cpu_share,
            }
            .time_factor()
    }
}

/// The cold starts of one run, each timed with the CPU time it used and
/// the host speed calibrated right around it,
/// so a host that changes speed between them, or between them and the
/// window, moves them little.
#[derive(Debug, Default)]
pub struct Setups {
    reps: Vec<SetupRep>,
}

impl Setups {
    /// Runs and times one cold start.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let before = calib::speed_now(SPOT_PASSES);
        let cpu0 = calib::process_cpu_s();
        let t = Instant::now();
        let v = f()?;
        let raw = secs(t);
        let cpu = calib::process_cpu_s() - cpu0;
        let after = calib::speed_now(SPOT_PASSES);
        self.reps.push(SetupRep {
            raw,
            cpu_share: (cpu / raw).clamp(0.0, 1.0),
            speed: (before + after) / 2.0,
        });
        Ok(v)
    }

    /// Median of `f` over the cold starts.
    pub fn median(&self, f: impl Fn(&SetupRep) -> f64) -> f64 {
        stats::median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// Every cold start as `{raw_s, cpu_share, speed, scaled_s}`.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.reps
                .iter()
                .map(|r| {
                    let mut o = Json::object();
                    o.set("raw_s", r.raw);
                    o.set("cpu_share", r.cpu_share);
                    o.set("speed", r.speed);
                    o.set("scaled_s", r.scaled());
                    o
                })
                .collect(),
        )
    }
}

/// CPU share of a window: process CPU time spent outside calibration,
/// over the streams' summed busy time, clamped to `0..=1`.
pub fn cpu_share(cpu_s: f64, calib_s: f64, busy_s: f64) -> f64 {
    ((cpu_s - calib_s) / busy_s.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0)
}

/// Drives the golden E-AIG interpreter by port name.
pub struct Golden<'a> {
    sim: EaigSim<'a>,
    inputs: &'a [PortBits],
    outputs: &'a [PortBits],
}

impl<'a> Golden<'a> {
    /// A golden model at power-on.
    pub fn new(eaig: &'a Eaig, inputs: &'a [PortBits], outputs: &'a [PortBits]) -> Self {
        Golden {
            sim: EaigSim::new(eaig),
            inputs,
            outputs,
        }
    }

    /// Sets an input port from the low bits of `value`.
    pub fn poke(&mut self, name: &str, value: u64) {
        let p = self.port(name);
        for i in 0..p.width as usize {
            self.sim.set_input(p.lsb_index + i, (value >> i) & 1 == 1);
        }
    }

    /// Sets an input port from a bit vector.
    pub fn poke_bits(&mut self, name: &str, value: &Bits) {
        let p = self.port(name);
        for i in 0..p.width {
            self.sim.set_input(p.lsb_index + i as usize, value.bit(i));
        }
    }

    fn port(&self, name: &str) -> &'a PortBits {
        self.inputs
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("golden model has no input {name:?}"))
    }

    /// Evaluates the cycle, returns every output (in port order, as
    /// `(name, value)`) and clocks.
    pub fn cycle(&mut self) -> Vec<(&'a str, u64)> {
        self.sim.eval();
        let outs = self
            .outputs
            .iter()
            .map(|p| {
                let v = (0..p.width as usize)
                    .filter(|&i| self.sim.output(p.lsb_index + i))
                    .fold(0u64, |acc, i| acc | (1 << i));
                (p.name.as_str(), v)
            })
            .collect();
        self.sim.step();
        outs
    }
}

/// Per-cycle `vgpu.*` counts and the modeled A100 speed, from a
/// simulator's accumulated counters.
fn set_vgpu_layers(layers: &mut Metrics, totals: &KernelCounters) {
    let cycles = totals.cycles.max(1) as f64;
    layers.set("vgpu.alu_ops_per_cycle", totals.alu_ops as f64 / cycles);
    layers.set(
        "vgpu.global_bytes_per_cycle",
        totals.global_bytes as f64 / cycles,
    );
    layers.set(
        "vgpu.global_transactions_per_cycle",
        totals.global_transactions as f64 / cycles,
    );
    layers.set(
        "vgpu.shared_accesses_per_cycle",
        totals.shared_accesses as f64 / cycles,
    );
    layers.set(
        "vgpu.device_syncs_per_cycle",
        totals.device_syncs as f64 / cycles,
    );
    layers.set(
        "vgpu.blocks_run_per_cycle",
        totals.blocks_run as f64 / cycles,
    );
    layers.set(
        "vgpu.modeled_a100_hz",
        TimingModel::new(GpuSpec::a100()).hz_total(totals),
    );
}

/// Cycles each [`vgpu_counts`] simulator runs.
const COUNT_CYCLES: u64 = 2;

/// The `vgpu.*` counts of a design: a fresh serial simulator at `lanes`
/// runs [`COUNT_CYCLES`] cycles from power-on. A full-cycle simulator runs
/// the same program every cycle whatever its inputs, so these counts
/// are exact and must come out the same from every compile of the design,
/// in every run.
pub fn vgpu_counts(compiled: &Compiled, lanes: u32) -> Result<KernelCounters, String> {
    let mut sim = GemSimulator::new(compiled).map_err(|e| e.to_string())?;
    sim.set_threads(1);
    sim.set_lanes(lanes).map_err(|e| e.to_string())?;
    for _ in 0..COUNT_CYCLES {
        sim.step();
    }
    Ok(*sim.counters())
}

/// Checks that independent compiles gave the same counts, and stamps the
/// counts on the record (every run, traced or not, so any two records can
/// be compared) and on the per-layer metrics.
pub fn check_counts(out: &mut Outcome, counts: &[KernelCounters]) {
    let Some(first) = counts.first() else {
        out.problems.push("no vgpu counts were taken".into());
        return;
    };
    if let Some(other) = counts.iter().find(|c| *c != first) {
        out.problems.push(format!(
            "vgpu counts differ between compiles: {first:?} vs {other:?}"
        ));
    }
    let mut c = Json::object();
    c.set("cycles", first.cycles);
    c.set("alu_ops", first.alu_ops);
    c.set("global_bytes", first.global_bytes);
    c.set("global_transactions", first.global_transactions);
    c.set("shared_accesses", first.shared_accesses);
    c.set("device_syncs", first.device_syncs);
    c.set("blocks_run", first.blocks_run);
    c.set("compiles_compared", counts.len() as u64);
    out.record.set("vgpu_counts", c);
    set_vgpu_layers(&mut out.layers, first);
}

/// Peak resident memory of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Durations (ns) of spans named `name` as microseconds.
pub fn span_us(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.durations(name).into_iter().map(|ns| ns / 1e3).collect()
}

/// Fills the `core.*` scalar step metrics from the `core.step`,
/// `core.poke` and `core.peek` spans recorded so far.
pub fn step_layers(out: &mut Outcome, rec: &Recorder) {
    let step_us = span_us(rec, "core.step");
    out.layers.set("core.step_us_p50", stats::median(&step_us));
    if let Some(t) = stats::tail(&step_us, 99.0) {
        out.layers.set("core.step_us_tail", t.value);
    }
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.layers
        .set("core.poke_us_per_cycle", mean(span_us(rec, "core.poke")));
    out.layers
        .set("core.peek_us_per_cycle", mean(span_us(rec, "core.peek")));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the benchmark definition at the repository
    /// root must name the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = gem_telemetry::parse_json(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn counts_from_different_compiles_must_agree() {
        let a = KernelCounters {
            alu_ops: 10,
            cycles: 2,
            ..Default::default()
        };
        let mut out = Outcome::new(Recorder::new(Instant::now(), 1, false));
        check_counts(&mut out, &[a, a]);
        assert!(out.problems.is_empty());
        assert_eq!(
            out.record
                .get("vgpu_counts")
                .and_then(|c| c.get("alu_ops"))
                .and_then(Json::as_u64),
            Some(10)
        );
        let b = KernelCounters { alu_ops: 11, ..a };
        check_counts(&mut out, &[a, b]);
        assert_eq!(out.problems.len(), 1);
    }

    #[test]
    fn setup_scaling_leaves_waiting_alone() {
        let rep = SetupRep {
            raw: 2.0,
            cpu_share: 0.5,
            speed: 0.5,
        };
        assert_eq!(rep.scaled(), 1.5);
    }

    #[test]
    fn cpu_share_discounts_calibration_and_clamps() {
        assert_eq!(cpu_share(10.0, 0.3, 9.7), 1.0);
        assert!((cpu_share(1.3, 0.3, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(cpu_share(0.1, 0.3, 10.0), 0.0);
    }
}
