//! An in-process `gem-server` for the server workloads, plus reading its
//! request-latency histogram back over the wire.

use crate::common::{self, Outcome, Setups, Timed};
use crate::spans::Recorder;
use crate::stats;
use gem_core::GemSimulator;
use gem_server::{ClientError, GemClient, Server, ServerConfig};
use gem_telemetry::Json;
use gem_vgpu::KernelCounters;
use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// Compile options every open sends, so the in-process attribution
/// compile can use the very same ones.
pub const WIDTH: u32 = 2048;
/// Partitions requested per open.
pub const PARTS: usize = 8;
/// Pipeline stages requested per open.
pub const STAGES: usize = 1;

/// The `opts` object of an open request.
pub fn open_opts() -> Json {
    let mut o = Json::object();
    o.set("width", u64::from(WIDTH));
    o.set("parts", PARTS as u64);
    o.set("stages", STAGES as u64);
    o
}

/// The same options for an in-process compile.
pub fn compile_options() -> gem_core::CompileOptions {
    gem_core::CompileOptions {
        core_width: WIDTH,
        target_parts: PARTS,
        stages: STAGES,
        ..Default::default()
    }
}

/// A server running on its own thread.
pub struct Running {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
}

impl Running {
    /// Binds `ServerConfig::default()` on an ephemeral loopback port and
    /// starts serving.
    pub fn start(rec: &mut Recorder) -> io::Result<Running> {
        let cfg = ServerConfig::default();
        let server = rec.time("server.bind", 0, || Server::bind(cfg))?;
        let addr = server.local_addr();
        let handle = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || server.run())?;
        Ok(Running { addr, handle })
    }

    /// A new client connection.
    pub fn connect(&self) -> io::Result<GemClient> {
        GemClient::connect(self.addr)
    }

    /// Asks the server to shut down and waits until all its threads ended.
    pub fn stop(self) -> Result<(), String> {
        let mut c = self.connect().map_err(|e| e.to_string())?;
        c.shutdown().map_err(|e| e.to_string())?;
        drop(c);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// Cold starts of a server workload: each binds a fresh server and makes
/// its opens through `open`, timed as one set-up. The server and
/// connections of the last one stay up for the window.
pub fn cold_starts<C>(
    reps: usize,
    setups: &mut Setups,
    rec: &mut Recorder,
    mut open: impl FnMut(&Running, &mut Recorder) -> Result<C, String>,
) -> Result<(Running, C), String> {
    let mut live = None;
    for _ in 0..reps {
        if let Some((server, conns)) = live.take() {
            drop::<C>(conns);
            Running::stop(server)?;
        }
        live = Some(setups.time(|| {
            let server = Running::start(rec).map_err(|e| e.to_string())?;
            let conns = open(&server, rec)?;
            Ok((server, conns))
        })?);
    }
    live.ok_or_else(|| "no cold start".to_string())
}

/// An `open` timed as a span named `name`.
pub fn timed_open(
    rec: &mut Recorder,
    name: &'static str,
    f: impl FnOnce() -> Result<Json, ClientError>,
) -> Result<Json, String> {
    rec.time(name, 0, f)
        .map_err(|e| format!("open failed: {e}"))
}

/// The `vgpu.*` counts of two independent in-process compiles of the
/// design with the server's options, at `lanes`.
pub fn compiled_counts(verilog: &str, lanes: u32) -> Result<Vec<KernelCounters>, String> {
    (0..2)
        .map(|_| {
            let compiled = gem_core::compile_verilog(verilog, &compile_options())
                .map_err(|e| e.to_string())?;
            common::vgpu_counts(&compiled, lanes)
        })
        .collect()
}

/// The server-side layers of a traced run: the server's p50 over the
/// window (from request-latency histograms taken before and after it),
/// the client's p50 over the traced requests minus it (the wire), the
/// open times from their spans, and the cache and refusal counters.
/// `refused` is the `busy` refusals the clients saw.
pub fn server_layers(
    out: &mut Outcome,
    rec: &Recorder,
    client: &mut GemClient,
    before: &[(f64, f64)],
    after: &[(f64, f64)],
    ops: &[Timed],
    refused: u64,
) -> Result<(), String> {
    let (hits, lookups, rejected) = cache_and_rejections(client)?;
    let client_us: Vec<f64> = ops
        .iter()
        .filter(|t| t.traced)
        .map(|t| (t.op.end - t.op.start) * 1e6)
        .collect();
    let server_p50_us = quantile_between(before, after, 0.5).unwrap_or(0.0);
    let open_ms = |name: &str| stats::median(&rec.durations(name)) / 1e6;
    let l = &mut out.layers;
    l.set("server.request_us_p50", server_p50_us);
    l.set(
        "telemetry.wire_gap_us_p50",
        stats::median(&client_us) - server_p50_us,
    );
    l.set("server.open_miss_ms", open_ms("server.open_miss"));
    l.set("server.open_hit_ms", open_ms("server.open_hit"));
    l.set("server.cache_hit_ratio", hits / lookups.max(1.0));
    l.set("server.busy_refusals", (refused as f64).max(rejected));
    Ok(())
}

/// Parses, analyzes, synthesizes, compiles and loads the design
/// in-process with the server's options, timing each layer.
pub fn in_process_compile(
    out: &mut Outcome,
    rec: &mut Recorder,
    verilog: &str,
) -> Result<gem_core::Compiled, String> {
    let (module, lints) = rec
        .time("netlist.parse_with_lints", 0, || {
            gem_netlist::verilog::parse_with_lints(verilog)
        })
        .map_err(|e| e.to_string())?;
    let report = rec.time("analyze.analyze_module", 0, || {
        gem_analyze::analyze_with_lints(&module, &lints)
    });
    if let Some(e) = report.errors().next() {
        return Err(format!("analyzer error: {e}"));
    }
    let opts = compile_options();
    let synth = rec
        .time("synth.synthesize", 0, || {
            gem_synth::synthesize(&module, &opts.synth)
        })
        .map_err(|e| e.to_string())?;
    let compiled = rec
        .time("core.compile_eaig", 0, || {
            gem_core::compile_eaig(synth, &opts)
        })
        .map_err(|e| e.to_string())?;
    let sim = rec
        .time("core.load", 0, || GemSimulator::new(&compiled))
        .map_err(|e| e.to_string())?;
    drop(sim);
    let total = |n: &str| rec.durations(n).iter().sum::<f64>() / 1e9;
    out.layers
        .set("netlist.parse_ms", total("netlist.parse_with_lints") * 1e3);
    out.layers
        .set("analyze.analyze_s", total("analyze.analyze_module"));
    out.layers
        .set("synth.synthesize_s", total("synth.synthesize"));
    out.layers
        .set("core.compile_eaig_s", total("core.compile_eaig"));
    out.layers.set("core.load_ms", total("core.load") * 1e3);
    Ok(compiled)
}

/// Cumulative `(upper bound, count)` buckets of the server's request
/// latency histogram (microseconds), read through `stats`.
pub fn latency_buckets(client: &mut GemClient) -> Result<Vec<(f64, f64)>, String> {
    let stats = client.stats().map_err(|e| e.to_string())?;
    let families = stats
        .get("metrics")
        .and_then(|m| m.get("families"))
        .and_then(Json::as_array)
        .ok_or("stats response has no metric families")?;
    let fam = families
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some("gem_server_request_latency_micros"))
        .ok_or("stats response has no request latency histogram")?;
    let mut out = Vec::new();
    for s in fam
        .get("samples")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        let Some(le) = s
            .get("labels")
            .and_then(|l| l.get("le"))
            .and_then(Json::as_str)
        else {
            continue;
        };
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>()
                .map_err(|e| format!("bucket bound {le:?}: {e}"))?
        };
        let count = s.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        out.push((bound, count));
    }
    Ok(out)
}

/// Server-side counters read through `stats`: `(cache hits, lookups,
/// busy rejections)`.
pub fn cache_and_rejections(client: &mut GemClient) -> Result<(f64, f64, f64), String> {
    let stats = client.stats().map_err(|e| e.to_string())?;
    let total = |name: &str| {
        stats
            .get("metrics")
            .and_then(|m| m.get("families"))
            .and_then(Json::as_array)
            .and_then(|fs| {
                fs.iter()
                    .find(|f| f.get("name").and_then(Json::as_str) == Some(name))
            })
            .and_then(|f| f.get("samples"))
            .and_then(Json::as_array)
            .map_or(0.0, |ss| {
                ss.iter()
                    .filter_map(|s| s.get("value").and_then(Json::as_f64))
                    .sum()
            })
    };
    Ok((
        total("gem_server_cache_hits_total"),
        total("gem_server_cache_lookups_total"),
        total("gem_server_rejected_total"),
    ))
}

/// Quantile `q` of the observations added between two snapshots of a
/// cumulative power-of-two histogram, interpolated inside the bucket the
/// way `gem_telemetry::Histogram::quantile` does. Buckets are `(b/2, b]`,
/// the first `[0, 1]`; a quantile in the overflow bucket reads as the last
/// finite bound. `None` when nothing was added.
pub fn quantile_between(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> Option<f64> {
    // Cumulative counts are step functions of the bound; a bound missing
    // from one snapshot takes the count of the largest bound below it.
    let cum_at = |snap: &[(f64, f64)], b: f64| {
        snap.iter()
            .filter(|(bound, _)| *bound <= b)
            .map(|(_, c)| *c)
            .fold(0.0, f64::max)
    };
    let mut bounds: Vec<f64> = before.iter().chain(after).map(|(b, _)| *b).collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let delta: Vec<(f64, f64)> = bounds
        .iter()
        .map(|&b| (b, cum_at(after, b) - cum_at(before, b)))
        .collect();
    let total = delta.last().map_or(0.0, |d| d.1);
    if total <= 0.0 {
        return None;
    }
    let target = (q.clamp(0.0, 1.0) * total).max(1.0);
    let mut prev = 0.0;
    let mut last_finite = 0.0;
    for &(b, cum) in &delta {
        if b.is_finite() {
            last_finite = b;
        }
        let n = cum - prev;
        if n > 0.0 && cum >= target {
            if !b.is_finite() {
                return Some(last_finite);
            }
            let lower = if b <= 1.0 { 0.0 } else { b / 2.0 };
            return Some(lower + (target - prev) / n * (b - lower));
        }
        prev = cum;
    }
    Some(last_finite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_telemetry::Histogram;

    #[test]
    fn quantile_between_matches_a_histogram_of_the_difference() {
        let early = [3.0, 900.0, 5000.0];
        let late = [90.0, 100.0, 120.0, 3000.0, 70.0, 65.0, 2.0];
        let mut before = Histogram::new();
        for v in early {
            before.observe(v);
        }
        let mut after = before.clone();
        let mut only_late = Histogram::new();
        for v in late {
            after.observe(v);
            only_late.observe(v);
        }
        let snap = |h: &Histogram| -> Vec<(f64, f64)> {
            h.cumulative_buckets()
                .into_iter()
                .map(|(b, c)| (b, c as f64))
                .collect()
        };
        for q in [0.1, 0.5, 0.9, 1.0] {
            let got = quantile_between(&snap(&before), &snap(&after), q).unwrap();
            assert!(
                (got - only_late.quantile(q)).abs() < 1e-9,
                "q={q}: {got} vs {}",
                only_late.quantile(q)
            );
        }
        assert_eq!(quantile_between(&snap(&after), &snap(&after), 0.5), None);
    }
}
