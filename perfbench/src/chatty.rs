//! `serve-chatty`: two connections to an in-process server, each with its
//! own scalar session on a small MAC bank from the same generator (the
//! second open is a compile-cache hit), sending closed-loop 1-cycle
//! `step` requests with pokes. Round trips, framing, small-frame JSON and
//! the worker-pool hand-off dominate; the step itself is tiny.

use crate::calib::{self, Calibrator};
use crate::common::{self, secs, Config, Golden, Outcome, Setups, Timed, Window};
use crate::gen::{self, ChattyPokes, Pokes};
use crate::serve::{self, Running};
use crate::spans::Recorder;
use crate::stats::{self, Op};
use gem_core::GemSimulator;
use gem_server::GemClient;
use gem_telemetry::{json, Json};
use std::time::Instant;

/// MAC lanes in the generated design.
pub const K: u32 = 2;
/// Client connections (one thread and one session each); at most
/// `nproc` on the reference host.
pub const CONNECTIONS: u32 = 2;
/// Cold starts per run; `setup_s` is their median. Each is cheap (a
/// fresh server and one small compile), so more of them steady the median.
const SETUP_REPS: usize = 15;
/// Tail percentile pinned for this workload (≈330 requests per 15 s).
const TAIL_CAP: f64 = 90.0;
/// Steps per connection before the window opens.
const WARMUP_STEPS: usize = 5;
/// Steps of the traced run's in-process attribution pass.
const ATTRIBUTION_STEPS: usize = 256;

/// Each connection with the session it opened.
type Conns = Vec<(GemClient, u64)>;

/// One session's traffic: the pokes it sent and the outputs it got back.
#[derive(Debug, Default)]
struct Log {
    pokes: Vec<Pokes>,
    /// `Some(outputs in response order)`, `None` for a failed request.
    outputs: Vec<Option<Vec<(String, u64)>>>,
    /// The last response, for the traced run's codec attribution.
    last: Option<Json>,
    busy: u64,
    errors: Vec<String>,
}

/// The `pokes` of a step request, as (port, hex) pairs.
fn poke_fields(p: &Pokes) -> Vec<(&'static str, String)> {
    gen::INPUTS
        .iter()
        .zip(p)
        .map(|((name, _), v)| (*name, gen::hex(*v)))
        .collect()
}

/// Sends one step and logs it; returns the round-trip time.
fn step(client: &mut GemClient, session: u64, pokes: Pokes, log: &mut Log) -> f64 {
    let fields = poke_fields(&pokes);
    let refs: Vec<(&str, &str)> = fields.iter().map(|(k, v)| (*k, v.as_str())).collect();
    let t0 = Instant::now();
    let r = client.step(session, 1, refs);
    let took = secs(t0);
    log.pokes.push(pokes);
    log.outputs.push(match r {
        Ok(resp) => {
            let outputs = resp.get("outputs").and_then(Json::as_object).map(|o| {
                o.iter()
                    .map(|(k, v)| {
                        let value = v
                            .as_str()
                            .and_then(|h| u64::from_str_radix(h, 16).ok())
                            .unwrap_or(u64::MAX);
                        (k.clone(), value)
                    })
                    .collect()
            });
            log.last = Some(resp);
            outputs
        }
        Err(e) => {
            log.busy += u64::from(e.is_busy());
            log.errors.push(e.to_string());
            None
        }
    });
    took
}

/// Opens one session per connection on a freshly bound server: the first
/// open compiles, the second must hit the cache.
fn open_sessions(server: &Running, verilog: &str, rec: &mut Recorder) -> Result<Conns, String> {
    let mut conns = Vec::new();
    for c in 0..CONNECTIONS {
        let mut client = server.connect().map_err(|e| e.to_string())?;
        let name = if c == 0 {
            "server.open_miss"
        } else {
            "server.open_hit"
        };
        let resp = serve::timed_open(rec, name, || client.open(verilog, serve::open_opts()))?;
        if (c > 0) != (resp.get("cached").and_then(Json::as_bool) == Some(true)) {
            return Err(format!("open {c} was not the expected cache {name}"));
        }
        let session = resp
            .get("session")
            .and_then(Json::as_u64)
            .ok_or("open response has no session")?;
        conns.push((client, session));
    }
    Ok(conns)
}

/// Runs the workload.
pub fn run(cfg: &Config, origin: Instant) -> Result<Outcome, String> {
    let mut rec = Recorder::new(origin, 1, cfg.trace);
    let verilog = gen::macbank_verilog(K, cfg.seed);

    let mut setups = Setups::default();
    let (server, mut conns) =
        serve::cold_starts(SETUP_REPS, &mut setups, &mut rec, |server, rec| {
            open_sessions(server, &verilog, rec)
        })?;
    // Server-side stats go over the first connection, outside the window,
    // so the workload never holds more than its two connections.
    let before = serve::latency_buckets(&mut conns[0].0)?;

    // The window: one closed-loop thread per connection, each on its own
    // busy clock (requests advance it; calibration between them does not).
    let cpu0 = calib::process_cpu_s();
    let results: Vec<(Log, Vec<Timed>, Recorder, Calibrator, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, (client, session))| {
                let session = *session;
                s.spawn(move || {
                    let mut rec = Recorder::new(origin, 2 + i as u32, false);
                    let mut log = Log::default();
                    let mut pokes = ChattyPokes::new(cfg.seed, i as u32);
                    for p in pokes.by_ref().take(WARMUP_STEPS) {
                        step(client, session, p, &mut log);
                    }
                    let mut ops = Vec::new();
                    let mut rid = 0u64;
                    let mut cal = Calibrator::default();
                    let mut clock = 0.0;
                    while clock < cfg.seconds {
                        let start = clock;
                        let traced = common::traced_phase(cfg, start);
                        rec.set_enabled(traced);
                        let span = rec.begin("request", (i as u64) << 32 | rid);
                        let p = pokes.next().expect("endless stream");
                        let took = step(client, session, p, &mut log);
                        rec.end(span);
                        rid += 1;
                        ops.push(Timed {
                            op: Op {
                                start,
                                end: start + took,
                                units: 1.0,
                            },
                            traced,
                        });
                        clock += took;
                        cal.keep_up(clock);
                    }
                    (log, ops, rec, cal, clock)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu = calib::process_cpu_s() - cpu0;
    let after = serve::latency_buckets(&mut conns[0].0)?;

    let mut out = Outcome::new(Recorder::new(origin, 1, false));
    let mut all_ops = Vec::new();
    let mut logs = Vec::new();
    let mut window_cal: Option<Calibrator> = None;
    let (mut busy, mut shortest) = (0.0, f64::INFINITY);
    for (log, ops, thread_rec, thread_cal, clock) in results {
        all_ops.extend(ops);
        rec.absorb(thread_rec);
        match &mut window_cal {
            Some(c) => c.absorb(&thread_cal),
            None => window_cal = Some(thread_cal),
        }
        logs.push(log);
        busy += clock;
        shortest = f64::min(shortest, clock);
    }
    let window_cal = window_cal.expect("at least one connection");
    out.attempted = logs.iter().map(|l| l.pokes.len() as u64).sum();
    let window = Window {
        ops: &all_ops,
        seconds: shortest,
        setups: &setups,
        calib: &window_cal,
        cpu_share: common::cpu_share(cpu, window_cal.spent(), busy),
        tail_cap: TAIL_CAP,
    };
    common::summarize_window(&mut out, &window, cfg);

    // --- Correctness, untimed: every step response of both sessions.
    let module = gem_netlist::verilog::parse(&verilog).map_err(|e| e.to_string())?;
    let synth = gem_synth::synthesize(&module, &Default::default()).map_err(|e| e.to_string())?;
    let mut refused = 0;
    for (i, log) in logs.iter().enumerate() {
        refused += log.busy;
        let mut g = Golden::new(&synth.eaig, &synth.inputs, &synth.outputs);
        let mut bad = 0u64;
        for (pokes, got) in log.pokes.iter().zip(&log.outputs) {
            for ((name, _), v) in gen::INPUTS.iter().zip(pokes) {
                g.poke(name, *v);
            }
            let want = g.cycle();
            let ok = got.as_ref().is_some_and(|got| {
                want.len() == got.len()
                    && want
                        .iter()
                        .all(|(n, v)| got.iter().any(|(gn, gv)| gn == n && gv == v))
            });
            bad += u64::from(!ok);
        }
        if bad > 0 {
            out.problems.push(format!(
                "session {i}: {bad} step(s) failed or differ from golden"
            ));
        }
        out.problems.extend(log.errors.iter().take(3).cloned());
        out.failed += bad;
    }

    if cfg.trace {
        serve::server_layers(
            &mut out,
            &rec,
            &mut conns[0].0,
            &before,
            &after,
            &all_ops,
            refused,
        )?;
        let last = logs[0]
            .last
            .as_ref()
            .ok_or("no step response to attribute")?;
        attribute(&mut out, &mut rec, &verilog, cfg.seed, last)?;
    }
    drop(conns);
    server.stop()?;
    // Peak memory before the benchmark's own compiles for the counts.
    out.end_to_end.set("peak_rss_mb", common::peak_rss_mb());
    common::check_counts(&mut out, &serve::compiled_counts(&verilog, 1)?);

    let mut p = Json::object();
    p.set("k", u64::from(K));
    p.set("connections", u64::from(CONNECTIONS));
    p.set("sessions", u64::from(CONNECTIONS));
    p.set("lanes", 1u64);
    p.set("cycles_per_request", 1u64);
    p.set(
        "server_workers",
        gem_server::ServerConfig::default().workers as u64,
    );
    p.set(
        "server_sim_threads",
        gem_server::ServerConfig::default().resolved_sim_threads() as u64,
    );
    p.set("golden", "every step response of both sessions");
    out.record.set("params", p);
    out.spans = rec;
    Ok(out)
}

/// The traced run's attribution pass: in-process compile and steps of
/// the same design with the same pokes, and the codec cost of a step
/// request as `GemClient::step` builds it and of a real step response.
fn attribute(
    out: &mut Outcome,
    rec: &mut Recorder,
    verilog: &str,
    seed: u64,
    response: &Json,
) -> Result<(), String> {
    let resp_text = response.to_string();
    let compiled = serve::in_process_compile(out, rec, verilog)?;
    let outputs: Vec<String> = compiled.io.outputs.iter().map(|p| p.name.clone()).collect();
    let mut sim = GemSimulator::new(&compiled).map_err(|e| e.to_string())?;
    sim.set_threads(1);
    for (t, p) in ChattyPokes::new(seed, 0)
        .take(ATTRIBUTION_STEPS)
        .enumerate()
    {
        let rid = t as u64;
        let fields = poke_fields(&p);
        let req = {
            let mut pokes = Json::object();
            for (k, v) in &fields {
                pokes.set(k, v.as_str());
            }
            json!({"id": rid + 1, "cmd": "step", "session": 1u64, "cycles": 1u64, "pokes": pokes})
        };
        let text = rec.time("telemetry.json_encode", rid, || req.to_string());
        rec.time("core.poke", rid, || {
            for ((name, width), v) in gen::INPUTS.iter().zip(&p) {
                sim.set_input(name, gem_netlist::Bits::from_u64(*v, *width));
            }
        });
        rec.time("core.step", rid, || sim.step());
        let row: Vec<gem_netlist::Bits> = rec.time("core.peek", rid, || {
            outputs.iter().map(|n| sim.output(n)).collect()
        });
        std::hint::black_box(row);
        rec.time("telemetry.json_decode", rid, || {
            gem_telemetry::parse_json(&resp_text)
        })
        .map_err(|e| e.to_string())?;
        if t == 0 {
            out.layers
                .set("telemetry.frame_bytes_in", (text.len() + 4) as f64);
            out.layers
                .set("telemetry.frame_bytes_out", (resp_text.len() + 4) as f64);
        }
    }
    common::step_layers(out, rec);
    let med_ms = |n: &str| stats::median(&rec.durations(n)) / 1e6;
    out.layers
        .set("telemetry.json_encode_ms", med_ms("telemetry.json_encode"));
    out.layers
        .set("telemetry.json_decode_ms", med_ms("telemetry.json_decode"));
    Ok(())
}
