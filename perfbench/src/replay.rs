//! `replay64-macbank`: one connection to an in-process server, one
//! 64-lane session on a seeded MAC bank, and closed-loop `replay_batch`
//! requests of 64 seeded VCD stimuli each. Exercises 64 live lanes with
//! per-lane RAM images, and the bulk VCD and JSON codecs.

use crate::calib::{self, Calibrator};
use crate::common::{self, secs, Config, Golden, Outcome, Setups, Timed, Window};
use crate::gen;
use crate::serve::{self, Running};
use crate::spans::Recorder;
use crate::stats::{self, Op};
use gem_core::{GemSimulator, VcdStimulus};
use gem_netlist::vcd::{VcdDump, VcdWriter};
use gem_netlist::Bits;
use gem_server::GemClient;
use gem_telemetry::{json, Json};
use std::time::Instant;

/// MAC lanes in the generated design (≈18k gates).
pub const K: u32 = 16;
/// Simulation lanes of the session; one stimulus each.
pub const LANES: u32 = 64;
/// Cycles per stimulus, hence per request.
pub const CYCLES: usize = 64;
/// Cold starts per run; `setup_s` is their median. Each is cheap (a
/// fresh server and one small compile), so more of them steady the median.
const SETUP_REPS: usize = 15;
/// Tail percentile pinned for this workload (≈250 requests per 15 s).
const TAIL_CAP: f64 = 75.0;
/// Requests sent before the window opens.
const WARMUP_REQUESTS: usize = 1;
/// Requests of the traced run's attribution pass.
const ATTRIBUTION_REQUESTS: usize = 3;

/// Golden outputs of every lane: `[lane][cycle]` → `(port, value)` rows.
type Expected = Vec<Vec<Vec<(String, u64)>>>;

/// Runs every stimulus through the golden model from power-on. The
/// stimuli reset the design and rewrite every RAM word before reading, so
/// these are the right answers for every request of a session.
fn golden_outputs(verilog: &str, seed: u64) -> Result<Expected, String> {
    let module = gem_netlist::verilog::parse(verilog).map_err(|e| e.to_string())?;
    let synth = gem_synth::synthesize(&module, &Default::default()).map_err(|e| e.to_string())?;
    Ok((0..LANES)
        .map(|lane| {
            let mut g = Golden::new(&synth.eaig, &synth.inputs, &synth.outputs);
            gen::replay_pokes(seed, lane, CYCLES)
                .iter()
                .map(|row| {
                    for ((name, _), v) in gen::INPUTS.iter().zip(row) {
                        g.poke(name, *v);
                    }
                    g.cycle()
                        .into_iter()
                        .map(|(n, v)| (n.to_string(), v))
                        .collect()
                })
                .collect()
        })
        .collect())
}

/// Compares one returned VCD with a lane's golden rows: every output, at
/// every cycle (a value holds until its next change).
fn vcd_matches(text: &str, want: &[Vec<(String, u64)>]) -> bool {
    let Ok(dump) = VcdDump::parse(text) else {
        return false;
    };
    let Some(first) = want.first() else {
        return true;
    };
    let vars: Vec<_> = first.iter().map(|(name, _)| dump.var(name)).collect();
    if vars.iter().any(Option::is_none) {
        return false;
    }
    let mut current: Vec<Option<u64>> = vec![None; vars.len()];
    let mut changes = dump.changes.iter().peekable();
    for (t, row) in want.iter().enumerate() {
        while let Some((time, var, value)) = changes.peek() {
            if *time > t as u64 {
                break;
            }
            if let Some(i) = vars.iter().position(|v| *v == Some(*var)) {
                current[i] = Some(value.to_u64());
            }
            changes.next();
        }
        if row
            .iter()
            .zip(&current)
            .any(|((_, w), got)| *got != Some(*w))
        {
            return false;
        }
    }
    changes.next().is_none()
}

/// Checks a response: 64 VCDs, each matching its lane's golden rows.
fn response_ok(resp: &Json, expected: &Expected) -> bool {
    let Some(vcds) = resp.get("vcds").and_then(Json::as_array) else {
        return false;
    };
    vcds.len() == expected.len()
        && vcds
            .iter()
            .zip(expected)
            .all(|(v, want)| v.as_str().is_some_and(|t| vcd_matches(t, want)))
}

/// Connects and opens the 64-lane session on a freshly bound server.
fn open_session(
    server: &Running,
    verilog: &str,
    rec: &mut Recorder,
) -> Result<(GemClient, u64), String> {
    let mut client = server.connect().map_err(|e| e.to_string())?;
    let resp = serve::timed_open(rec, "server.open_miss", || {
        client.open_lanes(verilog, serve::open_opts(), LANES)
    })?;
    let session = resp
        .get("session")
        .and_then(Json::as_u64)
        .ok_or("open response has no session")?;
    // The record states the lane count the server resolved, not the one
    // asked for.
    let lanes = resp.get("lanes").and_then(Json::as_u64);
    if lanes != Some(u64::from(LANES)) {
        return Err(format!(
            "asked for {LANES} lanes, the session has {lanes:?}"
        ));
    }
    Ok((client, session))
}

/// Runs the workload.
pub fn run(cfg: &Config, origin: Instant) -> Result<Outcome, String> {
    let mut rec = Recorder::new(origin, 1, cfg.trace);
    let verilog = gen::macbank_verilog(K, cfg.seed);
    let vcds = gen::replay_vcds(cfg.seed, LANES, CYCLES);
    let vcd_refs: Vec<&str> = vcds.iter().map(String::as_str).collect();
    let expected = golden_outputs(&verilog, cfg.seed)?;

    let mut setups = Setups::default();
    let (server, (mut client, session)) =
        serve::cold_starts(SETUP_REPS, &mut setups, &mut rec, |server, rec| {
            open_session(server, &verilog, rec)
        })?;

    let mut out = Outcome::new(Recorder::new(origin, 1, false));
    let mut busy = 0u64;
    let mut check = |resp: Result<Json, gem_server::ClientError>, out: &mut Outcome| match resp {
        Ok(r) if response_ok(&r, &expected) => Some(r),
        Ok(_) => {
            out.failed += 1;
            if out.failed == 1 {
                out.problems
                    .push("a replayed lane differs from its golden run".into());
            }
            None
        }
        Err(e) => {
            busy += u64::from(e.is_busy());
            out.failed += 1;
            out.problems.push(format!("replay request failed: {e}"));
            None
        }
    };
    for _ in 0..WARMUP_REQUESTS {
        let r = client.replay_batch(session, &vcd_refs);
        check(r, &mut out);
    }
    let before = serve::latency_buckets(&mut client)?;

    // The window runs on a busy clock: only requests advance it, so
    // checking a response against the golden rows and the interleaved
    // calibration cost no measured time.
    let mut ops = Vec::new();
    let mut cal = Calibrator::default();
    let cpu0 = calib::process_cpu_s();
    let mut clock = 0.0;
    let mut rid = 0;
    let mut last_resp = None;
    let mut checking = 0.0;
    while clock < cfg.seconds {
        let traced = common::traced_phase(cfg, clock);
        rec.set_enabled(traced);
        let t0 = Instant::now();
        let span = rec.begin("request", rid);
        let r = client.replay_batch(session, &vcd_refs);
        rec.end(span);
        let took = secs(t0);
        ops.push(Timed {
            op: Op {
                start: clock,
                end: clock + took,
                units: f64::from(LANES) * CYCLES as f64,
            },
            traced,
        });
        clock += took;
        rid += 1;
        // Checking the response is CPU time outside the busy clock:
        // count it with the calibration so the CPU share stays honest.
        let t_check = Instant::now();
        if let Some(r) = check(r, &mut out) {
            last_resp = Some(r);
        }
        checking += secs(t_check);
        cal.keep_up(clock);
    }
    rec.set_enabled(cfg.trace);
    let cpu = calib::process_cpu_s() - cpu0;
    let after = serve::latency_buckets(&mut client)?;
    out.attempted = (WARMUP_REQUESTS + ops.len()) as u64;
    let window = Window {
        ops: &ops,
        seconds: clock,
        setups: &setups,
        calib: &cal,
        cpu_share: common::cpu_share(cpu, cal.spent() + checking, clock),
        tail_cap: TAIL_CAP,
    };
    common::summarize_window(&mut out, &window, cfg);

    if cfg.trace {
        serve::server_layers(&mut out, &rec, &mut client, &before, &after, &ops, busy)?;
        if let Some(resp) = &last_resp {
            attribute(&mut out, &mut rec, &verilog, &vcd_refs, resp)?;
        }
    }
    drop(client);
    server.stop()?;
    // Peak memory before the benchmark's own compiles for the counts.
    out.end_to_end.set("peak_rss_mb", common::peak_rss_mb());
    common::check_counts(&mut out, &serve::compiled_counts(&verilog, LANES)?);

    let mut p = Json::object();
    p.set("k", u64::from(K));
    p.set("session_lanes", u64::from(LANES));
    p.set("cycles_per_request", CYCLES as u64);
    p.set("connections", 1u64);
    p.set(
        "server_workers",
        gem_server::ServerConfig::default().workers as u64,
    );
    p.set("server_sim_threads", server_threads());
    p.set(
        "request_bytes",
        request_text(session, &vcd_refs).len() as u64,
    );
    p.set("golden", "every lane of every response");
    out.record.set("params", p);
    out.spans = rec;
    Ok(out)
}

fn server_threads() -> u64 {
    gem_server::ServerConfig::default().resolved_sim_threads() as u64
}

/// The request frame exactly as `GemClient::replay_batch` builds it.
fn request_json(session: u64, vcds: &[&str]) -> Json {
    json!({
        "id": 1u64,
        "cmd": "replay",
        "session": session,
        "vcds": Json::Array(vcds.iter().map(|s| Json::Str((*s).into())).collect()),
    })
}

fn request_text(session: u64, vcds: &[&str]) -> String {
    request_json(session, vcds).to_string()
}

/// The traced run's attribution pass: the layer calls one request makes,
/// timed in-process on the same design and stimuli.
fn attribute(
    out: &mut Outcome,
    rec: &mut Recorder,
    verilog: &str,
    vcds: &[&str],
    resp: &Json,
) -> Result<(), String> {
    let compiled = serve::in_process_compile(out, rec, verilog)?;
    let resp_text = resp.to_string();
    for i in 0..ATTRIBUTION_REQUESTS {
        let rid = i as u64;
        let req = request_json(1, vcds);
        let text = rec.time("telemetry.json_encode", rid, || req.to_string());
        rec.time("telemetry.json_decode", rid, || {
            gem_telemetry::parse_json(&resp_text)
        })
        .map_err(|e| e.to_string())?;
        let stims = rec.time("netlist.vcd_parse", rid, || {
            vcds.iter()
                .map(|v| VcdStimulus::new(v, &compiled.io))
                .collect::<Result<Vec<_>, _>>()
        });
        let stims = stims.map_err(|e| e.to_string())?;
        let returned: Vec<&str> = resp
            .get("vcds")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let dumps: Vec<VcdDump> = returned
            .iter()
            .filter_map(|t| VcdDump::parse(t).ok())
            .collect();
        rec.time("netlist.vcd_write", rid, || {
            for d in &dumps {
                let mut w = VcdWriter::new("gem");
                let vars: Vec<_> = d.vars.iter().map(|(n, wd)| w.add_var(n, *wd)).collect();
                w.begin();
                let mut time = None;
                for (t, var, value) in &d.changes {
                    if time != Some(*t) {
                        w.timestamp(*t);
                        time = Some(*t);
                    }
                    w.change(vars[var.0 as usize], value);
                }
                std::hint::black_box(w.finish());
            }
        });
        if i == 0 {
            out.layers
                .set("telemetry.frame_bytes_in", (text.len() + 4) as f64);
            out.layers
                .set("telemetry.frame_bytes_out", (resp_text.len() + 4) as f64);
            in_process_steps(out, rec, &compiled, &stims)?;
        }
    }
    let med_ms = |rec: &Recorder, n: &str| stats::median(&rec.durations(n)) / 1e6;
    out.layers.set(
        "telemetry.json_encode_ms",
        med_ms(rec, "telemetry.json_encode"),
    );
    out.layers.set(
        "telemetry.json_decode_ms",
        med_ms(rec, "telemetry.json_decode"),
    );
    out.layers
        .set("netlist.vcd_parse_ms", med_ms(rec, "netlist.vcd_parse"));
    out.layers
        .set("netlist.vcd_write_ms", med_ms(rec, "netlist.vcd_write"));
    Ok(())
}

/// The same stimuli in-process: lane 0 alone (scalar step, pokes and
/// peeks) and all 64 lanes at once (`core.step64`).
fn in_process_steps(
    out: &mut Outcome,
    rec: &mut Recorder,
    compiled: &gem_core::Compiled,
    stims: &[VcdStimulus],
) -> Result<(), String> {
    let outputs: Vec<String> = compiled.io.outputs.iter().map(|p| p.name.clone()).collect();
    let mut scalar = GemSimulator::new(compiled).map_err(|e| e.to_string())?;
    scalar.set_threads(1);
    for t in 0..stims[0].cycles() {
        let changes = stims[0].changes_at(t);
        rec.time("core.poke", t as u64, || {
            for (_, name, v) in changes {
                scalar.set_input(name, v.clone());
            }
        });
        rec.time("core.step", t as u64, || scalar.step());
        let row: Vec<Bits> = rec.time("core.peek", t as u64, || {
            outputs.iter().map(|n| scalar.output(n)).collect()
        });
        std::hint::black_box(row);
    }
    let mut wide = GemSimulator::new(compiled).map_err(|e| e.to_string())?;
    wide.set_threads(1);
    wide.set_lanes(LANES).map_err(|e| e.to_string())?;
    for t in 0..CYCLES {
        for (lane, s) in stims.iter().enumerate() {
            for (_, name, v) in s.changes_at(t) {
                wide.set_input_lane(name, lane as u32, v.clone());
            }
        }
        rec.time("core.step64", t as u64, || wide.step());
    }
    common::step_layers(out, rec);
    out.layers.set(
        "core.step64_us_p50",
        stats::median(&common::span_us(rec, "core.step64")),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_request_fits_the_servers_frame_cap() {
        let vcds = gen::replay_vcds(u64::MAX, LANES, CYCLES);
        let refs: Vec<&str> = vcds.iter().map(String::as_str).collect();
        let len = request_text(u64::MAX, &refs).len();
        assert!(
            len < gem_telemetry::DEFAULT_MAX_FRAME / 2,
            "request of {len} bytes is too close to the frame cap"
        );
    }

    #[test]
    fn replay_stimuli_do_not_depend_on_what_ran_before() {
        // Every request's golden result is computed from power-on, so a
        // stimulus run after itself (or after another lane's) must give
        // the same outputs as on a fresh model.
        let src = gen::macbank_verilog(K, 5);
        let module = gem_netlist::verilog::parse(&src).unwrap();
        let synth = gem_synth::synthesize(&module, &Default::default()).unwrap();
        let mut g = Golden::new(&synth.eaig, &synth.inputs, &synth.outputs);
        let mut run = |lane: u32| -> Vec<Vec<(&str, u64)>> {
            gen::replay_pokes(5, lane, CYCLES)
                .iter()
                .map(|row| {
                    for ((name, _), v) in gen::INPUTS.iter().zip(row) {
                        g.poke(name, *v);
                    }
                    g.cycle()
                })
                .collect()
        };
        for lane in 0..8 {
            let fresh = run(lane);
            assert_eq!(run(lane), fresh, "lane {lane} after itself");
            run(lane + 8);
            assert_eq!(run(lane), fresh, "lane {lane} after lane {}", lane + 8);
        }
    }

    #[test]
    fn generated_design_is_clean_and_golden_rows_check_vcds() {
        for (k, seed) in [(K, 1u64), (2, 99)] {
            let src = gen::macbank_verilog(k, seed);
            let (m, lints) = gem_netlist::verilog::parse_with_lints(&src).unwrap();
            let report = gem_analyze::analyze_with_lints(&m, &lints);
            assert_eq!(report.errors().count(), 0, "{}", report.summary());
        }
        // A VCD rendered from the golden rows passes; a flipped bit fails.
        let rows = vec![
            vec![("sum".to_string(), 0u64), ("probe".to_string(), 0)],
            vec![("sum".to_string(), 5u64), ("probe".to_string(), 1)],
        ];
        let mut w = VcdWriter::new("gem");
        let s = w.add_var("sum", 32);
        let p = w.add_var("probe", 16);
        w.begin();
        for (t, row) in rows.iter().enumerate() {
            w.timestamp(t as u64);
            w.change(s, &Bits::from_u64(row[0].1, 32));
            w.change(p, &Bits::from_u64(row[1].1, 16));
        }
        let text = w.finish();
        assert!(vcd_matches(&text, &rows));
        let mut wrong = rows.clone();
        wrong[1][0].1 = 4;
        assert!(!vcd_matches(&text, &wrong));
    }
}
