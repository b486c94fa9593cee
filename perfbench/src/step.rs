//! `step-openpiton8`: one serial stream stepping the suite's OpenPiton8
//! in-process. No wire, codec or lane path is involved, so this is the
//! control workload for every server-side change.

use crate::calib::{self, Calibrator};
use crate::common::{self, secs, Config, Golden, Outcome, Setups, Timed, Window};
use crate::spans::Recorder;
use crate::stats::{self, Op};
use gem_core::{compile_eaig, CompileOptions, Compiled, GemSimulator};
use gem_designs::{openpiton_like, Design};
use gem_netlist::Bits;
use gem_telemetry::Json;
use std::time::Instant;

/// Cold starts per run (each a full compile); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Tail percentile pinned for this workload (≈3000 steps per 15 s).
const TAIL_CAP: f64 = 99.0;
/// Cycles run before the window opens (caches, work buffers).
const WARMUP_CYCLES: u64 = 16;
/// The golden model checks at most this many cycles from cycle 0: all
/// warm-up cycles and the window's first ones.
const GOLDEN_CYCLES: usize = 2048;

/// The suite's compile options for OpenPiton8 (two RepCut stages).
fn compile_options() -> CompileOptions {
    CompileOptions {
        target_parts: 16,
        stages: 2,
        core_width: 2048,
        ..Default::default()
    }
}

/// One cold start: analyze, synthesize, compile and load, each wrapped in
/// a span. Returns the compiled design and a serial simulator.
fn cold_start(design: &Design, rec: &mut Recorder) -> Result<(Compiled, GemSimulator), String> {
    let opts = compile_options();
    let report = rec.time("analyze.analyze_module", 0, || {
        gem_analyze::analyze_module(&design.module)
    });
    if let Some(e) = report.errors().next() {
        return Err(format!("analyzer error on {}: {e}", design.name));
    }
    let synth = rec
        .time("synth.synthesize", 0, || {
            gem_synth::synthesize(&design.module, &opts.synth)
        })
        .map_err(|e| e.to_string())?;
    let compiled = rec
        .time("core.compile_eaig", 0, || compile_eaig(synth, &opts))
        .map_err(|e| e.to_string())?;
    let mut sim = rec
        .time("core.load", 0, || GemSimulator::new(&compiled))
        .map_err(|e| e.to_string())?;
    sim.set_threads(1);
    Ok((compiled, sim))
}

/// Runs the workload.
pub fn run(cfg: &Config, origin: Instant) -> Result<Outcome, String> {
    let mut rec = Recorder::new(origin, 1, cfg.trace);
    let design = openpiton_like(8);
    let program = &design.workloads[(cfg.seed % design.workloads.len() as u64) as usize];

    let mut setups = Setups::default();
    // Counts of every cold start's compile, compared once the run is done.
    let mut counts = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (compiled, sim) = setups.time(|| cold_start(&design, &mut rec))?;
        counts.push(common::vgpu_counts(&compiled, 1)?);
        last = Some((compiled, sim));
    }
    let (compiled, mut sim) = last.expect("at least one setup");
    let r = &compiled.report;

    let widths = |n: &str| {
        design
            .module
            .port(n)
            .map_or(1, |p| design.module.width(p.net))
    };
    let mut stim = program.stimulus(&widths);
    let outputs: Vec<String> = compiled.io.outputs.iter().map(|p| p.name.clone()).collect();
    // Outputs seen at every cycle, for the golden check.
    let mut seen: Vec<Vec<Bits>> = Vec::new();
    let mut step_once = |sim: &mut GemSimulator, rec: &mut Recorder, rid: u64| {
        let inputs = stim.next_inputs();
        let t0 = Instant::now();
        let req = rec.begin("request", rid);
        rec.time("core.poke", rid, || {
            for (name, v) in inputs {
                sim.set_input(&name, v);
            }
        });
        rec.time("core.step", rid, || sim.step());
        let row: Vec<Bits> = rec.time("core.peek", rid, || {
            outputs.iter().map(|n| sim.output(n)).collect()
        });
        rec.end(req);
        let took = secs(t0);
        if seen.len() < GOLDEN_CYCLES {
            seen.push(row);
        }
        took
    };

    for c in 0..WARMUP_CYCLES {
        step_once(&mut sim, &mut rec, c);
    }

    // The window runs on a busy clock: only the steps themselves advance
    // it, not stimulus generation or the interleaved calibration.
    let mut ops = Vec::new();
    let mut cal = Calibrator::default();
    let cpu0 = calib::process_cpu_s();
    let mut clock = 0.0;
    let mut rid = WARMUP_CYCLES;
    while clock < cfg.seconds {
        let traced = common::traced_phase(cfg, clock);
        rec.set_enabled(traced);
        let took = step_once(&mut sim, &mut rec, rid);
        rid += 1;
        ops.push(Timed {
            op: Op {
                start: clock,
                end: clock + took,
                units: 1.0,
            },
            traced,
        });
        clock += took;
        cal.keep_up(clock);
    }
    rec.set_enabled(cfg.trace);
    let cpu = calib::process_cpu_s() - cpu0;

    let mut out = Outcome::new(Recorder::new(origin, 1, false));
    // The golden check covers the warm-up too, so it counts as attempted.
    out.attempted = WARMUP_CYCLES + ops.len() as u64;
    let window = Window {
        ops: &ops,
        seconds: clock,
        setups: &setups,
        calib: &cal,
        cpu_share: common::cpu_share(cpu, cal.spent(), clock),
        tail_cap: TAIL_CAP,
    };
    common::summarize_window(&mut out, &window, cfg);

    // --- Correctness, untimed.
    let mut golden = Golden::new(
        &compiled.eaig,
        &compiled.eaig_inputs,
        &compiled.eaig_outputs,
    );
    let mut replay = program.stimulus(&widths);
    let mut mismatched = 0u64;
    for (cycle, row) in seen.iter().enumerate() {
        for (name, v) in replay.next_inputs() {
            golden.poke_bits(&name, &v);
        }
        let want = golden.cycle();
        let bad = outputs.iter().zip(row).any(|(name, got)| {
            let w = want.iter().find(|(n, _)| n == name).map(|x| x.1);
            w != Some(got.to_u64())
        });
        if bad {
            mismatched += 1;
            if mismatched == 1 {
                out.problems
                    .push(format!("golden mismatch at cycle {cycle}"));
            }
        }
    }
    out.failed = mismatched;

    common::check_counts(&mut out, &counts);

    if cfg.trace {
        let med = |name: &str| stats::median(&rec.durations(name)) / 1e9;
        out.layers
            .set("analyze.analyze_s", med("analyze.analyze_module"));
        out.layers
            .set("synth.synthesize_s", med("synth.synthesize"));
        out.layers
            .set("core.compile_eaig_s", med("core.compile_eaig"));
        out.layers.set("core.load_ms", med("core.load") * 1e3);
        common::step_layers(&mut out, &rec);
    }

    let mut p = Json::object();
    p.set("design", design.name.as_str());
    p.set("program", program.name.as_str());
    p.set("gates", r.gates);
    p.set("stages", u64::from(r.stages));
    p.set("partitions", u64::from(r.parts));
    p.set("threads", sim.threads() as u64);
    p.set("lanes", u64::from(sim.lanes()));
    p.set("streams", 1u64);
    p.set("cycles_per_request", 1u64);
    p.set("warmup_cycles", WARMUP_CYCLES);
    p.set("golden_cycles_checked", seen.len() as u64);
    out.record.set("params", p);
    out.end_to_end.set("peak_rss_mb", common::peak_rss_mb());
    out.spans = rec;
    Ok(out)
}
