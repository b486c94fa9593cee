//! The GEM workspace benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload for the given window, checks every output it
//! measured against the golden `EaigSim`, prints a self-describing record,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! See `perfbench/README.md` for the workloads and metrics.

mod calib;
mod chatty;
mod common;
mod gen;
mod replay;
mod serve;
mod spans;
mod stats;
mod step;

use common::{Config, Outcome};
use gem_telemetry::Json;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, with the function that runs each.
type Runner = fn(&Config, Instant) -> Result<Outcome, String>;
const WORKLOADS: [(&str, Runner); 3] = [
    ("step-openpiton8", step::run),
    ("replay64-macbank", replay::run),
    ("serve-chatty", chatty::run),
];

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// The configuration is pinned by this program: any `GEM_*` knob in the
/// environment (engine threads, backend, logging) would change what runs.
fn refuse_gem_env() -> Result<(), String> {
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GEM_"))
        .collect();
    if knobs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark pins its own configuration",
            knobs.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    refuse_gem_env()?;
    if gem_telemetry::span::enabled() {
        return Err("the program's own span collection must stay off".into());
    }
    let runner = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, f)| *f)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            format!("unknown workload {:?}; one of {names:?}", args.workload)
        })?;
    let cfg = &args.cfg;
    let origin = Instant::now();
    let out = runner(cfg, origin)?;

    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    let mut rec = Json::object();
    rec.set("benchmark", "perfbench");
    rec.set("workload", args.workload.as_str());
    rec.set("seed", cfg.seed);
    rec.set("seconds", cfg.seconds);
    rec.set("trace", cfg.trace);
    rec.set("host", host::facts());
    rec.set("correct", correct);
    rec.set("attempted", out.attempted);
    rec.set("failed", out.failed);
    rec.set(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    rec.set(
        "problems",
        Json::Array(out.problems.iter().map(|p| Json::Str(p.clone())).collect()),
    );
    for (k, v) in out.record.as_object().unwrap_or_default() {
        rec.set(k, v.clone());
    }
    rec.set("end_to_end", out.end_to_end.to_json());
    if cfg.trace {
        rec.set("per_layer", out.layers.to_json());
        let rows: Vec<Json> = spans::summarize(out.spans.spans())
            .into_iter()
            .map(|(name, count, total, own)| {
                let mut r = Json::object();
                r.set("span", name);
                r.set("count", count as u64);
                r.set("total_ms", total as f64 / 1e6);
                r.set("self_ms", own as f64 / 1e6);
                r
            })
            .collect();
        rec.set("span_self_times", Json::Array(rows));
        match write_trace(&args.workload, cfg.seed, &out) {
            Ok(path) => rec.set("trace_file", path),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{}", rec.to_string_pretty());

    let mut result = Json::object();
    result.set("correct", correct);
    result.set("attempted", out.attempted);
    result.set("failed", out.failed);
    result.set(
        "metrics",
        if cfg.trace {
            out.layers.to_json()
        } else {
            out.end_to_end.to_json()
        },
    );
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

/// Writes the Chrome trace next to the benchmark binary (inside the
/// build directory) and returns its path.
fn write_trace(workload: &str, seed: u64, out: &Outcome) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("binary has no directory"))?
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    std::fs::write(&path, spans::chrome_trace(out.spans.spans()).to_string())?;
    Ok(path.display().to_string())
}

mod host {
    //! Facts that pin what ran: core count and source revision.

    use gem_telemetry::Json;
    use std::path::Path;

    /// `nproc`, the git revision when the checkout is a repository, and a
    /// digest of the workspace sources (always available, also in a
    /// checkout without `.git`).
    pub fn facts() -> Json {
        let mut h = Json::object();
        h.set(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        );
        h.set("git_rev", git_rev().unwrap_or_else(|| "unknown".into()));
        h.set("source_digest", format!("{:016x}", source_digest()));
        h
    }

    fn git_rev() -> Option<String> {
        if !Path::new(".git").exists() {
            return None;
        }
        let out = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    }

    /// FNV-1a over the paths and bytes of every file under `crates/` plus
    /// the workspace manifests, in sorted order.
    fn source_digest() -> u64 {
        let mut files = Vec::new();
        collect(Path::new("crates"), &mut files);
        files.push("Cargo.toml".into());
        files.push("Cargo.lock".into());
        files.sort();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for f in files {
            let bytes = std::fs::read(&f).unwrap_or_default();
            for b in f.to_string_lossy().bytes().chain(bytes) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                collect(&p, out);
            } else {
                out.push(p);
            }
        }
    }
}
