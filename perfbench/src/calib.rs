//! Host-speed calibration.
//!
//! The reference host is a shared 2-vCPU VM whose speed drifts: serial
//! OpenPiton8 stepping moves between ≈190 and ≈420 cycles/s within
//! minutes, and a compile of the same design between 0.25 and 0.5 s,
//! while the run queue stays empty. Of the frozen kernels tried (see
//! `perfbench/README.md`), the one whose speed follows every workload's
//! best is allocation- and hash-heavy: build a hash map of small vectors
//! from seeded keys, then sort its entries.
//!
//! So every run interleaves short passes of this kernel with its
//! operations (about 3% of the measured time) and reports host-time
//! metrics on the reference host's scale: the CPU-bound share of each
//! time is multiplied by `speed = measured rate / REFERENCE_RATE`, taken
//! from the passes of the same one-second slice of the window, or, for a
//! cold start, from passes right before and right after it. The kernel
//! is part of the benchmark, not the program, so no change to the
//! program can move it. Changing it, or `REFERENCE_RATE`, redefines every
//! host-time metric.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Keys per second of the kernel on the reference host (2-vCPU x86-64
/// VM) in its steady state.
pub const REFERENCE_RATE: f64 = 20e6;

/// Keys inserted per pass (about 3 ms on the reference host).
const KEYS: u32 = 60_000;

/// Share of measured time spent calibrating.
pub const DUTY: f64 = 0.03;

/// FNV-1a, so the kernel hashes the same way on every run (the standard
/// hasher is randomly seeded).
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// One pass of the kernel; returns its time in seconds.
fn pass() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map: HashMap<u64, Vec<u32>, BuildHasherDefault<Fnv>> = HashMap::default();
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % u64::from(KEYS / 3)).or_default().push(i);
    }
    let mut entries: Vec<(u64, usize)> = map
        .iter()
        .map(|(k, v)| (k ^ v.len() as u64, v.len()))
        .collect();
    entries.sort_unstable();
    black_box(entries);
    t.elapsed().as_secs_f64()
}

/// Host speed relative to the reference host from the pass times given
/// (1 = reference; below 1 the host is slower).
fn rate(times: impl Iterator<Item = f64>) -> f64 {
    let (passes, secs) = times.fold((0.0, 0.0), |(n, t), s| (n + 1.0, t + s));
    if secs > 0.0 {
        passes * f64::from(KEYS) / secs / REFERENCE_RATE
    } else {
        1.0
    }
}

/// Host speed now, from `passes` passes of the kernel.
pub fn speed_now(passes: usize) -> f64 {
    rate((0..passes).map(|_| pass()))
}

/// The passes a run interleaved with its window.
#[derive(Debug, Default)]
pub struct Calibrator {
    /// `(busy-clock time, seconds)` per pass.
    samples: Vec<(f64, f64)>,
}

impl Calibrator {
    /// Runs passes until calibration has taken [`DUTY`] of `measured`
    /// busy seconds; passes are stamped with `measured`.
    pub fn keep_up(&mut self, measured: f64) {
        while self.spent() < DUTY * measured {
            self.samples.push((measured, pass()));
        }
    }

    /// Seconds spent calibrating.
    pub fn spent(&self) -> f64 {
        self.samples.iter().map(|s| s.1).sum()
    }

    /// Adds another calibrator's passes (one calibrator per client
    /// thread, each on its own busy clock).
    pub fn absorb(&mut self, other: &Calibrator) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Host speed over every pass.
    pub fn speed(&self) -> f64 {
        rate(self.samples.iter().map(|s| s.1))
    }

    /// Host speed per slice of `[0, window]`, from the passes stamped in
    /// each slice; a slice without passes takes the overall speed.
    pub fn slice_speeds(&self, window: f64, slices: usize) -> Vec<f64> {
        let width = window / slices as f64;
        let overall = self.speed();
        (0..slices)
            .map(|i| {
                let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
                let inside = self.samples.iter().filter(|s| s.0 >= lo && s.0 < hi);
                if inside.clone().next().is_some() {
                    rate(inside.map(|s| s.1))
                } else {
                    overall
                }
            })
            .collect()
    }
}

/// How host time is put on the reference scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostScale {
    /// Host speed, as from [`Calibrator::speed`].
    pub speed: f64,
    /// Share of the measured time the process spent on a CPU (0..=1).
    pub cpu_share: f64,
}

impl HostScale {
    /// Factor that turns a measured time into reference-host time: the
    /// CPU-bound share scales with host speed, waiting (timers, the wire)
    /// does not.
    pub fn time_factor(&self) -> f64 {
        (1.0 - self.cpu_share) + self.cpu_share * self.speed
    }
}

/// CPU time of this process so far (user + system, every thread, also
/// those that ended), seconds, to the microsecond.
pub fn process_cpu_s() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (user, system) of
    // two 64-bit fields each, then fourteen `long` counters.
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is as large as `struct rusage` and outlives the call.
    if unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) } != 0 {
        return 0.0;
    }
    (usage[0] + usage[2]) as f64 + (usage[1] + usage[3]) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_follow_the_duty_and_fill_slices() {
        let mut c = Calibrator::default();
        assert_eq!(c.speed(), 1.0);
        c.keep_up(0.2 / DUTY);
        assert!(c.spent() >= 0.2);
        let n = c.samples.len();
        c.keep_up(0.2 / DUTY);
        assert_eq!(c.samples.len(), n, "already caught up");
        c.keep_up(0.4 / DUTY);
        // Samples stamped in the second half of the busy clock only.
        let speeds = c.slice_speeds(0.4 / DUTY, 2);
        assert!(speeds.iter().all(|&s| s > 0.0));
        let mut empty = Calibrator::default();
        empty.absorb(&c);
        assert_eq!(empty.speed(), c.speed());
    }

    #[test]
    fn a_spot_speed_is_positive() {
        let s = speed_now(2);
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn time_factor_scales_only_the_cpu_share() {
        let s = HostScale {
            speed: 0.5,
            cpu_share: 1.0,
        };
        assert_eq!(s.time_factor(), 0.5);
        let waiting = HostScale {
            speed: 0.5,
            cpu_share: 0.0,
        };
        assert_eq!(waiting.time_factor(), 1.0);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut c = Calibrator::default();
        c.keep_up(0.1 / DUTY);
        assert!(process_cpu_s() > before);
    }
}
