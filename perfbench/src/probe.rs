//! The host-speed probe: a fixed piece of work, owned by the benchmark and
//! independent of the library, timed in CPU time right after every timed
//! op and set-up. Every end-to-end time is scaled by the probe's speed at
//! that moment, so that the host's slow and fast spells, which last
//! seconds to minutes and move every op of a run together, cancel out
//! (see `NOTES.md`, "Host-speed correction"). CPU time, not wall time,
//! because the host also takes the CPU away for whole milliseconds, which
//! would count as slowness in a wall-clock probe.
//!
//! The probe sorts 32k pseudo-random integers (256 KiB, within a core's
//! L2) and then fills and walks a 4 MiB buffer one cache line at a time
//! (beyond L2, in the shared L3), so it slows with the host's contention
//! for the core and for the shared cache as the joins do.

use crate::sys::process_cpu;
use std::hint::black_box;

/// The probe's median CPU time on the reference host (2 vCPUs, Intel Xeon
/// at 2.1 GHz), in ms. Corrected times are in the reference host's ms.
pub const REFERENCE_MS: f64 = 2.0;

/// Integers sorted per probe.
const SORT_LEN: usize = 1 << 15;
/// Words of the buffer filled and walked per probe (4 MiB).
const WALK_LEN: usize = 1 << 19;
/// `u64` words per 64-byte cache line.
const LINE: usize = 8;

/// The probe's buffers, allocated and touched once so that no probe pays
/// for page faults.
pub struct Probe {
    sort: Vec<u64>,
    walk: Vec<u64>,
    fill: u64,
}

impl Probe {
    /// Allocates and touches the buffers.
    pub fn new() -> Probe {
        Probe {
            sort: vec![0; SORT_LEN],
            walk: vec![1; WALK_LEN],
            fill: 1,
        }
    }

    /// Runs the probe once and returns the CPU time it took, in ms. Only
    /// the calling thread runs while it does.
    pub fn time_ms(&mut self) -> f64 {
        let t = process_cpu();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for v in &mut self.sort {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.sort.sort_unstable();
        black_box(&self.sort);
        self.fill = self.fill.wrapping_add(1);
        self.walk.fill(self.fill);
        let mut sum = 0u64;
        for lane in 0..4 {
            for i in (lane..WALK_LEN).step_by(LINE) {
                sum = sum.wrapping_add(black_box(self.walk[i]));
            }
        }
        black_box(sum);
        (process_cpu() - t).as_secs_f64() * 1e3
    }

    /// The correction factor now: the reference probe time over the
    /// probe's time on this host at this moment. A time measured just
    /// before, multiplied by it, is in the reference host's units.
    pub fn factor(&mut self) -> f64 {
        REFERENCE_MS / self.time_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time_and_the_factor_is_its_inverse() {
        let mut p = Probe::new();
        let ms = p.time_ms();
        assert!(ms > 0.0);
        let f = p.factor();
        assert!(f.is_finite() && f > 0.0);
        assert!(p.sort.windows(2).all(|w| w[0] <= w[1]));
    }
}
