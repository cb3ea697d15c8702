//! Wall and process-CPU stopwatches.
//!
//! On a shared virtual machine the hypervisor can take a vCPU away for
//! a while (steal). Wall time then grows with the neighbours' load;
//! process CPU time does not, because the guest scheduler charges only
//! time the thread really ran. Rates the benchmark gates are therefore
//! taken over process CPU time; wall rates are reported beside them.

use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of all threads.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time in seconds, summed over every thread.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds elapsed since [`Stopwatch::start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu,
        }
    }
}

/// A cheap monotonic tick counter for the tracing wrappers, which read
/// it four times per callback. On x86_64 with an invariant time-stamp
/// counter it is the TSC (about half the cost of `Instant::now` on a
/// virtual machine); elsewhere it is nanoseconds of `Instant`.
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    if tick_scale().tsc {
        // SAFETY: `rdtsc` has no preconditions; `tick_scale` checked
        // that the counter is invariant.
        return unsafe { std::arch::x86_64::_rdtsc() };
    }
    epoch().elapsed().as_nanos() as u64
}

/// Nanoseconds in `ticks` ticks.
pub fn ticks_to_ns(ticks: u64) -> u64 {
    (ticks as f64 * tick_scale().ns_per_tick) as u64
}

struct TickScale {
    tsc: bool,
    ns_per_tick: f64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Decide the tick source once, timing the TSC against `Instant` over
/// 20 ms when it is usable.
fn tick_scale() -> &'static TickScale {
    static SCALE: OnceLock<TickScale> = OnceLock::new();
    SCALE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if invariant_tsc() {
            use std::arch::x86_64::_rdtsc;
            // SAFETY: as in `ticks`.
            let (w0, c0) = (Instant::now(), unsafe { _rdtsc() });
            while w0.elapsed().as_millis() < 20 {
                std::hint::spin_loop();
            }
            // SAFETY: as in `ticks`.
            let (c1, w1) = (unsafe { _rdtsc() }, w0.elapsed());
            return TickScale {
                tsc: true,
                ns_per_tick: w1.as_nanos() as f64 / (c1 - c0) as f64,
            };
        }
        epoch();
        TickScale {
            tsc: false,
            ns_per_tick: 1.0,
        }
    })
}

/// CPUID leaf 0x8000_0007, EDX bit 8: the TSC runs at a constant rate
/// in every power state.
#[cfg(target_arch = "x86_64")]
fn invariant_tsc() -> bool {
    use std::arch::x86_64::__cpuid;
    // The extended leaf is read only when the maximum leaf covers it.
    __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
}
