//! A machine-speed reference for the gated CPU times.
//!
//! On a shared virtual machine, neighbours on the same physical core and
//! caches slow the whole program — by up to 1.8× on the 2-vCPU machine
//! the benchmark was tuned on — for stretches of seconds to minutes.
//! Process CPU time charges that slowdown to the program, so raw CPU
//! rates of the same code moved by more than the gates' bounds from one
//! set of runs to the next. A fixed reference work, the benchmark's own
//! and never the program's, is therefore timed right before and right
//! after every measured episode. It slows with the machine, so an
//! episode's CPU times are scaled by [`NOMINAL_S`] over the mean of the
//! two reference times around it: the gated times read as CPU seconds
//! on a machine where the reference takes [`NOMINAL_S`]. A change to
//! the program moves them in full, because the reference does not
//! change with it. The raw times are printed beside them.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::clock::process_cpu_s;

/// Reference CPU seconds the scaled times are expressed at: about what
/// the reference takes on the tuning machine.
pub const NOMINAL_S: f64 = 0.010;

/// Operations of one reference pass.
const PASS_OPS: u64 = 50_000;

/// The reference work: what the simulator does most — a timer heap, a
/// hash table of small and large buffers, and allocation — over a
/// working set of about half a megabyte.
fn work() -> u64 {
    let mut heap = BinaryHeap::new();
    let mut table: HashMap<u64, Vec<u8>> = HashMap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0_u64);
    for i in 0..PASS_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse((x % 1_000_000, i)));
        let len = if x % 20 == 0 { 1400 } else { 64 };
        table.insert(x % 4096, vec![x as u8; len]);
        if let Some(v) = table.get(&((x >> 20) % 4096)) {
            acc = acc.wrapping_add(v.len() as u64 + u64::from(v[v.len() / 2]));
        }
        if heap.len() > 2048 {
            if let Some(std::cmp::Reverse((t, _))) = heap.pop() {
                acc ^= t;
            }
        }
    }
    acc
}

/// CPU seconds of one reference pass.
pub fn reference_cpu_s() -> f64 {
    let t = process_cpu_s();
    black_box(work());
    process_cpu_s() - t
}

/// An episode and the factor that scales its CPU times to the
/// reference speed.
pub struct Paced<E> {
    pub ep: E,
    pub scale: f64,
    /// Mean reference CPU seconds around the episode.
    pub reference_s: f64,
}

/// Run `episode(0)`, `episode(1)`, … with a reference pass before the
/// first and after each, until `seconds` of wall time have passed and
/// at least `min` episodes have run, stopping on a whole multiple of
/// `group`.
pub fn repeat<E>(
    seconds: f64,
    min: usize,
    group: usize,
    mut episode: impl FnMut(usize) -> E,
) -> Vec<Paced<E>> {
    let start = Instant::now();
    let mut before = reference_cpu_s();
    let mut out = Vec::new();
    while out.len() < min || out.len() % group != 0 || start.elapsed().as_secs_f64() < seconds {
        let ep = episode(out.len());
        let after = reference_cpu_s();
        let reference_s = (before + after) / 2.0;
        out.push(Paced {
            ep,
            scale: NOMINAL_S / reference_s,
            reference_s,
        });
        before = after;
    }
    out
}
