//! Host time, and the reference kernel that cancels host drift.
//!
//! On a shared 2-vCPU host the same simulation runs at anywhere between
//! 0.65× and 1.0× its best speed, depending on what the neighbours do;
//! a single wall-clock reading does not repeat within a tenth. The
//! benchmark therefore times the program in blocks and runs a fixed
//! reference kernel after every block (one untimed sample to bring its
//! state back into cache, then the timed one). The kernel is code this
//! benchmark owns, which no change to the simulator can touch, and it
//! reacts to the host much as the simulator does. Work time is then
//! rescaled by how slow the reference ran:
//!
//! `ref-seconds = work seconds / (mean reference sample × SAMPLES_PER_REF_S)`
//!
//! so a slow phase of the host stretches both and cancels. One
//! ref-second is the time the calibration host (2 vCPU, see README)
//! needs for [`SAMPLES_PER_REF_S`] reference samples, about one wall
//! second there in a quiet phase. README.md lists the kernels that
//! were tried and how well each cancelled the drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rcast_bench::alloc_probe;

/// Reference samples in one ref-second: in a quiet phase the
/// calibration host's mean warm sample took about 1 / this many
/// seconds.
pub const SAMPLES_PER_REF_S: f64 = 710.0;

/// Keys sorted per round of the integer half, and its distinct map keys.
const KEYS: usize = 32_768;

/// Values formatted and parsed per round of the text half.
const VALUES: usize = 1024;

/// Words built, sorted and counted per round of the text half.
const WORDS: usize = 512;

/// The distinct words the text half can build (`n<9 bits>-<0..7>`).
const WORD_KEYS: u64 = 512;
const WORD_SUFFIXES: usize = 7;

/// The reference kernel. One sample is one round of each half: an
/// integer half (xorshift fill, unstable sort and `BTreeMap` updates
/// over 32 Ki keys, about 1.5 MiB, like the simulator's working set)
/// and a text half (float formatting and parsing, string building,
/// sorting and map lookups, like the simulator's wide code paths).
/// The integer half alone tracks idle-1200 best, the text half alone
/// storm-150; together they track both. All state is reused and every
/// map key exists before the first sample, so every sample does the
/// same work and allocates nothing.
pub struct Reference {
    keys: Vec<u64>,
    counts: BTreeMap<u64, u64>,
    values: Vec<f64>,
    text: String,
    words: Vec<String>,
    word_counts: BTreeMap<String, u64>,
    state: u64,
}

impl Reference {
    /// A kernel with every map key in place.
    pub fn new() -> Self {
        let mut word_counts = BTreeMap::new();
        for bits in 0..WORD_KEYS {
            for suffix in 0..WORD_SUFFIXES {
                word_counts.insert(format!("n{bits:x}-{suffix}"), 0);
            }
        }
        Reference {
            keys: vec![0; KEYS],
            counts: (0..KEYS as u64).map(|k| (k, 0)).collect(),
            values: vec![0.0; VALUES],
            text: String::with_capacity(VALUES * 24),
            words: (0..WORDS).map(|_| String::with_capacity(16)).collect(),
            word_counts,
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// One sample: a round of each half.
    fn sample(&mut self) -> f64 {
        for i in 0..KEYS {
            self.keys[i] = self.next();
        }
        self.keys.sort_unstable();
        let mut acc = 0.0;
        for k in self.keys.iter().step_by(8) {
            *self
                .counts
                .get_mut(&(k % KEYS as u64))
                .expect("every key exists") += 1;
            acc += (*k as f64).sqrt();
        }
        for i in 0..VALUES {
            self.values[i] = (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e6;
        }
        self.text.clear();
        for v in &self.values {
            let _ = write!(self.text, "{v} ");
        }
        for t in self.text.split_ascii_whitespace() {
            acc += t.parse::<f64>().unwrap_or(0.0).sqrt();
        }
        for (i, w) in self.words.iter_mut().enumerate() {
            w.clear();
            let _ = write!(
                w,
                "n{:x}-{}",
                self.values[i].to_bits() % WORD_KEYS,
                i % WORD_SUFFIXES
            );
        }
        self.words.sort_unstable();
        for w in self.words.iter().step_by(4) {
            *self
                .word_counts
                .get_mut(w.as_str())
                .expect("every word exists") += 1;
        }
        acc
    }

    /// Times `n` samples, one by one, after one untimed sample. The
    /// block before evicted the kernel's state; the untimed sample
    /// refills it, so the timed ones do not depend on how much memory
    /// the program under test touched (cold samples read 9–10% slower
    /// than warm ones after a storm-150 or idle-1200 block, and the
    /// gap grows with the block's footprint).
    fn timed_samples(&mut self, n: usize, out: &mut Vec<Duration>) {
        black_box(self.sample());
        for _ in 0..n {
            let t0 = Instant::now();
            black_box(self.sample());
            out.push(t0.elapsed());
        }
    }
}

/// Times the program's work in blocks, with reference samples after
/// each block, and counts the allocations made inside the blocks.
///
/// With `width > 1` (the campaign's worker count) the reference runs on
/// `width` threads at once, so it sees the vCPUs the work used, and
/// takes several samples per block: the block's reference figure is
/// their median, which a thread's late start cannot move.
pub struct Meter {
    kernels: Vec<Reference>,
    samples_per_block: usize,
    work: Duration,
    /// Sum over blocks of each block's reference figure.
    reference: Duration,
    blocks: u32,
    allocs: u64,
    scratch: Vec<Duration>,
}

impl Meter {
    /// A meter whose reference runs at `width` threads.
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        Meter {
            kernels: (0..width).map(|_| Reference::new()).collect(),
            samples_per_block: if width == 1 { 1 } else { 8 },
            work: Duration::ZERO,
            reference: Duration::ZERO,
            blocks: 0,
            allocs: 0,
            scratch: Vec::new(),
        }
    }

    /// Runs `f` as one timed block, then the block's reference samples.
    pub fn block<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a0 = alloc_probe::allocations();
        let t0 = Instant::now();
        let r = black_box(f());
        self.work += t0.elapsed();
        self.allocs += alloc_probe::allocations() - a0;
        self.sample();
        r
    }

    fn sample(&mut self) {
        let n = self.samples_per_block;
        let mut times = std::mem::take(&mut self.scratch);
        times.clear();
        if let [one] = self.kernels.as_mut_slice() {
            one.timed_samples(n, &mut times);
        } else {
            let lanes: Vec<Vec<Duration>> = std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .kernels
                    .iter_mut()
                    .map(|k| {
                        s.spawn(move || {
                            let mut lane = Vec::with_capacity(n);
                            k.timed_samples(n, &mut lane);
                            lane
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference thread panicked"))
                    .collect()
            });
            times.extend(lanes.into_iter().flatten());
        }
        times.sort_unstable();
        self.reference += times[times.len() / 2];
        self.blocks += 1;
        self.scratch = times;
    }

    /// Wall seconds spent inside blocks.
    pub fn work_s(&self) -> f64 {
        self.work.as_secs_f64()
    }

    /// Mean reference sample, milliseconds.
    pub fn sample_ms(&self) -> f64 {
        self.reference.as_secs_f64() * 1e3 / f64::from(self.blocks.max(1))
    }

    /// Block time rescaled to ref-seconds (see the module docs).
    pub fn ref_s(&self) -> f64 {
        assert!(self.blocks > 0, "no block was timed");
        self.work_s() / (self.sample_ms() / 1e3 * SAMPLES_PER_REF_S)
    }

    /// Allocations made inside blocks.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

/// Wall time and allocation count of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, u64) {
    let a0 = alloc_probe::allocations();
    let t0 = Instant::now();
    let r = black_box(f());
    let dt = t0.elapsed();
    (r, dt, alloc_probe::allocations() - a0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_rescales_block_time() {
        let mut m = Meter::new(2);
        let v = m.block(|| vec![1u8; 64]);
        assert_eq!(v.len(), 64);
        assert!(m.work_s() > 0.0 && m.sample_ms() > 0.0);
        let expect = m.work_s() / (m.sample_ms() / 1e3 * SAMPLES_PER_REF_S);
        assert_eq!(m.ref_s(), expect);
    }
}
