//! The reference kernel: a fixed piece of work, run beside every round,
//! in whose run time the round times are expressed.
//!
//! **Frozen.** Raw wall and CPU time of one binary drift by 10–20% on
//! this host in phases that last minutes; the drift is in the memory
//! system and hits an allocator-heavy program harder than arithmetic.
//! The kernel therefore does what the program does, in miniature: about
//! half of its time is allocate/touch/free churn of small blocks, about
//! 45% string formatting, sorting and folding, about 5% random probes of
//! a 4 MiB table. Changing any constant here changes the unit of
//! `round_ref_p50`/`round_ref_p90` and voids every recorded baseline; the
//! unit test below pins the checksum so that cannot happen unnoticed.
//!
//! `std` only, single-threaded, inputs from a fixed xorshift stream. The
//! harness runs it under `alloc::uncounted`, so its allocations are not
//! in the allocation metrics; it does share the process's heap, which is
//! the one way a library change can reach it (`bench.ref_ms_p50` is
//! printed so that shows).

use std::fmt::Write as _;
use std::hint::black_box;

/// Checksum of one kernel run over its fixed inputs.
pub const CHECKSUM: u64 = 0x9841_4e62_5d74_a7bb;

const TABLE_WORDS: usize = 4 << 17; // 4 MiB of u64
const CHURN_SLOTS: usize = 4096;
const CHURN_OPS: usize = 180_000;
const STRINGS: usize = 23_000;
const PROBES: usize = 16_000;

#[inline]
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[inline]
fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

pub struct RefKernel {
    table: Vec<u64>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}

impl RefKernel {
    pub fn new() -> RefKernel {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS).map(|_| xorshift(&mut x)).collect();
        RefKernel { table }
    }

    /// One run; always returns [`CHECKSUM`].
    pub fn run(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fold(h, churn());
        h = fold(h, strings());
        h = fold(h, self.probes());
        black_box(h)
    }

    /// Dependent random reads over the 4 MiB table.
    fn probes(&self) -> u64 {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut idx = 0usize;
        let mut h = 0u64;
        for _ in 0..PROBES {
            let v = self.table[idx];
            h = fold(h, v);
            idx = ((v ^ xorshift(&mut x)) as usize) % TABLE_WORDS;
        }
        h
    }
}

/// Allocate, touch and free small blocks in a random order: each step
/// frees the block in a random slot, if there is one, or fills the slot
/// with a fresh block of 16..=527 bytes.
fn churn() -> u64 {
    let mut x = 0x243f_6a88_85a3_08d3u64;
    let mut slots: Vec<Option<Vec<u8>>> = (0..CHURN_SLOTS).map(|_| None).collect();
    let mut h = 0u64;
    for _ in 0..CHURN_OPS {
        let r = xorshift(&mut x);
        let slot = &mut slots[(r as usize) % CHURN_SLOTS];
        match slot.take() {
            Some(block) => {
                h = fold(h, u64::from(block[0]) + u64::from(block[block.len() - 1]));
            }
            None => {
                let len = 16 + ((r >> 32) as usize & 511);
                let mut block = vec![0u8; len];
                let byte = (r >> 24) as u8;
                for b in block.iter_mut().step_by(64) {
                    *b = byte;
                }
                block[len - 1] = byte;
                *slot = Some(black_box(block));
            }
        }
    }
    for block in slots.into_iter().flatten() {
        h = fold(h, block.len() as u64);
    }
    h
}

/// Format records, sort them and fold them into a hash.
fn strings() -> u64 {
    let mut x = 0x1319_8a2e_0370_7344u64;
    let mut rows: Vec<String> = Vec::with_capacity(STRINGS);
    for i in 0..STRINGS {
        let r = xorshift(&mut x);
        let mut s = String::new();
        let _ = write!(
            s,
            "{:05}|{}|{:.2}|c{:03}",
            r % 99_991,
            i,
            (r >> 20) as f64 / 4096.0,
            (r >> 8) % 997
        );
        rows.push(s);
    }
    rows.sort_unstable();
    let mut h = 0u64;
    for s in &rows {
        for b in s.as_bytes() {
            h = fold(h, u64::from(*b));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Freeze guard: the kernel is the unit of the host-clock metrics.
    #[test]
    fn checksum_is_pinned() {
        let k = RefKernel::new();
        assert_eq!(k.run(), CHECKSUM, "the reference kernel is frozen");
        assert_eq!(k.run(), CHECKSUM, "and has no state between runs");
    }
}
