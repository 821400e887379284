//! The reference kernel: a fixed, allocation-free piece of work owned
//! by the benchmark, timed between engine calls to track the host's
//! speed of the moment.
//!
//! The host is a shared virtual machine whose speed moves by up to
//! about 1.6x between states lasting from under a second to tens of
//! seconds. Dividing each engine call's host time by the kernel's time
//! next to it removes about half of that drift. The kernel is a tiny
//! interpreter with a 4-way tag search per step, so that it stresses
//! the host the way the simulator does: decode dispatch, a register
//! file, and loads and stores scattered over a 16 MiB memory (a
//! guest's size) that is rewritten before every repetition, as each
//! job's boot rewrites its guest memory. It must never call into the
//! program, or an optimisation of the program would cancel out of
//! every normalised figure.
//!
//! Kernels tried on `grid`-shaped passes (this interpreter over 1 MiB
//! and over 16 MiB, a fixed-loop interpreter, multiply chains) all
//! roughly halved the spread of the measured phase across processes,
//! from 13-15% of the median raw to 5-9% normalised; the 16 MiB
//! interpreter did best on the whole.

use std::hint::black_box;
use std::time::Instant;

/// Interpreter steps per timed repetition (2-3 ms on the reference
/// host).
const STEPS: u32 = 100_000;

/// Repetitions per sample; the fastest is kept, which drops samples an
/// interrupt or a preemption landed in.
const REPETITIONS: usize = 3;

/// Host seconds one repetition is taken to last at nominal speed. A
/// normalised time is `seconds / sample * NOMINAL_S`, so it reads in
/// "reference seconds" (`ref-s`): host seconds on a host whose kernel
/// repetition takes exactly this long. The value only scales the
/// figures and never changes.
pub const NOMINAL_S: f64 = 0.003;

/// The kernel's program and data. Stores rewrite `memory`, so every
/// repetition starts from a copy of `pristine` to do identical work.
#[derive(Debug)]
pub struct Reference {
    memory: Vec<u32>,
    pristine: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x1234_5678u32;
        let pristine: Vec<u32> = (0..1 << 22)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Reference { memory: pristine.clone(), pristine }
    }

    /// Host seconds of the fastest of a few repetitions.
    pub fn sample(&mut self) -> f64 {
        (0..REPETITIONS).map(|_| self.once()).fold(f64::INFINITY, f64::min)
    }

    fn once(&mut self) -> f64 {
        self.memory.copy_from_slice(&self.pristine);
        let started = Instant::now();
        let memory = &mut self.memory[..];
        let mask = (memory.len() - 1) as u32;
        let mut regs = [0u32; 16];
        let mut tags = [0u32; 4096];
        let (mut pc, mut hits) = (0u32, 0u32);
        for _ in 0..STEPS {
            let word = memory[(pc & mask) as usize];
            let set = ((pc >> 3) & 1023) as usize;
            let ways = &mut tags[set * 4..set * 4 + 4];
            let tag = pc >> 9;
            match ways.iter().position(|&w| w == tag) {
                Some(_) => hits += 1,
                None => ways[(pc as usize >> 2) & 3] = tag,
            }
            let rd = ((word >> 4) & 15) as usize;
            let rn = ((word >> 8) & 15) as usize;
            let rm = ((word >> 12) & 15) as usize;
            pc = pc.wrapping_add(1);
            match word & 7 {
                0 => regs[rd] = regs[rn].wrapping_add(regs[rm]),
                1 => regs[rd] = regs[rn] ^ (word >> 16),
                2 => regs[rd] = memory[(regs[rn] & mask) as usize],
                3 => memory[(regs[rn].wrapping_add(word >> 16) & mask) as usize] = regs[rd],
                4 => {
                    if regs[rn] & 1 == 0 {
                        pc = pc.wrapping_add(word >> 20);
                    }
                }
                5 => regs[rd] = regs[rn].wrapping_mul(regs[rm] | 1),
                6 => regs[rd] = regs[rn].rotate_left(word >> 27),
                _ => regs[rd] = regs[rn].wrapping_sub(regs[rm]) >> 1,
            }
        }
        black_box((regs, hits));
        started.elapsed().as_secs_f64()
    }
}
