//! The yardstick: a fixed computation of the benchmark's own, timed now
//! and then during a run, that says whether the CPU it runs on is
//! contended at the moment.
//!
//! On a shared host a vCPU can run at two thirds of its speed for a
//! tenth of a second to minutes at a time (other guests sharing its
//! physical core and caches), with no time taken from the guest. The
//! yardstick then takes about 1.8 times as long, while the program's
//! kernels take 1.3 to 1.5 times as long, so its readings tell a
//! contended CPU from a free one with a wide margin.
//! [`crate::host::Placement`] acts on them.
//!
//! The computation is a bit-parallel gate-level simulation, like the
//! program's kernels: per gate, two indexed loads, a few word operations,
//! a store and a population count of the toggles, over a working set of
//! 64 KiB. Its inner loop is written in assembly on x86-64, so that no
//! compiler setting of the workspace (optimisation level, LTO, target
//! CPU) changes its speed; nothing the program does can either.

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CPU_CLOCK: i32 = 3;

/// The calling thread's CPU time, in seconds.
fn thread_cpu_s() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a writable `timespec`; the clock id is valid on Linux.
    unsafe { clock_gettime(THREAD_CPU_CLOCK, &mut t) };
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Primary inputs of the yardstick's netlist.
const INPUTS: usize = 64;
/// Gates of the yardstick's netlist.
const GATES: usize = 4096;
/// Passes over the netlist in one sample: about 0.2 ms on a free vCPU of
/// an Intel Xeon (Sapphire Rapids) KVM guest.
const PASSES: usize = 48;

/// The yardstick's netlist and node values.
pub struct Yardstick {
    /// Both fanins of each gate, as node indices.
    fanins: Vec<u32>,
    /// One 64-lane word per node: the inputs, then the gates.
    values: Vec<u64>,
    toggles: u64,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// The fixed netlist: gate `g`'s first fanin is any earlier node, its
    /// second one of the 64 nodes just before it.
    pub fn new() -> Yardstick {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut fanins = Vec::with_capacity(2 * GATES);
        for g in 0..GATES {
            let node = (INPUTS + g) as u64;
            fanins.push((next() % node) as u32);
            fanins.push((node - 1 - next() % node.min(64)) as u32);
        }
        let values = (0..INPUTS + GATES).map(|_| next()).collect();
        Yardstick { fanins, values, toggles: 0 }
    }

    /// Seconds of the calling thread's CPU time one sample takes now.
    /// CPU time, not wall time: another thread sharing the CPU (the
    /// server child finishing a request) must not read as contention.
    pub fn sample(&mut self) -> f64 {
        let t = thread_cpu_s();
        for _ in 0..PASSES {
            let toggles = self.pass();
            self.toggles = self.toggles.wrapping_add(toggles);
        }
        std::hint::black_box(self.toggles);
        thread_cpu_s() - t
    }

    /// The median of `n` samples, in ms, after one untimed pass that
    /// brings the working set back into the caches.
    pub fn median_ms(&mut self, n: usize) -> f64 {
        let toggles = self.pass();
        self.toggles = self.toggles.wrapping_add(toggles);
        let times: Vec<f64> = (0..n).map(|_| self.sample() * 1e3).collect();
        crate::stats::median(&times)
    }

    /// One pass, as [`pass_rust`] describes it; returns the toggles
    /// counted.
    #[cfg(not(target_arch = "x86_64"))]
    fn pass(&mut self) -> u64 {
        pass_rust(&mut self.values, &self.fanins)
    }

    /// One pass, as [`pass_rust`] describes it, in assembly; returns the
    /// toggles counted.
    #[cfg(target_arch = "x86_64")]
    fn pass(&mut self) -> u64 {
        assert!(self.values.len() == INPUTS + GATES && self.fanins.len() == 2 * GATES);
        let toggles: u64;
        // SAFETY: the loop reads and writes `values` at indices below
        // `INPUTS + GATES` (an input `j`, a gate's node `INPUTS + g`, and
        // the gate's fanins, which `new` draws below that node; the fields
        // are private and only `new` fills them) and reads `fanins` below
        // `2 * GATES`: the lengths asserted above. It uses no stack.
        unsafe {
            std::arch::asm!(
                "xor {cnt}, {cnt}",
                "xor {j}, {j}",
                "2:",
                "imul {a}, qword ptr [{vals} + {j}*8], 0x5851f42d",
                "add {a}, 0x3c6ef35f",
                "mov qword ptr [{vals} + {j}*8], {a}",
                "inc {j}",
                "cmp {j}, {inputs}",
                "jb 2b",
                "xor {j}, {j}",
                "3:",
                "mov {ia:e}, dword ptr [{fan} + {j}*8]",
                "mov {ib:e}, dword ptr [{fan} + {j}*8 + 4]",
                "mov {a}, qword ptr [{vals} + {ia}*8]",
                "mov {b}, qword ptr [{vals} + {ib}*8]",
                "mov {r}, {a}",
                "and {r}, {b}",
                "xor {a}, {b}",
                "rol {a}, 7",
                "xor {r}, {a}",
                "lea {ia}, [{j} + {inputs}]",
                "mov {b}, qword ptr [{vals} + {ia}*8]",
                "mov qword ptr [{vals} + {ia}*8], {r}",
                "xor {b}, {r}",
                "popcnt {b}, {b}",
                "add {cnt}, {b}",
                "inc {j}",
                "cmp {j}, {gates}",
                "jb 3b",
                vals = in(reg) self.values.as_mut_ptr(),
                fan = in(reg) self.fanins.as_ptr(),
                inputs = in(reg) INPUTS,
                gates = in(reg) GATES,
                cnt = out(reg) toggles,
                j = out(reg) _,
                a = out(reg) _,
                b = out(reg) _,
                r = out(reg) _,
                ia = out(reg) _,
                ib = out(reg) _,
                options(nostack),
            );
        }
        toggles
    }
}

/// One pass in Rust: steps every input word, then evaluates every gate as
/// `(a & b) ^ rotl(a ^ b, 7)` and counts the toggles of its word. The
/// assembly follows this description; where there is none, it is the pass.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn pass_rust(values: &mut [u64], fanins: &[u32]) -> u64 {
    let mut toggles = 0u64;
    for v in &mut values[..INPUTS] {
        *v = v.wrapping_mul(0x5851_f42d).wrapping_add(0x3c6e_f35f);
    }
    for g in 0..GATES {
        let a = values[fanins[2 * g] as usize];
        let b = values[fanins[2 * g + 1] as usize];
        let r = (a & b) ^ (a ^ b).rotate_left(7);
        let old = std::mem::replace(&mut values[INPUTS + g], r);
        toggles += u64::from((old ^ r).count_ones());
    }
    std::hint::black_box(toggles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_matches_its_description() {
        let mut y = Yardstick::new();
        let mut want = y.values.clone();
        let toggles: u64 = (0..3).map(|_| pass_rust(&mut want, &y.fanins)).sum();
        let got: u64 = (0..3).map(|_| y.pass()).sum();
        assert_eq!(y.values, want);
        assert_eq!(got, toggles);
        assert!(y.median_ms(3) > 0.0);
    }
}
