//! The host the benchmark runs on: which CPU the timed work runs on, how
//! much time the hypervisor took from the guest, and the facts every run
//! file records.
//!
//! The benchmark runs all of its timed work, the server child included,
//! on one CPU at a time. On a shared host one vCPU can run at two thirds
//! of its speed while the other runs at full speed, so work spread over
//! both waits on the slower one, and a thread the scheduler moves
//! between them times both.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hlpower::netlist::simd_level;
use hlpower_obs::json::Value;

use crate::stats::median;
use crate::yardstick::Yardstick;

/// `cpu_set_t` of glibc: 1,024 bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and its size
    // is passed along; pid 0 is the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..1024).filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restricts the calling thread, and the threads and processes it starts
/// from now on, to `cpus`. Returns whether the kernel accepted it.
pub fn pin(cpus: &[usize]) -> bool {
    let mut set = CpuSet([0; 16]);
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set.0[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid `cpu_set_t` and its size is passed along;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Restricts thread `tid` (of this or a child process) to `cpu`.
fn pin_thread(tid: u32, cpu: usize) -> bool {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: as in `pin`; `tid` names a thread, not memory.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// How often, in seconds, [`Placement::tick`] reads the yardstick.
const CHECK_EVERY: f64 = 0.1;
/// Yardstick samples per reading (their median).
const READING_SAMPLES: usize = 3;
/// A CPU whose reading is this many times the run's best is contended,
/// and the other CPUs are read. Contention makes a reading 1.8 times as
/// long.
const SLOW: f64 = 1.4;
/// The timed work moves only to a CPU this many times faster.
const MOVE_GAIN: f64 = 1.25;

/// Where the timed work runs: on one CPU, the fastest one.
///
/// Other guests of the host slow each vCPU on its own, for a tenth of a
/// second to minutes at a time (see README.md). The benchmark's thread
/// and the server child's threads all run on one CPU; between timed
/// units [`Placement::tick`] reads the yardstick on it, and when that CPU
/// has become slow and another is faster, moves all of them there.
pub struct Placement {
    cpus: Vec<usize>,
    /// The CPU the timed work is pinned to, when pinning works.
    cpu: Option<usize>,
    yard: Yardstick,
    /// A process whose threads move with the timed work.
    follower: Option<u32>,
    start: Instant,
    last_check: f64,
    /// The lowest reading of the run, on any CPU.
    best_ms: f64,
    /// Every reading: seconds since the start, CPU, milliseconds.
    readings: Vec<(f64, usize, f64)>,
    moves: usize,
}

impl Placement {
    /// Reads the yardstick on every allowed CPU and pins the calling
    /// thread to the fastest.
    pub fn fastest() -> Placement {
        let cpus = allowed_cpus();
        let mut p = Placement {
            cpus: cpus.clone(),
            cpu: None,
            yard: Yardstick::new(),
            follower: None,
            start: Instant::now(),
            last_check: 0.0,
            best_ms: f64::INFINITY,
            readings: Vec::new(),
            moves: 0,
        };
        let read: Vec<(usize, f64)> = cpus.iter().filter_map(|&c| Some((c, p.read(c)?))).collect();
        p.cpu = read.iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|r| r.0).filter(|&c| pin(&[c]));
        if p.cpu.is_none() {
            pin(&cpus);
        }
        p
    }

    /// Reads the yardstick on `cpu`, from the calling thread, and leaves
    /// the thread there.
    fn read(&mut self, cpu: usize) -> Option<f64> {
        if !pin(&[cpu]) {
            return None;
        }
        let ms = self.yard.median_ms(READING_SAMPLES);
        self.best_ms = self.best_ms.min(ms);
        self.readings.push((self.start.elapsed().as_secs_f64(), cpu, ms));
        Some(ms)
    }

    /// Moves every thread of process `pid` along with the timed work,
    /// starting now.
    pub fn follow(&mut self, pid: Option<u32>) {
        self.follower = pid;
        if let Some(cpu) = self.cpu {
            self.pin_follower(cpu);
        }
    }

    fn pin_follower(&self, cpu: usize) {
        let Some(pid) = self.follower else { return };
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return };
        for tid in tasks.flatten().filter_map(|t| t.file_name().to_str()?.parse().ok()) {
            pin_thread(tid, cpu);
        }
    }

    /// Called between timed units: [`Placement::check`], at most every
    /// [`CHECK_EVERY`] seconds.
    pub fn tick(&mut self) {
        if self.start.elapsed().as_secs_f64() - self.last_check >= CHECK_EVERY {
            self.check();
        }
    }

    /// Reads the yardstick on the current CPU, and when it is contended
    /// moves the timed work to a faster CPU.
    pub fn check(&mut self) {
        let Some(cpu) = self.cpu else { return };
        self.last_check = self.start.elapsed().as_secs_f64();
        let Some(here) = self.read(cpu) else { return };
        if here < SLOW * self.best_ms {
            return;
        }
        let others: Vec<usize> = self.cpus.iter().copied().filter(|&c| c != cpu).collect();
        let mut to = (cpu, here);
        for c in others {
            if let Some(ms) = self.read(c) {
                if ms * MOVE_GAIN < to.1 {
                    to = (c, ms);
                }
            }
        }
        pin(&[to.0]);
        if to.0 != cpu {
            self.cpu = Some(to.0);
            self.pin_follower(to.0);
            self.moves += 1;
        }
    }

    /// Lets the calling thread use every allowed CPU again (for the
    /// untimed checks after the measurement).
    pub fn release(&self) {
        pin(&self.cpus);
    }

    /// Pins the calling thread to the chosen CPU again after
    /// [`Placement::release`].
    pub fn pin_again(&self) {
        if let Some(c) = self.cpu {
            pin(&[c]);
        }
    }

    /// The run's placement: CPUs, moves, and the yardstick readings.
    pub fn to_json(&self) -> Value {
        let on_cpu = |c: usize| self.readings.iter().filter(move |r| r.1 == c).map(|r| r.2);
        let per_cpu = self
            .cpus
            .iter()
            .map(|&c| {
                let ms: Vec<f64> = on_cpu(c).collect();
                let stats = vec![
                    ("readings".to_string(), Value::Int(ms.len() as i128)),
                    ("median_ms".to_string(), Value::Num(median(&ms))),
                ];
                (format!("cpu{c}"), Value::Obj(stats))
            })
            .collect();
        let slow = self.readings.iter().filter(|r| r.2 >= SLOW * self.best_ms).count();
        Value::Obj(vec![
            ("cpu_at_end".into(), self.cpu.map_or(Value::Null, |c| Value::Int(c as i128))),
            ("moves".into(), Value::Int(self.moves as i128)),
            ("yardstick_best_ms".into(), Value::Num(self.best_ms)),
            ("readings_slow".into(), Value::Int(slow as i128)),
            ("per_cpu".into(), Value::Obj(per_cpu)),
            (
                "readings".into(),
                Value::Arr(
                    self.readings
                        .iter()
                        .map(|&(t, c, ms)| {
                            Value::Arr(vec![Value::Num(t), Value::Int(c as i128), Value::Num(ms)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Seconds the hypervisor has taken from `cpu` (from every CPU when
/// `None`) since boot: the `steal` column of `/proc/stat`.
pub fn steal_s(cpu: Option<usize>) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else { return 0.0 };
    let label = cpu.map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))
        .and_then(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Host facts recorded with every run.
pub fn facts() -> Value {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let name = t.lines().find_map(|l| l.strip_prefix("model name"))?;
            Some(name.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::Obj(vec![
        ("nproc".into(), Value::Int(nproc as i128)),
        ("cpus_allowed".into(), Value::Int(allowed_cpus().len() as i128)),
        ("simd_level".into(), Value::Str(format!("{:?}", simd_level()))),
        ("cpu".into(), Value::Str(cpu)),
        ("os".into(), Value::Str(std::env::consts::OS.into())),
        ("arch".into(), Value::Str(std::env::consts::ARCH.into())),
    ])
}

/// The checked-out commit, read from `.git` (`unknown` outside a git
/// checkout).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".into() };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    read(git.join(name))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            packed.lines().find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
