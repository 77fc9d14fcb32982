//! Where threads run, and what the host took from them.
//!
//! The load generator gets one CPU to itself; the system under test —
//! engine threads, worker pool, query client, and the set-up and
//! verification around them — gets the others. A generator that shares
//! CPUs with compute-bound threads waits out their time slices when it
//! wakes, and the wait shows up as late sends and as visibility
//! latency that is not the engine's. Threads inherit their creator's
//! CPUs, and the worker pool sizes itself by the CPUs its creator may
//! use, so the system under test behaves by its shipped defaults on the
//! CPUs it is given.
//!
//! On a virtual machine the host can still take a CPU away; Linux
//! counts that as *steal* in `/proc/stat`, which is read here so that a
//! result says how much of it there was.

use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of glibc and musl: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending; empty when
    /// the kernel will not say.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: pid 0 is the calling thread; the kernel writes at most
        // `size` bytes into `mask`, which is that large and live.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; `false` when refused.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: pid 0 is the calling thread; the kernel reads `size`
        // bytes from `mask`, which is that large and live, and changes
        // nothing but where this thread may run.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

/// The CPUs of this process, split between the load generator and the
/// system under test. With fewer than two CPUs (or none known) nothing
/// is pinned and everything shares.
#[derive(Debug)]
pub struct Placement {
    generator: Option<usize>,
    sut: Vec<usize>,
}

impl Placement {
    /// The process's placement, decided from the CPUs the first caller
    /// may use — so call it before pinning anything.
    pub fn get() -> &'static Placement {
        static PLACEMENT: OnceLock<Placement> = OnceLock::new();
        PLACEMENT.get_or_init(|| {
            let cpus = sys::allowed();
            // A sandbox may tell a thread where it runs and still not
            // let it choose; then everything shares.
            Placement::of(if sys::pin(&cpus) { cpus } else { Vec::new() })
        })
    }

    fn of(cpus: Vec<usize>) -> Placement {
        match cpus.split_first() {
            Some((&first, rest)) if !rest.is_empty() => Placement {
                generator: Some(first),
                sut: rest.to_vec(),
            },
            _ => Placement {
                generator: None,
                sut: cpus,
            },
        }
    }

    /// Moves the calling thread, and every thread it starts from now
    /// on, to the CPUs of the system under test.
    pub fn enter_sut(&self) {
        if self.generator.is_some() {
            assert!(sys::pin(&self.sut), "cannot move to CPUs {:?}", self.sut);
        }
    }

    /// Moves the calling thread to the load generator's CPU.
    pub fn enter_generator(&self) {
        if let Some(cpu) = self.generator {
            assert!(sys::pin(&[cpu]), "cannot move to CPU {cpu}");
        }
    }

    /// How many CPUs the process has in all.
    pub fn cpus(&self) -> usize {
        match self.sut.len() + usize::from(self.generator.is_some()) {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// The generator's CPU, if it has one of its own.
    pub fn generator_cpu(&self) -> Option<usize> {
        self.generator
    }

    /// For the environment stamp.
    pub fn describe(&self) -> String {
        match self.generator {
            Some(cpu) => format!(
                "load generator alone on cpu {cpu}; system under test on cpus {:?}",
                self.sut
            ),
            None => {
                "fewer than two usable CPUs: load generator and system under test share".to_string()
            }
        }
    }
}

/// Seconds the host has kept CPUs from this machine since boot, as
/// `/proc/stat` counts them: on `cpu` alone, or on all CPUs together.
/// 0 where there is no such file.
pub fn steal_seconds(cpu: Option<usize>) -> f64 {
    /// `/proc/stat` counts in units of 1/USER_HZ, which is 100 on every
    /// Linux ABI.
    const USER_HZ: f64 = 100.0;
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    // label user nice system idle iowait irq softirq steal ...
    stat.lines()
        .map(|line| line.split_ascii_whitespace().collect::<Vec<_>>())
        .find(|fields| fields.first() == Some(&label.as_str()))
        .and_then(|fields| fields.get(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_cpu_is_the_generators_when_there_are_two() {
        let p = Placement::of(vec![2, 3, 5]);
        assert_eq!(p.generator_cpu(), Some(2));
        assert_eq!((p.sut.as_slice(), p.cpus()), ([3, 5].as_slice(), 3));
        let shared = Placement::of(vec![4]);
        assert_eq!(shared.generator_cpu(), None);
        assert!(shared.describe().contains("share"));
        assert_eq!(Placement::of(Vec::new()).generator_cpu(), None);
    }

    #[test]
    fn pinning_moves_a_thread_and_its_children() {
        let before = sys::allowed();
        if before.len() < 2 {
            return;
        }
        std::thread::spawn(move || {
            assert!(sys::pin(&before[1..]));
            assert_eq!(sys::allowed(), before[1..]);
            let inherited = std::thread::spawn(sys::allowed).join().unwrap();
            assert_eq!(inherited, before[1..]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn steal_is_a_running_total() {
        let (a, b) = (steal_seconds(None), steal_seconds(None));
        assert!(a >= 0.0 && b >= a);
    }
}
