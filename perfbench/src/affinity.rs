//! Pinning the measuring thread to one CPU at a time.
//!
//! On a shared VM the vCPUs run at different speeds from moment to
//! moment: each one's sibling hyperthread belongs to someone else. A
//! thread left to the scheduler stays on one of them, so a run's time
//! follows whichever it landed on. The measured repetitions therefore
//! take turns on every allowed CPU, and each operation's best time is
//! the one reported.

use std::os::raw::c_int;

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Highest CPU index a mask can name.
const MAX_CPUS: usize = 1024;

/// The CPUs the calling thread may run on (`Cpus_allowed_list` in
/// `/proc/thread-self/status`); empty when unknown.
#[must_use]
pub fn allowed() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend((lo..=hi).take_while(|&c| c < MAX_CPUS));
        }
    }
    cpus
}

/// Restricts the calling thread to `cpus`. Returns `false`, leaving the
/// affinity as it was, when the kernel refuses or a CPU is out of range.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MAX_CPUS / 64];
    for &cpu in cpus {
        if cpu >= MAX_CPUS {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is an initialised buffer of exactly
    // `size_of_val(&mask)` bytes that outlives the call, and the kernel
    // only reads it. pid 0 names the calling thread.
    #[allow(unsafe_code)]
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_each_allowed_cpu_and_back() {
        let cpus = allowed();
        assert!(!cpus.is_empty(), "Cpus_allowed_list is readable");
        for &cpu in &cpus {
            assert!(pin(&[cpu]));
            assert_eq!(allowed(), vec![cpu]);
        }
        assert!(pin(&cpus));
        assert_eq!(allowed(), cpus);
        assert!(!pin(&[MAX_CPUS]));
    }
}
