//! Fixed thread placement: the caller thread on one CPU, the runtime's
//! shard threads on the others.
//!
//! With two busy threads on a 2-CPU host, the scheduler's wake-affine
//! placement sometimes stacks the caller onto the shard's CPU (the caller
//! blocks on the shard's replies, and sync wake-ups pull it over) and
//! sometimes spreads them; a run then flips between two regimes
//! (~550k vs ~800k ev/s on `stock_keyed`), often mid-run. Pinning removes
//! that placement lottery so run-to-run spread reflects the program.

use std::io;

extern "C" {
    /// glibc `sched_setaffinity(2)`: `pid` 0 is the calling thread, any
    /// other value a thread id.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Mask words: room for CPUs 0..1024, the kernel's default `cpu_set_t`.
const WORDS: usize = 16;

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
fn pin(tid: i32, cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; WORDS];
    for &c in cpus {
        let word = mask
            .get_mut(c / 64)
            .ok_or_else(|| io::Error::other(format!("cpu {c} beyond the affinity mask")))?;
        *word |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialized array of exactly
    // `size_of_val(&mask)` bytes, which the call only reads.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Where threads go, from the CPUs the process may use: the caller on the
/// first, shards on the rest. `None` on a single CPU (nothing to split).
#[derive(Debug, Clone)]
pub struct Placement {
    caller: usize,
    shards: Vec<usize>,
}

impl Placement {
    /// Reads the allowed CPUs; `None` when there is only one.
    pub fn detect() -> io::Result<Option<Placement>> {
        let cpus = crate::procfs::allowed_cpus()?;
        Ok(match cpus.split_first() {
            Some((&caller, rest)) if !rest.is_empty() => {
                Some(Placement { caller, shards: rest.to_vec() })
            }
            _ => None,
        })
    }

    /// Pins the calling thread to the caller CPU. Threads it spawns from
    /// now on inherit that mask until [`Placement::pin_shards`] moves them.
    pub fn pin_caller(&self) -> io::Result<()> {
        pin(0, &[self.caller])
    }

    /// Pins every live `zstream-shard-*` thread to the shard CPUs.
    pub fn pin_shards(&self) -> io::Result<()> {
        for (tid, _) in crate::procfs::shard_threads()? {
            pin(tid, &self.shards)?;
        }
        Ok(())
    }
}
