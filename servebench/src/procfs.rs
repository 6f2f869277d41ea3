//! Outside-in thread and process accounting from `/proc`.
//!
//! `/proc/self/task/<tid>/schedstat` holds three numbers per thread: time
//! on CPU (ns), time runnable but waiting for a CPU (ns), and timeslices.
//! The runtime names its shard threads `zstream-shard-N`, so they are found
//! by `comm` without touching the program. A joined thread's entry
//! vanishes, so shard threads must be read before `Runtime::shutdown`.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};

/// One thread's cumulative scheduler accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running on a CPU, ns.
    pub cpu_ns: u64,
    /// Time spent runnable on a run queue, waiting for a CPU, ns.
    pub wait_ns: u64,
}

impl SchedStat {
    /// The accounting accumulated from `earlier` to `self`.
    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

fn parse_schedstat(text: &[u8]) -> io::Result<SchedStat> {
    let text = std::str::from_utf8(text).map_err(|e| io::Error::other(e.to_string()))?;
    let mut it = text.split_ascii_whitespace().map(str::parse::<u64>);
    match (it.next(), it.next()) {
        (Some(Ok(cpu_ns)), Some(Ok(wait_ns))) => Ok(SchedStat { cpu_ns, wait_ns }),
        _ => Err(io::Error::other(format!("unparsable schedstat: {text:?}"))),
    }
}

/// The calling thread's schedstat file, kept open and re-read in place
/// (no allocation per read), for per-call accounting of the caller thread.
#[derive(Debug)]
pub struct OwnSchedStat {
    file: File,
    buf: [u8; 128],
}

impl OwnSchedStat {
    /// Opens the calling thread's entry.
    pub fn open() -> io::Result<OwnSchedStat> {
        Ok(OwnSchedStat { file: File::open("/proc/thread-self/schedstat")?, buf: [0; 128] })
    }

    /// Current cumulative accounting of the thread that opened this.
    pub fn read(&mut self) -> io::Result<SchedStat> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut n = 0;
        loop {
            let got = self.file.read(&mut self.buf[n..])?;
            if got == 0 || n + got == self.buf.len() {
                n += got;
                break;
            }
            n += got;
        }
        parse_schedstat(&self.buf[..n])
    }
}

/// Thread ids and schedstat of every live runtime shard thread (`comm`
/// starting with `zstream-shard-`).
pub fn shard_threads() -> io::Result<Vec<(i32, SchedStat)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task")? {
        let dir = entry?.path();
        let Some(tid) = dir.file_name().and_then(|n| n.to_str()?.parse::<i32>().ok()) else {
            continue;
        };
        // A thread may exit between listing and reading: skip it.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        if !comm.starts_with("zstream-shard-") {
            continue;
        }
        let Ok(raw) = std::fs::read(dir.join("schedstat")) else { continue };
        out.push((tid, parse_schedstat(&raw)?));
    }
    Ok(out)
}

/// Summed schedstat of the live shard threads.
pub fn shard_total() -> io::Result<SchedStat> {
    Ok(shard_threads()?.iter().fold(SchedStat::default(), |acc, (_, s)| SchedStat {
        cpu_ns: acc.cpu_ns + s.cpu_ns,
        wait_ns: acc.wait_ns + s.wait_ns,
    }))
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or_else(|| io::Error::other("no Cpus_allowed_list in /proc/self/status"))?;
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> io::Result<Vec<usize>> {
    let bad = |e: std::num::ParseIntError| io::Error::other(format!("cpu list {list:?}: {e}"));
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                let (lo, hi): (usize, usize) = (a.parse().map_err(bad)?, b.parse().map_err(bad)?);
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.parse().map_err(bad)?),
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    Ok(cpus)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| io::Error::other(format!("unparsable VmHWM line {line:?}: {e}")))?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_line() {
        let s = parse_schedstat(b"123 456 7\n").expect("parses");
        assert_eq!(s, SchedStat { cpu_ns: 123, wait_ns: 456 });
        assert!(parse_schedstat(b"x y z").is_err());
    }

    #[test]
    fn parses_cpu_lists() {
        assert_eq!(parse_cpu_list("0-1").expect("parses"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3,5").expect("parses"), vec![0, 2, 3, 5]);
        assert!(parse_cpu_list("0-x").is_err());
        assert!(!allowed_cpus().expect("status readable").is_empty());
    }

    #[test]
    fn own_schedstat_advances_with_work() {
        let mut own = OwnSchedStat::open().expect("procfs available");
        let a = own.read().expect("reads");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = own.read().expect("reads");
        assert!(b.cpu_ns >= a.cpu_ns, "cpu time is cumulative");
        assert!(peak_rss_mb().expect("status readable") > 0.0);
    }
}
