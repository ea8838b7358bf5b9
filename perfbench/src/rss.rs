//! Peak resident set size of this process.
//!
//! Read from the kernel's `VmHWM` line for this process, which starts
//! afresh at `exec`. (`getrusage`'s `ru_maxrss` does not: it would report
//! `cargo`'s own peak when the benchmark runs under `cargo run`.)

/// Peak resident set size in MiB.
///
/// # Errors
///
/// Fails where the kernel does not report `VmHWM` (outside Linux).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read this process's status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "the kernel reports no VmHWM for this process".into())
}
