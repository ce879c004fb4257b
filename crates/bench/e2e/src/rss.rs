//! Peak resident memory of this process, from the kernel's `VmHWM`.

/// `VmHWM` of this process in MB (2^20 bytes), read from
/// `/proc/self/status`.
///
/// # Errors
///
/// Returns a description when the file cannot be read or holds no
/// well-formed `VmHWM` line (a kernel without procfs).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    vm_hwm_mb(&status)
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text (the kernel
/// reports kB) into MB of 2^20 bytes.
pub fn vm_hwm_mb(status: &str) -> Result<f64, String> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let mut fields = line.split_whitespace();
    let kb: u64 = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed VmHWM value {line:?}"))?;
    match fields.next() {
        Some("kB") => Ok(kb as f64 / 1024.0),
        other => Err(format!("unexpected VmHWM unit {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let status =
            "Name:\trcast-e2e\nVmPeak:\t  210000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(vm_hwm_mb(status), Ok(50.0));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert!(vm_hwm_mb("VmRSS:\t 100 kB\n").is_err());
        assert!(vm_hwm_mb("VmHWM:\t lots kB\n").is_err());
        assert!(vm_hwm_mb("VmHWM:\t 100 MB\n").is_err());
        assert!(vm_hwm_mb("VmHWM:\t 100\n").is_err());
    }

    #[test]
    fn reads_this_process() {
        let mb = peak_rss_mb().expect("procfs is mounted");
        assert!(mb > 0.0, "{mb}");
    }
}
