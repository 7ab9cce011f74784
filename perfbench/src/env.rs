//! Environment stamp and guard.

/// Variables that silently change which code path is measured: the SIMD
/// tier, the reshape chunk count, and the executor's worker count and
/// fan-out grain.
pub const REFUSED_VARS: [&str; 4] = [
    "FFT_SIMD",
    "FFT_RESHAPE_CHUNKS",
    "FFT_EXEC_THREADS",
    "FFT_EXEC_GRAIN",
];

/// Refuses to run when any of [`REFUSED_VARS`] is set.
pub fn refuse_overrides() -> Result<(), String> {
    let set: Vec<&str> = REFUSED_VARS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; each one changes the measured code path",
            set.join(", ")
        ))
    }
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line naming the toolchain, source revision and host.
pub fn stamp() -> String {
    format!(
        "env: rustc={:?} git={} nproc={} simd_tier={:?} cpu_features={:?}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        nproc(),
        fftkern::simd::active_tier(),
        fftkern::simd::detected_features()
    )
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (`Cpus_allowed_list`), empty where the
/// kernel does not report them.
pub fn allowed_cpus() -> Vec<usize> {
    let list = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default();
    parse_cpu_list(&list).unwrap_or_default()
}

/// Parses a kernel CPU list such as `0-1,4`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => cpus.extend(a.parse::<usize>().ok()?..=b.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

/// Pins the calling thread to `cpu` with `taskset -cp` (the crate has no
/// system-call bindings) and waits for it; `false` when the pin failed.
pub fn pin_current_thread(cpu: usize) -> bool {
    let Some(tid) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|t| t.to_string_lossy().into_owned()))
    else {
        return false;
    };
    std::process::Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &tid])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_like_the_kernel_prints_them() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-3,7"), Some(vec![0, 2, 3, 7]));
        assert_eq!(parse_cpu_list(""), Some(vec![]));
        assert_eq!(parse_cpu_list("x"), None);
    }
}
