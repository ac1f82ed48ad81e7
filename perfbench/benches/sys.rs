//! Process facts the benchmark reads from the kernel: peak resident
//! memory, its reset, and the scratch directory inside the checkout.

use std::path::{Path, PathBuf};

/// Directory, relative to the checkout root, that holds everything a
/// run leaves behind: result and span files, plus one scratch
/// directory per process for archives (removed at exit).
pub const OUT_DIR: &str = ".perfbench";

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    i2pscope::telemetry::rss::peak_rss_kb()
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "VmHWM is not readable from /proc/self/status".to_string())
}

/// Resets `VmHWM` to the current resident size, so the next read
/// covers only what runs after this call. Free heap memory is handed
/// back to the kernel first: otherwise what an earlier phase freed but
/// the allocator kept would count as the next phase's peak.
pub fn reset_peak_rss() -> Result<(), String> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// Fixes glibc's mmap threshold at its initial 128 KiB. By default
/// glibc raises the threshold (up to 32 MiB) each time a mapped block is
/// freed, so whether a large buffer is mapped — and whether growing it
/// copies it, doubling it in memory for a moment — depends on what was
/// freed before and on the buffer's size. That made `setup_peak_rss_mb`
/// jump by a third between seeds whose largest vectors fall on either
/// side of the moving threshold, and `peak_rss_mb` differ between runs
/// of one seed. With the threshold fixed, every large buffer is mapped,
/// grows in place and goes back to the kernel when freed.
#[cfg(target_env = "gnu")]
pub fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;
    // SAFETY: `mallopt` takes two integers and only updates glibc's
    // allocator parameters under its own lock.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(target_env = "gnu"))]
pub fn pin_mmap_threshold() {}

#[cfg(target_env = "gnu")]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers, accepts any pad value,
    // and only walks glibc's own arenas under their locks.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(target_env = "gnu"))]
fn release_free_heap() {}

/// A per-process scratch directory under [`OUT_DIR`], removed with
/// everything in it when dropped (also while a panic unwinds).
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.perfbench/tmp-<pid>`, replacing any leftover of the
    /// same name.
    pub fn create() -> Result<ScratchDir, String> {
        let path = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("creating scratch dir {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Writes `text` to `.perfbench/<name>` and returns the path.
pub fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
