//! What the benchmark asks of the host rather than of the product: peak
//! resident memory, a fixed spin that exposes a noisy neighbour, and a
//! scratch directory inside the checkout.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed amount of integer work on one thread, milliseconds. It touches no
/// product code and almost no memory, so on a quiet box it reads the same
/// every time; a run where it does not was taken next to something else.
pub fn spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..40_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// A fresh directory under `.bench_tmp/` in the working directory (the
/// checkout root), removed again when dropped. Checkpoints go here: the
/// benchmark writes nowhere outside its checkout.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let dir = PathBuf::from(".bench_tmp").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under .bench_tmp");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh empty subdirectory, replacing any earlier one of that name.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the last run.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Bytes of every file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
