//! Scratch directories for durable stores that cannot collide and never
//! outlive their owner.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory unique to this call — named from the process id, a
/// process-wide counter and a caller tag — removed when dropped, including
/// while a panic unwinds. Two concurrent callers in one process (parallel
/// tests) or in two processes never share one, so neither can meet the
/// other's store lock.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<base>/<tag>-<pid>-<n>`, clearing any stale copy.
    pub fn new(base: &Path, tag: &str) -> io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}
