//! # stem-testkit — helpers shared by the workspace's tests and benches
//!
//! Only test, bench and measurement code depends on it: the test suites,
//! and `stem-bench`, whose experiments generator needs scratch stores too.

#![warn(missing_docs)]

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory unique to this call, removed when dropped —
/// including while a failing test unwinds.
///
/// The name combines a caller tag, the process id and a process-wide
/// counter, so parallel tests in one binary, and concurrent test binaries,
/// never share a directory (and so never meet each other's store `LOCK`).
///
/// `&TempDir` converts into a `PathBuf` and derefs to a `Path`, so it
/// drops in wherever a store or engine constructor takes a directory.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<system temp>/stem-<tag>-<pid>-<n>`, clearing any stale
    /// copy a killed earlier run left behind.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("stem-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", path.display()));
        TempDir { path }
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl From<&TempDir> for PathBuf {
    fn from(dir: &TempDir) -> PathBuf {
        dir.path.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_per_call_and_removed_on_drop() {
        let a = TempDir::new("unique");
        let b = TempDir::new("unique");
        assert_ne!(*a, *b);
        assert!(a.is_dir() && b.is_dir());
        fs::write(a.join("f"), b"x").unwrap();
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.is_dir());
    }

    #[test]
    fn removed_while_a_panic_unwinds() {
        let path = std::panic::catch_unwind(|| {
            let dir = TempDir::new("unwind");
            let path = dir.to_path_buf();
            std::panic::panic_any(path);
        })
        .unwrap_err()
        .downcast::<PathBuf>()
        .unwrap();
        assert!(!path.exists());
    }
}
