//! Fault injection: a [`StoreFile`] that dies after a byte budget.
//!
//! [`FailingFile`] writes through to a real file until a shared budget
//! runs out, then *short-writes* the final chunk and fails every later
//! operation. What lands on disk is exactly the prefix a crash at that
//! byte would leave — the crash-matrix tests sweep the budget across
//! every byte of a scripted workload and assert recovery reconstructs
//! precisely the acknowledged prefix each time.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::store::{FileFactory, StoreFile};

/// Shared budget of bytes that may still reach disk, across every file
/// the factory opens (the "power supply" of the simulated machine).
#[derive(Debug, Clone)]
pub struct ByteBudget(Arc<AtomicU64>);

impl ByteBudget {
    /// A budget of `n` writable bytes.
    pub fn new(n: u64) -> Self {
        ByteBudget(Arc::new(AtomicU64::new(n)))
    }

    /// Bytes left before the injected crash.
    pub fn remaining(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Claims up to `want` bytes; returns how many were granted.
    fn claim(&self, want: u64) -> u64 {
        let mut cur = self.0.load(Ordering::SeqCst);
        loop {
            let grant = cur.min(want);
            match self
                .0
                .compare_exchange(cur, cur - grant, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return grant,
                Err(now) => cur = now,
            }
        }
    }
}

/// The error every post-crash operation returns.
fn crashed() -> io::Error {
    io::Error::other("injected crash: byte budget exhausted")
}

/// A real file that honours a [`ByteBudget`].
pub struct FailingFile {
    inner: fs::File,
    budget: ByteBudget,
}

impl FailingFile {
    /// Wraps `inner` under `budget`.
    pub fn new(inner: fs::File, budget: ByteBudget) -> Self {
        FailingFile { inner, budget }
    }
}

impl Write for FailingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let grant = self.budget.claim(buf.len() as u64) as usize;
        if grant == 0 {
            return Err(crashed());
        }
        // Short write of the granted prefix: callers using write_all will
        // come back for the rest and hit the exhausted budget — exactly a
        // torn frame on disk.
        self.inner.write_all(&buf[..grant])?;
        Ok(grant)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.budget.remaining() == 0 {
            return Err(crashed());
        }
        self.inner.flush()
    }
}

impl StoreFile for FailingFile {
    fn sync(&mut self) -> io::Result<()> {
        if self.budget.remaining() == 0 {
            return Err(crashed());
        }
        self.inner.sync_data()
    }

    /// A crashed machine cuts nothing: once the budget is spent the torn
    /// tail stays on disk for recovery to find.
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if self.budget.remaining() == 0 {
            return Err(crashed());
        }
        self.inner.truncate(len)
    }
}

/// A [`FileFactory`] whose files share one byte budget. File creation
/// itself stays free (metadata, not data bytes); once the budget is
/// exhausted, opens fail too.
pub fn failing_factory(budget: ByteBudget) -> FileFactory {
    Box::new(move |path: &Path| {
        if budget.remaining() == 0 {
            return Err(crashed());
        }
        let f = fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(FailingFile::new(f, budget.clone())) as Box<dyn StoreFile>)
    })
}

/// A real file whose fsync fails while a shared flag is set: a transient
/// sync error, after which the disk works again. Writes and truncation
/// always go through.
struct FlakySyncFile {
    inner: fs::File,
    fail: Arc<AtomicBool>,
}

impl Write for FlakySyncFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl StoreFile for FlakySyncFile {
    fn sync(&mut self) -> io::Result<()> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

/// A [`FileFactory`] of real files whose `sync` fails while `fail` is
/// set — a transient fsync error — and works again once it is cleared.
pub fn flaky_sync_factory(fail: Arc<AtomicBool>) -> FileFactory {
    Box::new(move |path: &Path| {
        let inner = fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        let fail = Arc::clone(&fail);
        Ok(Box::new(FlakySyncFile { inner, fail }) as Box<dyn StoreFile>)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_claims_exactly() {
        let b = ByteBudget::new(10);
        assert_eq!(b.claim(4), 4);
        assert_eq!(b.claim(7), 6);
        assert_eq!(b.claim(1), 0);
        assert_eq!(b.remaining(), 0);
    }
}
