//! Durable leadership leases with monotonic epochs.
//!
//! A lease is the cluster tier's fencing token: exactly one engine per
//! shard is supposed to append to the shard's WAL, and the lease's
//! `epoch` names which incarnation that is. The file lives next to the
//! WAL it guards (`LEASE` in the store directory) and is replaced
//! atomically (tmp + fsync + rename + dir sync), so a crash between
//! advances leaves either the old epoch or the new one — never a torn
//! record and never a *lower* epoch.
//!
//! Epochs only move through [`Lease::advance`], which re-reads the file
//! and writes `epoch + 1`: monotonicity holds by construction as long as
//! advances are serialised, which the single-coordinator router
//! guarantees (it owns every shard's failover path). The store enforces
//! the fence itself — see `Store::set_fence` — so a deposed leader's
//! late append is refused at the commit point, before any
//! acknowledgement can escape.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::record::{frame, scan_frame, FrameScan};
use stem_core::codec::{put_u64, Reader};

/// Magic prefix of the lease file.
pub const LEASE_MAGIC: &[u8; 8] = b"STEMLSE1";

/// Name of the lease file inside a store directory.
pub const LEASE_FILE: &str = "LEASE";

/// One leadership lease: who currently owns a shard's WAL, and at which
/// epoch. Higher epochs fence lower ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Monotonic fencing token; starts at 1 on the first advance.
    pub epoch: u64,
    /// Caller-chosen holder tag (e.g. a shard generation number).
    /// Informational — fencing compares epochs only.
    pub holder: u64,
}

impl Lease {
    /// Reads the lease recorded in `dir`, or `None` if no lease was ever
    /// granted there. A torn or checksum-invalid file is an error, not
    /// `None`: treating damage as "no lease" would let an epoch restart
    /// from zero and un-fence a deposed leader.
    pub fn load(dir: &Path) -> io::Result<Option<Lease>> {
        let path = dir.join(LEASE_FILE);
        let mut bytes = Vec::new();
        match fs::File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        let corrupt = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt lease file at {}", path.display()),
            )
        };
        let rest = bytes.strip_prefix(LEASE_MAGIC).ok_or_else(corrupt)?;
        let FrameScan::Ok { payload, rest } = scan_frame(rest) else {
            return Err(corrupt());
        };
        if !rest.is_empty() {
            return Err(corrupt());
        }
        let mut r = Reader::new(payload);
        let lease = Lease {
            epoch: r.u64().map_err(|_| corrupt())?,
            holder: r.u64().map_err(|_| corrupt())?,
        };
        if !r.is_empty() {
            return Err(corrupt());
        }
        Ok(Some(lease))
    }

    /// Grants the next lease in `dir` to `holder`: epoch = previous
    /// epoch + 1 (1 if none was ever granted), written atomically.
    /// Returns the new lease.
    pub fn advance(dir: &Path, holder: u64) -> io::Result<Lease> {
        let prev = Lease::load(dir)?.map_or(0, |l| l.epoch);
        let lease = Lease {
            epoch: prev + 1,
            holder,
        };
        let mut payload = Vec::with_capacity(16);
        put_u64(&mut payload, lease.epoch);
        put_u64(&mut payload, lease.holder);
        let mut bytes = LEASE_MAGIC.to_vec();
        bytes.extend_from_slice(&frame(&payload));

        let tmp = dir.join(format!("{LEASE_FILE}.tmp"));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, dir.join(LEASE_FILE))?;
        // Same best-effort directory fsync as the snapshot writer: the
        // rename must survive power loss on platforms that support it.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_testkit::TempDir;

    #[test]
    fn fresh_dir_has_no_lease_and_epochs_count_up() {
        let dir = TempDir::new("count");
        assert_eq!(Lease::load(&dir).unwrap(), None);
        assert_eq!(
            Lease::advance(&dir, 10).unwrap(),
            Lease {
                epoch: 1,
                holder: 10
            }
        );
        assert_eq!(
            Lease::advance(&dir, 11).unwrap(),
            Lease {
                epoch: 2,
                holder: 11
            }
        );
        // Re-read sees the latest grant.
        assert_eq!(
            Lease::load(&dir).unwrap(),
            Some(Lease {
                epoch: 2,
                holder: 11
            })
        );
    }

    #[test]
    fn corrupt_lease_is_an_error_not_a_reset() {
        let dir = TempDir::new("corrupt");
        Lease::advance(&dir, 1).unwrap();
        // Flip one payload byte: the checksum must catch it and the
        // failure must be loud — a silent None would restart epochs.
        let path = dir.join(LEASE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(Lease::load(&dir).is_err());
        assert!(Lease::advance(&dir, 2).is_err(), "advance must not reset");
    }

    #[test]
    fn leftover_tmp_is_ignored() {
        let dir = TempDir::new("tmp");
        Lease::advance(&dir, 5).unwrap();
        fs::write(dir.join("LEASE.tmp"), b"garbage from a crashed advance").unwrap();
        assert_eq!(Lease::load(&dir).unwrap().unwrap().epoch, 1);
        assert_eq!(Lease::advance(&dir, 6).unwrap().epoch, 2);
    }
}
