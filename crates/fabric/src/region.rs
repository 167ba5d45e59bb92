//! Registered RDMA memory regions.
//!
//! Real NICs perform one-sided operations against memory the target has
//! *registered* (pinned and keyed). We model a region as fabric-owned byte
//! storage addressed by a [`RegionKey`]: initiators read/write/atomically
//! update it directly, with **no involvement of the target rank's thread**,
//! which is exactly the property that lets the CH4 netmod implement
//! `MPI_PUT` as a handful of instructions (paper §2).
//!
//! A per-region lock serializes concurrent access. That is stronger than
//! real RDMA for put/get (which give no atomicity), but it is what MPI
//! requires of `MPI_ACCUMULATE`-family operations (element-wise atomicity),
//! and it keeps the simulation data-race-free without `unsafe`.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Remote key naming a registered region fabric-wide (an "rkey").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionKey(pub u64);

/// A registered memory region (shared handle).
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    key: RegionKey,
    inner: Arc<RegionInner>,
}

#[derive(Debug)]
pub(crate) struct RegionInner {
    mem: Mutex<Vec<u8>>,
}

impl MemoryRegion {
    pub(crate) fn new(key: RegionKey, len: usize) -> Self {
        MemoryRegion {
            key,
            inner: Arc::new(RegionInner {
                mem: Mutex::new(vec![0u8; len]),
            }),
        }
    }

    /// The region's remote key.
    pub fn key(&self) -> RegionKey {
        self.key
    }

    /// Registered length in bytes.
    pub fn len(&self) -> usize {
        self.inner.mem.lock().len()
    }

    /// `true` for a zero-length registration (legal in MPI: a process may
    /// expose no memory in a window).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-sided write of `data` at `offset`. Panics on out-of-range access
    /// — a real NIC would raise a protection error; tests assert on it.
    pub fn write(&self, offset: usize, data: &[u8]) {
        let mut mem = self.inner.mem.lock();
        let end = offset.checked_add(data.len()).expect("rdma write overflow");
        assert!(
            end <= mem.len(),
            "rdma write out of registered range ({end} > {})",
            mem.len()
        );
        mem[offset..end].copy_from_slice(data);
    }

    /// One-sided read of `len` bytes at `offset`, copied out.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        self.read_with(offset, len, <[u8]>::to_vec)
    }

    /// One-sided read of `len` bytes at `offset`, lent to `f` under the
    /// region lock: the initiator copies (or unpacks) them straight to
    /// where they go, with no buffer in between.
    pub fn read_with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let mem = self.inner.mem.lock();
        let end = offset.checked_add(len).expect("rdma read overflow");
        assert!(
            end <= mem.len(),
            "rdma read out of registered range ({end} > {})",
            mem.len()
        );
        f(&mem[offset..end])
    }

    /// Read-modify-write under `f`, holding the region lock for the whole
    /// update — the primitive beneath MPI accumulate and atomic operations.
    pub fn update(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8])) {
        let mut mem = self.inner.mem.lock();
        let end = offset.checked_add(len).expect("rdma update overflow");
        assert!(end <= mem.len(), "rdma update out of registered range");
        f(&mut mem[offset..end]);
    }
}

// --------------------------------------------------------- pin-down cache

/// Per-peer registration (pin-down) cache, after Liu et al., *High
/// Performance RDMA-Based MPI Implementation over InfiniBand*: memory
/// registration is the dominant fixed cost of an RDMA transfer, so
/// transport buffers are registered once and recycled across transfers to
/// the same peer instead of pinned/unpinned per message.
///
/// Regions are binned by `(peer, power-of-two size class)` so a recycled
/// buffer is always at least as large as the transfer that reuses it. The
/// cache holds at most `capacity` regions in total; a release that would
/// overflow it hands the region back to the caller for deregistration
/// (bounded pin-down footprint, like the real cache's eviction).
#[derive(Debug)]
pub struct RegistrationCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    bins: HashMap<(u64, u32), Vec<MemoryRegion>>,
    total: usize,
}

impl RegistrationCache {
    /// A cache bounded at `capacity` cached registrations.
    pub fn new(capacity: usize) -> Self {
        RegistrationCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
        }
    }

    /// The power-of-two size class a `len`-byte transfer bins into.
    pub fn size_class(len: usize) -> u32 {
        len.max(1).next_power_of_two().trailing_zeros()
    }

    /// Registered length of a size class (every cached region in the class
    /// has exactly this length).
    pub fn class_len(class: u32) -> usize {
        1usize << class
    }

    /// Pop a cached registration covering a `len`-byte transfer to `peer`,
    /// if one exists (a cache *hit*).
    pub fn take(&self, peer: u64, len: usize) -> Option<MemoryRegion> {
        let class = Self::size_class(len);
        let mut inner = self.inner.lock();
        let region = inner.bins.get_mut(&(peer, class))?.pop()?;
        inner.total -= 1;
        Some(region)
    }

    /// Return a registration to `peer`'s bin. `None` when cached; when the
    /// cache is at capacity the region comes straight back (`Some`) and the
    /// caller must deregister it.
    pub fn put(&self, peer: u64, region: MemoryRegion) -> Option<MemoryRegion> {
        let class = Self::size_class(region.len());
        let mut inner = self.inner.lock();
        if inner.total >= self.capacity {
            return Some(region);
        }
        inner.bins.entry((peer, class)).or_default().push(region);
        inner.total += 1;
        None
    }

    /// Number of registrations currently cached (all peers).
    pub fn cached(&self) -> usize {
        self.inner.lock().total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(len: usize) -> MemoryRegion {
        MemoryRegion::new(RegionKey(1), len)
    }

    #[test]
    fn write_then_read() {
        let r = region(16);
        r.write(4, &[1, 2, 3, 4]);
        assert_eq!(r.read(4, 4), vec![1, 2, 3, 4]);
        assert_eq!(r.read(0, 4), vec![0, 0, 0, 0]);
        let mut out = [0u8; 2];
        let n = r.read_with(5, 2, |b| {
            out.copy_from_slice(b);
            b.len()
        });
        assert_eq!((n, out), (2, [2, 3]));
    }

    #[test]
    #[should_panic(expected = "out of registered range")]
    fn write_past_end_panics() {
        region(8).write(5, &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of registered range")]
    fn read_past_end_panics() {
        region(8).read(8, 1);
    }

    #[test]
    fn zero_length_region_is_legal() {
        let r = region(0);
        assert!(r.is_empty());
        r.write(0, &[]); // zero-byte access at offset 0 is fine
        assert_eq!(r.read(0, 0), Vec::<u8>::new());
    }

    #[test]
    fn update_applies_closure_atomically() {
        let r = region(4);
        r.update(0, 4, |bytes| {
            for b in bytes.iter_mut() {
                *b = 0xAA;
            }
        });
        assert_eq!(r.read(0, 4), vec![0xAA; 4]);
    }

    #[test]
    fn reg_cache_hit_requires_matching_peer_and_class() {
        let cache = RegistrationCache::new(8);
        let len = RegistrationCache::class_len(RegistrationCache::size_class(1000));
        assert_eq!(len, 1024);
        assert!(cache.put(1, MemoryRegion::new(RegionKey(7), len)).is_none());
        // Wrong peer and wrong size class both miss.
        assert!(cache.take(2, 1000).is_none());
        assert!(cache.take(1, 5000).is_none());
        // Any length in the same class hits.
        let r = cache.take(1, 600).expect("hit");
        assert_eq!(r.key(), RegionKey(7));
        assert_eq!(cache.cached(), 0);
    }

    #[test]
    fn reg_cache_bounds_pinned_regions() {
        let cache = RegistrationCache::new(2);
        assert!(cache.put(1, region(64)).is_none());
        assert!(cache.put(1, region(64)).is_none());
        // Third release overflows: handed back for deregistration.
        let rejected = cache.put(1, region(64));
        assert!(rejected.is_some());
        assert_eq!(cache.cached(), 2);
    }

    #[test]
    fn concurrent_atomics_do_not_lose_updates() {
        let r = region(8);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.update(0, 8, |b| {
                            let v = u64::from_le_bytes(b.try_into().expect("8 bytes"));
                            b.copy_from_slice(&(v + 1).to_le_bytes());
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(u64::from_le_bytes(r.read(0, 8).try_into().unwrap()), 4000);
    }
}
