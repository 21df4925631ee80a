//! The one module through which the benchmark calls `sage_serve` and
//! `sage_graph::io`. Every service start, submit, publish, snapshot, graph
//! write and graph load goes through here, so an API change in either
//! module (say, `publish_updates` losing its path argument, or the two
//! service fronts folding into one) touches this file only.

use sage_core::{DeltaOverlay, EdgeUpdate};
use sage_graph::io::{self, Placement};
use sage_graph::{CompressedCsr, Csr, ShardedCsr};
use sage_serve::{GraphService, Publishable, ServiceBuilder, ShardedService, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use sage_serve::{PublishError, PublishReport, Query, Response, ServiceStats, Ticket};

/// A private directory for the graph files one run writes. Dropping it
/// removes the directory and everything in it.
pub struct Store {
    dir: PathBuf,
    next: AtomicU64,
}

impl Store {
    /// Create `<root>/<tag>-<pid>`, replacing any leftover of that name.
    pub fn create(root: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = root.join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            next: AtomicU64::new(0),
        })
    }

    /// A path no earlier call returned (a live snapshot's file is never
    /// reused, so publishing never rewrites a mapped file).
    pub fn fresh_path(&self, stem: &str) -> PathBuf {
        // ORDERING: Relaxed — a unique-name counter; it publishes no data.
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{stem}-{k}.sage"))
    }

    /// Total bytes of the files whose name starts with `stem`.
    pub fn bytes_of(&self, stem: &str) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with(stem))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Errors are ignored: a drop must not panic, and a leftover
        // directory is replaced by the next run of the same name.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Persist a plain CSR (the NVRAM write of set-up).
pub fn write_csr(g: &Csr, path: &Path) -> std::io::Result<()> {
    io::write_csr(g, path)
}

/// Words [`write_csr`] writes for `g`.
pub fn csr_file_words(g: &Csr) -> u64 {
    io::csr_file_words(g)
}

/// Map a plain CSR file read-only.
pub fn load_csr(path: &Path) -> std::io::Result<Csr> {
    io::load_csr(path, Placement::Nvram)
}

/// Persist a sharded graph (manifest plus one file per shard).
pub fn write_sharded(g: &ShardedCsr, path: &Path) -> std::io::Result<()> {
    io::write_sharded(g, path)
}

/// Map a sharded graph read-only, one region per shard.
pub fn load_sharded(path: &Path) -> std::io::Result<ShardedCsr> {
    io::load_sharded(path, Placement::Nvram)
}

/// Persist a compressed graph.
pub fn write_compressed(g: &CompressedCsr, path: &Path) -> std::io::Result<()> {
    io::write_compressed(g, path)
}

/// Map a compressed graph read-only.
pub fn load_compressed(path: &Path) -> std::io::Result<CompressedCsr> {
    io::load_compressed(path, Placement::Nvram)
}

/// A served snapshot of either front, tagged with its epoch.
#[derive(Clone)]
pub enum Snap {
    /// A monolithic plain CSR.
    Mono(Snapshot<Csr>),
    /// A vertex-range sharded CSR.
    Sharded(Snapshot<ShardedCsr>),
}

impl Snap {
    /// The epoch the snapshot served under.
    pub fn epoch(&self) -> u64 {
        match self {
            Snap::Mono(s) => s.epoch(),
            Snap::Sharded(s) => s.epoch(),
        }
    }
}

/// A running service: the monolithic front or the sharded one.
pub enum Service {
    /// `GraphService<Csr>`, plus the file of the epoch it serves.
    Mono {
        /// The service.
        service: GraphService<Csr>,
        /// File backing the current epoch (the base of the next publish).
        current: Mutex<PathBuf>,
    },
    /// `ShardedService`.
    Sharded(ShardedService),
}

impl Service {
    /// The interactive preset with `workers` serving threads over a plain
    /// CSR mapped from `path`; `publish_budget_words` gates each publish.
    pub fn start_mono(g: Csr, path: &Path, workers: usize, publish_budget_words: u64) -> Self {
        let service = ServiceBuilder::interactive()
            .workers(workers)
            .publish_budget_words(publish_budget_words)
            .start(g);
        Service::Mono {
            service,
            current: Mutex::new(path.to_path_buf()),
        }
    }

    /// The interactive preset with `workers` serving threads over a
    /// sharded graph.
    pub fn start_sharded(g: ShardedCsr, workers: usize) -> Self {
        Service::Sharded(
            ServiceBuilder::interactive()
                .workers(workers)
                .start_sharded(g),
        )
    }

    /// Enqueue a query.
    pub fn submit(&self, q: Query) -> Ticket {
        match self {
            Service::Mono { service, .. } => service.submit(q),
            Service::Sharded(s) => s.submit(q),
        }
    }

    /// Serving statistics.
    pub fn stats(&self) -> ServiceStats {
        match self {
            Service::Mono { service, .. } => service.stats(),
            Service::Sharded(s) => s.stats(),
        }
    }

    /// The snapshot currently served.
    pub fn snapshot(&self) -> Snap {
        match self {
            Service::Mono { service, .. } => Snap::Mono(service.snapshot()),
            Service::Sharded(s) => Snap::Sharded(s.snapshot()),
        }
    }

    fn mono(&self) -> (&GraphService<Csr>, &Mutex<PathBuf>) {
        match self {
            Service::Mono { service, current } => (service, current),
            Service::Sharded(_) => panic!("publishing is driven on the monolithic front only"),
        }
    }

    /// Publish `updates` through the service's own pipeline to a fresh
    /// file in `store`.
    pub fn publish_updates(
        &self,
        updates: &[EdgeUpdate],
        store: &Store,
    ) -> Result<PublishReport, PublishError> {
        let (service, current) = self.mono();
        let path = store.fresh_path("epoch");
        let report = service.publish_updates(updates, &path)?;
        *current.lock().expect("current-path lock poisoned") = path;
        Ok(report)
    }

    /// The public steps `publish_updates` takes, run one by one and timed:
    /// overlay apply, compact, rebuild, flush, reload, swap. Returns the
    /// step times in milliseconds, in that order, and the words flushed.
    pub fn publish_steps(
        &self,
        updates: &[EdgeUpdate],
        store: &Store,
    ) -> std::io::Result<([f64; 6], u64)> {
        let (service, current) = self.mono();
        let base_path = current.lock().expect("current-path lock poisoned").clone();
        // The base is mapped again from the current epoch's file: the same
        // bytes the service serves, held by this benchmark's own `Arc`.
        let base = Arc::new(load_csr(&base_path)?);
        let path = store.fresh_path("epoch");
        let mut ms = [0.0; 6];
        let mut step = |i: usize, t: Instant| ms[i] = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let mut overlay = DeltaOverlay::new(Arc::clone(&base));
        overlay.apply(updates);
        step(0, t);
        let t = Instant::now();
        let compacted = overlay.compact();
        step(1, t);
        let t = Instant::now();
        let rebuilt = base.rebuild(compacted);
        let words = rebuilt.flush_words();
        step(2, t);
        let t = Instant::now();
        rebuilt.flush(&path)?;
        step(3, t);
        let t = Instant::now();
        let reloaded = <Csr as Publishable>::reload(&path)?;
        step(4, t);
        let t = Instant::now();
        service.publish(Snapshot::new(reloaded));
        step(5, t);
        *current.lock().expect("current-path lock poisoned") = path;
        Ok((ms, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_removes_its_snapshot_files_on_drop() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_out/test-store");
        let g = sage_graph::gen::rmat(6, 4, sage_graph::gen::RmatParams::default(), 3);
        let dir;
        {
            let store = Store::create(&root, "t").unwrap();
            let base = store.fresh_path("base");
            dir = base.parent().unwrap().to_path_buf();
            write_csr(&g, &base).unwrap();
            let service = Service::start_mono(load_csr(&base).unwrap(), &base, 1, 0);
            let report = service
                .publish_updates(&[EdgeUpdate::insert(0, 1)], &store)
                .unwrap();
            assert_eq!(report.epoch, 1);
            let (_, words) = service
                .publish_steps(&[EdgeUpdate::delete(0, 1)], &store)
                .unwrap();
            assert!(words > 0);
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);
            assert!(store.bytes_of("epoch") > 0);
        }
        assert!(!dir.exists(), "store directory survived its drop");
    }
}
