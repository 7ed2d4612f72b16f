//! Counting, span-recording wrappers around the storage layers.
//!
//! The deployment persists through `Probe<DeltaLogStorage>` over
//! `Probe<DelayedStorage<MemoryStorage>>`, so the engine (group commit,
//! checkpoints) and the device under it are measured separately.
//! Counters run with tracing off too: `write_amp` needs device bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lcm::storage::{Result, StableStorage};

use crate::trace::{Layer, Tracer, NO_OP};

/// Call and byte counters of one storage layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `store` calls.
    pub stores: u64,
    /// Bytes passed to `store`.
    pub store_bytes: u64,
    /// Bytes returned by those loads.
    pub state_load_bytes: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, base: Counts) -> Counts {
        Counts {
            stores: self.stores - base.stores,
            store_bytes: self.store_bytes - base.store_bytes,
            state_load_bytes: self.state_load_bytes - base.state_load_bytes,
        }
    }
}

/// A storage layer wrapped with counters and spans.
pub struct Probe<S> {
    inner: S,
    store_layer: Layer,
    tracer: Arc<Tracer>,
    stores: AtomicU64,
    store_bytes: AtomicU64,
    state_load_bytes: AtomicU64,
}

impl<S> Probe<S> {
    /// Wraps `inner`; its stores are recorded as `store_layer` spans.
    pub fn new(inner: S, store_layer: Layer, tracer: Arc<Tracer>) -> Self {
        Probe {
            inner,
            store_layer,
            tracer,
            stores: AtomicU64::new(0),
            store_bytes: AtomicU64::new(0),
            state_load_bytes: AtomicU64::new(0),
        }
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Counters so far.
    pub fn counts(&self) -> Counts {
        Counts {
            stores: self.stores.load(Ordering::Relaxed),
            store_bytes: self.store_bytes.load(Ordering::Relaxed),
            state_load_bytes: self.state_load_bytes.load(Ordering::Relaxed),
        }
    }
}

impl<S: StableStorage> StableStorage for Probe<S> {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        let start = self.tracer.begin();
        let result = self.inner.store(slot, blob);
        self.tracer.end(self.store_layer, start, NO_OP);
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.store_bytes
            .fetch_add(blob.len() as u64, Ordering::Relaxed);
        result
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        // A replica group lifts the leader's sealed state off the
        // medium to ship it to the followers; that slot is the only
        // one loaded after boot.
        let state = slot.ends_with(lcm::core::server::SLOT_STATE_BLOB);
        let start = if state { self.tracer.begin() } else { None };
        let result = self.inner.load(slot);
        if state {
            self.tracer.end(Layer::Load, start, NO_OP);
            let bytes = result
                .as_ref()
                .map_or(0, |b| b.as_ref().map_or(0, Vec::len));
            self.state_load_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
        result
    }

    fn delta_capable(&self) -> bool {
        self.inner.delta_capable()
    }
}
