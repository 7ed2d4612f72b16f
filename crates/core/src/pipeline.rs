//! The event-driven execution pipeline: asynchronous writes under real
//! concurrency.
//!
//! The paper's headline throughput numbers (Figs. 4/5) come from the
//! *asynchronous-write* mode, where sealing persistence overlaps
//! request execution. [`PipelinedServer`] realizes that mode as a
//! three-stage pipeline:
//!
//! ```text
//!            stage 1 — intake          stage 2 — execution        stage 3 — persistence
//!   clients ──────────────────▶ queue ────────────────────▶ seal ──────────────────────▶ disk
//!            submit()                  enclave ecall              background writer
//!            (caller thread)           (caller thread)            (StageWorker thread)
//! ```
//!
//! Stages 1–2 run on the caller's thread exactly like [`LcmServer`];
//! stage 3 runs on a dedicated [`lcm_runtime::stage::StageWorker`]
//! thread fed through a **bounded** queue. While the writer persists
//! batch *n*, the enclave executes batch *n+1* — replies leave the
//! server before their sealed state hits the disk.
//!
//! ## Back-pressure
//!
//! The writer queue holds at most `queue_capacity` sealed snapshots
//! (default [`DEFAULT_WRITER_QUEUE`]). When the disk falls that far
//! behind, [`PipelinedServer::step`] blocks in `submit` until a slot
//! frees up: a slow disk throttles the enclave instead of buffering
//! unbounded sealed state in host memory.
//! [`PipelinedServer::backpressure_events`] counts how often that
//! happened.
//!
//! ## Crash semantics — the durability window
//!
//! Queued-but-unwritten blobs model data handed to the OS page cache:
//!
//! * [`PipelinedServer::crash`] — the server *process* dies. The
//!   kernel still completes accepted writes, so the writer drains its
//!   queue before the enclave stops; recovery sees the latest state.
//! * [`PipelinedServer::crash_power_failure`] — the machine dies.
//!   Queued blobs are lost, recovery boots from whatever had actually
//!   reached the medium. Operations whose persistence was lost are
//!   rolled back — which LCM clients *detect* on their next operation
//!   (`V[i]` mismatch). This is exactly the paper's trade: async mode
//!   buys throughput, and the stability watermark (§4.5) tells each
//!   client which operations were guaranteed durable.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lcm_runtime::stage::StageWorker;
use lcm_storage::StableStorage;

use crate::context::PersistBlobs;
use crate::functionality::Functionality;
use crate::server::{solo_member, BatchServer, LcmServer, SLOT_KEY_BLOB, SLOT_STATE_BLOB};
use crate::types::ClientId;
use crate::{LcmError, Result};

/// Default bound on the writer queue: how many sealed snapshots may be
/// in flight before execution blocks on persistence.
pub const DEFAULT_WRITER_QUEUE: usize = 4;

/// Shared state between the server and its persistence stage.
struct WriterShared {
    /// Fast-path flag for "the writer hit a storage error" — checked
    /// lock-free on every step so the hot path never contends with
    /// in-flight I/O.
    failed: AtomicBool,
    /// First storage error the writer hit; everything after it is
    /// skipped and the error surfaces on the next server call.
    error: Mutex<Option<String>>,
    /// Snapshots fully persisted (both slots stored).
    persisted: AtomicU64,
}

/// An [`LcmServer`] whose persistence stage runs on a background
/// writer thread — the paper's asynchronous-write mode under real
/// concurrency. Construct via [`LcmServer::into_pipelined`].
///
/// The full [`BatchServer`] surface is available; control-plane
/// operations that read or write storage directly (boot, provision,
/// admin, migration) flush the writer first so they always observe
/// ordered state.
pub struct PipelinedServer<F: Functionality> {
    inner: LcmServer<F>,
    writer: StageWorker<PersistBlobs>,
    shared: Arc<WriterShared>,
}

impl<F: Functionality> std::fmt::Debug for PipelinedServer<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedServer")
            .field("inner", &self.inner)
            .field("pending_persists", &self.writer.pending())
            .finish()
    }
}

impl<F: Functionality> PipelinedServer<F> {
    /// Wraps `server`, spawning the persistence stage with the default
    /// writer-queue capacity.
    pub fn new(server: LcmServer<F>) -> Self {
        Self::with_queue_capacity(server, DEFAULT_WRITER_QUEUE)
    }

    /// Wraps `server` with an explicit writer-queue bound (min 1).
    pub fn with_queue_capacity(server: LcmServer<F>, queue_capacity: usize) -> Self {
        let storage: Arc<dyn StableStorage> = server.storage();
        let shared = Arc::new(WriterShared {
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            persisted: AtomicU64::new(0),
        });
        let writer_shared = shared.clone();
        let writer = StageWorker::spawn(
            "lcm-persist-writer",
            queue_capacity,
            move |blobs: PersistBlobs| {
                if writer_shared.failed.load(Ordering::SeqCst) {
                    return;
                }
                // State before keys, and no key store for delta
                // persists — matching the synchronous server's persist
                // (a crash between the stores must never leave keys
                // without state, which `init` reads as tampering).
                let stored = storage
                    .store(SLOT_STATE_BLOB, &blobs.state_blob)
                    .and_then(|()| {
                        if blobs.key_blob.is_empty() {
                            Ok(())
                        } else {
                            storage.store(SLOT_KEY_BLOB, &blobs.key_blob)
                        }
                    });
                match stored {
                    Ok(()) => {
                        writer_shared.persisted.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        *writer_shared
                            .error
                            .lock()
                            .unwrap_or_else(|p| p.into_inner()) = Some(e.to_string());
                        writer_shared.failed.store(true, Ordering::SeqCst);
                    }
                }
            },
        );
        PipelinedServer {
            inner: server,
            writer,
            shared,
        }
    }

    /// Shuts the pipeline down (draining the writer) and returns the
    /// synchronous server.
    pub fn into_inner(self) -> LcmServer<F> {
        // Dropping the writer closes + drains its queue and joins the
        // thread; destructure afterwards.
        let PipelinedServer { inner, writer, .. } = self;
        drop(writer);
        inner
    }

    fn check_writer(&self) -> Result<()> {
        if !self.shared.failed.load(Ordering::SeqCst) {
            return Ok(());
        }
        let error = self.shared.error.lock().unwrap_or_else(|e| e.into_inner());
        let msg = error.as_deref().unwrap_or("unknown storage failure");
        Err(LcmError::Storage(format!("async persist failed: {msg}")))
    }

    /// Blocks until every sealed snapshot handed to the writer has been
    /// persisted, then surfaces any storage error the writer hit.
    ///
    /// # Errors
    ///
    /// [`LcmError::Storage`] if an asynchronous persist failed.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush();
        self.check_writer()
    }

    /// Simulates a crash of the server *process*: the enclave's
    /// volatile memory is lost, but writes already handed to the OS
    /// complete. Call [`PipelinedServer::boot`] to recover.
    ///
    /// A pending writer error is cleared: the restarted process gets a
    /// fresh writer, and the write that failed is simply lost — if it
    /// mattered, clients detect the resulting rollback.
    pub fn crash(&mut self) {
        self.writer.flush();
        self.clear_writer_error();
        self.inner.crash();
    }

    /// Simulates a power failure: the enclave dies *and* sealed
    /// snapshots still queued for writing are lost. Returns how many
    /// snapshots were dropped. Recovery boots from the last state that
    /// reached the medium; clients whose acknowledged operations were
    /// rolled back detect the gap on their next operation.
    pub fn crash_power_failure(&mut self) -> usize {
        let dropped = self.writer.discard_pending();
        self.clear_writer_error();
        self.inner.crash();
        dropped
    }

    fn clear_writer_error(&mut self) {
        *self.shared.error.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.shared.failed.store(false, Ordering::SeqCst);
    }

    /// Boots (or recovers) the enclave from stable storage. Flushes the
    /// writer first so recovery sees every completed persist.
    ///
    /// # Errors
    ///
    /// Same as [`LcmServer::boot`], plus deferred writer errors.
    pub fn boot(&mut self) -> Result<bool> {
        self.flush()?;
        self.inner.boot()
    }

    /// Processes one batch: the enclave executes on the calling thread,
    /// the sealed state is queued for the background writer, and the
    /// replies return immediately — before the disk write completes.
    ///
    /// Blocks only when the writer queue is full (back-pressure).
    ///
    /// # Errors
    ///
    /// Context violations, plus deferred writer errors from earlier
    /// batches.
    pub fn step(&mut self) -> Result<Vec<(ClientId, Vec<u8>)>> {
        self.check_writer()?;
        let (replies, blobs) = self.inner.execute_batch()?;
        if let Some(blobs) = blobs {
            if self.writer.submit(blobs).is_err() {
                return Err(LcmError::Storage("persist writer stopped".into()));
            }
        }
        Ok(replies)
    }

    /// Processes all queued messages, batch by batch, without waiting
    /// for persistence.
    ///
    /// # Errors
    ///
    /// Same as [`PipelinedServer::step`].
    pub fn process_all(&mut self) -> Result<Vec<(ClientId, Vec<u8>)>> {
        let mut out = Vec::new();
        while self.inner.queued() > 0 {
            out.extend(self.step()?);
        }
        Ok(out)
    }

    /// Sealed snapshots fully persisted by the writer so far.
    pub fn persists_completed(&self) -> u64 {
        self.shared.persisted.load(Ordering::SeqCst)
    }

    /// Sealed snapshots currently waiting in the writer queue.
    pub fn pending_persists(&self) -> usize {
        self.writer.pending()
    }

    /// How many times execution blocked because the writer queue was
    /// full — the back-pressure signal.
    pub fn backpressure_events(&self) -> u64 {
        self.writer.queue_stats().blocked_pushes
    }

    /// Direct access to the wrapped synchronous server. Persists issued
    /// through it bypass the writer queue; flush first if ordering
    /// matters.
    pub fn inner(&mut self) -> &mut LcmServer<F> {
        &mut self.inner
    }
}

impl<F: Functionality> BatchServer for PipelinedServer<F> {
    fn boot(&mut self) -> Result<bool> {
        PipelinedServer::boot(self)
    }
    fn crash(&mut self) {
        PipelinedServer::crash(self);
    }
    fn is_running(&self) -> bool {
        self.inner.is_running()
    }
    fn attest_member(
        &mut self,
        shard: u32,
        replica: u32,
        user_data: lcm_crypto::sha256::Digest,
    ) -> Result<lcm_tee::attestation::Quote> {
        solo_member(shard, replica)?;
        self.inner.attest(user_data)
    }
    fn provision_member(
        &mut self,
        shard: u32,
        replica: u32,
        sealed_payload: Vec<u8>,
    ) -> Result<()> {
        solo_member(shard, replica)?;
        self.flush()?;
        self.inner.provision(sealed_payload)
    }
    fn submit(&mut self, invoke_wire: Vec<u8>) {
        self.inner.submit(invoke_wire);
    }
    fn queued(&self) -> usize {
        self.inner.queued()
    }
    fn batch_limit(&self) -> usize {
        BatchServer::batch_limit(&self.inner)
    }
    fn step(&mut self) -> Result<Vec<(ClientId, Vec<u8>)>> {
        PipelinedServer::step(self)
    }
    fn process_all(&mut self) -> Result<Vec<(ClientId, Vec<u8>)>> {
        PipelinedServer::process_all(self)
    }
    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.flush()?;
        self.inner.admin(admin_wire)
    }
    fn export_migration(&mut self) -> Result<Vec<u8>> {
        self.flush()?;
        self.inner.export_migration()
    }
    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()> {
        self.flush()?;
        self.inner.import_migration(ticket)
    }
    fn batches_processed(&self) -> u64 {
        self.inner.batches_processed()
    }
    fn ops_processed(&self) -> u64 {
        self.inner.ops_processed()
    }
    fn flush_persists(&mut self) -> Result<()> {
        PipelinedServer::flush(self)
    }
    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.inner.serve_read(read_wire)
    }
    fn apply_replica(&mut self, state_blob: Vec<u8>) -> Result<lcm_crypto::sha256::Digest> {
        self.flush()?;
        self.inner.apply_replica(state_blob)
    }
    fn kill_member(&mut self, shard: u32, replica: u32, power_failure: bool) -> Result<()> {
        solo_member(shard, replica)?;
        if power_failure {
            self.crash_power_failure();
        } else {
            self.crash();
        }
        Ok(())
    }
    fn import_migration_as(&mut self, ticket: Vec<u8>, replica: u32, replicas: u32) -> Result<()> {
        self.flush()?;
        self.inner.import_migration_as(ticket, replica, replicas)
    }
    fn export_slice(&mut self, slice: u32, to: u32) -> Result<(Vec<u8>, Vec<u8>)> {
        // The export's checkpoint supersedes everything queued behind
        // the writer; drain first so storage cannot end up with a
        // stale post-export blob.
        self.flush()?;
        self.inner.export_slice(slice, to)
    }
    fn import_slice(&mut self, ticket: Vec<u8>) -> Result<()> {
        self.flush()?;
        self.inner.import_slice(ticket)
    }
    fn adopt_table(&mut self, bulletin: Vec<u8>) -> Result<()> {
        self.flush()?;
        self.inner.adopt_table(bulletin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::AdminHandle;
    use crate::client::LcmClient;
    use crate::functionality::AppendLog;
    use crate::stability::Quorum;
    use lcm_storage::MemoryStorage;
    use lcm_tee::world::TeeWorld;

    fn setup(
        n_clients: u32,
        batch: usize,
    ) -> (PipelinedServer<AppendLog>, AdminHandle, Vec<LcmClient>) {
        let world = TeeWorld::new_deterministic(42);
        let platform = world.platform_deterministic(1);
        let storage = Arc::new(MemoryStorage::new());
        let mut server = LcmServer::<AppendLog>::new(&platform, storage, batch).into_pipelined();
        assert!(server.boot().unwrap());

        let clients: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
        let mut admin =
            AdminHandle::new_deterministic(&world, clients.clone(), Quorum::Majority, 7);
        admin.bootstrap(&mut server).unwrap();

        let lcm_clients = clients
            .iter()
            .map(|&id| LcmClient::new(id, admin.client_key()))
            .collect();
        (server, admin, lcm_clients)
    }

    #[test]
    fn end_to_end_single_client() {
        let (mut server, _admin, mut clients) = setup(1, 1);
        let c = &mut clients[0];
        server.submit(c.invoke(b"first").unwrap());
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1);
        server.flush().unwrap();
        assert_eq!(server.persists_completed(), 1);
    }

    #[test]
    fn replies_can_outrun_persistence() {
        // With a generous queue the reply returns even though nothing
        // forces the persist to have completed yet; flush establishes
        // the durable point.
        let (mut server, _admin, mut clients) = setup(3, 16);
        for c in clients.iter_mut() {
            server.submit(c.invoke(b"op").unwrap());
        }
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 3);
        server.flush().unwrap();
        assert_eq!(server.batches_processed(), 1);
        assert_eq!(server.persists_completed(), 1);
    }

    #[test]
    fn process_crash_preserves_accepted_writes() {
        let (mut server, _admin, mut clients) = setup(1, 1);
        let c = &mut clients[0];
        server.submit(c.invoke(b"durable").unwrap());
        let replies = server.process_all().unwrap();
        c.handle_reply(&replies[0].1).unwrap();

        server.crash();
        assert!(!server.is_running());
        assert!(!server.boot().unwrap(), "no re-provisioning after crash");

        server.submit(c.invoke(b"after").unwrap());
        let replies = server.process_all().unwrap();
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 2, "sequence continues after recovery");
    }

    /// Storage whose writes block until a gate opens — pins persist
    /// jobs in the writer pipeline at a deterministic point.
    struct GatedStorage {
        inner: MemoryStorage,
        gate: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
    }

    impl GatedStorage {
        fn new() -> Self {
            GatedStorage {
                inner: MemoryStorage::new(),
                gate: std::sync::Mutex::new(false),
                opened: std::sync::Condvar::new(),
            }
        }

        fn open(&self) {
            *self.gate.lock().unwrap() = true;
            self.opened.notify_all();
        }

        fn close(&self) {
            *self.gate.lock().unwrap() = false;
        }
    }

    impl lcm_storage::StableStorage for GatedStorage {
        fn store(&self, slot: &str, blob: &[u8]) -> lcm_storage::Result<()> {
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
            drop(open);
            self.inner.store(slot, blob)
        }
        fn load(&self, slot: &str) -> lcm_storage::Result<Option<Vec<u8>>> {
            self.inner.load(slot)
        }
    }

    #[test]
    fn power_failure_rolls_back_and_clients_detect() {
        let world = TeeWorld::new_deterministic(43);
        let platform = world.platform_deterministic(1);
        let storage = Arc::new(GatedStorage::new());
        storage.open();
        let server = LcmServer::<AppendLog>::new(&platform, storage.clone(), 1);
        let mut server = PipelinedServer::with_queue_capacity(server, 8);
        assert!(server.boot().unwrap());
        let ids = vec![ClientId(1)];
        let mut admin = AdminHandle::new_deterministic(&world, ids, Quorum::Majority, 9);
        admin.bootstrap(&mut server).unwrap();
        let mut c = LcmClient::new(ClientId(1), admin.client_key());

        // First op persists durably.
        server.submit(c.invoke(b"durable").unwrap());
        let replies = server.process_all().unwrap();
        c.handle_reply(&replies[0].1).unwrap();
        server.flush().unwrap();

        // Close the gate: the next two acknowledged ops stall in the
        // persistence stage (one in-flight, one queued).
        storage.close();
        for op in [&b"volatile-1"[..], b"volatile-2"] {
            server.submit(c.invoke(op).unwrap());
            let replies = server.process_all().unwrap();
            c.handle_reply(&replies[0].1).unwrap();
        }
        // Wait until exactly one job is queued behind the in-flight one.
        while server.pending_persists() != 1 {
            std::thread::yield_now();
        }

        // Power failure: the queued snapshot is lost; the in-flight
        // write completes once "the controller" (gate) lets it.
        let dropped = server.crash_power_failure();
        assert_eq!(dropped, 1);
        storage.open();
        server.boot().unwrap();

        // The context recovered without volatile-2; the client's
        // (tc, hc) is ahead — its next operation trips detection.
        server.submit(c.invoke(b"next").unwrap());
        let err = server.process_all().unwrap_err();
        assert!(err.is_violation(), "got {err:?}");
    }

    #[test]
    fn into_inner_round_trip() {
        let (server, _admin, mut clients) = setup(1, 1);
        let mut server = server.into_inner();
        let c = &mut clients[0];
        server.submit(c.invoke(b"sync-again").unwrap());
        let replies = server.process_all().unwrap();
        assert_eq!(c.handle_reply(&replies[0].1).unwrap().seq.0, 1);
    }
}
