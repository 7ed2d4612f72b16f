//! Set-up and the closed loop.
//!
//! All logical clients are multiplexed on the calling thread. A pass
//! visits every client that has nothing outstanding and encodes its
//! next operation: a GET as a verified read leg (`read_for`), a PUT as
//! an INVOKE queued on the on-demand front-end. The pass's round then
//! serves the read legs (`ReadPort::serve_read` → `handle_read_reply`)
//! and runs one `Deployment::process_all`, whose replies complete the
//! PUTs. A client issues its next operation only in a later pass, after
//! its previous one was verified, so batch composition is a function of
//! the workload seed alone, and every latency includes the wait for the
//! operation's round.
//!
//! Between pumps no lane executes, so a GET must return exactly the
//! value of the completed PUT with the highest sequence number on the
//! (single) shard. The model below checks that for every read.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm::core::client::ReadOutcome;
use lcm::core::codec::WireCodec;
use lcm::core::server::{BatchServer, ReadPort};
use lcm::kvs::client::{KvCompletion, KvsClient};
use lcm::kvs::ops::{KvOp, KvResult};
use lcm::kvs::store::KvStore;
use lcm::prelude::{ClientId, Deployment, DeploymentBuilder, Mode};
use lcm::storage::{DelayedStorage, DeltaLogStats, DeltaLogStorage, MemoryStorage};

use crate::config::{Config, RECORDS, TEE_SEED, VALUE_LEN};
use crate::gen::{self, Op, OpStream, Tag};
use crate::storage::{Counts, Probe};
use crate::trace::{Layer, Tracer};

type Engine = Probe<DeltaLogStorage>;
type Device = Probe<DelayedStorage<MemoryStorage>>;

struct Client {
    kvs: KvsClient,
    stream: OpStream,
    writes: u64,
    pending: Option<PendingPut>,
    /// Registered stability watches: watch id → the write's invocation.
    watches: HashMap<u64, Instant>,
    dead: bool,
}

/// A GET encoded in a pass and served in its round.
struct ReadLeg {
    ci: usize,
    record: usize,
    op_id: u64,
    start: Instant,
    wire: Vec<u8>,
}

struct PendingPut {
    op_id: u64,
    record: usize,
    tag: Tag,
    start: Instant,
}

/// One deployment, its clients and the read model.
pub struct Bench {
    dep: Deployment,
    read_port: Arc<dyn ReadPort>,
    clients: Vec<Client>,
    keys: Vec<Vec<u8>>,
    /// The shard group's leader replica, which serves every read.
    leader: u32,
    /// Per record: shard sequence number and tag of the newest
    /// completed write.
    model: Vec<(u64, Tag)>,
    engine: Arc<Engine>,
    device: Arc<Device>,
    tracer: Arc<Tracer>,
    next_op: u64,
    next_round: u64,
}

/// When a closed-loop window stops issuing.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this much wall-clock time.
    Elapsed(Duration),
    /// After this many operations were issued.
    Issued(u64),
}

/// What one closed-loop window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall-clock length, from the first issue to the last completion.
    pub elapsed: Duration,
    /// Operations issued.
    pub attempted: u64,
    /// Operations verified and checked.
    pub completed: u64,
    /// Completion time of each of them, in seconds into the window.
    pub done_at: Vec<f64>,
    /// Operations that errored, halted their client, got an unexpected
    /// outcome, failed the output check, or were rejected or dropped by
    /// the front-end.
    pub failed: u64,
    /// First failure descriptions.
    pub errors: Vec<String>,
    /// GET latency, invoke to verified completion (µs).
    pub read_us: Vec<f64>,
    /// PUT latency, invoke to verified completion (µs).
    pub write_us: Vec<f64>,
    /// PUT invocation to its client's majority-stability notification (µs).
    pub stable_us: Vec<f64>,
    /// Key + value bytes of completed PUTs.
    pub put_bytes: u64,
    /// Bytes of request wires (INVOKE and READ legs).
    pub request_bytes: u64,
    /// Request wires sent.
    pub requests: u64,
    /// Bytes of reply wires.
    pub reply_bytes: u64,
    /// Reply wires received.
    pub replies: u64,
    /// Operations executed by the lanes.
    pub ops_pumped: u64,
    /// PUTs completed by traced pumps.
    pub traced_pumped: u64,
    /// Batches executed by the lanes.
    pub batches: u64,
    /// Engine-layer counters.
    pub engine: Counts,
    /// Device-layer counters.
    pub device: Counts,
    /// Delta-log counters (difference over the window).
    pub dlog: DeltaLogStats,
}

impl Window {
    fn complete(&mut self, at: Instant, window_start: Instant) {
        self.completed += 1;
        self.done_at.push((at - window_start).as_secs_f64());
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn dlog_delta(now: DeltaLogStats, base: DeltaLogStats) -> DeltaLogStats {
    DeltaLogStats {
        group_commits: now.group_commits - base.group_commits,
        records_appended: now.records_appended - base.records_appended,
        segments_sealed: now.segments_sealed - base.segments_sealed,
        checkpoints: now.checkpoints - base.checkpoints,
        segments_gced: now.segments_gced - base.segments_gced,
        torn_truncations: now.torn_truncations - base.torn_truncations,
    }
}

impl Bench {
    /// Builds, boots, bootstraps and preloads one deployment.
    ///
    /// # Errors
    ///
    /// Any build, bootstrap or preload failure, described.
    pub fn setup(cfg: &Config, seed: u64, tracer: Arc<Tracer>) -> Result<Bench, String> {
        let device = Arc::new(Probe::new(
            DelayedStorage::new(
                MemoryStorage::new(),
                Duration::from_micros(cfg.device_delay_us),
            ),
            Layer::Device,
            tracer.clone(),
        ));
        let engine = Arc::new(Probe::new(
            DeltaLogStorage::open(device.clone()).map_err(|e| format!("engine: {e}"))?,
            Layer::Commit,
            tracer.clone(),
        ));
        let ids: Vec<ClientId> = (1..=cfg.clients).map(ClientId).collect();
        let dep = DeploymentBuilder::<KvStore>::new()
            .shards(1)
            .replicas(cfg.replicas)
            .mode(Mode::Sync)
            // A round never holds more PUTs than clients, so each round
            // is one batch and its latency is not split between one- and
            // two-batch rounds.
            .batch_limit(cfg.clients as usize)
            .clients(ids.clone())
            .seed(TEE_SEED)
            .storage(engine.clone())
            .build()
            .map_err(|e| format!("deployment build: {e}"))?;
        // Compute-honest: no modelled enclave-transition cost anywhere.
        dep.world().set_ecall_cost(Duration::ZERO);
        let read_port = dep.read_port().ok_or("deployment has no read port")?;
        let clients: Vec<Client> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Client {
                kvs: dep.kvs_client(id),
                stream: OpStream::new(cfg, seed, i as u32),
                writes: 0,
                pending: None,
                watches: HashMap::new(),
                dead: false,
            })
            .collect();
        let keys: Vec<Vec<u8>> = (0..RECORDS).map(gen::key).collect();
        let leader = dep.frontend().server().group_leader(0);
        let mut bench = Bench {
            dep,
            read_port,
            clients,
            model: vec![(0, Tag::default()); keys.len()],
            keys,
            leader,
            engine,
            device,
            tracer,
            next_op: 0,
            next_round: 0,
        };
        bench.preload()?;
        Ok(bench)
    }

    fn preload(&mut self) -> Result<(), String> {
        // Record i is written by client i mod clients, so every client
        // writes in every round.
        let mut w = Window::default();
        let n = self.clients.len();
        for base in (0..self.keys.len()).step_by(n) {
            for (ci, record) in (base..self.keys.len().min(base + n)).enumerate() {
                self.submit_put(ci, record, &mut w);
            }
            self.pump(&mut w, Instant::now());
        }
        match w.errors.first() {
            Some(e) => Err(format!("preload: {e}")),
            None => Ok(()),
        }
    }

    /// Runs the closed loop until `until`, then lets the round in
    /// flight finish. Nothing is outstanding when it returns. A traced
    /// window records spans in every second chunk
    /// ([`crate::report::traced_chunk`]), so traced and untraced chunks
    /// share the machine's conditions.
    pub fn run(&mut self, until: Until, traced: bool) -> Window {
        let mut w = Window::default();
        let engine = self.engine.counts();
        let device = self.device.counts();
        let dlog = self.engine.inner().stats();
        let batches = self.dep.frontend().batches_processed();
        let ops = self.dep.frontend().ops_processed();
        let stats = self.dep.stats();
        let lost = stats.rejected() + stats.dropped_replies();

        let start = Instant::now();
        let more = |w: &Window| match until {
            Until::Elapsed(length) => start.elapsed() < length,
            Until::Issued(ops) => w.attempted < ops,
        };
        while more(&w) && self.clients.iter().any(|c| !c.dead) {
            if traced {
                let secs = start.elapsed().as_secs_f64();
                self.tracer.set_on(crate::report::traced_chunk(secs));
            }
            let mut submitted = false;
            let mut legs = Vec::new();
            for ci in 0..self.clients.len() {
                let client = &self.clients[ci];
                if client.dead || client.pending.is_some() {
                    continue;
                }
                let g = self.tracer.begin();
                let op = self.clients[ci].stream.next_op();
                self.tracer.end(Layer::Gen, g, self.next_op);
                match op {
                    Op::Get(i) => legs.extend(self.encode_read(ci, i as usize, &mut w)),
                    Op::Put(i) => {
                        self.submit_put(ci, i as usize, &mut w);
                        submitted = true;
                    }
                }
            }
            // The round: the pass's read legs, then its PUTs.
            for leg in legs {
                self.serve_read(leg, start, &mut w);
            }
            if submitted {
                self.pump(&mut w, start);
            }
        }
        w.elapsed = start.elapsed();
        self.tracer.set_on(false);

        let lost_now = stats.rejected() + stats.dropped_replies();
        for _ in lost..lost_now {
            w.fail("front-end rejected or dropped a wire".into());
        }
        w.engine = self.engine.counts() - engine;
        w.device = self.device.counts() - device;
        w.dlog = dlog_delta(self.engine.inner().stats(), dlog);
        w.batches = self.dep.frontend().batches_processed() - batches;
        w.ops_pumped = self.dep.frontend().ops_processed() - ops;
        w
    }

    fn next_op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op - 1
    }

    fn encode_read(&mut self, ci: usize, record: usize, w: &mut Window) -> Option<ReadLeg> {
        let op_id = self.next_op_id();
        w.attempted += 1;
        let op = KvOp::Get(self.keys[record].clone()).to_bytes();
        let replica = self.leader;
        let client = &mut self.clients[ci];

        let start = Instant::now();
        let s = self.tracer.begin();
        let wire = client.kvs.lcm_mut().read_for::<KvStore>(&op, replica);
        self.tracer.end(Layer::Encode, s, op_id);
        match wire {
            Ok(wire) => {
                w.requests += 1;
                w.request_bytes += wire.len() as u64;
                Some(ReadLeg {
                    ci,
                    record,
                    op_id,
                    start,
                    wire,
                })
            }
            Err(e) => {
                Self::kill(client, w, format!("read_for: {e}"));
                None
            }
        }
    }

    fn serve_read(&mut self, leg: ReadLeg, window_start: Instant, w: &mut Window) {
        let ReadLeg {
            ci,
            record,
            op_id,
            start,
            wire,
        } = leg;
        let tracer = &self.tracer;
        let client = &mut self.clients[ci];
        let s = tracer.begin();
        let reply = self.read_port.serve_read(wire);
        tracer.end(Layer::ServerRead, s, op_id);
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => return Self::kill(client, w, format!("serve_read: {e}")),
        };
        w.replies += 1;
        w.reply_bytes += reply.len() as u64;
        let s = tracer.begin();
        let outcome = client.kvs.lcm_mut().handle_read_reply(&reply);
        tracer.end(Layer::Verify, s, op_id);
        let done = Instant::now();

        let completion = match outcome {
            Ok(ReadOutcome::Fresh(c)) => c,
            Ok(other) => {
                return Self::kill(client, w, format!("unexpected read outcome {other:?}"))
            }
            Err(e) => return Self::kill(client, w, format!("handle_read_reply: {e}")),
        };
        let g = tracer.begin();
        let expected = gen::value(&self.keys[record], self.model[record].1);
        let got = KvResult::from_bytes(&completion.result);
        tracer.end(Layer::Gen, g, op_id);
        match got {
            Ok(KvResult::Value(Some(v))) if v == expected => {
                w.complete(done, window_start);
                w.read_us.push(us(done - start));
            }
            other => {
                // Name whose write came back, if the value parses.
                let named = match &other {
                    Ok(KvResult::Value(Some(v))) => gen::parse_value(v).map(|(k, writer, n)| {
                        format!("{} written by {writer} (#{n})", String::from_utf8_lossy(k))
                    }),
                    _ => None,
                };
                return Self::kill(
                    client,
                    w,
                    format!(
                        "GET {} answered {}, expected {:?}",
                        String::from_utf8_lossy(&self.keys[record]),
                        named.unwrap_or_else(|| format!("{other:?}")),
                        self.model[record].1
                    ),
                );
            }
        }
        Self::drain_stability(client, done, window_start, w);
    }

    fn submit_put(&mut self, ci: usize, record: usize, w: &mut Window) {
        let op_id = self.next_op_id();
        w.attempted += 1;
        let tracer = &self.tracer;
        let client = &mut self.clients[ci];

        let g = tracer.begin();
        client.writes += 1;
        let (writer, counter) = (client.kvs.lcm().id().0, client.writes);
        let tag = Tag { writer, counter };
        let key = self.keys[record].clone();
        let value = gen::value(&key, tag);
        let op = KvOp::Put(key, value);
        tracer.end(Layer::Gen, g, op_id);

        let start = Instant::now();
        let s = tracer.begin();
        let wire = client.kvs.invoke_wire(&op);
        tracer.end(Layer::Encode, s, op_id);
        match wire {
            Ok(wire) => {
                w.requests += 1;
                w.request_bytes += wire.len() as u64;
                self.dep.frontend().submit_shared(wire);
                client.pending = Some(PendingPut {
                    op_id,
                    record,
                    tag,
                    start,
                });
            }
            Err(e) => Self::kill(client, w, format!("invoke_wire: {e}")),
        }
    }

    fn pump(&mut self, w: &mut Window, window_start: Instant) {
        let round = self.next_round;
        self.next_round += 1;
        let s = self.tracer.begin();
        let replies = self.dep.process_all();
        self.tracer.end(Layer::Pump, s, round);
        if s.is_some() {
            w.traced_pumped += replies.as_ref().map_or(0, |r| r.len() as u64);
        }
        let replies = match replies {
            Ok(replies) => replies,
            Err(e) => {
                w.fail(format!("process_all: {e}"));
                Vec::new()
            }
        };
        for (id, wire) in replies {
            let Some(ci) = (id.0 as usize)
                .checked_sub(1)
                .filter(|&ci| ci < self.clients.len())
            else {
                w.fail(format!("reply for unknown client {id:?}"));
                continue;
            };
            let client = &mut self.clients[ci];
            let Some(put) = client.pending.take() else {
                Self::kill(client, w, "reply without a pending PUT".into());
                continue;
            };
            w.replies += 1;
            w.reply_bytes += wire.len() as u64;
            let s = self.tracer.begin();
            let completed = client.kvs.complete(&wire);
            self.tracer.end(Layer::Verify, s, put.op_id);
            let done = Instant::now();
            let completion = match completed {
                Ok(KvCompletion {
                    result: KvResult::Stored,
                    completion,
                }) => completion,
                Ok(other) => {
                    Self::kill(client, w, format!("PUT answered {:?}", other.result));
                    continue;
                }
                Err(e) => {
                    Self::kill(client, w, format!("complete: {e}"));
                    continue;
                }
            };
            w.complete(done, window_start);
            w.write_us.push(us(done - put.start));
            w.put_bytes += (self.keys[put.record].len() + VALUE_LEN) as u64;
            let model = &mut self.model[put.record];
            if completion.seq.0 > model.0 {
                *model = (completion.seq.0, put.tag);
            }
            let watch = client.kvs.lcm_mut().watch_stability_on(0, completion.seq);
            client.watches.insert(watch.0, put.start);
            Self::drain_stability(client, done, window_start, w);
        }
        for client in &mut self.clients {
            if client.pending.take().is_some() {
                Self::kill(client, w, "PUT got no reply from its round".into());
            }
        }
    }

    fn drain_stability(client: &mut Client, now: Instant, window_start: Instant, w: &mut Window) {
        for event in client.kvs.lcm_mut().take_notifications() {
            if let Some(start) = client.watches.remove(&event.watch.0) {
                if start >= window_start {
                    w.stable_us.push(us(now - start));
                }
            }
        }
    }

    fn kill(client: &mut Client, w: &mut Window, what: String) {
        client.dead = true;
        client.pending = None;
        w.fail(format!("client {:?}: {what}", client.kvs.lcm().id()));
    }
}
