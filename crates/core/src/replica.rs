//! Replicated shard groups: quorum-stable writes, failover, and
//! verified read scale-out.
//!
//! [`ReplicaGroup`] runs one shard as a group of 2f+1 replicas. The
//! *leader* executes and seals every batch exactly as a solo server
//! would; the host then ships the sealed state blob to each follower,
//! whose enclave installs it ([`LcmServer::apply_replica`]) and
//! acknowledges with the in-enclave digest of what it installed. A
//! batch's replies are released to clients only once a **quorum**
//! ([`Quorum::required`] of the group size) of replicas holds the
//! sealed state — the same threshold machinery the protocol already
//! uses for client stability ([`crate::stability`]), applied to
//! replicas instead of clients.
//!
//! ## What the quorum buys
//!
//! A write acknowledged to a client is held by at least f+1 replicas
//! (majority quorum over 2f+1). If at most f replicas crash, at least
//! one surviving replica holds every acknowledged write, and failover
//! promotes the live replica with the freshest applied state — so no
//! acknowledged write is ever lost, and a client that comes back after
//! a failover finds its `(tc, hc)` context intact: **no fork-detection
//! false positives**. Batches that executed but never reached quorum
//! have their replies withheld; after a crash their effects may be
//! lost, which clients experience as an unacknowledged operation to
//! retry (§4.6.1 cached-reply retries make the retry exact), or — if
//! the host maliciously restarts from a stale replica — as an honest
//! rollback detection. Either way the guarantee matches the paper's:
//! only the *unacknowledged suffix* is ever in question.
//!
//! ## Trust boundary
//!
//! The **host** schedules everything here: which member is leader,
//! when blobs ship, when a follower is promoted. None of that is
//! trusted. Correctness rests on the enclaves and the clients:
//!
//! * a follower's enclave only installs blobs sealed by a member of
//!   the *same group* (same shard slot, same group size — attested
//!   identity coordinates, checked in
//!   [`crate::context::TrustedContext::apply_replica`]);
//! * the acknowledgement digest is computed *inside* the follower's
//!   enclave over the exact blob it installed, so a host cannot forge
//!   quorum by acking blobs it never delivered;
//! * read replies are sealed by the serving replica's enclave under an
//!   AAD that pins the replica index, so a host cannot substitute one
//!   replica's answer for another's; and
//! * clients verify every reply against their own `(tc, hc)` context,
//!   exactly as in the unreplicated protocol — a host that promotes a
//!   stale replica past the quorum rules produces a detected rollback,
//!   not a silent one.
//!
//! ## Verified read scale-out
//!
//! Read-only operations ([`Functionality::is_readonly`]) can be served
//! by *any* replica through [`ReadPort::serve_read`], which locks only
//! the addressed member. Read legs are pinned to a replica inside the
//! AEAD and verified against the same per-shard history context as
//! writes, so read throughput scales with the replica count without
//! widening the trust boundary. See
//! [`crate::context::TrustedContext::serve_read`] for the enclave-side
//! checks (including the [`crate::Violation::MutationOnReadPath`]
//! halt).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use lcm_crypto::sha256::{self, Digest};
use lcm_storage::StableStorage;
use lcm_tee::attestation::Quote;

use crate::server::{BatchServer, ReadPort, Replies, SLOT_STATE_BLOB};
use crate::stability::Quorum;
use crate::types::ClientId;
use crate::wire::ReadHint;
use crate::{LcmError, Result};

#[allow(unused_imports)] // rustdoc links
use crate::functionality::Functionality;
#[allow(unused_imports)] // rustdoc links
use crate::server::LcmServer;

/// A member server paired with the storage it persists into. The group
/// needs the storage handle to lift the leader's sealed state blob off
/// the medium and ship it to followers — replication rides the same
/// blob the crash-recovery path already trusts.
pub struct ReplicaMember {
    /// The member's host server (solo or pipelined).
    pub server: Box<dyn BatchServer>,
    /// The member's stable storage, as the host sees it.
    pub storage: Arc<dyn StableStorage>,
}

struct Member {
    server: Arc<Mutex<Box<dyn BatchServer>>>,
    storage: Arc<dyn StableStorage>,
    alive: bool,
    /// Epoch (group batch counter) of the last blob this member is
    /// known to hold; the promotion key on failover.
    applied_epoch: u64,
}

/// Counters the fault-injection tests assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Follower promotions performed after a leader death.
    pub promotions: u64,
    /// Batches whose replies were withheld past their own step because
    /// the quorum was not yet reached.
    pub quorum_stalls: u64,
    /// Withheld (never quorum-acknowledged) replies dropped on a
    /// leader death — clients retry these.
    pub replies_dropped: u64,
    /// State blobs successfully applied by followers.
    pub blobs_applied: u64,
}

/// One shard executed by a 2f+1 replica group. Implements
/// [`BatchServer`] so it slots behind the existing sharded router,
/// transport front-end, and admin handle unchanged; see the
/// [module docs](self) for the protocol.
pub struct ReplicaGroup {
    members: Vec<Member>,
    quorum: Quorum,
    leader: usize,
    /// Wires not yet handed to the leader. Kept at group level so a
    /// leader crash loses no queued request.
    queue: VecDeque<Vec<u8>>,
    /// Replies executed by the leader but not yet quorum-held, FIFO.
    withheld: VecDeque<(ClientId, Vec<u8>)>,
    /// Group batch counter; bumped per sealed batch shipped.
    epoch: u64,
    stats: GroupStats,
}

impl ReplicaGroup {
    /// Builds a group from its members. The first member starts as
    /// leader. `quorum` is the replica-acknowledgement threshold —
    /// [`Quorum::Majority`] gives the 2f+1 guarantee; [`Quorum::All`]
    /// trades availability for synchronous replication everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    #[must_use]
    pub fn new(members: Vec<ReplicaMember>, quorum: Quorum) -> Self {
        assert!(!members.is_empty(), "a replica group needs members");
        let members = members
            .into_iter()
            .map(|m| Member {
                server: Arc::new(Mutex::new(m.server)),
                storage: m.storage,
                alive: false,
                applied_epoch: 0,
            })
            .collect();
        ReplicaGroup {
            members,
            quorum,
            leader: 0,
            queue: VecDeque::new(),
            withheld: VecDeque::new(),
            epoch: 0,
            stats: GroupStats::default(),
        }
    }

    /// Replica acknowledgements (leader included) needed before a
    /// batch's replies are released.
    #[must_use]
    pub fn required_acks(&self) -> usize {
        self.quorum.required(self.members.len())
    }

    /// Fault-injection counters.
    #[must_use]
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// Index of the current leader.
    #[must_use]
    pub fn leader(&self) -> usize {
        self.leader
    }

    /// The member at `(shard, replica)`; a group is one shard, so any
    /// `shard` other than 0 is out of range.
    fn member(&self, shard: u32, replica: u32) -> Result<&Member> {
        self.members
            .get(replica as usize)
            .filter(|_| shard == 0)
            .ok_or(LcmError::NoSuchMember { shard, replica })
    }

    fn lock(
        server: &Arc<Mutex<Box<dyn BatchServer>>>,
    ) -> std::sync::MutexGuard<'_, Box<dyn BatchServer>> {
        server.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ensures a live leader, promoting the live member with the
    /// freshest applied state if the seat is vacant. Withheld replies
    /// die with the old leader: they were never quorum-held, so the
    /// promoted state may not contain them, and releasing them would
    /// acknowledge writes the group cannot promise to keep.
    fn ensure_leader(&mut self) -> Result<()> {
        if self.members[self.leader].alive {
            return Ok(());
        }
        let candidate = self
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.alive)
            .max_by_key(|(_, m)| m.applied_epoch)
            .map(|(i, _)| i);
        let Some(next) = candidate else {
            return Err(LcmError::Tee("no live replica to promote".into()));
        };
        self.stats.replies_dropped += self.withheld.len() as u64;
        self.withheld.clear();
        self.leader = next;
        self.epoch = self.members[next].applied_epoch;
        self.stats.promotions += 1;
        Ok(())
    }

    /// Ships the leader's current sealed state blob to every live
    /// follower and bumps each successful applier's epoch. A follower
    /// whose apply fails (or whose in-enclave digest disagrees with
    /// the shipped blob) is treated as crashed — it no longer counts
    /// toward any quorum until rebooted.
    fn replicate(&mut self) -> Result<()> {
        let leader = self.leader;
        let blob = self.members[leader]
            .storage
            .load(SLOT_STATE_BLOB)
            .map_err(|e| LcmError::Storage(e.to_string()))?
            .ok_or_else(|| LcmError::Storage("leader has no sealed state to replicate".into()))?;
        let expected = sha256::digest(&blob);
        self.members[leader].applied_epoch = self.epoch;
        for i in 0..self.members.len() {
            if i == leader || !self.members[i].alive {
                continue;
            }
            let applied = {
                let mut server = Self::lock(&self.members[i].server);
                server.apply_replica(blob.clone())
            };
            match applied {
                Ok(digest) if digest == expected => {
                    self.members[i].applied_epoch = self.epoch;
                    self.stats.blobs_applied += 1;
                }
                _ => self.members[i].alive = false,
            }
        }
        Ok(())
    }

    /// Members (leader included) holding the current epoch's blob.
    fn holders(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.alive && m.applied_epoch == self.epoch)
            .count()
    }

    /// Releases withheld replies if the current epoch is quorum-held.
    /// Release is all-or-nothing: the newest blob contains every
    /// earlier batch, so quorum on it acknowledges the whole prefix.
    fn release(&mut self) -> Replies {
        if self.holders() >= self.required_acks() {
            self.withheld.drain(..).collect()
        } else {
            if !self.withheld.is_empty() {
                self.stats.quorum_stalls += 1;
            }
            Vec::new()
        }
    }

    /// Brings a freshly rebooted member level with the leader so churn
    /// (kill → promote → reboot) cannot leave it as the only live
    /// member with an ancient state.
    fn catch_up(&mut self, replica: usize) {
        if replica == self.leader || !self.members[self.leader].alive || self.epoch == 0 {
            return;
        }
        let blob = match self.members[self.leader].storage.load(SLOT_STATE_BLOB) {
            Ok(Some(blob)) => blob,
            _ => return,
        };
        let expected = sha256::digest(&blob);
        let applied = {
            let mut server = Self::lock(&self.members[replica].server);
            server.apply_replica(blob)
        };
        if matches!(applied, Ok(digest) if digest == expected) {
            self.members[replica].applied_epoch = self.epoch;
            self.stats.blobs_applied += 1;
        }
    }
}

impl BatchServer for ReplicaGroup {
    fn boot(&mut self) -> Result<bool> {
        let mut needs_provisioning = false;
        for (i, member) in self.members.iter_mut().enumerate() {
            let fresh = Self::lock(&member.server).boot()?;
            member.alive = true;
            member.applied_epoch = 0;
            if i == self.leader {
                needs_provisioning = fresh;
            }
        }
        Ok(needs_provisioning)
    }

    fn crash(&mut self) {
        // Whole-group crash: every member dies, queued wires and
        // withheld replies are lost — the solo-server crash contract,
        // scaled to the group.
        for member in &mut self.members {
            Self::lock(&member.server).crash();
            member.alive = false;
        }
        self.queue.clear();
        self.withheld.clear();
    }

    fn is_running(&self) -> bool {
        self.members[self.leader].alive
            && Self::lock(&self.members[self.leader].server).is_running()
    }

    fn replica_count(&self) -> u32 {
        self.members.len() as u32
    }

    fn group_leader(&self, shard: u32) -> u32 {
        let _ = shard;
        self.leader as u32
    }

    fn attest_member(&mut self, shard: u32, replica: u32, user_data: Digest) -> Result<Quote> {
        let server = Arc::clone(&self.member(shard, replica)?.server);
        let quote = Self::lock(&server).attest_member(0, 0, user_data);
        quote
    }

    fn provision_member(
        &mut self,
        shard: u32,
        replica: u32,
        sealed_payload: Vec<u8>,
    ) -> Result<()> {
        let server = Arc::clone(&self.member(shard, replica)?.server);
        let outcome = Self::lock(&server).provision_member(0, 0, sealed_payload);
        outcome
    }

    fn kill_member(&mut self, shard: u32, replica: u32, power_failure: bool) -> Result<()> {
        let member = self.member(shard, replica)?;
        let server = Arc::clone(&member.server);
        Self::lock(&server).kill_member(0, 0, power_failure)?;
        let member = &mut self.members[replica as usize];
        member.alive = false;
        member.applied_epoch = 0;
        if replica as usize == self.leader {
            // Leader death drops everything not yet quorum-held:
            // withheld replies (never acknowledged — clients retry) and
            // wires the group had accepted but not executed. The
            // sharded host observes `is_running() == false` and writes
            // the matching tickets off, so reply pairing stays exact.
            self.stats.replies_dropped += self.withheld.len() as u64;
            self.withheld.clear();
            self.queue.clear();
        }
        Ok(())
    }

    fn reboot_member(&mut self, shard: u32, replica: u32) -> Result<bool> {
        let member = self.member(shard, replica)?;
        let server = Arc::clone(&member.server);
        let fresh = Self::lock(&server).boot()?;
        let idx = replica as usize;
        self.members[idx].alive = true;
        self.members[idx].applied_epoch = 0;
        // Promote first if the leader seat is empty, then level the
        // rebooted member with whoever leads now.
        self.ensure_leader()?;
        self.catch_up(idx);
        Ok(fresh)
    }

    fn submit(&mut self, invoke_wire: Vec<u8>) {
        self.queue.push_back(invoke_wire);
    }

    fn queued(&self) -> usize {
        // Withheld replies count as unprocessed work: the wires behind
        // them have not settled, and the sharded reply book's ticket
        // accounting (and the front-end's work detection) must keep
        // driving this group until the quorum releases them.
        self.queue.len()
            + Self::lock(&self.members[self.leader].server).queued()
            + self.withheld.len()
    }

    fn batch_limit(&self) -> usize {
        Self::lock(&self.members[self.leader].server).batch_limit()
    }

    fn step(&mut self) -> Result<Replies> {
        self.ensure_leader()?;
        let leader = self.leader;
        let limit = self.batch_limit().max(1);
        let (replies, had_batch) = {
            let mut server = Self::lock(&self.members[leader].server);
            for _ in 0..limit {
                let Some(wire) = self.queue.pop_front() else {
                    break;
                };
                server.submit(wire);
            }
            if server.queued() == 0 {
                (Vec::new(), false)
            } else {
                let replies = server.step()?;
                // Replication ships the persisted blob, so the write
                // pipeline must drain before the blob is lifted.
                server.flush_persists()?;
                (replies, true)
            }
        };
        self.withheld.extend(replies);
        if had_batch {
            self.epoch += 1;
            self.replicate()?;
        }
        Ok(self.release())
    }

    fn process_all(&mut self) -> Result<Replies> {
        // Loop on *unexecuted* wires only: withheld replies drain via
        // `release`, not by further steps, and spinning on them would
        // never terminate while the quorum is down.
        let mut out = Vec::new();
        loop {
            let unexecuted =
                self.queue.len() + Self::lock(&self.members[self.leader].server).queued();
            if unexecuted == 0 {
                break;
            }
            out.extend(self.step()?);
        }
        // Drain a quorum stall if the queue emptied while replies were
        // still withheld and the quorum has since recovered.
        out.extend(self.release());
        Ok(out)
    }

    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.ensure_leader()?;
        let leader = self.leader;
        let reply = {
            let mut server = Self::lock(&self.members[leader].server);
            let reply = server.admin(admin_wire)?;
            server.flush_persists()?;
            reply
        };
        // Admin mutations (membership, key rotation) change the sealed
        // state; ship the new blob so a failover cannot roll them back.
        self.epoch += 1;
        self.replicate()?;
        Ok(reply)
    }

    fn export_migration(&mut self) -> Result<Vec<u8>> {
        self.ensure_leader()?;
        Self::lock(&self.members[self.leader].server).export_migration()
    }

    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()> {
        let replicas = self.members.len() as u32;
        for (i, member) in self.members.iter().enumerate() {
            let mut server = Self::lock(&member.server);
            server.import_migration_as(ticket.clone(), i as u32, replicas)?;
        }
        self.epoch += 1;
        for member in &mut self.members {
            if member.alive {
                member.applied_epoch = self.epoch;
            }
        }
        Ok(())
    }

    fn import_migration_as(&mut self, ticket: Vec<u8>, replica: u32, replicas: u32) -> Result<()> {
        if replicas != self.members.len() as u32 {
            return Err(LcmError::Tee(format!(
                "import_migration_as into a group of {} with replicas={replicas}",
                self.members.len()
            )));
        }
        let member = self.member(0, replica)?;
        Self::lock(&member.server).import_migration_as(ticket, replica, replicas)
    }

    fn export_slice(&mut self, slice: u32, to: u32) -> Result<(Vec<u8>, Vec<u8>)> {
        self.ensure_leader()?;
        let leader = self.leader;
        let pair = {
            let mut server = Self::lock(&self.members[leader].server);
            let pair = server.export_slice(slice, to)?;
            server.flush_persists()?;
            pair
        };
        // The post-export checkpoint (bumped table, moved keys gone)
        // ships to every follower so a failover cannot resurrect the
        // slice under the old epoch.
        self.epoch += 1;
        self.replicate()?;
        Ok(pair)
    }

    fn import_slice(&mut self, ticket: Vec<u8>) -> Result<()> {
        self.ensure_leader()?;
        let leader = self.leader;
        {
            let mut server = Self::lock(&self.members[leader].server);
            server.import_slice(ticket)?;
            server.flush_persists()?;
        }
        self.epoch += 1;
        self.replicate()
    }

    fn adopt_table(&mut self, bulletin: Vec<u8>) -> Result<()> {
        self.ensure_leader()?;
        let leader = self.leader;
        {
            let mut server = Self::lock(&self.members[leader].server);
            server.adopt_table(bulletin)?;
            server.flush_persists()?;
        }
        self.epoch += 1;
        self.replicate()
    }

    fn batches_processed(&self) -> u64 {
        self.members
            .iter()
            .map(|m| Self::lock(&m.server).batches_processed())
            .max()
            .unwrap_or(0)
    }

    fn ops_processed(&self) -> u64 {
        self.members
            .iter()
            .map(|m| Self::lock(&m.server).ops_processed())
            .max()
            .unwrap_or(0)
    }

    fn flush_persists(&mut self) -> Result<()> {
        Self::lock(&self.members[self.leader].server).flush_persists()
    }

    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        let Some((hint, _)) = ReadHint::peel(&read_wire) else {
            return Err(LcmError::Tee(
                "read wire too short for a routing hint".into(),
            ));
        };
        let member = self.member(0, hint.replica)?;
        let server = Arc::clone(&member.server);
        let reply = Self::lock(&server).serve_read(read_wire);
        reply
    }

    fn read_port(&self) -> Option<Arc<dyn ReadPort>> {
        Some(Arc::new(GroupReadPort {
            members: self.members.iter().map(|m| Arc::clone(&m.server)).collect(),
        }))
    }
}

/// The group's concurrent read surface: locks only the member the read
/// leg is pinned to, so reads to distinct replicas proceed in parallel
/// with each other and with the write path on the leader.
struct GroupReadPort {
    members: Vec<Arc<Mutex<Box<dyn BatchServer>>>>,
}

impl ReadPort for GroupReadPort {
    fn serve_read(&self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        let Some((hint, _)) = ReadHint::peel(&read_wire) else {
            return Err(LcmError::Tee(
                "read wire too short for a routing hint".into(),
            ));
        };
        let member = self.members.get(hint.replica as usize).ok_or_else(|| {
            LcmError::Tee(format!(
                "replica {} out of range (group of {})",
                hint.replica,
                self.members.len()
            ))
        })?;
        let mut server = member.lock().unwrap_or_else(|e| e.into_inner());
        server.serve_read(read_wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::AdminHandle;
    use crate::client::LcmClient;
    use crate::functionality::AppendLog;
    use crate::server::LcmServer;
    use crate::types::ClientId;
    use lcm_storage::{MemoryStorage, NamespacedStorage};
    use lcm_tee::world::TeeWorld;

    fn group(replicas: u32, quorum: Quorum) -> (ReplicaGroup, LcmClient) {
        let world = TeeWorld::new_deterministic(77);
        let storage: Arc<dyn StableStorage> = Arc::new(MemoryStorage::new());
        let members = (0..replicas)
            .map(|r| {
                let platform = world.platform_deterministic(1 + u64::from(r));
                let region = Arc::new(NamespacedStorage::new(storage.clone(), format!("rep{r}.")));
                ReplicaMember {
                    server: Box::new(LcmServer::<AppendLog>::new(&platform, region.clone(), 4)),
                    storage: region,
                }
            })
            .collect();
        let mut group = ReplicaGroup::new(members, quorum);
        assert!(group.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 12);
        admin.bootstrap(&mut group).unwrap();
        (group, LcmClient::new(ClientId(1), admin.client_key()))
    }

    #[test]
    fn quorum_releases_immediately_when_enough_members_hold_the_blob() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        assert_eq!(
            replies.len(),
            1,
            "3/3 holders >= 2 releases in the same step"
        );
        client.handle_reply(&replies[0].1).unwrap();
        let stats = group.stats();
        assert_eq!(stats.quorum_stalls, 0);
        assert_eq!(stats.blobs_applied, 2, "both followers applied the blob");
        assert_eq!(stats.promotions, 0);
    }

    #[test]
    fn losing_f_members_does_not_stall_a_2f_plus_1_group() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.kill_member(0, 2, false).unwrap();
        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        assert_eq!(replies.len(), 1, "leader + one follower meet the majority");
        client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(group.stats().quorum_stalls, 0);
    }

    #[test]
    fn replies_are_withheld_below_quorum_and_drain_after_a_reboot() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.kill_member(0, 1, false).unwrap();
        group.kill_member(0, 2, false).unwrap();

        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        assert!(
            replies.is_empty(),
            "1/3 holders < 2: the reply must be withheld"
        );
        assert!(group.stats().quorum_stalls >= 1);
        assert!(group.queued() > 0, "withheld replies still count as work");

        // One reboot restores the quorum; catch-up levels the member and
        // the stalled reply drains without re-executing anything.
        assert!(!group.reboot_member(0, 1).unwrap());
        let replies = group.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1);
        assert!(
            group.stats().blobs_applied >= 1,
            "catch-up ships the sealed blob"
        );
        assert_eq!(group.queued(), 0);
    }

    #[test]
    fn failover_promotes_the_live_member_with_the_freshest_state() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        client.handle_reply(&replies[0].1).unwrap();

        // Simulate a follower that missed the last blob, then kill the
        // leader: promotion must pick the follower that holds it.
        group.members[2].applied_epoch = 0;
        group.kill_member(0, 0, false).unwrap();
        group.submit(client.invoke(b"after-failover").unwrap());
        let replies = group.process_all().unwrap();
        assert_eq!(
            group.leader(),
            1,
            "member 1 held the freshest applied epoch"
        );
        assert_eq!(group.stats().promotions, 1);
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(
            done.seq.0, 2,
            "the acknowledged write survived the failover"
        );
    }

    #[test]
    fn leader_death_drops_withheld_replies_and_the_retry_is_exact() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.kill_member(0, 1, false).unwrap();
        group.kill_member(0, 2, false).unwrap();
        group.submit(client.invoke(b"never-acked").unwrap());
        assert!(group.step().unwrap().is_empty(), "below quorum: withheld");

        // The leader dies with the only copy; the withheld reply is
        // dropped (it was never acknowledged, so nothing is lost).
        group.kill_member(0, 0, false).unwrap();
        assert_eq!(group.stats().replies_dropped, 1);

        // Two reboots restore a quorum; the first live member is
        // promoted and the client's timeout-retry executes exactly once.
        group.reboot_member(0, 1).unwrap();
        group.reboot_member(0, 2).unwrap();
        group.submit(client.retry().unwrap());
        let replies = group.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1, "retry after a dropped reply is exactly-once");
        assert!(!client.is_halted(), "failover must not look like a fork");
    }

    #[test]
    fn group_of_one_degenerates_to_a_solo_server() {
        let (mut group, mut client) = group(1, Quorum::Majority);
        assert_eq!(group.required_acks(), 1);
        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        assert_eq!(replies.len(), 1, "f = 0: the leader alone is the quorum");
        client.handle_reply(&replies[0].1).unwrap();

        group.kill_member(0, 0, false).unwrap();
        assert!(
            !group.reboot_member(0, 0).unwrap(),
            "recovers from sealed state"
        );
        group.submit(client.invoke(b"after").unwrap());
        let replies = group.process_all().unwrap();
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 2);
    }

    #[test]
    fn read_port_rejects_out_of_range_and_truncated_hints() {
        let (group, _client) = group(3, Quorum::Majority);
        let port = group.read_port().unwrap();
        assert!(port.serve_read(vec![0u8; 3]).is_err(), "truncated hint");
        let mut wire = Vec::new();
        ReadHint {
            client: ClientId(1),
            route: 0,
            seq: 1,
            replica: 9,
            epoch: 0,
        }
        .encode_to(&mut wire);
        wire.extend_from_slice(b"ciphertext");
        assert!(port.serve_read(wire).is_err(), "replica 9 of a group of 3");
    }
}
