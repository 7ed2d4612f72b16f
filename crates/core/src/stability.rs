//! The protocol state map `V` and operation stability (paper §4.5).
//!
//! `T` maintains, per client, the sequence number of the last
//! *acknowledged* operation (`ta`), and the sequence number and chain
//! value of the last *executed* operation (`t`, `h`). A client
//! acknowledges operation `t` implicitly by invoking its next operation
//! with `tc = t` — that is when `T` learns the client actually received
//! the reply.
//!
//! `majority-stable(V)` follows the paper's definition: *"the largest
//! acknowledged sequence number in V that is less than or equal to more
//! than n/2 sequence numbers in V"*.
//!
//! Computing it needs no count per candidate: at least `k` of the `t`s
//! in `V` reach a value `a` exactly when `a ≤ T_k`, the `k`-th largest
//! `t`. [`stable_with`] therefore selects `T_k` and returns the largest
//! `ta ≤ T_k`, O(n) in the number of clients. The trusted context calls
//! it after each change to `V` and keeps the result as its stable
//! floor, so reads and status queries report the watermark without
//! recomputing it.

use std::collections::BTreeMap;

use crate::codec::{CodecError, Reader, WireCodec, Writer};
use crate::types::{ChainValue, ClientId, SeqNo};

/// The reply fields cached for crash-tolerant retries (§4.6.1 extends
/// `V` to *"store the last operation result r as well"*; we cache the
/// whole reply so it can be re-encrypted verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedReply {
    /// Sequence number the cached reply reported.
    pub t: SeqNo,
    /// Majority-stable watermark the cached reply reported.
    pub q: SeqNo,
    /// Chain value the cached reply reported.
    pub h: ChainValue,
    /// The `hc` echo of the cached reply — also used to authenticate
    /// that a retry matches the context of the original invocation.
    pub hc_echo: ChainValue,
    /// Whether the cached reply was a routing redirect (a
    /// context-stamped no-op carrying the slice table instead of an
    /// execution result); a retry must replay the same disposition.
    pub redirect: bool,
    /// The cached operation result.
    pub result: Vec<u8>,
}

impl WireCodec for CachedReply {
    fn encode(&self, w: &mut Writer) {
        self.t.encode(w);
        self.q.encode(w);
        self.h.encode(w);
        self.hc_echo.encode(w);
        w.put_bool(self.redirect);
        w.put_bytes(&self.result);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CachedReply {
            t: SeqNo::decode(r)?,
            q: SeqNo::decode(r)?,
            h: ChainValue::decode(r)?,
            hc_echo: ChainValue::decode(r)?,
            redirect: r.get_bool()?,
            result: r.get_bytes()?.to_vec(),
        })
    }
}

/// One entry of the protocol state map `V`: the paper's
/// `(ta, t, h)` triple plus the cached reply of the crash-tolerance
/// extension.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VEntry {
    /// Sequence number of the last operation this client acknowledged.
    pub ta: SeqNo,
    /// Sequence number of the client's last executed operation.
    pub t: SeqNo,
    /// Chain value after the client's last executed operation.
    pub h: ChainValue,
    /// Reply cached for retry; `None` only before the client's first
    /// operation.
    pub cached: Option<CachedReply>,
}

impl WireCodec for VEntry {
    fn encode(&self, w: &mut Writer) {
        self.ta.encode(w);
        self.t.encode(w);
        self.h.encode(w);
        match &self.cached {
            None => w.put_bool(false),
            Some(c) => {
                w.put_bool(true);
                c.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let ta = SeqNo::decode(r)?;
        let t = SeqNo::decode(r)?;
        let h = ChainValue::decode(r)?;
        let cached = if r.get_bool()? {
            Some(CachedReply::decode(r)?)
        } else {
            None
        };
        Ok(VEntry { ta, t, h, cached })
    }
}

/// The protocol state map `V`, indexed by client identifier.
pub type VMap = BTreeMap<ClientId, VEntry>;

/// Encodes a [`VMap`] deterministically (BTreeMap iterates in key
/// order).
pub fn encode_vmap(v: &VMap, w: &mut Writer) {
    w.put_u32(v.len() as u32);
    for (id, entry) in v {
        id.encode(w);
        entry.encode(w);
    }
}

/// Decodes a [`VMap`].
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decode_vmap(r: &mut Reader<'_>) -> Result<VMap, CodecError> {
    let n = r.get_u32()? as usize;
    let mut v = VMap::new();
    for _ in 0..n {
        let id = ClientId::decode(r)?;
        let entry = VEntry::decode(r)?;
        v.insert(id, entry);
    }
    Ok(v)
}

/// `majority-stable(V)`: the largest acknowledged sequence number `a`
/// in `V` such that more than `n/2` of the last-operation sequence
/// numbers in `V` are at least `a`.
///
/// Returns [`SeqNo::ZERO`] for an empty map or when nothing has been
/// acknowledged.
///
/// # Example
///
/// ```
/// use lcm_core::stability::{majority_stable, VEntry, VMap};
/// use lcm_core::types::{ClientId, SeqNo};
///
/// let mut v = VMap::new();
/// // Three clients; C1 acknowledged op #4, and ops ≥ 4 were executed
/// // by all three ⇒ #4 is majority-stable.
/// v.insert(ClientId(1), VEntry { ta: SeqNo(4), t: SeqNo(6), ..VEntry::default() });
/// v.insert(ClientId(2), VEntry { ta: SeqNo(2), t: SeqNo(5), ..VEntry::default() });
/// v.insert(ClientId(3), VEntry { ta: SeqNo(0), t: SeqNo(4), ..VEntry::default() });
/// assert_eq!(majority_stable(&v), SeqNo(4));
/// ```
pub fn majority_stable(v: &VMap) -> SeqNo {
    stable_with(v, Quorum::Majority)
}

/// A counting threshold over a group of `n` parties.
///
/// The same threshold engine backs two very different quorums — do not
/// conflate them:
///
/// * **Client quorum** (the paper's use, §4.5 Definition 2): how many
///   *clients* must have executed past an acknowledged sequence number
///   before `T` reports it stable. `n` is the client-group size, the
///   parties are mutually-trusting protocol participants, and the
///   quorum governs what *stability watermark* a reply carries. The
///   paper uses a majority but notes *"one may use different strengths
///   of stability"*, so it is configurable.
/// * **Replica quorum** ([`crate::replica::ReplicaGroup`]): how many
///   *group members* must hold a sealed state blob before the host
///   releases the batch's replies. `n` is the replica count `2f + 1`,
///   the parties are enclave instances on one untrusted host, and the
///   quorum governs *durability of acknowledged writes* across member
///   crashes. With [`Quorum::Majority`] over `2f + 1` members,
///   `required = f + 1`, so any `f` crashes leave at least one holder
///   of every acknowledged write.
///
/// A deployment picks the two independently: a cautious operator may
/// run client stability at [`Quorum::All`] while replica release stays
/// at majority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quorum {
    /// Strictly more than half of the clients (the paper's default).
    Majority,
    /// Every client (full stability; slowest to advance).
    All,
    /// At least `k` clients (clamped to the group size).
    AtLeast(u32),
}

impl Quorum {
    /// Minimum number of qualifying clients out of `n` for stability.
    pub fn required(&self, n: usize) -> usize {
        match self {
            Quorum::Majority => n / 2 + 1,
            Quorum::All => n,
            Quorum::AtLeast(k) => (*k as usize).min(n).max(1),
        }
    }
}

impl WireCodec for Quorum {
    fn encode(&self, w: &mut Writer) {
        match self {
            Quorum::Majority => w.put_u8(0),
            Quorum::All => w.put_u8(1),
            Quorum::AtLeast(k) => {
                w.put_u8(2);
                w.put_u32(*k);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Quorum::Majority),
            1 => Ok(Quorum::All),
            2 => Ok(Quorum::AtLeast(r.get_u32()?)),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

/// Generalization of [`majority_stable`] to an arbitrary [`Quorum`]:
/// the largest `ta` in `V` such that at least `k = quorum.required(n)`
/// of the `t`s in `V` are `≥ ta`.
///
/// Those are exactly the `ta ≤ T_k`, where `T_k` is the `k`-th largest
/// `t`: at least `k` entries reach any value up to `T_k`, and at most
/// `k - 1` reach anything above it. So one selection for `T_k` and one
/// pass over the `ta`s answer the query in O(n) time for `n` clients.
///
/// Returns [`SeqNo::ZERO`] for an empty map or when no acknowledged
/// sequence number qualifies.
pub fn stable_with(v: &VMap, quorum: Quorum) -> SeqNo {
    let n = v.len();
    if n == 0 {
        return SeqNo::ZERO;
    }
    // `required` lies in 1..=n for n ≥ 1, and the k-th largest of n
    // values sits at ascending index n - k.
    let k = quorum.required(n);
    let mut ts: Vec<SeqNo> = v.values().map(|e| e.t).collect();
    let t_k = *ts.select_nth_unstable(n - k).1;
    v.values()
        .map(|e| e.ta)
        .filter(|&ta| ta <= t_k)
        .max()
        .unwrap_or(SeqNo::ZERO)
}

/// The `argmax(V)` of Alg. 2: the entry holding the most recent
/// operation, from which `(t, h)` are recovered after a restart.
pub fn latest_entry(v: &VMap) -> Option<&VEntry> {
    v.values().max_by_key(|e| e.t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(ta: u64, t: u64) -> VEntry {
        VEntry {
            ta: SeqNo(ta),
            t: SeqNo(t),
            h: ChainValue::GENESIS.extend(b"op", SeqNo(t), ClientId(0)),
            cached: None,
        }
    }

    fn vmap(entries: &[(u32, u64, u64)]) -> VMap {
        entries
            .iter()
            .map(|&(id, ta, t)| (ClientId(id), entry(ta, t)))
            .collect()
    }

    /// The definition, evaluated literally: count the `t`s that reach
    /// each candidate `ta`. Quadratic; the oracle for [`stable_with`].
    fn stable_with_scan(v: &VMap, quorum: Quorum) -> SeqNo {
        let n = v.len();
        if n == 0 {
            return SeqNo::ZERO;
        }
        let required = quorum.required(n);
        let mut best = SeqNo::ZERO;
        for entry in v.values() {
            let a = entry.ta;
            if a <= best {
                continue;
            }
            let count = v.values().filter(|e| e.t >= a).count();
            if count >= required {
                best = a;
            }
        }
        best
    }

    /// Random `V`s of up to 300 clients with `ta ≤ t`: about a quarter
    /// never invoked (`t = 0`), a third drawn from a narrow range so
    /// `t`s tie often, the rest spread wide.
    fn arb_vmap() -> impl Strategy<Value = VMap> {
        proptest::collection::vec((0u8..12, 0u64..16, 0u64..100_000, any::<u64>()), 0..=300)
            .prop_map(|raw| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (kind, narrow, wide, ack))| {
                        let t = match kind {
                            0..=2 => 0,
                            3..=6 => narrow,
                            _ => wide,
                        };
                        let ta = ack % (t + 1);
                        (ClientId(i as u32), entry(ta, t))
                    })
                    .collect()
            })
    }

    fn arb_quorum() -> impl Strategy<Value = Quorum> {
        prop_oneof![
            Just(Quorum::Majority),
            Just(Quorum::All),
            Just(Quorum::AtLeast(0)),
            (1u32..=320).prop_map(Quorum::AtLeast),
            Just(Quorum::AtLeast(u32::MAX)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn selection_matches_quadratic_scan(v in arb_vmap(), quorum in arb_quorum()) {
            prop_assert_eq!(stable_with(&v, quorum), stable_with_scan(&v, quorum));
        }
    }

    #[test]
    fn empty_map_is_zero() {
        assert_eq!(majority_stable(&VMap::new()), SeqNo::ZERO);
    }

    #[test]
    fn nothing_acknowledged_is_zero() {
        let v = vmap(&[(1, 0, 3), (2, 0, 2), (3, 0, 1)]);
        assert_eq!(majority_stable(&v), SeqNo::ZERO);
    }

    #[test]
    fn single_client_self_stability() {
        // One client: its own acknowledgement is a majority of one.
        let v = vmap(&[(1, 5, 6)]);
        assert_eq!(majority_stable(&v), SeqNo(5));
    }

    #[test]
    fn majority_needed() {
        // 4 clients: exactly half executing ≥ a is NOT a majority.
        let v = vmap(&[(1, 4, 4), (2, 0, 4), (3, 0, 2), (4, 0, 1)]);
        // a=4: clients with t>=4 are {1,2} = 2, need >2 ⇒ not stable.
        assert_eq!(majority_stable(&v), SeqNo::ZERO);
        let v = vmap(&[(1, 4, 4), (2, 0, 4), (3, 0, 5), (4, 0, 1)]);
        // a=4: {1,2,3} = 3 > 2 ⇒ stable.
        assert_eq!(majority_stable(&v), SeqNo(4));
    }

    #[test]
    fn largest_qualifying_ack_wins() {
        let v = vmap(&[(1, 6, 8), (2, 5, 7), (3, 0, 6)]);
        // a=6: |{t>=6}| = 3 > 1.5 ⇒ stable; a=6 beats a=5.
        assert_eq!(majority_stable(&v), SeqNo(6));
    }

    #[test]
    fn forked_minority_stalls_stability() {
        // Clients 2 and 3 are forked away (their t stopped advancing).
        let v = vmap(&[(1, 9, 10), (2, 0, 2), (3, 0, 2)]);
        // a=9: only client 1 has t>=9 ⇒ 1 ≤ 1.5 ⇒ not stable.
        assert_eq!(majority_stable(&v), SeqNo::ZERO);
    }

    #[test]
    fn ventry_codec_roundtrip() {
        let mut e = entry(3, 7);
        assert_eq!(VEntry::from_bytes(&e.to_bytes()).unwrap(), e);
        e.cached = Some(CachedReply {
            t: SeqNo(7),
            q: SeqNo(3),
            h: e.h,
            hc_echo: ChainValue::GENESIS,
            redirect: false,
            result: b"result".to_vec(),
        });
        assert_eq!(VEntry::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn vmap_codec_roundtrip() {
        let v = vmap(&[(1, 1, 2), (5, 0, 4), (9, 3, 3)]);
        let mut w = Writer::new();
        encode_vmap(&v, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = decode_vmap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn vmap_encoding_is_deterministic() {
        let a = vmap(&[(3, 1, 2), (1, 0, 4), (2, 3, 3)]);
        let b = vmap(&[(2, 3, 3), (3, 1, 2), (1, 0, 4)]);
        let mut wa = Writer::new();
        let mut wb = Writer::new();
        encode_vmap(&a, &mut wa);
        encode_vmap(&b, &mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn quorum_required_counts() {
        assert_eq!(Quorum::Majority.required(1), 1);
        assert_eq!(Quorum::Majority.required(2), 2);
        assert_eq!(Quorum::Majority.required(3), 2);
        assert_eq!(Quorum::Majority.required(4), 3);
        assert_eq!(Quorum::All.required(5), 5);
        assert_eq!(Quorum::AtLeast(2).required(5), 2);
        assert_eq!(Quorum::AtLeast(9).required(5), 5);
        assert_eq!(Quorum::AtLeast(0).required(5), 1);
    }

    #[test]
    fn replica_quorum_thresholds_k_of_2f_plus_1() {
        // The replica-release quorum over 2f+1 members: majority is
        // f+1, so f crashes still leave a holder of every release.
        for f in 0u32..4 {
            let n = (2 * f + 1) as usize;
            let required = Quorum::Majority.required(n);
            assert_eq!(required, f as usize + 1, "2f+1 = {n}");
            // Tolerance: killing f members leaves exactly enough.
            assert!(n - f as usize >= required);
            // One more crash breaks the quorum.
            assert!(n - f as usize - 1 < required || f == 0);
        }
    }

    #[test]
    fn replica_quorum_degenerate_f0_group_of_one() {
        // f = 0: a "group" of one member. The sole member is its own
        // quorum — exactly the unreplicated server's behavior.
        assert_eq!(Quorum::Majority.required(1), 1);
        assert_eq!(Quorum::All.required(1), 1);
        // AtLeast clamps into [1, n] at both ends.
        assert_eq!(Quorum::AtLeast(0).required(1), 1);
        assert_eq!(Quorum::AtLeast(7).required(1), 1);
    }

    #[test]
    fn replica_quorum_all_but_one_crashed_edge() {
        // 2f+1 = 5, f = 2: with four members crashed the survivor
        // cannot form a majority quorum — releases must stall rather
        // than acknowledge writes a single crash could erase.
        let n = 5;
        let holders_after_crashes = 1;
        assert!(holders_after_crashes < Quorum::Majority.required(n));
        // AtLeast(1) deliberately opts out of that protection: one
        // holder (the leader itself) releases immediately.
        assert_eq!(Quorum::AtLeast(1).required(n), 1);
        assert!(holders_after_crashes >= Quorum::AtLeast(1).required(n));
    }

    #[test]
    fn all_quorum_is_stricter_than_majority() {
        let v = vmap(&[(1, 6, 8), (2, 5, 7), (3, 0, 3)]);
        // a=6 needs all three t ≥ 6, but client 3 has t=3.
        assert_eq!(stable_with(&v, Quorum::All), SeqNo::ZERO);
        assert_eq!(stable_with(&v, Quorum::Majority), SeqNo(6));
    }

    #[test]
    fn quorum_codec_roundtrip() {
        for q in [Quorum::Majority, Quorum::All, Quorum::AtLeast(4)] {
            assert_eq!(Quorum::from_bytes(&q.to_bytes()).unwrap(), q);
        }
    }

    #[test]
    fn latest_entry_is_argmax() {
        let v = vmap(&[(1, 1, 2), (2, 0, 9), (3, 3, 3)]);
        assert_eq!(latest_entry(&v).unwrap().t, SeqNo(9));
        assert!(latest_entry(&VMap::new()).is_none());
    }
}
