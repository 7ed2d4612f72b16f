//! Criterion microbenches for the LCM protocol path: client-side
//! invoke/complete and the trusted context's full Alg. 2 step.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcm_core::admin::AdminHandle;
use lcm_core::server::LcmServer;
use lcm_core::stability::{majority_stable, VEntry, VMap};
use lcm_core::types::{ChainValue, ClientId, SeqNo};
use lcm_kvs::client::KvsClient;
use lcm_kvs::ops::KvOp;
use lcm_kvs::store::KvStore;
use lcm_storage::MemoryStorage;
use lcm_tee::world::TeeWorld;

fn setup(batch: usize) -> (LcmServer<KvStore>, KvsClient) {
    let world = TeeWorld::new_deterministic(77);
    let platform = world.platform_deterministic(1);
    let mut server = LcmServer::<KvStore>::new(&platform, Arc::new(MemoryStorage::new()), batch);
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(
        &world,
        vec![ClientId(1)],
        lcm_core::stability::Quorum::Majority,
        1,
    );
    admin.bootstrap(&mut server).unwrap();
    let client = KvsClient::new(ClientId(1), admin.client_key());
    (server, client)
}

fn bench_full_operation(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_op_roundtrip");
    for (label, batch) in [("unbatched", 1usize), ("batch16", 16)] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let (mut server, mut client) = setup(batch);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                client
                    .run(
                        &mut server,
                        &KvOp::Put(b"bench-key".to_vec(), i.to_be_bytes().to_vec()),
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_client_invoke_encoding(c: &mut Criterion) {
    // Client-side cost alone: AEAD + wire encoding per invoke.
    let world = TeeWorld::new_deterministic(78);
    let _ = world;
    let key = lcm_crypto::keys::SecretKey::from_bytes([9u8; 32]);
    c.bench_function("client_invoke_encode_145B", |b| {
        let mut client = lcm_core::client::LcmClient::new(ClientId(1), &key);
        let op = vec![0u8; 145];
        b.iter(|| {
            let wire = client.invoke(&op).unwrap();
            // Reset the pending op without a server.
            let _ = wire;
            reset(&mut client, &key);
        });
    });

    fn reset(client: &mut lcm_core::client::LcmClient, key: &lcm_crypto::keys::SecretKey) {
        *client = lcm_core::client::LcmClient::new(ClientId(1), key);
    }
}

fn bench_majority_stable(c: &mut Criterion) {
    let mut group = c.benchmark_group("majority_stable");
    for n in [4usize, 16, 64, 256, 1024] {
        let v: VMap = (0..n as u32)
            .map(|i| {
                (
                    ClientId(i),
                    VEntry {
                        ta: SeqNo(u64::from(i)),
                        t: SeqNo(u64::from(i) + 3),
                        h: ChainValue::GENESIS,
                        cached: None,
                    },
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &v, |b, v| {
            b.iter(|| majority_stable(v));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_full_operation,
    bench_client_invoke_encoding,
    bench_majority_stable
);
criterion_main!(benches);
