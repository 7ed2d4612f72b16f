//! Criterion microbenches for the cryptographic substrate.
//!
//! These ground the simulator's cost constants: per-byte AEAD and hash
//! throughput on the build machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcm_crypto::aead::{self, AeadKey};
use lcm_crypto::hmac::hmac_sha256;
use lcm_crypto::keys::SecretKey;
use lcm_crypto::sha256;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 256, 1024, 16 * 1024, 256 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256::digest(data));
        });
    }
    group.finish();
}

fn bench_hash_chain_step(c: &mut Criterion) {
    // The exact LCM chain step: hash(h ‖ o ‖ t ‖ i) with a 145 B op.
    let h = sha256::digest(b"previous");
    let op = vec![0u8; 145];
    c.bench_function("hash_chain_step_145B_op", |b| {
        b.iter(|| {
            sha256::digest_parts(&[h.as_bytes(), &op, &7u64.to_be_bytes(), &3u32.to_be_bytes()])
        });
    });
}

fn bench_aead(c: &mut Criterion) {
    let key = AeadKey::from_secret(&SecretKey::from_bytes([7u8; 32]));
    let mut group = c.benchmark_group("aead");
    // 145 B is an invoke's plaintext, 177 B a verified read's reply.
    for size in [145usize, 177, 1024, 16 * 1024, 328 * 1024] {
        let data = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("encrypt", size), &data, |b, data| {
            b.iter(|| aead::auth_encrypt(&key, data, b"lcm.invoke").unwrap());
        });
        let sealed = aead::auth_encrypt(&key, &data, b"lcm.invoke").unwrap();
        group.bench_with_input(BenchmarkId::new("decrypt", size), &sealed, |b, sealed| {
            b.iter(|| aead::auth_decrypt(&key, sealed, b"lcm.invoke").unwrap());
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let data = vec![0u8; 1024];
    c.bench_function("hmac_sha256_1KiB", |b| {
        b.iter(|| hmac_sha256(b"key", &data));
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hash_chain_step,
    bench_aead,
    bench_hmac
);
criterion_main!(benches);
