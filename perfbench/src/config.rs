//! The frozen workload table.
//!
//! Every workload's shape is compiled in and selected by `--workload`,
//! so a changed workload is an edit of this file and nothing else. The
//! program prints the config it ran with in every report.

/// Records in every workload's key space, all preloaded by one verified
/// PUT each.
pub const RECORDS: u64 = 1000;

/// Key length: YCSB's `user` prefix and 36 zero-padded digits.
pub const KEY_LEN: usize = 40;

/// Value length of every write, in bytes.
pub const VALUE_LEN: usize = 100;

/// Seed of the TEE world and admin (fixed; never the workload seed).
pub const TEE_SEED: u64 = 2024;

/// Times the deployment is set up per untraced run; `setup_s` is the
/// median.
pub const SETUPS: usize = 7;

const _: () = assert!(crate::gen::VALUE_HEADER + KEY_LEN <= VALUE_LEN);

/// One workload's frozen shape. Every workload runs YCSB's scrambled
/// zipfian key choice over [`RECORDS`] records, on one shard in
/// `Mode::Sync`, persisting through `DeltaLogStorage`.
#[derive(Debug, PartialEq)]
pub struct Config {
    /// The `--workload` name.
    pub name: &'static str,
    /// Share of operations that are GETs (the rest are PUTs).
    pub read_share: f64,
    /// Logical closed-loop clients (protocol identities).
    pub clients: u32,
    /// Members of the shard group (1 = unreplicated).
    pub replicas: u32,
    /// Modelled device latency per store, in microseconds.
    pub device_delay_us: u64,
    /// Operations issued, unrecorded, between set-up and measurement.
    /// Counted in operations, not time, so the measured window starts
    /// at the same point of the storage engine's checkpoint cycle on
    /// every run.
    pub warmup_ops: u64,
}

/// Every workload the program runs. `BENCHMARK.json` gates a subset;
/// `reference.json` says why the others are not gated.
pub const WORKLOADS: &[Config] = &[
    // The paper's default, compute-only: YCSB-A.
    Config {
        name: "ycsb-a",
        read_share: 0.5,
        clients: 32,
        replicas: 1,
        device_delay_us: 0,
        warmup_ops: 30_000,
    },
    // Verified reads from many clients: YCSB-B.
    Config {
        name: "crowd-read",
        read_share: 0.95,
        clients: 256,
        replicas: 1,
        device_delay_us: 0,
        warmup_ops: 20_000,
    },
    // YCSB-A on a 3-member replica group over a 1 ms device.
    Config {
        name: "replicated-write",
        read_share: 0.5,
        clients: 32,
        replicas: 3,
        device_delay_us: 1000,
        warmup_ops: 700,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Config> {
    WORKLOADS.iter().find(|c| c.name == name)
}

impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: records={RECORDS} key_len={KEY_LEN} value_len={VALUE_LEN} dist=zipfian \
             read_share={} clients={} shards=1 replicas={} mode=sync device_delay_us={} \
             warmup_ops={} tee_seed={TEE_SEED} setups={SETUPS}",
            self.name,
            self.read_share,
            self.clients,
            self.replicas,
            self.device_delay_us,
            self.warmup_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_gated_or_says_why_not() {
        let benchmark = include_str!("../../BENCHMARK.json");
        let reference = include_str!("../reference.json");
        for c in WORKLOADS {
            let gated = benchmark.contains(&format!("{{\"name\": \"{}\"", c.name));
            let reason = reference.contains(&format!("\"{}\": \"", c.name));
            assert!(
                gated != reason,
                "{}: gated={gated}, ungated reason={reason}",
                c.name
            );
            assert!((0.0..=1.0).contains(&c.read_share) && c.clients > 0 && c.replicas > 0);
        }
        assert_eq!(workload("crowd-read").map(|c| c.clients), Some(256));
        assert!(workload("update-durable").is_none());
    }
}
