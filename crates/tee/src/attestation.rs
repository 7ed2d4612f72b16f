//! Remote attestation: reports, quotes, and the attestation authority.
//!
//! Models the SGX attestation pipeline (paper §5.1.2):
//!
//! 1. A verifier sends a challenge nonce to the enclave.
//! 2. The enclave produces a [`Report`] over its measurement and user
//!    data (which embeds the nonce), MACed with the platform's report
//!    key ([`crate::platform::TeeServices::report`]).
//! 3. The platform's [`QuotingEnclave`] verifies the report MAC locally
//!    and signs the report under its EPID group-member secret, yielding
//!    a [`Quote`].
//! 4. The verifier checks the quote against the
//!    [`AttestationAuthority`]'s group, and that measurement and nonce
//!    match expectations.
//!
//! **Simulation note.** Real EPID is an anonymous group *signature*
//! scheme. With only symmetric primitives in this workspace, the group
//! signature is simulated by an HMAC under a group secret shared between
//! all member platforms and the verifier. This preserves the two
//! properties the LCM bootstrap relies on — (a) only genuine platforms
//! can produce valid quotes, (b) quotes do not identify the platform —
//! under the assumption that verifiers do not forge quotes against
//! themselves, which is harmless here because in LCM the verifier is the
//! trusted admin.

use std::fmt;

use lcm_crypto::ct;
use lcm_crypto::hmac::hmac_sha256;
use lcm_crypto::keys::SecretKey;
use lcm_crypto::sha256::Digest;
use serde::{Deserialize, Serialize};

use crate::measurement::Measurement;
use crate::platform::TeePlatform;
use crate::{Result, TeeError};

/// A local attestation report produced inside an enclave.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Measurement of the reporting enclave.
    pub measurement: Measurement,
    /// Caller-chosen data bound into the report (challenge nonce, key
    /// exchange material, …).
    pub user_data: Digest,
    /// MAC under the platform's report key; verified by the local
    /// quoting enclave.
    pub(crate) mac: Digest,
}

impl Report {
    /// Serializes the report for transport across the host boundary
    /// (96 bytes: measurement ‖ user data ‖ MAC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        out.extend_from_slice(self.measurement.as_bytes());
        out.extend_from_slice(self.user_data.as_bytes());
        out.extend_from_slice(self.mac.as_bytes());
        out
    }

    /// Deserializes a report from [`Report::to_bytes`] form.
    ///
    /// Returns `None` when `bytes` has the wrong length. A report with
    /// forged contents deserializes fine but fails MAC verification at
    /// the quoting enclave.
    pub fn from_bytes(bytes: &[u8]) -> Option<Report> {
        if bytes.len() != 96 {
            return None;
        }
        let field = |i: usize| {
            let mut arr = [0u8; 32];
            arr.copy_from_slice(&bytes[i * 32..(i + 1) * 32]);
            Digest(arr)
        };
        Some(Report {
            measurement: Measurement::from_digest(field(0)),
            user_data: field(1),
            mac: field(2),
        })
    }
}

/// A remotely verifiable quote: a report signed under the EPID-style
/// group secret.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quote {
    /// The attested measurement.
    pub measurement: Measurement,
    /// The user data carried over from the report.
    pub user_data: Digest,
    /// Group signature (simulated; see module docs).
    signature: Digest,
}

fn quote_signature(
    group_secret: &SecretKey,
    measurement: &Measurement,
    user_data: &Digest,
) -> Digest {
    let mut buf = Vec::with_capacity(96);
    buf.extend_from_slice(b"lcm-tee.quote");
    buf.extend_from_slice(measurement.as_bytes());
    buf.extend_from_slice(user_data.as_bytes());
    hmac_sha256(group_secret.as_bytes(), &buf)
}

/// The quoting enclave of one platform.
///
/// Verifies locally-produced reports and converts them into [`Quote`]s.
#[derive(Clone)]
pub struct QuotingEnclave {
    platform: TeePlatform,
}

impl fmt::Debug for QuotingEnclave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuotingEnclave")
            .field("platform", &self.platform.id())
            .finish()
    }
}

impl QuotingEnclave {
    /// Creates the quoting enclave for `platform`.
    pub fn new(platform: &TeePlatform) -> Self {
        QuotingEnclave {
            platform: platform.clone(),
        }
    }

    /// Verifies `report` was produced on this platform and signs it into
    /// a [`Quote`].
    ///
    /// # Errors
    ///
    /// * [`TeeError::AttestationFailed`] if the report MAC is invalid
    ///   (produced elsewhere or tampered with), or if the platform has
    ///   not joined an attestation authority.
    pub fn quote(&self, report: &Report) -> Result<Quote> {
        let expected = self
            .platform
            .inner
            .mac_report(&report.measurement, &report.user_data);
        if expected != report.mac {
            return Err(TeeError::AttestationFailed("report MAC invalid"));
        }
        let guard = self.platform.inner.group_secret.lock();
        let group_secret = guard
            .as_ref()
            .ok_or(TeeError::AttestationFailed("platform not in EPID group"))?;
        Ok(Quote {
            measurement: report.measurement,
            user_data: report.user_data,
            signature: quote_signature(group_secret, &report.measurement, &report.user_data),
        })
    }
}

/// The EPID-style attestation authority (Intel's role).
///
/// Enrolls platforms into a signature group and hands verifiers the
/// material needed to check quotes.
///
/// # Example
///
/// ```
/// use lcm_tee::attestation::AttestationAuthority;
/// use lcm_tee::platform::TeePlatform;
///
/// let authority = AttestationAuthority::new_deterministic(42);
/// let platform = TeePlatform::new_deterministic(1);
/// authority.enroll(&platform);
/// let verifier = authority.verifier();
/// # let _ = verifier;
/// ```
#[derive(Clone)]
pub struct AttestationAuthority {
    group_secret: SecretKey,
}

impl fmt::Debug for AttestationAuthority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AttestationAuthority(<group redacted>)")
    }
}

impl Default for AttestationAuthority {
    fn default() -> Self {
        Self::new()
    }
}

impl AttestationAuthority {
    /// Creates an authority with a random group secret.
    pub fn new() -> Self {
        AttestationAuthority {
            group_secret: SecretKey::generate(),
        }
    }

    /// Creates an authority with a seed-derived group secret for
    /// reproducible tests.
    pub fn new_deterministic(seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x00a7_7e57);
        AttestationAuthority {
            group_secret: SecretKey::generate_with(&mut rng),
        }
    }

    /// Enrolls `platform` into the signature group, enabling its quoting
    /// enclave.
    pub fn enroll(&self, platform: &TeePlatform) {
        *platform.inner.group_secret.lock() = Some(self.group_secret.clone());
    }

    /// Produces a verifier handle for relying parties.
    pub fn verifier(&self) -> QuoteVerifier {
        QuoteVerifier {
            group_secret: self.group_secret.clone(),
        }
    }
}

/// Relying-party side of attestation: checks quotes against a group.
#[derive(Clone)]
pub struct QuoteVerifier {
    group_secret: SecretKey,
}

impl fmt::Debug for QuoteVerifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("QuoteVerifier(<group redacted>)")
    }
}

impl QuoteVerifier {
    /// Verifies that `quote` was produced by a genuine group platform,
    /// attests `expected` program code, and carries `expected_user_data`
    /// (the challenge binding).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::AttestationFailed`] describing the first
    /// check that failed.
    pub fn verify(
        &self,
        quote: &Quote,
        expected: &Measurement,
        expected_user_data: &Digest,
    ) -> Result<()> {
        let sig = quote_signature(&self.group_secret, &quote.measurement, &quote.user_data);
        // The signature is a MAC tag: compare it without leaking, through
        // timing, how many leading bytes a forgery got right.
        if !ct::ct_eq(sig.as_bytes(), quote.signature.as_bytes()) {
            return Err(TeeError::AttestationFailed("group signature invalid"));
        }
        if &quote.measurement != expected {
            return Err(TeeError::AttestationFailed("unexpected measurement"));
        }
        if &quote.user_data != expected_user_data {
            return Err(TeeError::AttestationFailed("challenge mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::{Enclave, EnclaveProgram};
    use crate::platform::TeeServices;
    use lcm_crypto::sha256;

    struct App {
        services: TeeServices,
    }

    impl EnclaveProgram for App {
        fn measurement() -> Measurement {
            Measurement::of_program("attested-app", "1")
        }
        fn boot(services: TeeServices) -> Self {
            App { services }
        }
        fn ecall(&mut self, input: &[u8]) -> Vec<u8> {
            // Treat input as a challenge; return a serialized report.
            self.services.report(sha256::digest(input)).to_bytes()
        }
    }

    fn setup() -> (AttestationAuthority, TeePlatform, QuotingEnclave) {
        let authority = AttestationAuthority::new_deterministic(7);
        let platform = TeePlatform::new_deterministic(1);
        authority.enroll(&platform);
        let qe = QuotingEnclave::new(&platform);
        (authority, platform, qe)
    }

    fn make_report(platform: &TeePlatform, challenge: &[u8]) -> Report {
        let mut enclave = Enclave::<App>::create(platform);
        enclave.start().unwrap();
        enclave.ecall(challenge).unwrap();
        // Build the report through services directly for structured access.
        let services = TeeServices {
            platform: platform.inner.clone(),
            measurement: App::measurement(),
            rng_seed: 0,
        };
        services.report(sha256::digest(challenge))
    }

    #[test]
    fn full_attestation_roundtrip() {
        let (authority, platform, qe) = setup();
        let report = make_report(&platform, b"nonce-123");
        let quote = qe.quote(&report).unwrap();
        authority
            .verifier()
            .verify(&quote, &App::measurement(), &sha256::digest(b"nonce-123"))
            .unwrap();
    }

    #[test]
    fn quote_rejected_for_wrong_measurement() {
        let (authority, platform, qe) = setup();
        let report = make_report(&platform, b"nonce");
        let quote = qe.quote(&report).unwrap();
        let wrong = Measurement::of_program("evil-app", "1");
        assert!(matches!(
            authority
                .verifier()
                .verify(&quote, &wrong, &sha256::digest(b"nonce")),
            Err(TeeError::AttestationFailed("unexpected measurement"))
        ));
    }

    #[test]
    fn quote_rejected_for_wrong_challenge() {
        let (authority, platform, qe) = setup();
        let report = make_report(&platform, b"nonce");
        let quote = qe.quote(&report).unwrap();
        assert!(matches!(
            authority
                .verifier()
                .verify(&quote, &App::measurement(), &sha256::digest(b"other")),
            Err(TeeError::AttestationFailed("challenge mismatch"))
        ));
    }

    #[test]
    fn tampered_report_rejected_by_quoting_enclave() {
        let (_authority, platform, qe) = setup();
        let mut report = make_report(&platform, b"nonce");
        report.user_data = sha256::digest(b"forged");
        assert!(matches!(
            qe.quote(&report),
            Err(TeeError::AttestationFailed("report MAC invalid"))
        ));
    }

    #[test]
    fn report_from_other_platform_rejected() {
        let (_authority, _platform, qe) = setup();
        let other = TeePlatform::new_deterministic(99);
        let report = make_report(&other, b"nonce");
        assert!(qe.quote(&report).is_err());
    }

    #[test]
    fn unenrolled_platform_cannot_quote() {
        let platform = TeePlatform::new_deterministic(3);
        let qe = QuotingEnclave::new(&platform);
        let report = make_report(&platform, b"nonce");
        assert!(matches!(
            qe.quote(&report),
            Err(TeeError::AttestationFailed("platform not in EPID group"))
        ));
    }

    #[test]
    fn quote_from_foreign_authority_rejected() {
        let (_a1, platform, qe) = setup();
        let report = make_report(&platform, b"nonce");
        let quote = qe.quote(&report).unwrap();
        let other_authority = AttestationAuthority::new_deterministic(1234);
        assert!(other_authority
            .verifier()
            .verify(&quote, &App::measurement(), &sha256::digest(b"nonce"))
            .is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let (authority, platform, qe) = setup();
        let report = make_report(&platform, b"nonce");
        let mut quote = qe.quote(&report).unwrap();
        quote.signature = sha256::digest(b"forged");
        assert!(matches!(
            authority
                .verifier()
                .verify(&quote, &App::measurement(), &sha256::digest(b"nonce")),
            Err(TeeError::AttestationFailed("group signature invalid"))
        ));
    }

    #[test]
    fn quotes_are_platform_anonymous() {
        // Two enrolled platforms produce byte-identical quotes for the
        // same report contents: the verifier cannot tell them apart.
        let authority = AttestationAuthority::new_deterministic(5);
        let p1 = TeePlatform::new_deterministic(1);
        let p2 = TeePlatform::new_deterministic(2);
        authority.enroll(&p1);
        authority.enroll(&p2);
        let q1 = QuotingEnclave::new(&p1)
            .quote(&make_report(&p1, b"n"))
            .unwrap();
        let q2 = QuotingEnclave::new(&p2)
            .quote(&make_report(&p2, b"n"))
            .unwrap();
        assert_eq!(q1, q2);
    }
}
