//! Authenticated encryption with associated data.
//!
//! This module provides the `auth-encrypt` / `auth-decrypt` pair that the
//! LCM paper assumes (§4.1): "authenticated encryption produces a
//! ciphertext integrated with a message-authentication code; it protects
//! the content from leaking information to S and prevents that S tampers
//! with messages or stored data by altering ciphertext."
//!
//! The paper's implementation uses AES-GCM-128 from the SGX SDK. Since
//! this reproduction implements all cryptography from scratch, we use the
//! equivalent generic composition: **ChaCha20 encryption, then
//! HMAC-SHA-256 over `aad ‖ nonce ‖ ciphertext ‖ len(aad)`** under an
//! independent MAC subkey (encrypt-then-MAC, the provably-sound order).
//! Both subkeys are derived from one 32-byte [`SecretKey`] via HKDF with
//! distinct labels. The MAC key schedule is precomputed per RFC 2104 §4:
//! an [`AeadKey`] absorbs `K⊕ipad` and `K⊕opad` once, at construction,
//! and every tag starts from a copy of those two SHA-256 midstates, so a
//! seal or open pays only for its own bytes. The security contract
//! visible to the protocol — IND-CCA confidentiality plus ciphertext
//! integrity with associated data — is the same as AES-GCM's.
//!
//! Wire layout of a sealed blob: `nonce(12) ‖ ciphertext ‖ tag(32)`.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::chacha20::{self, NONCE_LEN};
use crate::hkdf;
use crate::hmac::HmacSha256;
use crate::keys::SecretKey;
use crate::sha256::DIGEST_LEN;
use crate::{CryptoError, Result};

/// Length of the authentication tag, in bytes.
pub const TAG_LEN: usize = DIGEST_LEN;

/// Minimum length of any valid sealed blob (`nonce ‖ tag` with empty
/// ciphertext).
pub const MIN_SEALED_LEN: usize = NONCE_LEN + TAG_LEN;

/// An AEAD key: an encryption subkey and a MAC subkey derived from one
/// master secret, the MAC subkey held as its keyed HMAC state.
///
/// Equality compares the encryption subkey and the keyed MAC state;
/// `Debug` prints neither, and the type is deliberately not
/// serializable: persist the master [`SecretKey`] instead.
///
/// # Example
///
/// ```
/// use lcm_crypto::aead::AeadKey;
/// use lcm_crypto::keys::SecretKey;
///
/// let master = SecretKey::generate();
/// let key = AeadKey::from_secret(&master);
/// # let _ = key;
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct AeadKey {
    enc: [u8; 32],
    mac: HmacSha256,
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AeadKey(<redacted>)")
    }
}

impl AeadKey {
    /// Derives the encryption and MAC subkeys from `master` and keys
    /// the HMAC once.
    pub fn from_secret(master: &SecretKey) -> Self {
        let enc = hkdf::derive_key(master, b"lcm-aead", b"enc-subkey");
        let mac = hkdf::derive_key(master, b"lcm-aead", b"mac-subkey");
        AeadKey {
            enc: *enc.as_bytes(),
            mac: HmacSha256::new(mac.as_bytes()),
        }
    }
}

/// Encrypts and authenticates `plaintext`, binding `aad` into the tag.
///
/// Returns `nonce ‖ ciphertext ‖ tag`. A fresh random 96-bit nonce is
/// drawn from the OS RNG per call.
///
/// # Errors
///
/// Returns [`CryptoError::NonceExhausted`] only for plaintexts so large
/// they would overflow the ChaCha20 block counter (≈ 256 GiB).
pub fn auth_encrypt(key: &AeadKey, plaintext: &[u8], aad: &[u8]) -> Result<Vec<u8>> {
    let mut nonce = [0u8; NONCE_LEN];
    rand::thread_rng().fill_bytes(&mut nonce);
    auth_encrypt_with_nonce(key, &nonce, plaintext, aad)
}

/// Deterministic-nonce variant of [`auth_encrypt`], used by tests and by
/// the TEE simulator's deterministic mode.
///
/// # Errors
///
/// Same as [`auth_encrypt`]. Reusing a nonce under the same key destroys
/// confidentiality; callers other than tests should prefer
/// [`auth_encrypt`].
pub fn auth_encrypt_with_nonce(
    key: &AeadKey,
    nonce: &[u8; NONCE_LEN],
    plaintext: &[u8],
    aad: &[u8],
) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len() + TAG_LEN);
    out.extend_from_slice(nonce);
    out.extend_from_slice(plaintext);
    chacha20::xor_keystream(&key.enc, nonce, 1, &mut out[NONCE_LEN..])?;

    let tag = compute_tag(key, nonce, &out[NONCE_LEN..], aad);
    out.extend_from_slice(&tag);
    Ok(out)
}

/// Verifies and decrypts a blob produced by [`auth_encrypt`].
///
/// # Errors
///
/// Returns [`CryptoError::AuthenticationFailed`] when the blob is
/// malformed, the tag does not verify, or `aad` differs from the value
/// used at encryption time.
pub fn auth_decrypt(key: &AeadKey, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>> {
    if sealed.len() < MIN_SEALED_LEN {
        return Err(CryptoError::AuthenticationFailed);
    }
    let (nonce_bytes, rest) = sealed.split_at(NONCE_LEN);
    let (ciphertext, tag) = rest.split_at(rest.len() - TAG_LEN);
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(nonce_bytes);

    let expected = compute_tag(key, &nonce, ciphertext, aad);
    if !crate::ct::ct_eq(&expected, tag) {
        return Err(CryptoError::AuthenticationFailed);
    }

    let mut plaintext = ciphertext.to_vec();
    chacha20::xor_keystream(&key.enc, &nonce, 1, &mut plaintext)?;
    Ok(plaintext)
}

fn compute_tag(
    key: &AeadKey,
    nonce: &[u8; NONCE_LEN],
    ciphertext: &[u8],
    aad: &[u8],
) -> [u8; TAG_LEN] {
    let mut mac = key.mac.clone();
    mac.update(aad);
    mac.update(nonce);
    mac.update(ciphertext);
    // Unambiguous framing: append the AAD length so (aad, ciphertext)
    // splits cannot collide.
    mac.update(&(aad.len() as u64).to_be_bytes());
    mac.update(&(ciphertext.len() as u64).to_be_bytes());
    mac.finalize().0
}

/// A sealed blob paired with the associated data label it was bound to.
///
/// Higher layers (TEE sealing, protocol state blobs) use this as a
/// self-describing container in [`serde`]-encoded form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedBox {
    /// Domain-separation label bound as associated data.
    pub label: String,
    /// `nonce ‖ ciphertext ‖ tag` as produced by [`auth_encrypt`].
    pub blob: Vec<u8>,
}

impl SealedBox {
    /// Seals `plaintext` under `key`, binding `label` as associated data.
    ///
    /// # Errors
    ///
    /// Propagates [`auth_encrypt`] errors.
    pub fn seal(key: &AeadKey, label: &str, plaintext: &[u8]) -> Result<Self> {
        Ok(SealedBox {
            label: label.to_owned(),
            blob: auth_encrypt(key, plaintext, label.as_bytes())?,
        })
    }

    /// Opens the box, verifying both the tag and that `label` matches
    /// the label the box was sealed under.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AuthenticationFailed`] on any mismatch.
    pub fn open(&self, key: &AeadKey, label: &str) -> Result<Vec<u8>> {
        if self.label != label {
            return Err(CryptoError::AuthenticationFailed);
        }
        auth_decrypt(key, &self.blob, label.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> AeadKey {
        AeadKey::from_secret(&SecretKey::from_bytes([0x11; 32]))
    }

    #[test]
    fn cached_midstates_match_hmac_from_scratch() {
        let master = SecretKey::from_bytes([0x11; 32]);
        let mac_subkey = hkdf::derive_key(&master, b"lcm-aead", b"mac-subkey");
        let nonce = [3u8; NONCE_LEN];
        for (aad, ct) in [(&b""[..], &b""[..]), (b"lcm.invoke", &[0xc3; 145])] {
            let mut framed = Vec::new();
            framed.extend_from_slice(aad);
            framed.extend_from_slice(&nonce);
            framed.extend_from_slice(ct);
            framed.extend_from_slice(&(aad.len() as u64).to_be_bytes());
            framed.extend_from_slice(&(ct.len() as u64).to_be_bytes());
            assert_eq!(
                compute_tag(&key(), &nonce, ct, aad),
                crate::hmac::hmac_sha256(mac_subkey.as_bytes(), &framed).0
            );
        }
    }

    #[test]
    fn key_equality_and_redaction() {
        let other = AeadKey::from_secret(&SecretKey::from_bytes([0x22; 32]));
        assert_eq!(key(), key());
        assert_eq!(key(), key().clone());
        assert_ne!(key(), other);
        assert_eq!(format!("{:?}", key()), "AeadKey(<redacted>)");
    }

    #[test]
    fn roundtrip() {
        let sealed = auth_encrypt(&key(), b"hello world", b"aad").unwrap();
        let opened = auth_decrypt(&key(), &sealed, b"aad").unwrap();
        assert_eq!(opened, b"hello world");
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let sealed = auth_encrypt(&key(), b"", b"aad").unwrap();
        assert_eq!(sealed.len(), MIN_SEALED_LEN);
        assert_eq!(auth_decrypt(&key(), &sealed, b"aad").unwrap(), b"");
    }

    #[test]
    fn tamper_ciphertext_detected() {
        let mut sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        sealed[NONCE_LEN] ^= 0x01;
        assert_eq!(
            auth_decrypt(&key(), &sealed, b""),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tamper_tag_detected() {
        let mut sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert!(auth_decrypt(&key(), &sealed, b"").is_err());
    }

    #[test]
    fn tamper_nonce_detected() {
        let mut sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        sealed[0] ^= 0xff;
        assert!(auth_decrypt(&key(), &sealed, b"").is_err());
    }

    #[test]
    fn wrong_aad_detected() {
        let sealed = auth_encrypt(&key(), b"payload", b"context-a").unwrap();
        assert!(auth_decrypt(&key(), &sealed, b"context-b").is_err());
    }

    #[test]
    fn wrong_key_detected() {
        let sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        let other = AeadKey::from_secret(&SecretKey::from_bytes([0x22; 32]));
        assert!(auth_decrypt(&other, &sealed, b"").is_err());
    }

    #[test]
    fn truncated_blob_rejected() {
        let sealed = auth_encrypt(&key(), b"payload", b"").unwrap();
        for cut in [0, 1, NONCE_LEN, MIN_SEALED_LEN - 1] {
            assert!(
                auth_decrypt(&key(), &sealed[..cut], b"").is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn nonces_are_fresh() {
        let a = auth_encrypt(&key(), b"same", b"").unwrap();
        let b = auth_encrypt(&key(), b"same", b"").unwrap();
        assert_ne!(a, b, "two encryptions of the same message must differ");
    }

    #[test]
    fn deterministic_nonce_variant_is_reproducible() {
        let nonce = [7u8; NONCE_LEN];
        let a = auth_encrypt_with_nonce(&key(), &nonce, b"x", b"y").unwrap();
        let b = auth_encrypt_with_nonce(&key(), &nonce, b"x", b"y").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn aad_ciphertext_framing_is_unambiguous() {
        // (aad="ab", pt="c...") and (aad="a", pt="bc...") must not produce
        // interchangeable tags even with an attacker-chosen split.
        let nonce = [9u8; NONCE_LEN];
        let sealed = auth_encrypt_with_nonce(&key(), &nonce, b"xyz", b"ab").unwrap();
        assert!(auth_decrypt(&key(), &sealed, b"a").is_err());
    }

    #[test]
    fn sealed_box_roundtrip() {
        let boxed = SealedBox::seal(&key(), "state-blob", b"contents").unwrap();
        assert_eq!(boxed.open(&key(), "state-blob").unwrap(), b"contents");
    }

    #[test]
    fn sealed_box_label_mismatch() {
        let boxed = SealedBox::seal(&key(), "state-blob", b"contents").unwrap();
        assert!(boxed.open(&key(), "other-label").is_err());
    }

    #[test]
    fn sealed_box_label_swap_attack() {
        // Swapping the declared label to match the open() call must still
        // fail because the original label is bound into the AAD.
        let mut boxed = SealedBox::seal(&key(), "state-blob", b"contents").unwrap();
        boxed.label = "other-label".to_owned();
        assert!(boxed.open(&key(), "other-label").is_err());
    }

    #[test]
    fn large_payload_roundtrip() {
        let payload = vec![0xa5u8; 1 << 16];
        let sealed = auth_encrypt(&key(), &payload, b"big").unwrap();
        assert_eq!(auth_decrypt(&key(), &sealed, b"big").unwrap(), payload);
    }
}
