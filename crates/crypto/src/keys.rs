//! Group key hierarchy.
//!
//! The collaboration scenario of Section 2 assigns every document to a group;
//! only members of the group may decrypt its posting elements.  This module
//! derives per-group keys from a master secret with HKDF:
//! one ChaCha20-Poly1305 key per group, used to seal posting-element payloads.  A
//! compromised index server therefore sees only ciphertexts; group members
//! holding the group secret can decrypt and filter.

use crate::aead::AeadKey;
use crate::hkdf::derive_key32;

/// The master secret of an enterprise deployment.
#[derive(Clone)]
pub struct MasterKey {
    secret: [u8; 32],
}

impl std::fmt::Debug for MasterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MasterKey(..)")
    }
}

impl MasterKey {
    /// Wraps raw key material.
    pub fn new(secret: [u8; 32]) -> Self {
        MasterKey { secret }
    }

    /// Derives a master key from a passphrase (iterated, salted hashing; this
    /// reproduction does not aim for password-hardening guarantees, only for
    /// deterministic key material).
    pub fn from_passphrase(passphrase: &str, salt: &[u8]) -> Self {
        let mut state = derive_key32(salt, passphrase.as_bytes(), b"zerber/master/v1");
        for _ in 0..1024 {
            state = derive_key32(salt, &state, b"zerber/master/stretch");
        }
        MasterKey { secret: state }
    }

    /// Derives the key set of one collaboration group.
    pub fn group_keys(&self, group: u32) -> GroupKeys {
        let info = format!("zerber/group/{group}/enc");
        let key = derive_key32(b"zerber-salt", &self.secret, info.as_bytes());
        GroupKeys {
            group,
            aead: AeadKey::new(key),
        }
    }
}

/// Key material shared by the members of one group.
#[derive(Clone)]
pub struct GroupKeys {
    group: u32,
    aead: AeadKey,
}

impl std::fmt::Debug for GroupKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GroupKeys(group={}, ..)", self.group)
    }
}

impl GroupKeys {
    /// The group these keys belong to.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// The AEAD key for sealing posting-element payloads.
    pub fn aead(&self) -> &AeadKey {
        &self.aead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master() -> MasterKey {
        MasterKey::new([0xA5; 32])
    }

    #[test]
    fn group_keys_are_deterministic_and_distinct() {
        let m = master();
        let g0a = m.group_keys(0);
        let g0b = m.group_keys(0);
        let g1 = m.group_keys(1);
        let sealed_a = g0a.aead().seal(&[0u8; 12], b"x", b"");
        let sealed_b = g0b.aead().seal(&[0u8; 12], b"x", b"");
        assert_eq!(sealed_a, sealed_b, "same group, same keys");
        assert!(
            g1.aead().open(&sealed_a, b"", &mut [0u8; 1]).is_err(),
            "other group cannot decrypt"
        );
        assert_eq!(g0a.group(), 0);
        assert_eq!(g1.group(), 1);
    }

    #[test]
    fn passphrase_derivation_is_deterministic_and_salted() {
        let a = MasterKey::from_passphrase("pcc advisory board", b"salt-1");
        let b = MasterKey::from_passphrase("pcc advisory board", b"salt-1");
        let c = MasterKey::from_passphrase("pcc advisory board", b"salt-2");
        let seal = |m: &MasterKey| m.group_keys(0).aead().seal(&[0u8; 12], b"x", b"");
        assert_eq!(seal(&a), seal(&b));
        assert_ne!(seal(&a), seal(&c));
    }

    #[test]
    fn debug_output_hides_secrets() {
        let m = master();
        assert_eq!(format!("{m:?}"), "MasterKey(..)");
        let g = m.group_keys(9);
        assert!(format!("{g:?}").contains("group=9"));
        assert!(!format!("{g:?}").contains("a5"));
    }
}
