//! Error type for the cryptographic substrate.

use std::fmt;

/// Errors produced by the crypto substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Authentication tag verification failed (ciphertext was tampered with
    /// or the wrong key was used).
    AuthenticationFailed,
    /// A sealed box is not nonce + tag + as many bytes as the plaintext
    /// buffer it is opened into.
    CiphertextLength,
    /// HKDF output length request exceeded the RFC 5869 limit (255 blocks).
    OutputTooLong,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "authentication tag mismatch"),
            CryptoError::CiphertextLength => write!(f, "sealed box has the wrong length"),
            CryptoError::OutputTooLong => write!(f, "requested HKDF output is too long"),
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CryptoError::AuthenticationFailed
            .to_string()
            .contains("tag"));
        assert!(CryptoError::CiphertextLength.to_string().contains("length"));
        assert!(CryptoError::OutputTooLong.to_string().contains("HKDF"));
    }
}
